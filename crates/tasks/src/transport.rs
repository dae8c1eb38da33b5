//! Pluggable worker transports for the remote scheduler.
//!
//! The [`crate::remote`] coordinator speaks the CRC-framed wire
//! protocol of [`crate::wire`] over a byte stream per worker. This
//! module abstracts *which* byte stream:
//!
//! * [`TransportKind::Pipe`] — the original stdin/stdout pipe pair of
//!   a spawned child process. A lost pipe means a dead process, so
//!   there is no reconnect: supervision reaps and respawns.
//! * [`TransportKind::Tcp`] — the coordinator binds a loopback
//!   listener and workers dial in (`simart worker --connect
//!   HOST:PORT`). The connection can die while the process lives, so
//!   the Hello handshake carries a session token and a worker that
//!   loses its connection redials with capped exponential backoff and
//!   resumes its session under the same lease.
//!
//! Determinism under chaos rides on top: [`ChaosWriter`] and
//! [`ChaosReader`] wrap a connection's halves and replay the
//! [`FaultInjector`]'s seeded network-fault
//! stream — injected latency, byte corruption, silent one-way
//! partitions, connection resets, and arbitrary read re-chunking —
//! so a `--partition-rate` campaign reproduces its exact fault
//! schedule from `--seed`.

use crate::fault::{FaultInjector, NetFault};
use crate::remote::WorkerCommand;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::Child;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Environment variable carrying the session token a TCP worker
/// presents in its [`Hello`](crate::wire::Message::Hello) so the
/// coordinator can match the connection to its slot (and a
/// reconnecting worker to its previous session).
pub const WORKER_SESSION_ENV: &str = "SIMART_WORKER_SESSION";

/// Which byte stream the remote scheduler runs the wire protocol
/// over. See the module docs for the behavioral differences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// stdin/stdout pipes of the spawned worker process (the
    /// original, default transport).
    #[default]
    Pipe,
    /// A loopback TCP listener workers dial into, with session-resume
    /// reconnects.
    Tcp,
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportKind::Pipe => f.write_str("pipe"),
            TransportKind::Tcp => f.write_str("tcp"),
        }
    }
}

impl std::str::FromStr for TransportKind {
    type Err = String;

    fn from_str(s: &str) -> Result<TransportKind, String> {
        match s {
            "pipe" => Ok(TransportKind::Pipe),
            "tcp" => Ok(TransportKind::Tcp),
            other => Err(format!("unknown transport `{other}` (expected pipe|tcp)")),
        }
    }
}

/// A session's lifetime chaos-frame counter, shared by the
/// [`ChaosWriter`] of each of its connections.
pub(crate) type SessionFrames = Arc<AtomicU64>;

/// A connected worker byte stream: a reader half for the coordinator's
/// per-worker reader thread and a writer half for dispatch frames.
/// `stream` is the severing capability: present for TCP (so the
/// coordinator can set read timeouts and force-shutdown the socket),
/// absent for pipes.
pub(crate) struct Duplex {
    pub(crate) reader: Box<dyn Read + Send>,
    pub(crate) writer: Box<dyn Write + Send>,
    pub(crate) stream: Option<TcpStream>,
}

/// Coordinator-side transport: how worker processes are launched and
/// how their byte streams arrive.
pub(crate) trait Transport: Send + Sync {
    /// The bound listener address, when there is one to advertise.
    fn listen_addr(&self) -> Option<SocketAddr>;

    /// Launches a worker process for `session`. Pipe transports
    /// return the connected duplex immediately; joining transports
    /// return `None` and the connection arrives later via
    /// [`Transport::poll_join`].
    fn spawn(&self, command: &WorkerCommand, session: u64) -> io::Result<(Child, Option<Duplex>)>;

    /// Non-blocking poll for a newly joined connection (TCP accept).
    fn poll_join(&self) -> Option<Duplex>;

    /// Whether connections join out-of-band (and may rejoin after a
    /// loss) rather than being bound to the process at spawn.
    fn joins(&self) -> bool;

    /// Closes the listener: no further joins are accepted and the
    /// bound port is released.
    fn close(&self);
}

/// Builds the transport for `kind`, binding the TCP listener up front
/// so spawn-time workers already have an address to dial.
pub(crate) fn make_transport(kind: TransportKind) -> io::Result<Box<dyn Transport>> {
    match kind {
        TransportKind::Pipe => Ok(Box::new(PipeTransport)),
        TransportKind::Tcp => {
            let listener = TcpListener::bind(("127.0.0.1", 0))?;
            listener.set_nonblocking(true)?;
            let addr = listener.local_addr()?;
            Ok(Box::new(TcpTransport {
                listener: Mutex::new(Some(listener)),
                addr,
            }))
        }
    }
}

/// The original transport: worker stdin/stdout pipes. Connection
/// lifetime equals process lifetime, so `poll_join` never yields.
pub(crate) struct PipeTransport;

impl Transport for PipeTransport {
    fn listen_addr(&self) -> Option<SocketAddr> {
        None
    }

    fn spawn(&self, command: &WorkerCommand, _session: u64) -> io::Result<(Child, Option<Duplex>)> {
        let mut child = command.spawn_piped()?;
        let stdin = child.stdin.take().expect("worker stdin is piped");
        let stdout = child.stdout.take().expect("worker stdout is piped");
        Ok((
            child,
            Some(Duplex {
                reader: Box::new(stdout),
                writer: Box::new(stdin),
                stream: None,
            }),
        ))
    }

    fn poll_join(&self) -> Option<Duplex> {
        None
    }

    fn joins(&self) -> bool {
        false
    }

    fn close(&self) {}
}

/// Loopback TCP transport: workers dial the bound listener and
/// (re)join with a session token.
pub(crate) struct TcpTransport {
    listener: Mutex<Option<TcpListener>>,
    addr: SocketAddr,
}

impl Transport for TcpTransport {
    fn listen_addr(&self) -> Option<SocketAddr> {
        Some(self.addr)
    }

    fn spawn(&self, command: &WorkerCommand, session: u64) -> io::Result<(Child, Option<Duplex>)> {
        let child = command.spawn_connected(&self.addr.to_string(), session)?;
        Ok((child, None))
    }

    fn poll_join(&self) -> Option<Duplex> {
        let guard = self
            .listener
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let listener = guard.as_ref()?;
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                let reader = stream.try_clone().ok()?;
                let writer = stream.try_clone().ok()?;
                Some(Duplex {
                    reader: Box::new(reader),
                    writer: Box::new(writer),
                    stream: Some(stream),
                })
            }
            Err(_) => None,
        }
    }

    fn joins(&self) -> bool {
        true
    }

    fn close(&self) {
        self.listener
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .take();
    }
}

/// Deterministic chaos on the coordinator's *write* half of a worker
/// connection. Bytes are buffered until `flush` — the coordinator
/// writes exactly one frame per `write_all` + `flush` pair — and each
/// flushed frame consults the injector's seeded network stream:
///
/// * [`NetFault::Latency`] sleeps before sending (frame delay);
/// * [`NetFault::Corrupt`] flips one bit mid-frame (the worker's CRC
///   check reads it as a torn frame);
/// * [`NetFault::Partition`] silently drops the frame (a one-way
///   partition: the write "succeeds" but nothing arrives);
/// * [`NetFault::Reset`] severs the underlying socket and fails the
///   write (connection reset; the worker redials and resumes).
///
/// The draw counter is the session's *lifetime* frame number — shared
/// across every connection of the session via [`share_frames`] — so
/// the fault schedule is a pure function of `(seed, session, frame)`
/// and a reconnect continues the stream instead of replaying it. (A
/// counter that restarted at zero per connection would make a fault
/// drawn for frame 0 doom the session's handshake on every redial.)
///
/// [`share_frames`]: ChaosWriter::share_frames
pub struct ChaosWriter<W: Write> {
    inner: W,
    /// Socket to shut down on an injected reset (`None` in tests that
    /// chaos a plain buffer).
    sever: Option<TcpStream>,
    injector: Arc<FaultInjector>,
    session: u64,
    frames: Arc<AtomicU64>,
    buf: Vec<u8>,
    dead: bool,
}

impl<W: Write> ChaosWriter<W> {
    /// Wraps `inner`, drawing faults from `injector`'s network stream
    /// for `session`. `sever` is the socket to kill on a reset.
    pub fn new(
        inner: W,
        sever: Option<TcpStream>,
        injector: Arc<FaultInjector>,
        session: u64,
    ) -> ChaosWriter<W> {
        ChaosWriter {
            inner,
            sever,
            injector,
            session,
            frames: Arc::new(AtomicU64::new(0)),
            buf: Vec::new(),
            dead: false,
        }
    }

    /// Draws frame numbers from `frames` instead of a private counter,
    /// so successive connections of one session continue the session's
    /// fault stream across reconnects.
    pub fn share_frames(mut self, frames: &Arc<AtomicU64>) -> ChaosWriter<W> {
        self.frames = Arc::clone(frames);
        self
    }
}

impl<W: Write> Write for ChaosWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.dead {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "chaos: connection reset",
            ));
        }
        self.buf.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.dead {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "chaos: connection reset",
            ));
        }
        if self.buf.is_empty() {
            return self.inner.flush();
        }
        let frame = self.frames.fetch_add(1, Ordering::SeqCst);
        match self.injector.take_net_fault(self.session, frame) {
            Some(NetFault::Latency(delay)) => std::thread::sleep(delay),
            Some(NetFault::Corrupt) => {
                let mid = self.buf.len() / 2;
                self.buf[mid] ^= 0x40;
            }
            Some(NetFault::Partition) => {
                // One-way partition: the frame vanishes in flight but
                // the local write appears to succeed.
                self.buf.clear();
                return Ok(());
            }
            Some(NetFault::Reset) => {
                self.buf.clear();
                self.dead = true;
                if let Some(stream) = self.sever.as_ref() {
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                }
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "chaos: connection reset",
                ));
            }
            None => {}
        }
        let bytes = std::mem::take(&mut self.buf);
        self.inner.write_all(&bytes)?;
        self.inner.flush()
    }
}

/// Deterministic re-chunking on the coordinator's *read* half: each
/// `read` is capped to a seeded length from the injector's chunk
/// stream, so frames arrive split at arbitrary byte boundaries and
/// the [`FrameDecoder`](crate::wire::FrameDecoder)'s buffering is
/// exercised exactly the same way on every same-seed run.
pub struct ChaosReader<R: Read> {
    inner: R,
    injector: Arc<FaultInjector>,
    session: u64,
    reads: u64,
}

impl<R: Read> ChaosReader<R> {
    /// Wraps `inner`, drawing chunk lengths from `injector`'s network
    /// stream for `session`.
    pub fn new(inner: R, injector: Arc<FaultInjector>, session: u64) -> ChaosReader<R> {
        ChaosReader {
            inner,
            injector,
            session,
            reads: 0,
        }
    }
}

impl<R: Read> Read for ChaosReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let read = self.reads;
        self.reads += 1;
        let cap = self.injector.net_chunk_len(self.session, read, buf.len());
        self.inner.read(&mut buf[..cap])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{FrameDecoder, Message};
    use std::time::Duration;

    fn frame() -> Vec<u8> {
        Message::Drain.to_frame()
    }

    #[test]
    fn transport_kind_parses_and_displays() {
        assert_eq!(
            "pipe".parse::<TransportKind>().unwrap(),
            TransportKind::Pipe
        );
        assert_eq!("tcp".parse::<TransportKind>().unwrap(), TransportKind::Tcp);
        assert!("carrier-pigeon".parse::<TransportKind>().is_err());
        assert_eq!(TransportKind::Tcp.to_string(), "tcp");
        assert_eq!(TransportKind::default(), TransportKind::Pipe);
    }

    #[test]
    fn tcp_transport_accepts_joins_until_closed() {
        let transport = make_transport(TransportKind::Tcp).unwrap();
        let addr = transport.listen_addr().unwrap();
        assert!(transport.joins());
        assert!(transport.poll_join().is_none(), "no one dialed yet");
        let client = TcpStream::connect(addr).unwrap();
        let duplex = loop {
            if let Some(duplex) = transport.poll_join() {
                break duplex;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        assert!(duplex.stream.is_some(), "tcp duplex carries its socket");
        drop(client);
        transport.close();
        assert!(transport.poll_join().is_none());
        assert!(
            TcpStream::connect(addr).is_err(),
            "closed listener released the port"
        );
    }

    #[test]
    fn chaos_partition_drops_exactly_the_drawn_frames() {
        // Rate 1.0: every frame partitions — writes succeed, nothing
        // arrives.
        let injector = Arc::new(FaultInjector::new(11).net_partitions(1.0));
        let mut sink = Vec::new();
        {
            let mut writer = ChaosWriter::new(&mut sink, None, Arc::clone(&injector), 5);
            for _ in 0..4 {
                writer.write_all(&frame()).unwrap();
                writer.flush().unwrap();
            }
        }
        assert!(sink.is_empty(), "partitioned frames never arrive");
        assert_eq!(injector.injected_partitions(), 4);
    }

    #[test]
    fn chaos_corruption_breaks_the_crc_not_the_stream() {
        let injector = Arc::new(FaultInjector::new(11).net_corruption(1.0));
        let mut sink = Vec::new();
        {
            let mut writer = ChaosWriter::new(&mut sink, None, Arc::clone(&injector), 5);
            writer.write_all(&frame()).unwrap();
            writer.flush().unwrap();
        }
        assert_eq!(sink.len(), frame().len(), "corrupt frames still arrive");
        let mut decoder = FrameDecoder::new();
        decoder.feed(&sink);
        assert!(
            decoder.next_frame().is_err(),
            "one flipped bit fails the CRC"
        );
        assert_eq!(injector.injected_corruptions(), 1);
    }

    #[test]
    fn chaos_reset_severs_the_writer() {
        let injector = Arc::new(FaultInjector::new(11).net_resets(1.0));
        let mut sink = Vec::new();
        let mut writer = ChaosWriter::new(&mut sink, None, Arc::clone(&injector), 5);
        writer.write_all(&frame()).unwrap();
        assert!(writer.flush().is_err(), "reset fails the flush");
        assert!(
            writer.write_all(&frame()).is_err(),
            "a reset connection stays dead"
        );
        assert_eq!(injector.injected_resets(), 1);
    }

    #[test]
    fn shared_frame_counter_survives_reconnects() {
        // Find a seed where the session's frame 0 draws a partition
        // but frame 1 draws nothing: the first handshake frame is
        // doomed exactly once.
        let session = 3;
        let injector = (0u64..)
            .find_map(|seed| {
                let probe = FaultInjector::new(seed).net_partitions(0.5);
                (matches!(probe.take_net_fault(session, 0), Some(NetFault::Partition))
                    && probe.take_net_fault(session, 1).is_none())
                .then(|| Arc::new(FaultInjector::new(seed).net_partitions(0.5)))
            })
            .unwrap();
        let frames = Arc::new(AtomicU64::new(0));
        let mut sink = Vec::new();
        {
            let mut writer = ChaosWriter::new(&mut sink, None, Arc::clone(&injector), session)
                .share_frames(&frames);
            writer.write_all(&frame()).unwrap();
            writer.flush().unwrap();
        }
        assert!(sink.is_empty(), "frame 0 partitions");
        // Reconnect: a fresh writer sharing the counter draws frame 1,
        // so the retried frame goes through instead of replaying the
        // doomed draw forever.
        let mut sink = Vec::new();
        {
            let mut writer = ChaosWriter::new(&mut sink, None, Arc::clone(&injector), session)
                .share_frames(&frames);
            writer.write_all(&frame()).unwrap();
            writer.flush().unwrap();
        }
        assert_eq!(sink.len(), frame().len(), "the retry is not doomed");
        assert_eq!(frames.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn chaos_reader_rechunks_deterministically() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let chunks_of = |seed: u64| {
            let injector = Arc::new(FaultInjector::new(seed).net_partitions(0.1));
            let mut reader = ChaosReader::new(&payload[..], injector, 9);
            let mut out = Vec::new();
            let mut sizes = Vec::new();
            let mut buf = [0u8; 1024];
            loop {
                let n = reader.read(&mut buf).unwrap();
                if n == 0 {
                    break;
                }
                sizes.push(n);
                out.extend_from_slice(&buf[..n]);
            }
            (out, sizes)
        };
        let (out_a, sizes_a) = chunks_of(41);
        let (out_b, sizes_b) = chunks_of(41);
        let (_, sizes_c) = chunks_of(42);
        assert_eq!(out_a, payload, "re-chunking never loses bytes");
        assert_eq!(out_a, out_b, "same seed, same bytes");
        assert_eq!(sizes_a, sizes_b, "same seed, same chunk schedule");
        assert_ne!(sizes_a, sizes_c, "different seed, different schedule");
        assert!(
            sizes_a.iter().any(|&n| n < 1024),
            "chunking actually splits reads"
        );
    }
}
