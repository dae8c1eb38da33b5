//! The coordinator ↔ worker wire protocol for the remote scheduler.
//!
//! Messages travel over pipes and sockets as [`simart_codec::frame`]
//! records — byte-for-byte the record format of the database journal,
//! reused here because its torn-tail discipline is exactly what a
//! crash-prone byte stream needs. The payload of each frame is one
//! compact JSON object with a `"type"` field, written and parsed by
//! [`simart_codec::json`].
//!
//! [`FrameDecoder`] buffers an incoming byte stream and yields whole
//! payloads: a *short* frame (stream ends mid-record) is simply "not
//! yet" — never an error — while a frame whose CRC or length field is
//! corrupt is a hard [`WireError`] that the coordinator answers by
//! killing and respawning the worker on the other end. The same
//! prefix-tolerance property the journal proves for crashed writers
//! holds here for torn pipes: every byte-boundary truncation of a
//! valid frame decodes to "incomplete", not garbage (see the fuzz
//! test below).

use simart_codec::frame::{self, encode_frame, Frame, MAX_FRAME_LEN};
use simart_codec::{json, Value};
use simart_observe as observe;
use std::fmt;
use std::io::Read;

/// Protocol version spoken by this build. A worker whose
/// [`Message::Hello`] carries a different version is rejected during
/// the handshake — mixed-version coordinator/worker pairs must not
/// exchange task frames.
pub const PROTOCOL_VERSION: u64 = 1;

/// Wire-level decode failures. Short frames are *not* errors (the
/// decoder just waits for more bytes); these are genuine corruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The CRC-32 over the payload did not match the frame header.
    BadCrc {
        /// CRC stored in the frame header.
        expected: u32,
        /// CRC computed over the received payload.
        actual: u32,
    },
    /// The length field exceeds [`MAX_FRAME_LEN`].
    BadLength(u64),
    /// The payload was not a well-formed protocol message.
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadCrc { expected, actual } => {
                write!(
                    f,
                    "frame crc mismatch (header {expected:#010x}, payload {actual:#010x})"
                )
            }
            WireError::BadLength(len) => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            WireError::Malformed(why) => write!(f, "malformed message: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Incremental frame decoder over a byte stream.
///
/// Feed arbitrary chunks with [`FrameDecoder::feed`]; pull complete
/// payloads with [`FrameDecoder::next_frame`]. Incomplete trailing
/// bytes are held until more arrive — mirroring the journal reader,
/// which stops cleanly at a torn tail instead of erroring.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends received bytes to the internal buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact consumed prefix before it grows unbounded.
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Yields the next complete payload, `None` when the buffer holds
    /// only a frame prefix, or an error on corruption. After an error
    /// the stream is unusable — the caller should drop the connection.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        match frame::next_frame(&self.buf[self.pos..]) {
            Frame::Complete { payload, consumed } => {
                let payload = payload.to_vec();
                self.pos += consumed;
                Ok(Some(payload))
            }
            Frame::Incomplete => Ok(None),
            Frame::BadCrc { expected, actual } => Err(WireError::BadCrc { expected, actual }),
            Frame::BadLength(len) => Err(WireError::BadLength(u64::from(len))),
        }
    }
}

/// A protocol message. The lifecycle of one task delivery is
/// `Dispatch` → (`Heartbeat`…) → `TaskResult`; the session brackets
/// are `Hello`/`HelloAck` at spawn and `Drain`/`Bye` at graceful
/// shutdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Worker → coordinator, first message after spawn (and, over
    /// reconnecting transports, after every fresh connection).
    Hello {
        /// Protocol version the worker speaks.
        protocol: u64,
        /// The worker's OS process id.
        pid: u64,
        /// Session token. `0` on a worker's first connection (the
        /// coordinator assigns one in [`Message::HelloAck`]); a
        /// reconnecting worker echoes its token so the coordinator
        /// can resume the session instead of treating the connection
        /// as a stranger. Pre-session peers simply omit the field —
        /// it decodes as `0`.
        session: u64,
    },
    /// Coordinator → worker handshake completion.
    HelloAck {
        /// Generation the coordinator assigned this worker process
        /// (bumped on every respawn; stamps results so stale
        /// generations are recognizable).
        generation: u64,
        /// Interval at which the worker must send [`Message::Heartbeat`].
        heartbeat_ms: u64,
        /// Session token the coordinator assigned (stable across
        /// reconnects of the same worker; echoed in the worker's next
        /// [`Message::Hello`]). `0` from pre-session coordinators.
        session: u64,
    },
    /// Coordinator → worker task delivery.
    Dispatch {
        /// Coordinator-unique job id.
        job: u64,
        /// 1-based delivery number (`> 1` means redelivered).
        delivery: u64,
        /// Generation of the worker the job was dispatched to.
        generation: u64,
        /// Task name (for provenance and logs).
        name: String,
        /// Handler kind the worker resolves in its registry.
        kind: String,
        /// Opaque serialized task input.
        payload: String,
        /// Task timeout in milliseconds, `0` for none.
        timeout_ms: u64,
    },
    /// Worker → coordinator liveness beacon.
    Heartbeat {
        /// The worker's OS process id.
        pid: u64,
        /// Job id currently executing, `0` when idle.
        busy: u64,
    },
    /// Worker → coordinator result/ack for a dispatch.
    TaskResult {
        /// Job id from the dispatch.
        job: u64,
        /// Delivery number from the dispatch.
        delivery: u64,
        /// Generation from the handshake (stale-generation detection).
        generation: u64,
        /// Whether the handler succeeded.
        ok: bool,
        /// Handler output on success.
        output: String,
        /// Handler error on failure.
        error: String,
    },
    /// Coordinator → worker: finish the current task (if any), say
    /// [`Message::Bye`], and exit.
    Drain,
    /// Worker → coordinator: graceful exit imminent.
    Bye {
        /// The worker's OS process id.
        pid: u64,
    },
}

impl Message {
    /// Serializes the message to its JSON payload (unframed): one
    /// object, `"type"` first, then the fields in declaration order.
    pub fn encode(&self) -> Vec<u8> {
        let fields = self.fields();
        json::object_to_json(fields.iter().map(|(key, value)| (*key, value))).into_bytes()
    }

    /// The message framed and ready to write to a pipe, counted on
    /// `wire.frames` / `wire.frame_bytes`.
    pub fn to_frame(&self) -> Vec<u8> {
        let frame = encode_frame(&self.encode());
        count_frame(frame.len());
        frame
    }

    fn fields(&self) -> Vec<(&'static str, Value)> {
        let text = |s: &str| Value::from(s);
        // The document model's integer is an i64. Every number the
        // protocol carries in practice (pids, counters, milliseconds)
        // fits and keeps the digits it always had; a u64 beyond
        // `i64::MAX` travels as its two's-complement bit pattern and
        // `decode` reads it back exactly.
        let num = |n: &u64| Value::Int(*n as i64);
        match self {
            Message::Hello {
                protocol,
                pid,
                session,
            } => vec![
                ("type", text("hello")),
                ("protocol", num(protocol)),
                ("pid", num(pid)),
                ("session", num(session)),
            ],
            Message::HelloAck {
                generation,
                heartbeat_ms,
                session,
            } => vec![
                ("type", text("hello-ack")),
                ("generation", num(generation)),
                ("heartbeatMs", num(heartbeat_ms)),
                ("session", num(session)),
            ],
            Message::Dispatch {
                job,
                delivery,
                generation,
                name,
                kind,
                payload,
                timeout_ms,
            } => vec![
                ("type", text("dispatch")),
                ("job", num(job)),
                ("delivery", num(delivery)),
                ("generation", num(generation)),
                ("name", text(name)),
                ("kind", text(kind)),
                ("payload", text(payload)),
                ("timeoutMs", num(timeout_ms)),
            ],
            Message::Heartbeat { pid, busy } => vec![
                ("type", text("heartbeat")),
                ("pid", num(pid)),
                ("busy", num(busy)),
            ],
            Message::TaskResult {
                job,
                delivery,
                generation,
                ok,
                output,
                error,
            } => vec![
                ("type", text("result")),
                ("job", num(job)),
                ("delivery", num(delivery)),
                ("generation", num(generation)),
                ("ok", Value::Bool(*ok)),
                ("output", text(output)),
                ("error", text(error)),
            ],
            Message::Drain => vec![("type", text("drain"))],
            Message::Bye { pid } => vec![("type", text("bye")), ("pid", num(pid))],
        }
    }

    /// Parses a JSON payload back into a message.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] when the payload is not a JSON object,
    /// the `type` is unknown, or a required field is missing or of the
    /// wrong type.
    pub fn decode(payload: &[u8]) -> Result<Message, WireError> {
        let malformed = WireError::Malformed;
        let text = std::str::from_utf8(payload)
            .map_err(|_| malformed("payload is not utf-8".to_owned()))?;
        let doc = json::from_json(text).map_err(|e| malformed(e.to_string()))?;
        let fields = doc
            .as_map()
            .ok_or_else(|| malformed("expected a JSON object".to_owned()))?;
        let str_field = |name: &str| -> Result<String, WireError> {
            match fields.get(name) {
                Some(Value::Str(s)) => Ok(s.clone()),
                _ => Err(malformed(format!("missing string field `{name}`"))),
            }
        };
        let num_field = |name: &str| -> Result<u64, WireError> {
            match fields.get(name) {
                Some(Value::Int(n)) => Ok(*n as u64),
                _ => Err(malformed(format!("missing numeric field `{name}`"))),
            }
        };
        let bool_field = |name: &str| -> Result<bool, WireError> {
            match fields.get(name) {
                Some(Value::Bool(b)) => Ok(*b),
                _ => Err(malformed(format!("missing boolean field `{name}`"))),
            }
        };
        // `session` arrived with the TCP transport; frames from
        // pre-session peers omit it, which decodes as token 0.
        let opt_num_field = |name: &str| num_field(name).unwrap_or(0);
        match str_field("type")?.as_str() {
            "hello" => Ok(Message::Hello {
                protocol: num_field("protocol")?,
                pid: num_field("pid")?,
                session: opt_num_field("session"),
            }),
            "hello-ack" => Ok(Message::HelloAck {
                generation: num_field("generation")?,
                heartbeat_ms: num_field("heartbeatMs")?,
                session: opt_num_field("session"),
            }),
            "dispatch" => Ok(Message::Dispatch {
                job: num_field("job")?,
                delivery: num_field("delivery")?,
                generation: num_field("generation")?,
                name: str_field("name")?,
                kind: str_field("kind")?,
                payload: str_field("payload")?,
                timeout_ms: num_field("timeoutMs")?,
            }),
            "heartbeat" => Ok(Message::Heartbeat {
                pid: num_field("pid")?,
                busy: num_field("busy")?,
            }),
            "result" => Ok(Message::TaskResult {
                job: num_field("job")?,
                delivery: num_field("delivery")?,
                generation: num_field("generation")?,
                ok: bool_field("ok")?,
                output: str_field("output")?,
                error: str_field("error")?,
            }),
            "drain" => Ok(Message::Drain),
            "bye" => Ok(Message::Bye {
                pid: num_field("pid")?,
            }),
            other => Err(malformed(format!("unknown message type `{other}`"))),
        }
    }
}

/// Reads whole messages off a byte stream.
pub(crate) struct WireReader {
    decoder: FrameDecoder,
    buf: [u8; 8192],
}

impl WireReader {
    pub(crate) fn new() -> WireReader {
        WireReader {
            decoder: FrameDecoder::new(),
            buf: [0u8; 8192],
        }
    }

    /// `Ok(None)` once the stream ends (EOF or a read error — either
    /// way the peer is gone), `Err(why)` on a corrupt frame.
    pub(crate) fn next(&mut self, input: &mut impl Read) -> Result<Option<Message>, String> {
        loop {
            if let Some(payload) = self.decoder.next_frame().map_err(|e| e.to_string())? {
                count_frame(frame::HEADER_LEN + payload.len());
                return Message::decode(&payload)
                    .map(Some)
                    .map_err(|e| e.to_string());
            }
            match input.read(&mut self.buf) {
                Ok(0) | Err(_) => return Ok(None),
                Ok(n) => self.decoder.feed(&self.buf[..n]),
            }
        }
    }
}

/// Counts one whole frame written or read by this process.
fn count_frame(bytes: usize) {
    observe::count("wire.frames", 1);
    observe::count("wire.frame_bytes", bytes as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Hello {
                protocol: PROTOCOL_VERSION,
                pid: 4242,
                session: 3,
            },
            Message::HelloAck {
                generation: 7,
                heartbeat_ms: 20,
                session: 3,
            },
            Message::Dispatch {
                job: 9,
                delivery: 2,
                generation: 7,
                name: "campaign/abc123".to_owned(),
                kind: "campaign-boot".to_owned(),
                payload: "{\"params\":[\"kvm\",\"2\"]}".to_owned(),
                timeout_ms: 0,
            },
            Message::Heartbeat { pid: 4242, busy: 9 },
            Message::TaskResult {
                job: 9,
                delivery: 2,
                generation: 7,
                ok: true,
                output: "outcome=booted ticks=100".to_owned(),
                error: String::new(),
            },
            Message::Drain,
            Message::Bye { pid: 4242 },
        ]
    }

    #[test]
    fn messages_round_trip() {
        for msg in sample_messages() {
            let decoded = Message::decode(&msg.encode()).unwrap();
            assert_eq!(decoded, msg, "round trip for {msg:?}");
        }
    }

    #[test]
    fn strings_with_hostile_contents_round_trip() {
        let msg = Message::TaskResult {
            job: 1,
            delivery: 1,
            generation: 1,
            ok: false,
            output: String::new(),
            error: "quotes \" slashes \\ newline \n tab \t nul \u{0} unicode ✓".to_owned(),
        };
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn numbers_span_the_whole_u64_range() {
        // Up to i64::MAX the digits are the plain decimal ones; beyond,
        // the value still reads back exactly.
        let small = Message::Bye { pid: 4242 };
        assert_eq!(small.encode(), b"{\"type\":\"bye\",\"pid\":4242}");
        for pid in [i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX] {
            let msg = Message::Bye { pid };
            assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
        }
        // A number that is not an integer is not a protocol number.
        assert!(Message::decode(b"{\"type\":\"bye\",\"pid\":1.5}").is_err());
    }

    #[test]
    fn frames_round_trip_through_the_decoder() {
        let mut decoder = FrameDecoder::new();
        for msg in sample_messages() {
            decoder.feed(&msg.to_frame());
        }
        for msg in sample_messages() {
            let payload = decoder.next_frame().unwrap().expect("frame available");
            assert_eq!(Message::decode(&payload).unwrap(), msg);
        }
        assert_eq!(decoder.next_frame().unwrap(), None);
    }

    #[test]
    fn split_feeds_reassemble() {
        // Deliver one frame a single byte at a time: no prefix may
        // error or produce a message early.
        let msg = &sample_messages()[2];
        let frame = msg.to_frame();
        let mut decoder = FrameDecoder::new();
        for (i, byte) in frame.iter().enumerate() {
            decoder.feed(std::slice::from_ref(byte));
            let step = decoder.next_frame().unwrap();
            if i + 1 < frame.len() {
                assert!(step.is_none(), "no message before byte {}", i + 1);
            } else {
                assert_eq!(Message::decode(&step.unwrap()).unwrap(), *msg);
            }
        }
    }

    /// The satellite fuzz test: every byte-boundary truncation of a
    /// valid frame must decode as "incomplete" — mirroring the
    /// journal's torn-tail tolerance — and never as an error or a
    /// bogus message.
    #[test]
    fn truncation_at_every_byte_boundary_is_incomplete_not_corrupt() {
        let frame = sample_messages()[2].to_frame();
        for cut in 0..frame.len() {
            let mut decoder = FrameDecoder::new();
            decoder.feed(&frame[..cut]);
            assert_eq!(
                decoder.next_frame(),
                Ok(None),
                "truncation after {cut} bytes must read as a torn tail"
            );
            // The remainder arriving later completes the frame.
            decoder.feed(&frame[cut..]);
            let payload = decoder
                .next_frame()
                .unwrap()
                .expect("complete after the rest");
            assert_eq!(Message::decode(&payload).unwrap(), sample_messages()[2]);
        }
    }

    /// Companion fuzz: flipping any single byte of a frame must never
    /// yield a decoded message — only "incomplete" (length grew) or a
    /// hard corruption error (CRC broke).
    #[test]
    fn corruption_at_every_byte_is_never_a_valid_message() {
        let frame = sample_messages()[2].to_frame();
        for i in 0..frame.len() {
            let mut bent = frame.clone();
            bent[i] ^= 0x40;
            let mut decoder = FrameDecoder::new();
            decoder.feed(&bent);
            if let Ok(Some(_)) = decoder.next_frame() {
                panic!("byte {i} corruption decoded as a whole frame");
            }
        }
    }

    #[test]
    fn garbage_prefix_is_a_hard_error() {
        // A stray small-length header with a wrong CRC (e.g. a worker
        // printing to stdout) must surface as corruption, not hang.
        let mut decoder = FrameDecoder::new();
        decoder.feed(&[1, 0, 0, 0, 0, 0, 0, 0, b'Z']);
        assert!(matches!(
            decoder.next_frame(),
            Err(WireError::BadCrc { .. })
        ));
    }

    #[test]
    fn absurd_length_is_rejected_immediately() {
        let mut decoder = FrameDecoder::new();
        decoder.feed(&u32::MAX.to_le_bytes());
        decoder.feed(&[0, 0, 0, 0]);
        assert!(matches!(decoder.next_frame(), Err(WireError::BadLength(_))));
    }

    #[test]
    fn unknown_message_type_is_malformed() {
        let err = Message::decode(b"{\"type\":\"warp\"}").unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)));
        assert!(err.to_string().contains("warp"));
    }

    #[test]
    fn nested_json_is_rejected() {
        assert!(Message::decode(b"{\"type\":{\"nested\":1}}").is_err());
        assert!(Message::decode(b"not json at all").is_err());
    }

    #[test]
    fn field_order_does_not_matter() {
        let msg = Message::decode(b"{\"pid\":12,\"protocol\":1,\"type\":\"hello\"}").unwrap();
        assert_eq!(
            msg,
            Message::Hello {
                protocol: 1,
                pid: 12,
                session: 0
            }
        );
    }

    #[test]
    fn pre_session_frames_decode_with_token_zero() {
        // Frames from peers that predate the session field must still
        // parse: the token defaults to 0 (= "no session").
        let hello = Message::decode(b"{\"type\":\"hello\",\"protocol\":1,\"pid\":7}").unwrap();
        assert_eq!(
            hello,
            Message::Hello {
                protocol: 1,
                pid: 7,
                session: 0
            }
        );
        let ack = Message::decode(b"{\"type\":\"hello-ack\",\"generation\":2,\"heartbeatMs\":20}")
            .unwrap();
        assert_eq!(
            ack,
            Message::HelloAck {
                generation: 2,
                heartbeat_ms: 20,
                session: 0
            }
        );
    }

    #[test]
    fn decoder_compacts_consumed_bytes() {
        let mut decoder = FrameDecoder::new();
        let frame = Message::Drain.to_frame();
        for _ in 0..2048 {
            decoder.feed(&frame);
            assert!(decoder.next_frame().unwrap().is_some());
        }
        // Unbounded accumulation would hold all 2048 frames; the
        // compaction keeps the buffer near its 4 KiB threshold.
        assert!(decoder.buf.len() < 8192, "buffer stays bounded");
        assert_eq!(decoder.pending(), 0);
    }
}
