//! Ruby-style directory coherence: the `MI_example` and
//! `MESI_Two_Level` protocols.
//!
//! These are real line-state machines, not latency tables: every L1
//! keeps per-line coherence state, a directory tracks owners and
//! sharers, and protocol transitions (fetches, forwards, invalidations,
//! downgrades) both cost latency and are counted in the statistics.
//! MI's pathology — *every* access needs exclusive ownership, so
//! read-shared lines ping-pong — emerges directly from the state
//! machine, as does MESI's cheap read sharing.

use super::cache::SetAssocCache;
use super::dram::Ddr3Channel;
use super::{cores_in, AccessKind, LineMap, MemKind, MemorySystem};
use crate::stats::Stats;
use std::collections::hash_map::Entry;

/// Coherence state of a line in an L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoState {
    /// Modified: exclusive and dirty.
    M,
    /// Exclusive: exclusive and clean (MESI only).
    E,
    /// Shared: read-only copy (MESI only).
    S,
}

/// Protocol selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Two-state MI: every access requires exclusive ownership.
    Mi,
    /// MESI with a shared inclusive L2.
    MesiTwoLevel,
}

/// What the directory knows about one line.
#[derive(Debug, Default, Clone, Copy)]
struct DirEntry {
    owner: Option<usize>,
    sharers: u64,
}

impl DirEntry {
    fn owned_by(core: usize) -> DirEntry {
        DirEntry {
            owner: Some(core),
            sharers: 0,
        }
    }

    /// Every core the entry lists, owner or sharer, as a mask.
    fn holders(self) -> u64 {
        self.sharers | self.owner.map_or(0, |owner| 1 << owner)
    }

    /// The owner, unless that is `requester` itself.
    fn remote_owner(self, requester: usize) -> Option<usize> {
        self.owner.filter(|&owner| owner != requester)
    }
}

/// Latency constants in CPU cycles (Ruby pays more per hop than the
/// Classic stack — "slower but models detailed memory").
mod lat {
    /// L1 hit under Ruby.
    pub const L1: u64 = 3;
    /// Directory lookup.
    pub const DIR: u64 = 18;
    /// Forward/invalidate round-trip to a remote L1.
    pub const REMOTE: u64 = 38;
    /// Shared L2 hit (MESI only).
    pub const L2: u64 = 14;
}

/// A directory-based coherent memory system.
#[derive(Debug)]
pub struct RubySystem {
    protocol: Protocol,
    l1: Vec<SetAssocCache<CoState>>,
    l2: SetAssocCache<bool>,
    dram: Ddr3Channel,
    /// A line without an entry and one with the default entry are the
    /// same thing to every reader, so an access reads its line's entry
    /// once into a local (absent as default) and stores it back once.
    directory: LineMap<DirEntry>,
    hits: u64,
    misses: u64,
    invalidations: u64,
    downgrades: u64,
    forwards: u64,
    writebacks: u64,
    upgrades: u64,
}

impl RubySystem {
    /// Builds an `MI_example` system.
    pub fn new_mi(cores: usize) -> RubySystem {
        Self::new(Protocol::Mi, cores)
    }

    /// Builds a `MESI_Two_Level` system.
    pub fn new_mesi(cores: usize) -> RubySystem {
        Self::new(Protocol::MesiTwoLevel, cores)
    }

    fn new(protocol: Protocol, cores: usize) -> RubySystem {
        RubySystem {
            protocol,
            l1: (0..cores)
                .map(|_| SetAssocCache::new(32 * 1024, 8))
                .collect(),
            l2: SetAssocCache::new(1024 * 1024, 16),
            dram: Ddr3Channel::new(),
            directory: LineMap::default(),
            hits: 0,
            misses: 0,
            invalidations: 0,
            downgrades: 0,
            forwards: 0,
            writebacks: 0,
            upgrades: 0,
        }
    }

    /// The active protocol.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// Coherence state of `addr` in `core`'s L1, if resident. Exposed
    /// so external invariant checks (e.g. property tests asserting
    /// single-writer/multiple-reader safety) can observe protocol state
    /// without touching it.
    pub fn l1_state(&self, core: usize, addr: u64) -> Option<CoState> {
        self.l1[core].peek(addr).copied()
    }

    fn line(addr: u64) -> u64 {
        addr / super::cache::LINE_BYTES
    }

    fn dir_entry(&self, addr: u64) -> DirEntry {
        (self.directory.get(&Self::line(addr)).copied()).unwrap_or_default()
    }

    /// Records `core` as the sole holder of `addr`.
    fn record_owner(&mut self, core: usize, addr: u64) {
        self.directory
            .insert(Self::line(addr), DirEntry::owned_by(core));
    }

    /// Invalidates every remote copy of `addr` that `entry` lists,
    /// returning added latency. The caller records the new owner.
    fn invalidate_remotes(&mut self, requester: usize, addr: u64, entry: DirEntry) -> u64 {
        let mut extra = 0;
        if let Some(owner) = entry.remote_owner(requester) {
            if let Some(state) = self.l1[owner].invalidate(addr) {
                self.forwards += 1;
                extra += lat::REMOTE;
                if state == CoState::M {
                    self.writebacks += 1;
                }
            }
        }
        for core in cores_in(entry.sharers) {
            if core != requester && self.l1[core].invalidate(addr).is_some() {
                self.invalidations += 1;
                extra += lat::REMOTE / 2; // invalidations pipeline
            }
        }
        extra
    }

    /// Downgrades a remote M/E owner to S (MESI read), moving it from
    /// `entry`'s owner to its sharers. Returns added latency.
    fn downgrade_owner(&mut self, requester: usize, addr: u64, entry: &mut DirEntry) -> u64 {
        let mut extra = 0;
        if let Some(owner) = entry.remote_owner(requester) {
            if let Some(state) = self.l1[owner].probe(addr) {
                if matches!(*state, CoState::M | CoState::E) {
                    if *state == CoState::M {
                        self.writebacks += 1;
                    }
                    *state = CoState::S;
                    self.downgrades += 1;
                    extra += lat::REMOTE;
                }
            }
            entry.owner = None;
            entry.sharers |= 1 << owner;
        }
        extra
    }

    fn fill_l1(&mut self, core: usize, addr: u64, state: CoState) {
        if let Some((victim_addr, victim_state)) = self.l1[core].insert(addr, state) {
            // Keep the directory consistent with the eviction; dropping
            // an emptied entry bounds it by what the L1s hold together.
            if let Entry::Occupied(mut slot) = self.directory.entry(Self::line(victim_addr)) {
                let entry = slot.get_mut();
                if entry.owner == Some(core) {
                    entry.owner = None;
                }
                entry.sharers &= !(1 << core);
                if entry.holders() == 0 {
                    slot.remove();
                }
            }
            if victim_state == CoState::M {
                self.writebacks += 1;
            }
        }
    }

    fn l2_or_dram(&mut self, addr: u64, is_write: bool) -> u64 {
        if self.protocol == Protocol::MesiTwoLevel {
            if self.l2.probe(addr).is_some() {
                return lat::L2;
            }
            let latency = lat::L2 + self.dram.access(addr, is_write);
            if let Some((victim, _)) = self.l2.insert(addr, false) {
                // Inclusive L2: back-invalidate L1 copies of the victim.
                // Its directory entry lists every L1 that holds one.
                let entry = self.directory.remove(&Self::line(victim));
                for core in cores_in(entry.unwrap_or_default().holders()) {
                    if self.l1[core].invalidate(victim).is_some() {
                        self.invalidations += 1;
                    }
                }
            }
            latency
        } else {
            self.dram.access(addr, is_write)
        }
    }

    /// Brings `addr` into `core`'s L1 in M on a miss, taking it from
    /// every other holder. Returns the latency beyond the directory's.
    fn fetch_exclusive(&mut self, core: usize, addr: u64) -> u64 {
        let entry = self.dir_entry(addr);
        let mut latency = self.invalidate_remotes(core, addr, entry);
        if entry.remote_owner(core).is_none() {
            // No remote copy to forward from: fetch from memory.
            latency += self.l2_or_dram(addr, true);
        }
        self.fill_l1(core, addr, CoState::M);
        self.record_owner(core, addr);
        latency
    }

    fn access_mi(&mut self, core: usize, addr: u64, _kind: AccessKind) -> u64 {
        // MI: any access needs the line in M.
        if self.l1[core].probe(addr).is_some() {
            self.hits += 1;
            return lat::L1;
        }
        self.misses += 1;
        lat::L1 + lat::DIR + self.fetch_exclusive(core, addr)
    }

    fn access_mesi(&mut self, core: usize, addr: u64, kind: AccessKind) -> u64 {
        let needs_write = kind.needs_write();
        if let Some(state) = self.l1[core].probe(addr) {
            match (*state, needs_write) {
                (CoState::M, _) | (CoState::E, false) | (CoState::S, false) => {
                    self.hits += 1;
                    return lat::L1;
                }
                (CoState::E, true) => {
                    // Silent E -> M upgrade.
                    *state = CoState::M;
                    self.hits += 1;
                    self.record_owner(core, addr);
                    return lat::L1;
                }
                (CoState::S, true) => {
                    // Upgrade: invalidate other sharers.
                    self.upgrades += 1;
                    let entry = self.dir_entry(addr);
                    let extra = self.invalidate_remotes(core, addr, entry);
                    let state = self.l1[core]
                        .probe(addr)
                        .expect("line resident during upgrade");
                    *state = CoState::M;
                    self.record_owner(core, addr);
                    return lat::L1 + lat::DIR + extra;
                }
            }
        }
        // Miss.
        self.misses += 1;
        let mut latency = lat::L1 + lat::DIR;
        if needs_write {
            return latency + self.fetch_exclusive(core, addr);
        }
        let mut entry = self.dir_entry(addr);
        let forwarded = self.downgrade_owner(core, addr, &mut entry);
        latency += forwarded;
        if forwarded == 0 {
            // No owner forwarded the data; fetch it from L2/DRAM.
            latency += self.l2_or_dram(addr, false);
        }
        if entry.sharers != 0 {
            self.fill_l1(core, addr, CoState::S);
            entry.sharers |= 1 << core;
        } else {
            self.fill_l1(core, addr, CoState::E);
            entry = DirEntry::owned_by(core);
        }
        self.directory.insert(Self::line(addr), entry);
        latency
    }
}

impl MemorySystem for RubySystem {
    fn access(&mut self, core: usize, addr: u64, kind: AccessKind) -> u64 {
        match self.protocol {
            Protocol::Mi => self.access_mi(core, addr, kind),
            Protocol::MesiTwoLevel => self.access_mesi(core, addr, kind),
        }
    }

    fn kind(&self) -> MemKind {
        match self.protocol {
            Protocol::Mi => MemKind::RubyMi,
            Protocol::MesiTwoLevel => MemKind::RubyMesiTwoLevel,
        }
    }

    fn dump_stats(&self, prefix: &str, stats: &mut Stats) {
        stats.set_count(&format!("{prefix}.hits"), self.hits);
        stats.set_count(&format!("{prefix}.misses"), self.misses);
        stats.set_count(&format!("{prefix}.invalidations"), self.invalidations);
        stats.set_count(&format!("{prefix}.downgrades"), self.downgrades);
        stats.set_count(&format!("{prefix}.forwards"), self.forwards);
        stats.set_count(&format!("{prefix}.writebacks"), self.writebacks);
        stats.set_count(&format!("{prefix}.upgrades"), self.upgrades);
        self.dram.dump_stats(&format!("{prefix}.dram"), stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SWMR safety check: at any point, a line is either in M/E at
    /// exactly one core, or in S at any number of cores — never both.
    fn assert_swmr(sys: &RubySystem, addr: u64) {
        let mut exclusive = 0;
        let mut shared = 0;
        for l1 in &sys.l1 {
            match l1.peek(addr) {
                Some(CoState::M) | Some(CoState::E) => exclusive += 1,
                Some(CoState::S) => shared += 1,
                None => {}
            }
        }
        assert!(
            exclusive <= 1 && (exclusive == 0 || shared == 0),
            "SWMR violated: {exclusive} exclusive, {shared} shared"
        );
    }

    #[test]
    fn mi_read_sharing_ping_pongs() {
        let mut sys = RubySystem::new_mi(2);
        let addr = 0x9000;
        sys.access(0, addr, AccessKind::Read);
        assert_swmr(&sys, addr);
        // A second core reading the same line must steal exclusive
        // ownership under MI.
        let steal = sys.access(1, addr, AccessKind::Read);
        assert!(steal > lat::L1 + lat::DIR);
        assert_eq!(sys.forwards, 1);
        assert_swmr(&sys, addr);
        // And back again: the ping-pong that makes MI slow.
        sys.access(0, addr, AccessKind::Read);
        assert_eq!(sys.forwards, 2);
    }

    #[test]
    fn mesi_read_sharing_is_cheap() {
        let mut sys = RubySystem::new_mesi(4);
        let addr = 0x9000;
        sys.access(0, addr, AccessKind::Read); // E at core 0
        sys.access(1, addr, AccessKind::Read); // downgrade to S, share
        sys.access(2, addr, AccessKind::Read);
        assert_swmr(&sys, addr);
        // Re-reads all hit locally — no more protocol traffic.
        let forwards_before = sys.forwards + sys.invalidations + sys.downgrades;
        for core in 0..3 {
            assert_eq!(sys.access(core, addr, AccessKind::Read), lat::L1);
        }
        assert_eq!(
            sys.forwards + sys.invalidations + sys.downgrades,
            forwards_before
        );
    }

    #[test]
    fn mesi_first_read_grants_exclusive() {
        let mut sys = RubySystem::new_mesi(2);
        sys.access(0, 0x9000, AccessKind::Read);
        assert_eq!(sys.l1[0].peek(0x9000), Some(&CoState::E));
        // Silent E->M upgrade on write: a pure L1 hit.
        let write = sys.access(0, 0x9000, AccessKind::Write);
        assert_eq!(write, lat::L1);
        assert_eq!(sys.l1[0].peek(0x9000), Some(&CoState::M));
    }

    #[test]
    fn mesi_write_to_shared_invalidates() {
        let mut sys = RubySystem::new_mesi(4);
        let addr = 0xa000;
        for core in 0..4 {
            sys.access(core, addr, AccessKind::Read);
        }
        let upgrade = sys.access(2, addr, AccessKind::Write);
        assert!(upgrade > lat::L1);
        assert!(sys.invalidations >= 3);
        assert_eq!(sys.l1[2].peek(addr), Some(&CoState::M));
        for core in [0usize, 1, 3] {
            assert_eq!(sys.l1[core].peek(addr), None);
        }
        assert_swmr(&sys, addr);
    }

    #[test]
    fn mesi_dirty_data_forwards_with_writeback() {
        let mut sys = RubySystem::new_mesi(2);
        let addr = 0xb000;
        sys.access(0, addr, AccessKind::Write); // M at core 0
        sys.access(1, addr, AccessKind::Read); // must downgrade + writeback
        assert_eq!(sys.writebacks, 1);
        assert_eq!(sys.downgrades, 1);
        assert_eq!(sys.l1[0].peek(addr), Some(&CoState::S));
        assert_swmr(&sys, addr);
    }

    #[test]
    fn swmr_holds_under_random_traffic() {
        use crate::rng::DetRng;
        for protocol in [Protocol::Mi, Protocol::MesiTwoLevel] {
            let mut sys = RubySystem::new(protocol, 4);
            let mut rng = DetRng::from_label("swmr-traffic");
            let addrs: Vec<u64> = (0..16).map(|i| 0xc000 + i * 64).collect();
            for _ in 0..2000 {
                let core = rng.below(4) as usize;
                let addr = addrs[rng.below(16) as usize];
                let kind = if rng.chance(0.3) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                sys.access(core, addr, kind);
            }
            for addr in addrs {
                assert_swmr(&sys, addr);
            }
        }
    }

    #[test]
    fn mi_is_slower_than_mesi_on_read_shared_data() {
        let run = |mut sys: RubySystem| {
            let mut total = 0;
            for round in 0..200 {
                for core in 0..4 {
                    let _ = round;
                    total += sys.access(core, 0xd000, AccessKind::Read);
                }
            }
            total
        };
        let mi = run(RubySystem::new_mi(4));
        let mesi = run(RubySystem::new_mesi(4));
        assert!(mi > mesi * 3, "MI {mi} should dwarf MESI {mesi}");
    }

    #[test]
    fn stats_dump_contains_protocol_counters() {
        let mut sys = RubySystem::new_mesi(2);
        sys.access(0, 0x1000, AccessKind::Read);
        sys.access(1, 0x1000, AccessKind::Write);
        let mut stats = Stats::new();
        sys.dump_stats("ruby", &mut stats);
        assert!(stats.contains("ruby.misses"));
        assert!(stats.contains("ruby.dram.reads"));
    }

    /// What the back-invalidation by directory entry and the size of
    /// the directory rest on: an entry lists exactly the L1s that hold
    /// its line (and under MESI the L2 holds it too), so there are no
    /// more entries than L1 lines.
    #[test]
    fn directory_lists_exactly_the_l1_holders() {
        use crate::rng::DetRng;
        for protocol in [Protocol::Mi, Protocol::MesiTwoLevel] {
            let mut sys = RubySystem::new(protocol, 4);
            let mut rng = DetRng::from_label("directory-exact");
            for step in 0..60_000 {
                let core = rng.below(4) as usize;
                let hot = rng.chance(0.3);
                let line = rng.below(if hot { 64 } else { 1 << 16 });
                let kind = [AccessKind::Read, AccessKind::Write][rng.chance(0.3) as usize];
                sys.access(core, line * 64, kind);
                if step % 100 != 0 {
                    continue;
                }
                let mut held = 0;
                for (core, l1) in sys.l1.iter().enumerate() {
                    for (addr, _) in l1.iter() {
                        let entry = sys.dir_entry(addr);
                        let listed = entry.holders() & (1 << core) != 0;
                        assert!(listed, "{protocol:?}: {addr:#x} in L1 {core}, {entry:?}");
                        assert!(protocol == Protocol::Mi || sys.l2.peek(addr).is_some());
                        held += 1;
                    }
                }
                let mut listed = 0;
                for (line, entry) in &sys.directory {
                    assert!(entry.holders() != 0, "empty entry kept for {line:#x}");
                    listed += cores_in(entry.holders())
                        .inspect(|&core| assert!(sys.l1[core].peek(line * 64).is_some()))
                        .count();
                }
                assert_eq!(listed, held, "{protocol:?}");
            }
            assert!(sys.forwards + sys.invalidations > 1_000, "traffic too tame");
        }
    }
}
