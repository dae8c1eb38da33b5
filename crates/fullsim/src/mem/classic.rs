//! The Classic memory hierarchy: private L1s, a shared L2, and DRAM,
//! with an optional coherent crossbar between the L1s.
//!
//! Matches gem5's "Classic" stack as the paper characterizes it: *fast
//! but lacks coherence fidelity*. With `coherent = false` the L1s do
//! not snoop each other — safe for a single core (or for KVM/Atomic
//! CPUs), and rejected by the compatibility layer for multi-core timing
//! CPUs. With `coherent = true` a snooping crossbar keeps L1s
//! consistent at some latency cost (the configuration used for the
//! PARSEC runs).

use super::cache::SetAssocCache;
use super::dram::Ddr3Channel;
use super::{cores_in, AccessKind, LineMap, MemKind, MemorySystem};
use crate::stats::Stats;
use std::collections::hash_map::Entry;

/// Latency constants in CPU cycles.
mod lat {
    /// L1 hit.
    pub const L1: u64 = 2;
    /// L2 hit (beyond L1).
    pub const L2: u64 = 12;
    /// Crossbar snoop round-trip.
    pub const SNOOP: u64 = 8;
}

/// Per-line L1 payload: dirty bit.
type L1Line = bool;

/// The Classic memory system.
#[derive(Debug)]
pub struct ClassicMemory {
    l1: Vec<SetAssocCache<L1Line>>,
    l2: SetAssocCache<bool>,
    dram: Ddr3Channel,
    coherent: bool,
    /// For the coherent crossbar: which cores' L1s hold each line. A
    /// line without an entry and one with an empty mask are the same
    /// thing to every reader.
    sharers: LineMap<u64>,
    hits_l1: u64,
    hits_l2: u64,
    misses: u64,
    snoops: u64,
    writebacks: u64,
}

impl ClassicMemory {
    /// Builds the hierarchy for `cores` CPUs.
    pub fn new(cores: usize, coherent: bool) -> ClassicMemory {
        ClassicMemory {
            l1: (0..cores)
                .map(|_| SetAssocCache::new(32 * 1024, 8))
                .collect(),
            l2: SetAssocCache::new(1024 * 1024, 16),
            dram: Ddr3Channel::new(),
            coherent,
            sharers: LineMap::default(),
            hits_l1: 0,
            hits_l2: 0,
            misses: 0,
            snoops: 0,
            writebacks: 0,
        }
    }

    fn line(addr: u64) -> u64 {
        addr / super::cache::LINE_BYTES
    }
}

impl MemorySystem for ClassicMemory {
    fn access(&mut self, core: usize, addr: u64, kind: AccessKind) -> u64 {
        let needs_write = kind.needs_write();
        let mut latency = lat::L1;

        if self.coherent {
            // The one lookup of this line's mask: whichever way the
            // access goes, it ends with this core holding the line.
            let mask = self.sharers.entry(Self::line(addr)).or_insert(0);
            if needs_write {
                // Writes invalidate the other copies first.
                for other in cores_in(*mask & !(1 << core)) {
                    if let Some(dirty) = self.l1[other].invalidate(addr) {
                        self.snoops += 1;
                        latency += lat::SNOOP;
                        if dirty {
                            self.writebacks += 1;
                            latency += lat::L2; // write the dirty line back to L2
                        }
                    }
                }
                *mask = 0;
            }
            *mask |= 1 << core;
        }

        if let Some(dirty) = self.l1[core].probe(addr) {
            self.hits_l1 += 1;
            if needs_write {
                *dirty = true;
            }
            return latency;
        }

        // L1 miss -> L2.
        latency += lat::L2;
        if self.l2.probe(addr).is_none() {
            // L2 miss -> DRAM.
            self.misses += 1;
            latency += self.dram.access(addr, needs_write);
            if let Some((victim, _)) = self.l2.insert(addr, false) {
                // L2 eviction invalidates L1 copies (inclusive hierarchy).
                if self.coherent {
                    // The crossbar's mask lists every L1 that holds one.
                    let holders = self.sharers.remove(&Self::line(victim));
                    for holder in cores_in(holders.unwrap_or(0)) {
                        self.l1[holder].invalidate(victim);
                    }
                } else {
                    for core_cache in &mut self.l1 {
                        core_cache.invalidate(victim);
                    }
                }
            }
        } else {
            self.hits_l2 += 1;
        }

        // Fill L1.
        if let Some((victim, dirty)) = self.l1[core].insert(addr, needs_write) {
            if dirty {
                self.writebacks += 1;
                latency += 1;
            }
            if self.coherent {
                // A mask that empties is dropped, so `sharers` never
                // holds more lines than the L1s do together.
                if let Entry::Occupied(mut mask) = self.sharers.entry(Self::line(victim)) {
                    *mask.get_mut() &= !(1 << core);
                    if *mask.get() == 0 {
                        mask.remove();
                    }
                }
            }
        }
        latency
    }

    fn kind(&self) -> MemKind {
        MemKind::Classic {
            coherent: self.coherent,
        }
    }

    fn dump_stats(&self, prefix: &str, stats: &mut Stats) {
        stats.set_count(&format!("{prefix}.l1Hits"), self.hits_l1);
        stats.set_count(&format!("{prefix}.l2Hits"), self.hits_l2);
        stats.set_count(&format!("{prefix}.misses"), self.misses);
        stats.set_count(&format!("{prefix}.snoops"), self.snoops);
        stats.set_count(&format!("{prefix}.writebacks"), self.writebacks);
        let total = self.hits_l1 + self.hits_l2 + self.misses;
        if total > 0 {
            stats.set_scalar(
                &format!("{prefix}.l1HitRate"),
                self.hits_l1 as f64 / total as f64,
            );
        }
        self.dram.dump_stats(&format!("{prefix}.dram"), stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits_l1() {
        let mut mem = ClassicMemory::new(1, false);
        let cold = mem.access(0, 0x1000, AccessKind::Read);
        let warm = mem.access(0, 0x1000, AccessKind::Read);
        assert!(cold > warm);
        assert_eq!(warm, lat::L1);
    }

    #[test]
    fn l2_serves_other_cores_lines() {
        let mut mem = ClassicMemory::new(2, true);
        mem.access(0, 0x2000, AccessKind::Read);
        let second = mem.access(1, 0x2000, AccessKind::Read);
        // Core 1 misses L1 but hits L2 — cheaper than DRAM.
        assert_eq!(second, lat::L1 + lat::L2);
    }

    #[test]
    fn coherent_write_invalidates_sharers() {
        let mut mem = ClassicMemory::new(2, true);
        mem.access(0, 0x3000, AccessKind::Read);
        mem.access(1, 0x3000, AccessKind::Read);
        // Core 1 writes: core 0's copy must be snooped out.
        mem.access(1, 0x3000, AccessKind::Write);
        assert!(mem.snoops >= 1);
        // Core 0 must now re-fetch (L1 miss, L2 hit).
        let refetch = mem.access(0, 0x3000, AccessKind::Read);
        assert!(refetch >= lat::L1 + lat::L2);
    }

    #[test]
    fn incoherent_crossbar_never_snoops() {
        let mut mem = ClassicMemory::new(2, false);
        mem.access(0, 0x3000, AccessKind::Read);
        mem.access(1, 0x3000, AccessKind::Read);
        mem.access(1, 0x3000, AccessKind::Write);
        assert_eq!(mem.snoops, 0);
        // Core 0 still hits its (stale) copy — the missing fidelity that
        // makes this configuration unsupported for multi-core timing runs.
        let stale = mem.access(0, 0x3000, AccessKind::Read);
        assert_eq!(stale, lat::L1);
    }

    #[test]
    fn stats_accumulate() {
        let mut mem = ClassicMemory::new(1, false);
        for i in 0..100u64 {
            mem.access(0, i * 64, AccessKind::Read);
        }
        for i in 0..100u64 {
            mem.access(0, i * 64, AccessKind::Read);
        }
        let mut stats = Stats::new();
        mem.dump_stats("mem", &mut stats);
        assert_eq!(stats.count("mem.misses"), 100);
        assert_eq!(stats.count("mem.l1Hits"), 100);
        assert!(stats.scalar("mem.l1HitRate") > 0.4);
    }

    #[test]
    fn dirty_writeback_on_eviction() {
        let mut mem = ClassicMemory::new(1, false);
        // Write a line, then stream enough lines through the same sets to
        // evict it.
        mem.access(0, 0, AccessKind::Write);
        for i in 1..4096u64 {
            mem.access(0, i * 64, AccessKind::Read);
        }
        assert!(mem.writebacks > 0);
    }

    /// What the back-invalidation by mask and the size of `sharers`
    /// rest on: every L1-resident line is L2-resident with its core's
    /// bit set, and a mask names nothing but L1s that hold the line, so
    /// `sharers` holds at most the L1s' lines (themselves within the
    /// L2's 16 384). A hot shared set makes the snoops, a wide range
    /// streams through the L2 and makes the evictions.
    #[test]
    fn classic_l1_is_included_in_l2_and_masked() {
        use crate::rng::DetRng;
        let mut mem = ClassicMemory::new(4, true);
        let mut rng = DetRng::from_label("classic-inclusion");
        for step in 0..60_000 {
            let core = rng.below(4) as usize;
            let hot = rng.chance(0.3);
            let line = rng.below(if hot { 64 } else { 1 << 16 });
            let kind = [AccessKind::Read, AccessKind::Write][rng.chance(0.3) as usize];
            mem.access(core, line * 64, kind);
            if step % 100 != 0 {
                continue;
            }
            for (core, l1) in mem.l1.iter().enumerate() {
                for (addr, _) in l1.iter() {
                    assert!(mem.l2.peek(addr).is_some(), "{addr:#x} not in L2");
                    let mask = mem.sharers.get(&ClassicMemory::line(addr));
                    assert!(mask.is_some_and(|mask| mask & (1 << core) != 0));
                }
            }
            for (line, &mask) in &mem.sharers {
                assert!(mask != 0, "empty mask kept for line {line:#x}");
                assert!(cores_in(mask).all(|core| mem.l1[core].peek(line * 64).is_some()));
            }
        }
        assert!(
            mem.snoops > 1_000 && mem.misses > 30_000,
            "traffic too tame"
        );
    }
}
