//! DDR3-1600 8x8 main-memory timing model.
//!
//! Models the device the paper configures for both use-case 1 and 3:
//! one channel of DDR3_1600_8x8. Timing follows the standard bank/row
//! structure: an access to an open row costs CAS only; a row conflict
//! pays precharge + activate + CAS. A simple channel-occupancy term
//! models burst contention.

use crate::stats::Stats;

/// Number of banks per rank for the modeled device.
const BANKS: usize = 8;
/// Row size in bytes (8K columns x 8 devices / 8 bits).
const ROW_BYTES: u64 = 8 * 1024;

/// DDR3-1600 timings in CPU cycles, converted at 2 GHz (1 ns = 2
/// cycles) whatever the configured core clock is — the builder's
/// default is 3 GHz, and the cycle counts below do not follow it.
mod timing {
    /// CAS latency (13.75 ns).
    pub const T_CL: u64 = 28;
    /// RAS-to-CAS delay (13.75 ns).
    pub const T_RCD: u64 = 28;
    /// Row precharge (13.75 ns).
    pub const T_RP: u64 = 28;
    /// Data burst occupancy of the channel (5 ns).
    pub const T_BURST: u64 = 10;
}

/// One channel of DDR3-1600 with open-page policy.
#[derive(Debug, Clone)]
pub struct Ddr3Channel {
    open_rows: [Option<u64>; BANKS],
    /// Monotonic access counter standing in for wall-clock channel time;
    /// consecutive accesses to the same bank pay a queueing penalty.
    last_bank_access: [u64; BANKS],
    access_clock: u64,
    reads: u64,
    writes: u64,
    row_hits: u64,
    row_conflicts: u64,
}

impl Default for Ddr3Channel {
    fn default() -> Self {
        Self::new()
    }
}

impl Ddr3Channel {
    /// Creates an idle channel with all rows closed.
    pub fn new() -> Ddr3Channel {
        Ddr3Channel {
            open_rows: [None; BANKS],
            last_bank_access: [0; BANKS],
            access_clock: 0,
            reads: 0,
            writes: 0,
            row_hits: 0,
            row_conflicts: 0,
        }
    }

    fn bank_of(addr: u64) -> usize {
        // Bank bits above the row offset: interleave rows across banks.
        ((addr / ROW_BYTES) as usize) % BANKS
    }

    fn row_of(addr: u64) -> u64 {
        addr / (ROW_BYTES * BANKS as u64)
    }

    /// Performs one access, returning its latency in CPU cycles.
    pub fn access(&mut self, addr: u64, is_write: bool) -> u64 {
        self.access_clock += 1;
        if is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
        let bank = Self::bank_of(addr);
        let row = Self::row_of(addr);
        let mut latency = timing::T_BURST;
        match self.open_rows[bank] {
            Some(open) if open == row => {
                self.row_hits += 1;
                latency += timing::T_CL;
            }
            Some(_) => {
                self.row_conflicts += 1;
                latency += timing::T_RP + timing::T_RCD + timing::T_CL;
            }
            None => {
                latency += timing::T_RCD + timing::T_CL;
            }
        }
        self.open_rows[bank] = Some(row);
        // Bank-level queueing: immediately back-to-back requests to one
        // bank serialize behind the previous burst.
        if self.access_clock - self.last_bank_access[bank] <= 1 {
            latency += timing::T_BURST;
        }
        self.last_bank_access[bank] = self.access_clock;
        latency
    }

    /// Total accesses served.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Row-buffer hit rate over accesses that found a row open.
    pub fn row_hit_rate(&self) -> f64 {
        let decided = self.row_hits + self.row_conflicts;
        if decided == 0 {
            0.0
        } else {
            self.row_hits as f64 / decided as f64
        }
    }

    /// Dumps channel statistics under `prefix`.
    pub fn dump_stats(&self, prefix: &str, stats: &mut Stats) {
        stats.set_count(&format!("{prefix}.reads"), self.reads);
        stats.set_count(&format!("{prefix}.writes"), self.writes);
        stats.set_count(&format!("{prefix}.rowHits"), self.row_hits);
        stats.set_count(&format!("{prefix}.rowConflicts"), self.row_conflicts);
        stats.set_scalar(&format!("{prefix}.rowHitRate"), self.row_hit_rate());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_stream_mostly_row_hits() {
        let mut dram = Ddr3Channel::new();
        // Touch a row once to open it, then stream within it.
        let mut total = 0;
        for i in 0..128u64 {
            total += dram.access(i * 64, false);
        }
        assert!(
            dram.row_hit_rate() > 0.9,
            "hit rate {}",
            dram.row_hit_rate()
        );
        assert!(total > 0);
    }

    #[test]
    fn row_conflicts_cost_more_than_hits() {
        let mut dram = Ddr3Channel::new();
        dram.access(0, false); // open row 0 of bank 0
        let hit = dram.access(64, false); // same row
                                          // Same bank, different row -> conflict. Next row in the same
                                          // bank is ROW_BYTES * BANKS away.
        let conflict = dram.access(ROW_BYTES * BANKS as u64, false);
        assert!(conflict > hit, "conflict {conflict} <= hit {hit}");
    }

    #[test]
    fn first_touch_is_activate_not_conflict() {
        let mut dram = Ddr3Channel::new();
        dram.access(0, false);
        assert_eq!(dram.row_hit_rate(), 0.0);
        let mut d2 = Ddr3Channel::new();
        let first = d2.access(0, false);
        d2.access(ROW_BYTES * BANKS as u64, true);
        let conflict = d2.access(0, false);
        assert!(first < conflict);
    }

    #[test]
    fn accesses_tally_reads_and_writes() {
        let mut dram = Ddr3Channel::new();
        dram.access(0, false);
        dram.access(64, true);
        assert_eq!(dram.accesses(), 2);
        let mut stats = Stats::new();
        dram.dump_stats("mem.dram", &mut stats);
        assert_eq!(stats.count("mem.dram.reads"), 1);
        assert_eq!(stats.count("mem.dram.writes"), 1);
    }

    #[test]
    fn bank_interleave_spreads_rows() {
        let addrs = [0u64, ROW_BYTES, ROW_BYTES * 2, ROW_BYTES * 7];
        let banks: Vec<usize> = addrs.iter().map(|a| Ddr3Channel::bank_of(*a)).collect();
        assert_eq!(banks, vec![0, 1, 2, 7]);
    }
}
