//! Percentiles, medians, phase reconciliation and `/proc` parsing.

/// The `p`-th percentile (0–100) by nearest rank; 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Share of `wall` that no phase accounts for: `1 − Σ phases ÷ wall`.
pub fn unattributed_frac(phases: &[f64], wall: f64) -> f64 {
    if wall <= 0.0 {
        return 0.0;
    }
    1.0 - phases.iter().sum::<f64>() / wall
}

/// `VmHWM` (peak resident set, kB) from a `/proc/<pid>/status` body.
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// This process's `VmHWM` in kB (0 where `/proc` is unavailable).
pub fn own_peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| vm_hwm_kb(&status))
        .unwrap_or(0)
}

/// `(demanded, stolen)` CPU time of the whole machine since boot, in
/// clock ticks, from the first line of a `/proc/stat` body. Demanded is
/// everything but idle and I/O wait, stolen time included.
pub fn cpu_demand(stat: &str) -> Option<(u64, u64)> {
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map_while(|field| field.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal
    let stolen = *fields.get(7)?;
    let demanded = fields[0] + fields[1] + fields[2] + fields[5] + fields[6] + stolen;
    Some((demanded, stolen))
}

/// The machine's `(demanded, stolen)` CPU ticks now (zeros where
/// `/proc/stat` is unavailable, so nothing ever looks stolen).
pub fn cpu_demand_now() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| cpu_demand(&stat))
        .unwrap_or((0, 0))
}

/// Share of the CPU time asked for between two readings that the
/// hypervisor gave to someone else.
pub fn stolen_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    let demanded = after.0.saturating_sub(before.0);
    let stolen = after.1.saturating_sub(before.1);
    if demanded == 0 {
        0.0
    } else {
        stolen as f64 / demanded as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 95.0), 95.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Order of arrival does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn reconciliation_reports_the_gap() {
        assert!((unattributed_frac(&[1.0, 2.0, 6.0], 10.0) - 0.1).abs() < 1e-12);
        assert_eq!(unattributed_frac(&[5.0], 5.0), 0.0);
        assert_eq!(unattributed_frac(&[1.0], 0.0), 0.0);
    }

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(12345));
        assert_eq!(vm_hwm_kb("Name:\tbench\n"), None);
    }

    #[test]
    fn stolen_share_of_demanded_cpu_time() {
        let before = "cpu  100 0 50 1000 10 0 5 20 0 0\ncpu0 1 2 3\n";
        let after = "cpu  160 0 70 1500 12 0 9 36 0 0\ncpu0 1 2 3\n";
        let (b, a) = (cpu_demand(before).unwrap(), cpu_demand(after).unwrap());
        assert_eq!(b, (175, 20));
        assert_eq!(a, (275, 36));
        assert!((stolen_frac(b, a) - 0.16).abs() < 1e-12);
        assert_eq!(stolen_frac(a, a), 0.0);
        assert_eq!(cpu_demand("intr 1 2 3\n"), None);
    }
}
