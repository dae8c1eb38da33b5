//! gem5-style hierarchical statistics.
//!
//! Simulations accumulate named scalar statistics (counters and
//! formulas) under dotted hierarchical names (`system.cpu0.ipc`), and
//! dump them as a sorted text block — the analogue of gem5's
//! `stats.txt` that the paper's framework archives per run.

use std::collections::BTreeMap;
use std::fmt;

/// A single statistic value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StatValue {
    /// Monotonic counter.
    Count(u64),
    /// Derived floating-point quantity (rates, ratios).
    Scalar(f64),
}

impl fmt::Display for StatValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatValue::Count(v) => write!(f, "{v}"),
            StatValue::Scalar(v) => write!(f, "{v:.6}"),
        }
    }
}

/// A registry of named statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    values: BTreeMap<String, StatValue>,
}

impl Stats {
    /// Creates an empty registry.
    pub fn new() -> Stats {
        Stats::default()
    }

    /// Adds `amount` to the counter at `name` (creating it at zero).
    pub fn add(&mut self, name: &str, amount: u64) {
        match self
            .values
            .entry(name.to_owned())
            .or_insert(StatValue::Count(0))
        {
            StatValue::Count(v) => *v += amount,
            StatValue::Scalar(v) => *v += amount as f64,
        }
    }

    /// Increments the counter at `name` by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Sets a counter to an absolute value.
    pub fn set_count(&mut self, name: &str, value: u64) {
        self.values.insert(name.to_owned(), StatValue::Count(value));
    }

    /// Sets a scalar (derived) statistic.
    pub fn set_scalar(&mut self, name: &str, value: f64) {
        self.values
            .insert(name.to_owned(), StatValue::Scalar(value));
    }

    /// Reads a counter (0 when absent).
    pub fn count(&self, name: &str) -> u64 {
        match self.values.get(name) {
            Some(StatValue::Count(v)) => *v,
            Some(StatValue::Scalar(v)) => *v as u64,
            None => 0,
        }
    }

    /// Reads a statistic as f64 (0.0 when absent).
    pub fn scalar(&self, name: &str) -> f64 {
        match self.values.get(name) {
            Some(StatValue::Count(v)) => *v as f64,
            Some(StatValue::Scalar(v)) => *v,
            None => 0.0,
        }
    }

    /// Whether the statistic exists.
    pub fn contains(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// Merges another registry under a prefix (`prefix.name`).
    pub fn absorb(&mut self, prefix: &str, other: &Stats) {
        for (name, value) in &other.values {
            let full = if prefix.is_empty() {
                name.clone()
            } else {
                format!("{prefix}.{name}")
            };
            match value {
                StatValue::Count(v) => self.add(&full, *v),
                StatValue::Scalar(v) => self.set_scalar(&full, *v),
            }
        }
    }

    /// Iterates over `(name, value)` pairs in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &StatValue)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Statistics under a dotted prefix.
    pub fn with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a StatValue)> {
        self.values
            .iter()
            .filter(move |(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.as_str(), v))
    }

    /// Number of statistics.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Parses a dump produced by [`Stats::dump`] back into a registry.
    ///
    /// Values containing a decimal point load as scalars, others as
    /// counters; the framing lines are ignored. Unparseable lines are
    /// skipped (forward compatibility with annotated dumps).
    pub fn parse_dump(text: &str) -> Stats {
        let mut stats = Stats::new();
        for line in text.lines() {
            if line.starts_with("----------") {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(name), Some(value)) = (parts.next(), parts.next()) else {
                continue;
            };
            if value.contains('.') {
                if let Ok(scalar) = value.parse::<f64>() {
                    stats.set_scalar(name, scalar);
                }
            } else if let Ok(count) = value.parse::<u64>() {
                stats.set_count(name, count);
            }
        }
        stats
    }

    /// Renders the registry in gem5 `stats.txt` style.
    pub fn dump(&self) -> String {
        let mut out = String::from("---------- Begin Simulation Statistics ----------\n");
        let width = self.values.keys().map(String::len).max().unwrap_or(0);
        for (name, value) in &self.values {
            out.push_str(&format!("{name:<width$}  {value}\n"));
        }
        out.push_str("---------- End Simulation Statistics   ----------\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::new();
        s.incr("cpu0.committedInsts");
        s.add("cpu0.committedInsts", 9);
        assert_eq!(s.count("cpu0.committedInsts"), 10);
        assert_eq!(s.count("missing"), 0);
    }

    #[test]
    fn scalars_and_counts_interconvert_on_read() {
        let mut s = Stats::new();
        s.set_scalar("ipc", 1.5);
        s.set_count("insts", 100);
        assert_eq!(s.scalar("insts"), 100.0);
        assert_eq!(s.count("ipc"), 1);
        assert!(s.contains("ipc"));
    }

    #[test]
    fn absorb_prefixes_names() {
        let mut cpu = Stats::new();
        cpu.set_count("insts", 5);
        cpu.set_scalar("ipc", 0.5);
        let mut system = Stats::new();
        system.absorb("system.cpu0", &cpu);
        assert_eq!(system.count("system.cpu0.insts"), 5);
        assert_eq!(system.scalar("system.cpu0.ipc"), 0.5);
        // Absorbing counters twice accumulates.
        system.absorb("system.cpu0", &cpu);
        assert_eq!(system.count("system.cpu0.insts"), 10);
    }

    #[test]
    fn dump_is_sorted_and_framed() {
        let mut s = Stats::new();
        s.set_count("zzz", 1);
        s.set_count("aaa", 2);
        let dump = s.dump();
        let a = dump.find("aaa").unwrap();
        let z = dump.find("zzz").unwrap();
        assert!(a < z);
        assert!(dump.starts_with("---------- Begin"));
        assert!(dump.ends_with("----------\n"));
    }

    #[test]
    fn dump_parse_round_trip() {
        let mut s = Stats::new();
        s.set_count("system.cpu0.committedInsts", 123_456);
        s.set_scalar("system.cpu0.ipc", 1.25);
        s.set_count("simTicks", 0);
        let parsed = Stats::parse_dump(&s.dump());
        assert_eq!(parsed.count("system.cpu0.committedInsts"), 123_456);
        assert!((parsed.scalar("system.cpu0.ipc") - 1.25).abs() < 1e-9);
        assert!(parsed.contains("simTicks"));
        assert_eq!(parsed.len(), s.len());
    }

    #[test]
    fn parse_dump_skips_garbage() {
        let parsed = Stats::parse_dump("not a stat line\nvalid.count 7\nbad.value xyz\n");
        assert_eq!(parsed.count("valid.count"), 7);
        assert_eq!(parsed.len(), 1);
    }

    #[test]
    fn prefix_iteration() {
        let mut s = Stats::new();
        s.set_count("cpu0.insts", 1);
        s.set_count("cpu1.insts", 2);
        s.set_count("mem.reads", 3);
        assert_eq!(s.with_prefix("cpu").count(), 2);
        assert_eq!(s.len(), 3);
    }
}
