//! A generic set-associative cache with true LRU replacement.
//!
//! The per-line payload type `S` carries whatever state the enclosing
//! memory system needs: a dirty bit for Classic caches, a coherence
//! state for Ruby L1s.

/// Cache line size in bytes (fixed at 64 across the simulator).
pub const LINE_BYTES: u64 = 64;

/// Tag of a free way. No line number equals it: line numbers are
/// addresses divided by [`LINE_BYTES`].
const EMPTY: u64 = u64::MAX;

/// A set-associative cache of line-granularity entries.
///
/// ```
/// use simart_fullsim::mem::cache::SetAssocCache;
///
/// // 32 KiB, 8-way: dirty-bit payload.
/// let mut l1 = SetAssocCache::<bool>::new(32 * 1024, 8);
/// assert!(l1.probe(0x1000).is_none());
/// l1.insert(0x1000, false);
/// assert!(l1.probe(0x1000).is_some());
/// ```
///
/// Way `w` of set `s` lives at index `s * ways + w` of three parallel
/// arrays, so a lookup scans `ways` adjacent tags and nothing else.
#[derive(Debug, Clone)]
pub struct SetAssocCache<S> {
    /// Line number held by each way, [`EMPTY`] for a free one.
    tags: Vec<u64>,
    /// `use_clock` at each way's last hit or fill. Live values are
    /// distinct and positive; a free way holds 0, so the minimum of a
    /// set is a free way if there is one and the LRU line otherwise.
    last_use: Vec<u64>,
    /// Payload of each way, `None` for a free one.
    states: Vec<Option<S>>,
    ways: usize,
    set_mask: u64,
    use_clock: u64,
    len: usize,
}

impl<S> SetAssocCache<S> {
    /// Creates a cache of `capacity_bytes` with the given associativity.
    ///
    /// # Panics
    ///
    /// Panics unless the set count derived from capacity / ways / 64-byte
    /// lines is a nonzero power of two.
    pub fn new(capacity_bytes: u64, ways: usize) -> SetAssocCache<S> {
        assert!(ways > 0, "associativity must be positive");
        let lines = capacity_bytes / LINE_BYTES;
        let set_count = (lines as usize) / ways;
        assert!(
            set_count > 0 && set_count.is_power_of_two(),
            "cache geometry must give a power-of-two set count (got {set_count})"
        );
        let slots = set_count * ways;
        SetAssocCache {
            tags: vec![EMPTY; slots],
            last_use: vec![0; slots],
            states: (0..slots).map(|_| None).collect(),
            ways,
            set_mask: set_count as u64 - 1,
            use_clock: 0,
            len: 0,
        }
    }

    fn line_of(addr: u64) -> u64 {
        addr / LINE_BYTES
    }

    /// The slots of the set `tag` maps to.
    fn set_of(&self, tag: u64) -> std::ops::Range<usize> {
        let base = (tag & self.set_mask) as usize * self.ways;
        base..base + self.ways
    }

    /// The slot holding `addr`'s line. No early exit: most lookups miss,
    /// and the branch-free scan is the faster one on a hit too.
    fn find(&self, addr: u64) -> Option<usize> {
        let tag = Self::line_of(addr);
        let set = self.set_of(tag);
        let mut hit = usize::MAX;
        for (way, &resident) in self.tags[set.clone()].iter().enumerate() {
            if resident == tag {
                hit = way;
            }
        }
        (hit != usize::MAX).then(|| set.start + hit)
    }

    /// Probes for `addr`, returning mutable access to its state and
    /// refreshing LRU on a hit.
    pub fn probe(&mut self, addr: u64) -> Option<&mut S> {
        self.use_clock += 1;
        let slot = self.find(addr)?;
        self.last_use[slot] = self.use_clock;
        self.states[slot].as_mut()
    }

    /// Peeks at `addr` without touching LRU state.
    pub fn peek(&self, addr: u64) -> Option<&S> {
        self.states[self.find(addr)?].as_ref()
    }

    /// Inserts a line (which must not already be resident), evicting the
    /// LRU line of the set if full. Returns the evicted `(addr, state)`.
    ///
    /// # Panics
    ///
    /// Panics if the line is already resident — callers must probe first.
    pub fn insert(&mut self, addr: u64, state: S) -> Option<(u64, S)> {
        let tag = Self::line_of(addr);
        let set = self.set_of(tag);
        let (tags, last_use) = (&self.tags[set.clone()], &self.last_use[set.clone()]);
        // One branch-free pass: is the line resident, and which way has
        // the minimum `last_use` — a free one, else the LRU line.
        let (mut resident, mut way, mut oldest) = (false, 0, u64::MAX);
        for (candidate, (&held, &used)) in tags.iter().zip(last_use).enumerate() {
            resident |= held == tag;
            if used < oldest {
                (way, oldest) = (candidate, used);
            }
        }
        assert!(!resident, "inserting already-resident line {addr:#x}");
        let slot = set.start + way;
        self.use_clock += 1;
        self.last_use[slot] = self.use_clock;
        let victim_tag = std::mem::replace(&mut self.tags[slot], tag);
        let victim = self.states[slot].replace(state);
        if victim.is_none() {
            self.len += 1;
        }
        victim.map(|state| (victim_tag * LINE_BYTES, state))
    }

    /// Removes a line, returning its state.
    pub fn invalidate(&mut self, addr: u64) -> Option<S> {
        let slot = self.find(addr)?;
        self.tags[slot] = EMPTY;
        self.last_use[slot] = 0;
        self.len -= 1;
        self.states[slot].take()
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over `(line_addr, state)` of all resident lines, in
    /// unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &S)> {
        let ways = self.tags.iter().zip(&self.states);
        ways.filter_map(|(tag, state)| state.as_ref().map(|state| (tag * LINE_BYTES, state)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert_miss_before() {
        let mut c = SetAssocCache::<u32>::new(4096, 4);
        assert!(c.probe(0x40).is_none());
        c.insert(0x40, 7);
        assert_eq!(c.probe(0x7f).copied(), Some(7), "same line as 0x40");
        assert!(c.probe(0x80).is_none(), "next line misses");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // 2 sets * 2 ways * 64B = 256B cache.
        let mut c = SetAssocCache::<char>::new(256, 2);
        // All these map to set 0 (line numbers 0,2,4,6 with 2 sets).
        let a = 0; // line 0
        let b = 2 * LINE_BYTES;
        let d = 4 * LINE_BYTES;
        c.insert(a, 'a');
        c.insert(b, 'b');
        c.probe(a); // refresh a; b becomes LRU
        let evicted = c.insert(d, 'd').expect("set full");
        assert_eq!(evicted, (b, 'b'));
        assert!(c.probe(a).is_some());
        assert!(c.probe(d).is_some());
    }

    #[test]
    #[should_panic(expected = "already-resident")]
    fn double_insert_panics() {
        let mut c = SetAssocCache::<()>::new(4096, 4);
        c.insert(0x40, ());
        c.insert(0x40, ());
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = SetAssocCache::<u8>::new(4096, 4);
        c.insert(0x100, 9);
        assert_eq!(c.invalidate(0x100), Some(9));
        assert_eq!(c.invalidate(0x100), None);
        assert!(c.is_empty());
    }

    #[test]
    fn peek_does_not_perturb_lru() {
        let mut c = SetAssocCache::<char>::new(256, 2);
        let a = 0; // line 0
        let b = 2 * LINE_BYTES;
        let d = 4 * LINE_BYTES;
        c.insert(a, 'a');
        c.insert(b, 'b');
        c.peek(a); // does NOT refresh a
        let evicted = c.insert(d, 'd').expect("set full");
        assert_eq!(evicted.1, 'a', "a stays LRU despite peek");
    }

    #[test]
    fn capacity_is_respected() {
        let mut c = SetAssocCache::<()>::new(4096, 4);
        for i in 0..1000u64 {
            c.probe(i * LINE_BYTES);
            if c.peek(i * LINE_BYTES).is_none() {
                c.insert(i * LINE_BYTES, ());
            }
        }
        assert!(c.len() <= 64, "4 KiB of 64B lines");
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn bad_geometry_panics() {
        let _ = SetAssocCache::<()>::new(4096, 3);
    }
}
