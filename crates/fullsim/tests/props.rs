//! Property-based tests for the simulator substrates: event ordering,
//! the block walk, cache capacity, coherence safety, and statistics.

use proptest::prelude::*;
use simart_fullsim::event::EventQueue;
use simart_fullsim::isa::program::{generate, BLOCK_CAP};
use simart_fullsim::isa::{AddressProfile, InstMix, InstStream, OpClass};
use simart_fullsim::mem::cache::{SetAssocCache, LINE_BYTES};
use simart_fullsim::mem::ruby::{CoState, RubySystem};
use simart_fullsim::mem::{AccessKind, MemorySystem};
use simart_fullsim::rng::DetRng;
use simart_fullsim::stats::Stats;

/// The cache as it was before its sets became flat arrays, kept as the
/// reference model: one `Vec` of `(tag, state, last_use)` per set, the
/// victim of a full set being the entry with the smallest `last_use`.
struct ReferenceCache {
    sets: Vec<Vec<(u64, usize, u64)>>,
    ways: usize,
    use_clock: u64,
}

impl ReferenceCache {
    fn set_and_tag(&mut self, addr: u64) -> (&mut Vec<(u64, usize, u64)>, u64) {
        let tag = addr / LINE_BYTES;
        let set = tag as usize % self.sets.len();
        (&mut self.sets[set], tag)
    }

    fn probe(&mut self, addr: u64) -> Option<usize> {
        self.use_clock += 1;
        let clock = self.use_clock;
        let (set, tag) = self.set_and_tag(addr);
        let entry = set.iter_mut().find(|e| e.0 == tag)?;
        entry.2 = clock;
        Some(entry.1)
    }

    fn insert(&mut self, addr: u64, state: usize) -> Option<(u64, usize)> {
        self.use_clock += 1;
        let (clock, ways) = (self.use_clock, self.ways);
        let (set, tag) = self.set_and_tag(addr);
        if set.len() < ways {
            set.push((tag, state, clock));
            return None;
        }
        let lru = (0..ways).min_by_key(|&way| set[way].2).unwrap();
        let victim = std::mem::replace(&mut set[lru], (tag, state, clock));
        Some((victim.0 * LINE_BYTES, victim.1))
    }

    fn invalidate(&mut self, addr: u64) -> Option<usize> {
        let (set, tag) = self.set_and_tag(addr);
        let way = set.iter().position(|e| e.0 == tag)?;
        Some(set.swap_remove(way).1)
    }
}

proptest! {
    /// Events pop in nondecreasing time order and none are lost.
    #[test]
    fn event_queue_is_a_priority_queue(times in proptest::collection::vec(0u64..1_000_000, 0..256)) {
        let mut queue = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            queue.schedule(*t, i);
        }
        let mut popped = Vec::new();
        let mut last = 0;
        while let Some(event) = queue.pop() {
            prop_assert!(event.when >= last, "time must not go backwards");
            last = event.when;
            popped.push(event.payload);
        }
        popped.sort_unstable();
        prop_assert_eq!(popped, (0..times.len()).collect::<Vec<_>>());
    }

    /// Under arbitrary interleaved schedule/pop traffic the queue pops
    /// exactly what a sorted list would: the pending event with the
    /// smallest `(when, priority, insertion order)` — same tie-break
    /// order at every step, not just the same multiset.
    #[test]
    fn event_queue_trace_equals_sorted_oracle(
        ops in proptest::collection::vec(
            // (pop?, delta from now, priority)
            (any::<bool>(), 0u64..5_000_000_000_000, -2i32..3),
            1..300,
        ),
    ) {
        let mut queue = EventQueue::new();
        let mut oracle: Vec<(u64, i32, usize)> = Vec::new();
        fn pop_oracle(oracle: &mut Vec<(u64, i32, usize)>) -> Option<(u64, i32, usize)> {
            let min = oracle.iter().copied().min()?;
            oracle.retain(|e| *e != min);
            Some(min)
        }
        for (i, (pop, delta, priority)) in ops.into_iter().enumerate() {
            if pop && !queue.is_empty() {
                let got = queue.pop().map(|e| (e.when, e.priority, e.payload));
                prop_assert_eq!(got, pop_oracle(&mut oracle));
                prop_assert_eq!(Some(queue.now()), got.map(|e| e.0));
            } else {
                let when = queue.now() + delta;
                queue.schedule_with_priority(when, priority, i);
                oracle.push((when, priority, i));
            }
            prop_assert_eq!(queue.len(), oracle.len());
            prop_assert_eq!(queue.peek_when(), oracle.iter().map(|e| e.0).min());
        }
        while let Some(event) = queue.pop() {
            let got = Some((event.when, event.priority, event.payload));
            prop_assert_eq!(got, pop_oracle(&mut oracle));
        }
        prop_assert!(oracle.is_empty());
    }

    /// The stream walks its program exactly as a reference that keeps
    /// the set of block-entry indices does: same instructions, blocks
    /// ending at every branch, at `BLOCK_CAP` and at the last index,
    /// one miss per distinct entry. The mix has no memory class, so
    /// branches are the thread RNG's only draws and the reference can
    /// replay them.
    #[test]
    fn block_walk_matches_entry_set_reference(
        weights in proptest::collection::vec(0.01f64..1.0, 7..8),
        seed in any::<u64>(),
    ) {
        const CLASSES: [OpClass; 7] = [
            OpClass::IntAlu, OpClass::IntMul, OpClass::FpAlu, OpClass::FpDiv,
            OpClass::Branch, OpClass::Fence, OpClass::Syscall,
        ];
        let label = format!("walk/{seed:x}");
        let mix = InstMix::new(&CLASSES.into_iter().zip(weights).collect::<Vec<_>>());
        let program = generate(&label, &mix, 1024);
        let mut stream = InstStream::new(&label, 0, mix, AddressProfile::friendly());
        let mut rng = DetRng::from_label(&format!("{label}/t0"));
        let mut entries = std::collections::HashSet::new();
        let (mut pos, mut run) = (0, 0);
        for _ in 0..50_000 {
            if run == 0 {
                entries.insert(pos);
            }
            let inst = stream.next_inst();
            let is_branch = inst.op == OpClass::Branch;
            prop_assert_eq!((inst.op, inst.dst, inst.src1, inst.src2),
                (program[pos].op, program[pos].dst, program[pos].src1, program[pos].src2));
            // 0.88 is the stream's branch bias.
            prop_assert_eq!(inst.taken, is_branch && rng.chance(0.88));
            prop_assert_eq!(stream.decode_counts().1, entries.len() as u64);
            run += 1;
            if is_branch || run == BLOCK_CAP || pos + 1 == program.len() {
                run = 0;
            }
            pos = if inst.taken { rng.below(1024) as usize } else { (pos + 1) % program.len() };
        }
        let (hits, misses) = stream.decode_counts();
        prop_assert_eq!(hits + misses, stream.generated());
        prop_assert!(misses <= program.len() as u64);
    }

    /// Same-tick events pop in insertion order (determinism anchor).
    #[test]
    fn event_queue_fifo_within_tick(n in 1usize..64) {
        let mut queue = EventQueue::new();
        for i in 0..n {
            queue.schedule(42, i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| queue.pop().map(|e| e.payload)).collect();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    /// The cache never exceeds its capacity and serves back what was
    /// inserted, under arbitrary probe/insert/invalidate traffic.
    #[test]
    fn cache_capacity_and_consistency(ops in proptest::collection::vec((0u8..3, 0u64..256), 0..512)) {
        let mut cache = SetAssocCache::<u64>::new(4096, 4); // 64 lines
        let mut resident: std::collections::BTreeMap<u64, u64> = Default::default();
        for (op, line) in ops {
            let addr = line * LINE_BYTES;
            match op {
                0 => {
                    if let Some(state) = cache.probe(addr) {
                        prop_assert_eq!(*state, resident[&line]);
                    } else {
                        prop_assert!(!resident.contains_key(&line));
                    }
                }
                1 => {
                    if cache.peek(addr).is_none() {
                        if let Some((evicted_addr, _)) = cache.insert(addr, line) {
                            resident.remove(&(evicted_addr / LINE_BYTES));
                        }
                        resident.insert(line, line);
                    }
                }
                _ => {
                    let cached = cache.invalidate(addr).is_some();
                    prop_assert_eq!(cached, resident.remove(&line).is_some());
                }
            }
            prop_assert!(cache.len() <= 64);
            prop_assert_eq!(cache.len(), resident.len());
        }
    }

    /// The flat-array cache and the reference model agree at every step
    /// of arbitrary traffic on hit or miss, on the state served, on the
    /// evicted `(addr, state)` and on `len()`. Sixteen candidate lines
    /// per 4-way set, so most inserts evict; the state is the index of
    /// the inserting operation, so an evicted pair names its insert.
    #[test]
    fn cache_matches_the_per_set_vec_reference(
        ops in proptest::collection::vec((0u8..4, 0u64..256), 2000..3000),
    ) {
        let mut cache = SetAssocCache::<usize>::new(4096, 4); // 16 sets
        let mut reference = ReferenceCache { sets: vec![Vec::new(); 16], ways: 4, use_clock: 0 };
        for (step, (op, line)) in ops.into_iter().enumerate() {
            let addr = line * LINE_BYTES + line % LINE_BYTES;
            let peeked = reference.sets[line as usize % 16].iter().find(|e| e.0 == line).map(|e| e.1);
            prop_assert_eq!(cache.peek(addr).copied(), peeked);
            match op {
                0 => prop_assert_eq!(cache.probe(addr).copied(), reference.probe(addr)),
                1 | 2 if peeked.is_none() => {
                    prop_assert_eq!(cache.insert(addr, step), reference.insert(addr, step));
                }
                1 | 2 => {}
                _ => prop_assert_eq!(cache.invalidate(addr), reference.invalidate(addr)),
            }
            prop_assert_eq!(cache.len(), reference.sets.iter().map(Vec::len).sum::<usize>());
        }
        let mut resident: Vec<_> = cache.iter().map(|(addr, state)| (addr / LINE_BYTES, *state)).collect();
        let mut expected: Vec<_> = reference.sets.concat().iter().map(|e| (e.0, e.1)).collect();
        resident.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(resident, expected);
    }

    /// Coherence safety (SWMR): under arbitrary multi-core traffic, a
    /// line is never writable on two cores, and never simultaneously
    /// writable and shared — for both Ruby protocols.
    #[test]
    fn ruby_single_writer_multiple_reader(
        accesses in proptest::collection::vec((0usize..4, 0u64..24, any::<bool>()), 1..400),
        mesi in any::<bool>(),
    ) {
        let mut system = if mesi { RubySystem::new_mesi(4) } else { RubySystem::new_mi(4) };
        let lines: Vec<u64> = (0..24).map(|i| 0x4_0000 + i * LINE_BYTES).collect();
        for (core, line, write) in accesses {
            let addr = lines[line as usize];
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            system.access(core, addr, kind);
            // Check the invariant on the touched line.
            let mut exclusive = 0;
            let mut shared = 0;
            for c in 0..4 {
                match system.l1_state(c, addr) {
                    Some(CoState::M) | Some(CoState::E) => exclusive += 1,
                    Some(CoState::S) => shared += 1,
                    None => {}
                }
            }
            prop_assert!(exclusive <= 1, "two exclusive owners");
            prop_assert!(exclusive == 0 || shared == 0, "owner coexists with sharers");
        }
    }

    /// Stats absorb() is additive for counters under arbitrary merges.
    #[test]
    fn stats_absorb_is_additive(counts in proptest::collection::vec((0u8..4, 1u64..1000), 0..64)) {
        let mut total = Stats::new();
        let mut expected = [0u64; 4];
        for (slot, amount) in counts {
            let mut piece = Stats::new();
            piece.add(&format!("c{slot}"), amount);
            expected[slot as usize] += amount;
            total.absorb("sys", &piece);
        }
        for (slot, value) in expected.iter().enumerate() {
            prop_assert_eq!(total.count(&format!("sys.c{slot}")), *value);
        }
    }
}
