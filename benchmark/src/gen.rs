//! Seeded input generation: replicas, replica tags and submission
//! order. The program only ever sees the generated parameter vectors.

/// SplitMix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound` ≥ 1; the modulo bias is far below
    /// anything a shuffle of a few thousand items can show).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// The replica parameter that makes run hashes distinct. Fixed width,
/// so the bytes a run record takes do not depend on the seed.
pub fn rep_tag(seed: u64, index: usize) -> String {
    format!("rep={seed:016x}-{index:06}")
}

/// The parameters that define the simulated configuration: everything
/// but the replica tag.
pub fn config_of(params: &[String]) -> &[String] {
    match params.last() {
        Some(last) if last.starts_with("rep=") => &params[..params.len() - 1],
        _ => params,
    }
}

/// `replicas` tagged copies of every base configuration, in an order
/// the seed decides (Fisher–Yates).
pub fn generate(base: &[Vec<String>], replicas: usize, seed: u64) -> Vec<Vec<String>> {
    let mut runs: Vec<Vec<String>> = Vec::with_capacity(base.len() * replicas);
    for _ in 0..replicas {
        for config in base {
            let mut params = config.clone();
            params.push(rep_tag(seed, runs.len()));
            runs.push(params);
        }
    }
    let mut rng = Rng::new(seed);
    for i in (1..runs.len()).rev() {
        runs.swap(i, rng.below(i + 1));
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Vec<Vec<String>> {
        (0..40)
            .map(|i| vec![format!("cpu{}", i % 4), format!("{}", i / 4)])
            .collect()
    }

    #[test]
    fn same_seed_gives_the_same_run_list() {
        assert_eq!(generate(&base(), 3, 7), generate(&base(), 3, 7));
    }

    #[test]
    fn different_seed_changes_order_and_tags_but_not_configs() {
        let a = generate(&base(), 3, 7);
        let b = generate(&base(), 3, 8);
        assert_ne!(a, b);
        let order = |runs: &[Vec<String>]| -> Vec<Vec<String>> {
            runs.iter().map(|p| config_of(p).to_vec()).collect()
        };
        assert_ne!(order(&a), order(&b), "submission order follows the seed");
        let tags = |runs: &[Vec<String>]| -> Vec<String> {
            runs.iter().map(|p| p.last().cloned().unwrap()).collect()
        };
        assert!(tags(&a).iter().all(|t| !tags(&b).contains(t)));
        let mut configs_a = order(&a);
        let mut configs_b = order(&b);
        configs_a.sort();
        configs_b.sort();
        assert_eq!(configs_a, configs_b, "the multiset of configs is fixed");
    }

    #[test]
    fn every_run_is_distinct_and_tags_have_one_width() {
        let runs = generate(&base(), 5, 123_456_789);
        let mut sorted = runs.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 200);
        let width = rep_tag(0, 0).len();
        assert!(runs.iter().all(|p| p.last().unwrap().len() == width));
        assert_eq!(rep_tag(u64::MAX, 999_999).len(), width);
    }
}
