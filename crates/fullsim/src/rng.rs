//! Deterministic randomness for simulation.
//!
//! Every stochastic choice in the simulator (address streams, branch
//! directions, failure signatures) draws from a [`DetRng`] seeded by a
//! *stable string fingerprint* of the configuration, so identical
//! configurations always produce identical simulations — the property
//! the paper's reproducibility story depends on.
//!
//! The generator is xoshiro256++ with its state expanded from a 64-bit
//! seed by SplitMix64; the simulator's recorded statistics pin every
//! bit of its output.

use simart_codec::fnv1a;

/// A deterministic RNG derived from a textual seed.
#[derive(Debug, Clone)]
pub struct DetRng {
    state: [u64; 4],
}

impl DetRng {
    /// Seeds from an arbitrary string (e.g. a config fingerprint).
    pub fn from_label(label: &str) -> DetRng {
        DetRng::seeded(fnv1a(label.as_bytes()))
    }

    /// Expands `seed` into the generator state with SplitMix64.
    fn seeded(mut seed: u64) -> DetRng {
        let mut splitmix = || {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        DetRng {
            state: [splitmix(), splitmix(), splitmix(), splitmix()],
        }
    }

    /// Derives an independent child stream for a named component.
    pub fn fork(&self, component: &str) -> DetRng {
        // Mix the component name into a fresh seed rather than cloning
        // state, so sibling components get decorrelated streams.
        let salt = fnv1a(component.as_bytes());
        DetRng::seeded(salt ^ self.base_sample())
    }

    fn base_sample(&self) -> u64 {
        // Clone so `fork` does not perturb this stream.
        self.clone().next_u64()
    }

    /// Next u64 (one xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`, by multiply-shift.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform f64 in `[0, 1)`: 53 random mantissa bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, probability: f64) -> bool {
        self.unit() < probability
    }

    /// Picks an index according to relative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut draw = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if draw < *w {
                return i;
            }
            draw -= w;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_label_same_stream() {
        let mut a = DetRng::from_label("config-x");
        let mut b = DetRng::from_label("config-x");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_diverge() {
        let mut a = DetRng::from_label("config-x");
        let mut b = DetRng::from_label("config-y");
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn forks_are_deterministic_and_decorrelated() {
        let root = DetRng::from_label("root");
        let mut a1 = root.fork("cpu0");
        let mut a2 = root.fork("cpu0");
        let mut b = root.fork("cpu1");
        assert_eq!(a1.next_u64(), a2.next_u64());
        assert_ne!(a1.next_u64(), b.next_u64());
    }

    #[test]
    fn fork_does_not_perturb_parent() {
        let mut r1 = DetRng::from_label("p");
        let mut r2 = DetRng::from_label("p");
        let _ = r1.fork("child");
        assert_eq!(r1.next_u64(), r2.next_u64());
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = DetRng::from_label("w");
        let weights = [0.0, 10.0, 0.0];
        for _ in 0..100 {
            assert_eq!(rng.weighted_index(&weights), 1);
        }
        let mut counts = [0usize; 2];
        let weights = [1.0, 3.0];
        for _ in 0..4000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((2.0..4.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = DetRng::from_label("r");
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
    }
}
