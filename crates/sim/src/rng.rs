//! Deterministic, forkable random number generation.
//!
//! Every experiment in the platform takes a single `u64` seed; all stochastic
//! decisions (request addresses, sizes, fault instants, bit-error draws)
//! derive from it through [`DetRng`], a xoshiro256\*\* generator seeded via
//! SplitMix64.
//!
//! [`DetRng::fork`] derives an independent child stream from a label, which
//! lets subsystems (IO generator vs. fault scheduler vs. flash bit errors)
//! consume randomness without perturbing each other — adding a draw in one
//! subsystem does not shift every other subsystem's sequence.

/// Deterministic xoshiro256\*\* random number generator.
///
/// # Example
///
/// ```
/// use pfault_sim::DetRng;
///
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// let x = a.unit_f64();
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    state: [u64; 4],
}

/// SplitMix64 step, used for seeding and stream derivation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a `u64` seed.
    ///
    /// Two generators created from the same seed produce identical
    /// sequences on every platform.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { state }
    }

    /// Derives an independent child generator from a textual label.
    ///
    /// Forking does not advance `self`. The child stream depends on both the
    /// parent's current state and the label, so distinct labels yield
    /// unrelated streams.
    ///
    /// # Example
    ///
    /// ```
    /// use pfault_sim::DetRng;
    ///
    /// let parent = DetRng::new(7);
    /// let mut io = parent.fork("io-generator");
    /// let mut faults = parent.fork("fault-scheduler");
    /// assert_ne!(io.next_u64(), faults.next_u64());
    /// ```
    pub fn fork(&self, label: &str) -> DetRng {
        // FNV-1a over the label mixed with the current state words.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mixed = h
            ^ self.state[0].rotate_left(13)
            ^ self.state[1].rotate_left(29)
            ^ self.state[2].rotate_left(43)
            ^ self.state[3].rotate_left(59);
        DetRng::new(mixed)
    }

    /// Derives an independent child generator from a numeric stream index
    /// (e.g. one per campaign trial).
    pub fn fork_index(&self, index: u64) -> DetRng {
        let mixed = index.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
            ^ self.state[0]
            ^ self.state[3].rotate_left(31);
        DetRng::new(mixed)
    }

    /// Advances the xoshiro256\*\* state and returns the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.step()
    }

    /// A digest of the generator's current stream position, without
    /// advancing it. Two generators with equal fingerprints produce the
    /// same future sequence — warm-state snapshots include this so that a
    /// restored device resumes the *exact* randomness a replayed-from-cold
    /// device would see.
    pub fn state_fingerprint(&self) -> u64 {
        self.state[0]
            .rotate_left(7)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ self.state[1].rotate_left(21)
            ^ self.state[2].rotate_left(37)
            ^ self.state[3].rotate_left(51)
    }

    fn step(&mut self) -> u64 {
        let result = self.state[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // 53-bit uniform in [0,1).
        let u = (self.step() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's nearly-divisionless method.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        if lo == hi {
            return lo;
        }
        lo + self.below(hi - lo + 1)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot pick from an empty slice");
        &items[self.below(items.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = DetRng::new(123);
        let mut b = DetRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_stable_and_label_sensitive() {
        let parent = DetRng::new(9);
        let mut c1 = parent.fork("alpha");
        let mut c1b = parent.fork("alpha");
        let mut c2 = parent.fork("beta");
        assert_eq!(c1.next_u64(), c1b.next_u64());
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn fork_does_not_advance_parent() {
        let mut a = DetRng::new(5);
        let mut b = DetRng::new(5);
        let _ = a.fork("x");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fork_index_streams_differ() {
        let parent = DetRng::new(77);
        let mut s0 = parent.fork_index(0);
        let mut s1 = parent.fork_index(1);
        assert_ne!(s0.next_u64(), s1.next_u64());
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(4);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn chance_is_calibrated() {
        let mut r = DetRng::new(11);
        let hits = (0..20_000).filter(|_| r.chance(0.3)).count();
        let frac = hits as f64 / 20_000.0;
        assert!((frac - 0.3).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = DetRng::new(21);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let v = r.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn between_inclusive() {
        let mut r = DetRng::new(31);
        for _ in 0..1_000 {
            let v = r.between(10, 12);
            assert!((10..=12).contains(&v));
        }
        assert_eq!(r.between(5, 5), 5);
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn below_zero_panics() {
        DetRng::new(0).below(0);
    }

    #[test]
    fn unit_f64_in_range_with_sane_mean() {
        let mut r = DetRng::new(41);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = r.unit_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn pick_selects_all_elements_eventually() {
        let mut r = DetRng::new(51);
        let items = ["a", "b", "c"];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(*r.pick(&items));
        }
        assert_eq!(seen.len(), 3);
    }
}
