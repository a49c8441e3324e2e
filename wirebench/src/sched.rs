//! Seeded randomness and the open-loop arrival schedule.
//!
//! The generator is the benchmark's own (SplitMix64), not the
//! program's, so a change to the program can never change the offered
//! load.

pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Send offsets (ns from the start of the timed phase) of `n` Poisson
/// arrivals at `rate` per second: exponential gaps, cumulative.
pub fn poisson(seed: u64, rate: f64, n: usize) -> Vec<u64> {
    let mut rng = SplitMix64(seed ^ 0x0A11_1CA7_E5C4_ED01);
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            at += -(1.0 - rng.unit()).ln() / rate * 1e9;
            at as u64
        })
        .collect()
}

/// FNV-1a 64: the benchmark's stable digest for schedules and workload
/// definitions.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(schedule: &[u64]) -> Vec<u8> {
        schedule.iter().flat_map(|t| t.to_le_bytes()).collect()
    }

    #[test]
    fn schedule_is_byte_stable_for_a_seed() {
        let a = poisson(42, 5_000.0, 10_000);
        let b = poisson(42, 5_000.0, 10_000);
        assert_eq!(bytes(&a), bytes(&b));
        // Pinned: a change to the generator or the gap formula changes
        // every open-loop workload's offered load, so it must show.
        assert_eq!(fnv1a(&bytes(&a)), 0xcbab_d427_726e_63f3);
    }

    #[test]
    fn schedule_changes_with_the_seed() {
        let a = poisson(42, 5_000.0, 1_000);
        let b = poisson(43, 5_000.0, 1_000);
        assert_ne!(bytes(&a), bytes(&b));
    }

    #[test]
    fn schedule_has_the_requested_rate() {
        let s = poisson(9, 5_000.0, 100_000);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        let rate = s.len() as f64 / (*s.last().unwrap() as f64 / 1e9);
        assert!((rate - 5_000.0).abs() < 5_000.0 * 0.02, "rate {rate}");
    }
}
