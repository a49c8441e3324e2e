//! A fixed-memory log-linear latency histogram (HdrHistogram-style).
//!
//! Values below 128 get a bucket each; above that every power of two is
//! split into 128 linear sub-buckets, so a reported percentile is within
//! 1/128 (< 0.8%) of the exact nearest-rank value. Memory is fixed
//! (7,424 counters) whatever the sample count, and merging two
//! histograms is plain counter addition, so per-thread histograms merge
//! deterministically.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;
/// Length of a [`Windowed`] window.
pub const WINDOW_NS: u64 = 500_000_000;

#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

fn index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    let mantissa = (v >> shift) as usize;
    ((shift as usize + 1) << SUB_BITS) + (mantissa - SUB)
}

/// The inclusive value range `[lo, hi]` bucket `idx` covers.
fn bounds(idx: usize) -> (u64, u64) {
    if idx < SUB {
        return (idx as u64, idx as u64);
    }
    let shift = (idx >> SUB_BITS) - 1;
    let mantissa = ((idx & (SUB - 1)) + SUB) as u64;
    let lo = mantissa << shift;
    (lo, lo + ((1u64 << shift) - 1))
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl Histogram {
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    fn rank_bucket(&self, q: f64) -> Option<usize> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(idx);
            }
        }
        None
    }

    /// The nearest-rank `q`-quantile (`0 < q <= 1`), reported as the
    /// highest value of its bucket; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        self.rank_bucket(q).map_or(0, |idx| bounds(idx).1)
    }

    /// Samples in buckets above `v`'s bucket: the samples that lie beyond
    /// a reported value `v` for certain.
    pub fn above(&self, v: u64) -> u64 {
        self.counts[index(v) + 1..].iter().sum()
    }
}

/// Latency samples for a whole run and per half-second window of the
/// time each request was sent (or due). A host stall inflates the tail
/// of one or two windows; the median of the window percentiles is what
/// the benchmark reports for p99, so one stall does not move a run.
#[derive(Clone, Default)]
pub struct Windowed {
    pub all: Histogram,
    windows: Vec<Histogram>,
}

impl Windowed {
    pub fn new(windows: usize) -> Windowed {
        Windowed {
            all: Histogram::default(),
            windows: vec![Histogram::default(); windows],
        }
    }

    /// Record `v` for a request sent `since_start_ns` into the run; the
    /// last window also takes anything later.
    pub fn record(&mut self, since_start_ns: u64, v: u64) {
        self.all.record(v);
        let last = self.windows.len().saturating_sub(1);
        if let Some(w) = self
            .windows
            .get_mut(((since_start_ns / WINDOW_NS) as usize).min(last))
        {
            w.record(v);
        }
    }

    pub fn merge(&mut self, other: &Windowed) {
        self.all.merge(&other.all);
        if self.windows.len() < other.windows.len() {
            self.windows
                .resize(other.windows.len(), Histogram::default());
        }
        for (a, b) in self.windows.iter_mut().zip(&other.windows) {
            a.merge(b);
        }
    }

    /// Each non-empty window's `q`-quantile, in window order.
    pub fn window_quantiles(&self, q: f64) -> Vec<u64> {
        self.windows
            .iter()
            .filter(|h| h.count() > 0)
            .map(|h| h.quantile(q))
            .collect()
    }

    /// The median over windows of each window's `q`-quantile, and the
    /// number of windows that had samples.
    pub fn window_median(&self, q: f64) -> (u64, usize) {
        let mut values = self.window_quantiles(q);
        values.sort_unstable();
        (
            values.get(values.len() / 2).copied().unwrap_or(0),
            values.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::SplitMix64;

    fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn buckets_tile_the_value_range() {
        let mut expected_lo = 0u64;
        for idx in 0..BUCKETS {
            let (lo, hi) = bounds(idx);
            assert_eq!(lo, expected_lo, "gap before bucket {idx}");
            assert_eq!(index(lo), idx);
            assert_eq!(index(hi), idx);
            if hi == u64::MAX {
                assert_eq!(idx, BUCKETS - 1);
                return;
            }
            expected_lo = hi + 1;
        }
        panic!("buckets stop short of u64::MAX");
    }

    #[test]
    fn percentiles_match_sorted_nearest_rank() {
        let mut rng = SplitMix64(7);
        for n in [1usize, 2, 10, 99, 1000, 25_000] {
            let mut hist = Histogram::default();
            let mut values: Vec<u64> = (0..n)
                .map(|_| {
                    // Log-uniform spread from 1 ns to ~1 s.
                    let exp = rng.next() % 30;
                    (1u64 << exp) + rng.next() % (1u64 << exp)
                })
                .collect();
            for &v in &values {
                hist.record(v);
            }
            values.sort_unstable();
            for q in [0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let exact = nearest_rank(&values, q);
                let got = hist.quantile(q);
                let (lo, hi) = bounds(index(got));
                assert!(
                    (lo..=hi).contains(&exact),
                    "n={n} q={q}: exact {exact} outside reported bucket [{lo}, {hi}]"
                );
                assert!(got - exact <= exact / 128, "n={n} q={q}: {got} vs {exact}");
            }
        }
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut all = Histogram::default();
        for v in 0..5_000u64 {
            let v = v * v;
            if v % 3 == 0 { &mut a } else { &mut b }.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        for q in [0.5, 0.99] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
    }

    #[test]
    fn window_median_ignores_one_stalled_window() {
        let mut w = Windowed::new(5);
        for window in 0..5u64 {
            // Window 2 had a stall: its tail is 100x the others'.
            let stall = if window == 2 { 100 } else { 1 };
            for i in 0..1_000u64 {
                let v = if i < 985 {
                    1_000 + i
                } else {
                    (50_000 + 1_000 * (i - 985)) * stall
                };
                w.record(window * WINDOW_NS + i, v);
            }
        }
        let (p99, windows) = w.window_median(0.99);
        assert_eq!(windows, 5);
        assert_eq!(p99, w.windows[0].quantile(0.99));
        assert!(p99 < 100_000, "{p99}");
        // Window 0's ten samples past its p99, plus window 2's stall tail.
        assert_eq!(w.all.above(p99), 4 * 10 + 15);
        assert!(w.all.quantile(0.999) > 1_000_000);
        // Anything past the last window lands in it.
        w.record(60_000_000_000, 7);
        assert_eq!(w.windows[4].count(), 1_001);
    }

    #[test]
    fn above_counts_samples_past_a_reported_value() {
        let mut hist = Histogram::default();
        for v in 1..=2_000u64 {
            hist.record(v * 1_000);
        }
        let p99 = hist.quantile(0.99);
        let exact = (1..=2_000u64).filter(|v| v * 1_000 > p99).count() as u64;
        assert_eq!(hist.above(p99), exact);
        assert!(exact >= 10);
        assert_eq!(Histogram::default().above(0), 0);
    }
}
