//! Lightweight measurement accumulators used by benchmark harnesses.

/// Log-linear quantile sketch for latency distributions: each power-of-two
/// range is split into 16 linear sub-buckets, so any reported quantile is
/// within ~6.25% of the true sample — tight enough for p999 SLO tables.
/// Values below 16 are exact. Deterministic and mergeable (bucket-wise
/// addition), so per-task sketches can be combined without ordering
/// effects. Fixed 976-counter footprint (~8 KiB).
#[derive(Clone, Debug)]
pub struct PercentileSketch {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

/// Linear sub-buckets per power-of-two range (16 → ≤ 6.25% relative error).
const SUBBUCKETS: u64 = 16;
/// Bucket count: 16 exact small values + 60 ranges × 16 sub-buckets.
const SKETCH_BUCKETS: usize = 16 + 60 * 16;

impl Default for PercentileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl PercentileSketch {
    /// Empty sketch.
    pub fn new() -> Self {
        PercentileSketch {
            buckets: vec![0; SKETCH_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    fn index_of(v: u64) -> usize {
        if v < SUBBUCKETS {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros() as u64;
        // ranges [2^msb, 2^(msb+1)) for msb ≥ 4, 16 linear steps each
        let group = msb - 3;
        let sub = (v >> (msb - 4)) & (SUBBUCKETS - 1);
        ((group * SUBBUCKETS + sub) as usize).min(SKETCH_BUCKETS - 1)
    }

    /// Upper bound of bucket `idx` — the value a quantile reports.
    fn upper_of(idx: usize) -> u64 {
        if idx < SUBBUCKETS as usize {
            return idx as u64;
        }
        let group = idx as u64 / SUBBUCKETS;
        let sub = idx as u64 % SUBBUCKETS;
        let msb = group + 3;
        let lower = (1u64 << msb) + (sub << (msb - 4));
        // the topmost bucket's upper bound saturates at u64::MAX
        lower.saturating_add((1u64 << (msb - 4)) - 1)
    }

    /// Record one value.
    pub fn add(&mut self, v: u64) {
        self.buckets[Self::index_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }
    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }
    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }
    /// Mean of recorded values.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The q-quantile (q in 0..=1): upper bound of the sub-bucket holding
    /// the rank-⌈q·n⌉ sample, capped at the true maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (((self.count as f64) * q.clamp(0.0, 1.0)).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::upper_of(i).min(self.max);
            }
        }
        self.max
    }

    /// Merge another sketch into this one.
    pub fn merge(&mut self, other: &PercentileSketch) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_sane() {
        let p = PercentileSketch::new();
        assert_eq!(p.quantile(0.999), 0);
        assert_eq!(p.mean(), 0.0);
        assert_eq!(p.max(), 0);
    }

    #[test]
    fn sketch_small_values_are_exact() {
        let mut p = PercentileSketch::new();
        for v in 0..16u64 {
            p.add(v);
        }
        assert_eq!(p.quantile(0.5), 7);
        assert_eq!(p.quantile(1.0), 15);
    }

    #[test]
    fn sketch_relative_error_bounded() {
        let mut p = PercentileSketch::new();
        for v in 1..=1_000_000u64 {
            p.add(v);
        }
        for (q, truth) in [
            (0.5, 500_000.0),
            (0.9, 900_000.0),
            (0.99, 990_000.0),
            (0.999, 999_000.0),
        ] {
            let got = p.quantile(q) as f64;
            let rel = (got - truth).abs() / truth;
            assert!(rel <= 0.0625, "q{q}: got {got}, want ~{truth} (rel {rel})");
            // reported value is an upper bound of the true quantile's bucket
            assert!(got >= truth * (1.0 - 1e-9), "q{q} under-reports");
        }
        assert_eq!(p.quantile(1.0), 1_000_000);
        assert_eq!(p.count(), 1_000_000);
    }

    #[test]
    fn sketch_merge_equals_sequential() {
        let vals: Vec<u64> = (0..10_000u64)
            .map(|i| i.wrapping_mul(2654435761) % (1 << 40))
            .collect();
        let mut all = PercentileSketch::new();
        let mut a = PercentileSketch::new();
        let mut b = PercentileSketch::new();
        for (i, &v) in vals.iter().enumerate() {
            all.add(v);
            if i % 3 == 0 {
                a.add(v);
            } else {
                b.add(v);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.sum(), all.sum());
        assert_eq!(a.max(), all.max());
        for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
    }

    #[test]
    fn sketch_handles_extreme_values() {
        let mut p = PercentileSketch::new();
        p.add(0);
        p.add(u64::MAX);
        p.add(u64::MAX);
        assert_eq!(p.count(), 3);
        assert_eq!(p.quantile(1.0), u64::MAX);
        assert_eq!(p.quantile(0.01), 0);
    }
}
