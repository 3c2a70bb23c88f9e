//! Summary statistics shared by every workload: medians, percentiles
//! and the tail-percentile rule.

/// The candidate tail percentiles, highest first.
pub const TAIL_CANDIDATES: [u32; 3] = [99, 95, 90];

/// Samples that lie strictly beyond the nearest-rank `pct` percentile
/// of `n` samples.
pub fn beyond(n: usize, pct: u32) -> usize {
    n - rank(n, pct)
}

/// 1-based nearest rank of the `pct` percentile among `n` samples.
fn rank(n: usize, pct: u32) -> usize {
    (pct as usize * n).div_ceil(100).max(1)
}

/// The tail rule: the highest of p99, p95 or p90 that leaves at least
/// ten samples beyond it, or `None` when even p90 leaves fewer.
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n > 0 && beyond(n, p) >= 10)
}

/// Nearest-rank percentile of `samples` (sorted internally).
pub fn percentile(samples: &[f64], pct: u32) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(s.len(), pct) - 1]
}

/// Median (the mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A tail latency at a percentile fixed per workload. The fixed
/// percentile must satisfy the tail rule for the run's sample count;
/// when it does not (a run much slower than the one the percentile
/// was frozen from), the rule's own choice is used instead and the
/// substitution is visible in `pct`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported.
    pub pct: u32,
    /// Its value.
    pub value: f64,
}

/// Tail of `samples` at `fixed_pct`, falling back by the tail rule
/// (and finally to the maximum) when too few samples lie beyond it.
pub fn tail(samples: &[f64], fixed_pct: u32) -> Tail {
    let n = samples.len();
    let pct = if n > 0 && beyond(n, fixed_pct) >= 10 {
        fixed_pct
    } else {
        tail_percentile(n).unwrap_or(100)
    };
    Tail {
        pct,
        value: percentile(samples, pct),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(199), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(999), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(beyond(n, p) >= 10, "n={n} p={p}");
                // No higher candidate would also qualify.
                for q in TAIL_CANDIDATES.into_iter().filter(|&q| q > p) {
                    assert!(beyond(n, q) < 10, "n={n}: p{q} also qualifies");
                }
            }
        }
    }

    #[test]
    fn fixed_tail_falls_back_when_too_few_samples() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            tail(&samples, 99),
            Tail {
                pct: 99,
                value: 990.0
            }
        );
        assert_eq!(tail(&samples[..300], 99).pct, 95);
        assert_eq!(tail(&samples[..50], 99).pct, 100);
        assert_eq!(tail(&samples[..50], 99).value, 50.0);
    }

    #[test]
    fn percentile_and_median() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(percentile(&v, 50), 3.0);
        assert_eq!(percentile(&v, 99), 5.0);
        assert!(median(&[]).is_nan());
    }
}
