//! Order statistics the benchmark reports.

use gkap_core::scale::percentile;

/// Median (nearest-rank p50) of a sample set; 0 for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The highest whole percentile, at most p99, that leaves at least ten
/// of `n` samples beyond it: the largest `p` with `n * (100 - p) >= 1000`.
/// Below 20 samples no percentile above the median qualifies and the
/// median is returned.
pub fn tail_percentile(n: usize) -> u32 {
    (50..=99)
        .rev()
        .find(|&p| n * (100 - p as usize) >= 1000)
        .unwrap_or(50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_leaves_ten_beyond() {
        // The four workloads' unit counts.
        assert_eq!(tail_percentile(240), 95);
        assert_eq!(tail_percentile(5000), 99);
        assert_eq!(tail_percentile(500), 98);
        assert_eq!(tail_percentile(100), 90);
        // Exactly ten beyond qualifies; nine does not.
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(tail_percentile(199), 94);
        assert_eq!(tail_percentile(10), 50);
        for n in [20, 37, 240, 999, 5000, 100_000] {
            let p = tail_percentile(n) as usize;
            assert!(n * (100 - p) >= 1000, "n={n} p={p}");
            assert!(
                p == 99 || n * (100 - p - 1) < 1000,
                "n={n} p={p} not highest"
            );
        }
    }

    #[test]
    fn median_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&samples), 50.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
