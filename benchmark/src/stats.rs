//! Order statistics and the report digest.

/// Nearest-rank quantile `p` (0 < p ≤ 1) of `sorted`, which must be
/// ascending and non-empty: the smallest value with at least `p · n`
/// values at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Five-number summary of one timing's samples, by nearest rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises `samples` (any order; must be non-empty).
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            min: sorted[0],
            p25: nearest_rank(&sorted, 0.25),
            median: nearest_rank(&sorted, 0.5),
            p75: nearest_rank(&sorted, 0.75),
            max: sorted[sorted.len() - 1],
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.p75 - self.p25) / self.median
    }
}

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&v, 0.25), 1.0);
        assert_eq!(nearest_rank(&v, 0.5), 2.0);
        assert_eq!(nearest_rank(&v, 0.75), 3.0);
        assert_eq!(nearest_rank(&v, 1.0), 4.0);
        assert_eq!(nearest_rank(&[7.0], 0.75), 7.0);
    }

    #[test]
    fn summary_sorts_its_input() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (5, 1.0, 3.0, 5.0));
        assert_eq!((s.p25, s.p75), (2.0, 4.0));
        assert!((s.spread() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
