//! Order statistics and ratio formatting shared by every report line.

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of an ascending slice.
pub fn median(sorted: &[f64]) -> f64 {
    quantile(sorted, 0.5)
}

/// Sorts a copy ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest percentile, capped at p99, that still has at least ten
/// samples beyond it: `(q, value)`. `None` below 11 samples. With 1 000
/// samples this is p99; with 20 it is the median.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n < 11 {
        return None;
    }
    let p99_rank = (99 * n).div_ceil(100);
    if n - 10 >= p99_rank {
        Some((0.99, sorted[p99_rank - 1]))
    } else {
        // The largest rank with ten samples beyond it.
        Some(((n - 10) as f64 / n as f64, sorted[n - 11]))
    }
}

/// A ratio that always prints with its base, e.g. `0.8421 (3369/4001)`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Ratio {
    pub num: f64,
    pub den: f64,
}

impl Ratio {
    pub fn new(num: f64, den: f64) -> Ratio {
        Ratio { num, den }
    }

    /// `num / den`, or 0 when the base is empty.
    pub fn value(self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }
}

impl std::fmt::Display for Ratio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4} ({}/{})", self.value(), trim(self.num), trim(self.den))
    }
}

fn trim(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_p99_with_ten_beyond_at_one_thousand_samples() {
        let s = ramp(1000);
        let (q, v) = tail(&s).unwrap();
        assert_eq!(q, 0.99);
        assert_eq!(v, 990.0);
        assert_eq!(s.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_on_small_runs() {
        for n in [11usize, 20, 57, 500, 999, 1001, 5000] {
            let s = ramp(n);
            let (q, v) = tail(&s).unwrap();
            assert!(q <= 0.99);
            let beyond = s.iter().filter(|&&x| x > v).count();
            assert!(beyond >= 10, "n={n}: only {beyond} beyond");
            // It is the highest such percentile: one rank higher leaves
            // fewer than ten beyond, or the cap binds.
            assert!(beyond == 10 || q == 0.99, "n={n}: {beyond} beyond at q={q}");
        }
        assert_eq!(tail(&ramp(20)).unwrap().1, median(&ramp(20)));
        assert!(tail(&ramp(10)).is_none());
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let s = ramp(4);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 0.5), 2.0);
        assert_eq!(quantile(&s, 0.51), 3.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
    }

    #[test]
    fn ratios_print_with_their_base() {
        assert_eq!(Ratio::new(3.0, 4.0).to_string(), "0.7500 (3/4)");
        assert_eq!(Ratio::new(0.0, 0.0).to_string(), "0.0000 (0/0)");
        assert_eq!(Ratio::new(1.5, 3.0).to_string(), "0.5000 (1.500/3)");
    }
}
