//! Summary statistics used throughout the evaluation: the paper reports
//! medians with interquartile ranges (IQR) for every bar chart.

/// Median of a sample (NaN-free input expected).
///
/// # Panics
/// Panics on empty input.
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// Arithmetic mean.
///
/// # Panics
/// Panics on empty input.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of empty sample");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// `(q1, median, q3)` using linear interpolation between order statistics.
///
/// # Panics
/// Panics on empty input.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(!xs.is_empty(), "quartiles of empty sample");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in samples"));
    (
        percentile(&s, 0.25),
        percentile(&s, 0.5),
        percentile(&s, 0.75),
    )
}

/// Interpolated percentile of a **sorted** sample, `p` in [0, 1].
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let idx = p * (n - 1) as f64;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    let frac = idx - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// A median-with-IQR summary, the unit the paper's bar charts report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample size.
    pub n: usize,
}

impl Summary {
    /// Summarizes a sample.
    ///
    /// # Panics
    /// Panics on empty input.
    pub fn of(xs: &[f64]) -> Summary {
        let (q1, median, q3) = quartiles(xs);
        Summary {
            q1,
            median,
            q3,
            n: xs.len(),
        }
    }

    /// Renders as `median [q1, q3]` with the given precision.
    pub fn display(&self, decimals: usize) -> String {
        format!(
            "{:.d$} [{:.d$}, {:.d$}]",
            self.median,
            self.q1,
            self.q3,
            d = decimals
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_interpolate() {
        let (q1, m, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(q1, 2.0);
        assert_eq!(m, 3.0);
        assert_eq!(q3, 4.0);
    }

    #[test]
    fn mean_simple() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn summary_display() {
        let s = Summary::of(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(s.n, 4);
        assert!(s.q1 <= s.median && s.median <= s.q3);
        assert!(s.display(1).contains('['));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_rejected() {
        let _ = median(&[]);
    }
}
