//! Order statistics for host-time samples.

/// Median (mean of the middle two for an even count); 0 for no samples.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Mean of the samples from the 40th to the 60th percentile: a median
/// that averages the middle fifth of the samples instead of resting on the
/// one or two at the centre. 0 for no samples.
pub fn central_mean(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    if n == 0 {
        return 0.0;
    }
    let lo = n * 2 / 5;
    let hi = (n * 3).div_ceil(5).max(lo + 1);
    s[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// The highest percentile that still has at least ten samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, `100 * (n - 10) / n` (100 = the maximum, when there
    /// are fewer than eleven samples).
    pub pct: f64,
    /// Sample count.
    pub n: usize,
}

/// See [`Tail`].
pub fn tail(v: &[f64]) -> Tail {
    let s = sorted(v);
    let n = s.len();
    if n < 11 {
        return Tail {
            value: s.last().copied().unwrap_or(0.0),
            pct: 100.0,
            n,
        };
    }
    Tail {
        value: s[n - 11],
        pct: 100.0 * (n - 10) as f64 / n as f64,
        n,
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn central_mean_averages_the_middle_fifth() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(central_mean(&v), 5.5);
        assert_eq!(central_mean(&[1.0, 2.0, 100.0]), 2.0);
        assert_eq!(central_mean(&[7.0]), 7.0);
        assert_eq!(central_mean(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 40.0);
        assert_eq!(t.pct, 80.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        assert_eq!(tail(&[1.0, 5.0]).value, 5.0);
    }
}
