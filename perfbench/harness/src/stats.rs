//! Order statistics for the benchmark's reports.

/// Median of `xs` (mean of the two middle values for even counts).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The `p`-th percentile by nearest rank, refused unless at least ten
/// samples lie beyond it: a tail read off fewer samples is really the
/// maximum of a handful of runs, and moves with every one of them.
pub fn percentile(xs: &[f64], p: f64) -> Result<f64, String> {
    assert!((0.0..100.0).contains(&p), "percentile out of range");
    let n = xs.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < 10 {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it; need at least 10"
        ));
    }
    Ok(sorted(xs)[rank - 1])
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(
            percentile(&xs, 99.0).is_err(),
            "999 samples leave 9 beyond p99"
        );
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), Ok(990.0));
        assert!(
            percentile(&xs[..8], 50.0).is_err(),
            "8 samples leave 4 beyond p50"
        );
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn median_of_even_count_is_the_mean_of_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
