//! Order statistics the report is built from.

/// Number of samples that must lie beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// Median and tail of one operation's latencies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (mean of the two middle samples for even counts).
    pub p50: f64,
    /// The tail value: the highest order statistic with at least
    /// [`TAIL_BEYOND`] samples above it, i.e. the 11th largest sample.
    pub tail: f64,
    /// The percentile `tail` sits at, `100 * (1 - 10 / n)`; `None` when
    /// fewer than 11 samples leave no sample with 10 beyond it, in which
    /// case `tail` is the maximum.
    pub tail_pct: Option<f64>,
}

/// Median of `values` (sorted or not); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    })
}

/// Index of the tail sample in an ascending array of `n` samples: the
/// last index with `TAIL_BEYOND` samples after it.
fn tail_index(n: usize) -> Option<usize> {
    n.checked_sub(TAIL_BEYOND + 1)
}

/// Median and tail of `values`; `None` when empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let p50 = median(values)?;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let (tail, tail_pct) = match tail_index(n) {
        Some(i) => (v[i], Some(100.0 * (1.0 - TAIL_BEYOND as f64 / n as f64))),
        None => (v[n - 1], None),
    };
    Some(Summary {
        n,
        p50,
        tail,
        tail_pct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // 1..=100: the 11th largest is 90, with 91..=100 beyond it.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!(s.n, 100);
        assert_eq!(s.tail, 90.0);
        assert_eq!(s.tail_pct, Some(90.0));
        assert_eq!(v.iter().filter(|&&x| x > s.tail).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_ignores_input_order_and_moves_with_count() {
        let mut v: Vec<f64> = (0..1000).map(|i| ((i * 7919) % 1000) as f64).collect();
        let s = summarize(&v).unwrap();
        assert_eq!(s.tail, 989.0);
        assert_eq!(s.tail_pct, Some(99.0));
        v.truncate(11);
        let s = summarize(&v).unwrap();
        let mut sorted = v.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(s.tail, sorted[0], "11 samples: the minimum has 10 beyond");
        assert_eq!(s.tail_pct, Some(100.0 * (1.0 - 10.0 / 11.0)));
    }

    #[test]
    fn too_few_samples_report_the_maximum_without_a_percentile() {
        let s = summarize(&[5.0, 1.0, 9.0]).unwrap();
        assert_eq!(s.tail, 9.0);
        assert_eq!(s.tail_pct, None);
        assert_eq!(s.p50, 5.0);
        assert_eq!(summarize(&[]), None);
    }
}
