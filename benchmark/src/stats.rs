//! Order statistics used for every reported number.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `p` percent of the samples at or below it.
/// `None` for an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sort a sample set in place (total order; timings are never NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Nearest-rank percentile of an unsorted sample set; 0 when empty (a
/// layer a workload never calls reports zero time, not "missing").
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile_sorted(&v, p).unwrap_or(0.0)
}

/// Median over reps: the middle value, or the mean of the two middle
/// values for an even count. `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Run-to-run spread of one metric: `(max − min) / median`, 0 for a single
/// rep or a zero median.
pub fn spread(values: &[f64]) -> f64 {
    let (Some(med), Some(lo), Some(hi)) = (
        median(values),
        values.iter().copied().reduce(f64::min),
        values.iter().copied().reduce(f64::max),
    ) else {
        return 0.0;
    };
    if med == 0.0 {
        0.0
    } else {
        (hi - lo) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), Some(5.0));
        assert_eq!(percentile_sorted(&v, 95.0), Some(10.0));
        assert_eq!(percentile_sorted(&v, 90.0), Some(9.0));
        assert_eq!(percentile_sorted(&v, 1.0), Some(1.0));
        assert_eq!(percentile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(percentile_sorted(&v, 100.0), Some(10.0));
        assert_eq!(percentile_sorted(&[], 50.0), None);
        // 1,000 samples: p95 is the 950th, leaving 50 beyond it.
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_sorted(&big, 95.0), Some(950.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_and_spread_over_reps() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(spread(&[10.0, 11.0, 9.0]), 0.2);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }
}
