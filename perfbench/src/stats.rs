//! Order statistics shared by the metrics, the span summary and the
//! steadiness report.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (the mean of the middle pair for an even count), as
/// Python's `statistics.median` computes it. `None` without samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The three quartiles as Python's `statistics.quantiles(values, n=4)`
/// computes them (its default, exclusive method). `None` below two
/// samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Nearest-rank percentile, with `permille` in thousandths (990 is the
/// 99th percentile): the smallest sample with at least that share of
/// the samples at or below it. `None` without samples.
pub fn percentile(values: &[f64], permille: usize) -> Option<f64> {
    let v = sorted(values);
    (!v.is_empty()).then(|| v[rank(v.len(), permille).max(1) - 1])
}

/// 1-based nearest rank of a percentile over `n` samples.
fn rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000)
}

/// Tail percentiles tried, highest first, in thousandths.
const TAIL_LADDER: [usize; 8] = [999, 995, 990, 980, 950, 900, 750, 500];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten
/// samples beyond its rank, as `(percentile, value)`. `None` below
/// eleven samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    TAIL_LADDER.iter().find_map(|&pm| {
        let r = rank(v.len(), pm);
        (r >= 1 && v.len() - r >= 10).then(|| (pm as f64 / 10.0, v[r - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_matches_python() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 has rank 990: ten samples beyond; p99.5 would leave five.
        assert_eq!(tail(&thousand), Some((99.0, 990.0)));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred), Some((90.0, 90.0)));
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty), Some((50.0, 10.0)));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None, "no percentile leaves ten beyond");
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&v, 990), Some(5.0), "p99 of five is the max");
        assert_eq!(percentile(&v, 500), Some(3.0));
        assert_eq!(percentile(&[], 500), None);
    }
}
