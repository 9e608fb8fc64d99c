//! Percentile and block-median arithmetic.

/// The `q`-quantile (`0.0..=1.0`) of an ascending slice, nearest-rank; 0
/// for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unordered sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Split samples stamped with their completion time into the blocks
/// `edges[i]..edges[i + 1]` and return each block's values, ascending.
/// Samples outside every block (warm-up, stragglers) are dropped.
pub fn split_blocks(samples: &[(u64, f64)], edges: &[u64]) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); edges.len().saturating_sub(1)];
    for &(at, value) in samples {
        // Index of the last edge at or before `at`.
        if let Some(idx) = edges.partition_point(|&e| e <= at).checked_sub(1) {
            if let Some(block) = out.get_mut(idx) {
                block.push(value);
            }
        }
    }
    for block in &mut out {
        block.sort_by(f64::total_cmp);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.999), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn block_median_ignores_one_disturbed_block() {
        // Five blocks of 10 time units; block 2 is slow.
        let mut samples = Vec::new();
        for t in 0..50u64 {
            let slow = (20..30).contains(&t);
            samples.push((100 + t, if slow { 900.0 } else { 100.0 + (t % 10) as f64 }));
        }
        samples.push((99, 1e9)); // warm-up
        samples.push((150, 1e9)); // straggler
        let blocks = split_blocks(&samples, &[100, 110, 120, 130, 140, 150]);
        assert!(blocks.iter().all(|b| b.len() == 10));
        let p50s: Vec<f64> = blocks.iter().map(|b| percentile(b, 0.5)).collect();
        assert_eq!(p50s, vec![104.0, 104.0, 900.0, 104.0, 104.0]);
        assert_eq!(median(&p50s), 104.0);
    }
}
