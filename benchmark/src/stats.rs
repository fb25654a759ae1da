//! Order statistics on timing samples.

/// Sort ascending; timings are never NaN.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `p` (1..=100) of an ascending slice: the
/// smallest sample with at least `p` % of the sample at or below it.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty() && (1..=100).contains(&p));
    let rank = (sorted.len() * p as usize).div_ceil(100);
    sorted[rank.max(1) - 1]
}

/// Median (nearest rank) of an unsorted sample; 0 for an empty one.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    percentile(&sorted(v.to_vec()), 50)
}

/// The samples of each whole second of a window of `seconds`, by the
/// second they began in; a trailing part-second belongs to no block.
pub fn second_blocks(at_s: &[f64], values: &[f64], seconds: f64) -> Vec<Vec<f64>> {
    let mut blocks = vec![Vec::new(); seconds as usize];
    for (&at, &v) in at_s.iter().zip(values) {
        if let Some(block) = blocks.get_mut(at as usize) {
            block.push(v);
        }
    }
    blocks
}

/// The quietest third (at least one) of the non-empty blocks, by block
/// median. Interference from other tenants of the host only ever slows a
/// second down, so the fastest seconds are the ones it touched least.
pub fn quietest_third(blocks: &[Vec<f64>]) -> Vec<&Vec<f64>> {
    let mut by_median: Vec<(f64, &Vec<f64>)> = blocks
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| (median(b), b))
        .collect();
    by_median.sort_by(|a, b| a.0.total_cmp(&b.0));
    by_median.truncate(by_median.len().div_ceil(3));
    by_median.into_iter().map(|(_, b)| b).collect()
}

/// `(max − min) ÷ median` of the per-second block medians of a closed
/// loop: how much the machine drifted inside one window.
pub fn block_spread(block_medians: &[f64]) -> f64 {
    if block_medians.len() < 2 {
        return 0.0;
    }
    let s = sorted(block_medians.to_vec());
    (s[s.len() - 1] - s[0]) / percentile(&s, 50)
}
