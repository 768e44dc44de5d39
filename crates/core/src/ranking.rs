//! Friedman-style rank aggregation: the mean ranks of a campaign summary,
//! also available to code that runs tuners outside a campaign (say, tuner
//! variants that are not in the registry), so "mean rank" means the same
//! thing there.

/// Mean rank per tuner from per-repetition final objectives,
/// `finals[tuner][rep]` (lower objective = better). Within every
/// repetition tuners are ranked by final value with failures (`None`)
/// last; ties share the average rank; ranks are averaged over
/// repetitions. Ragged inputs (some tuner missing a repetition, e.g. in
/// a partial artifact) treat the missing trials as failures.
pub fn friedman_mean_ranks(finals: &[Vec<Option<f64>>]) -> Vec<f64> {
    let n = finals.len();
    let reps = finals.iter().map(Vec::len).max().unwrap_or(0);
    let mut rank_sum = vec![0.0f64; n];
    // (`finals` is tuner-major, so the repetition loop must index into it.)
    #[allow(clippy::needless_range_loop)]
    for s in 0..reps {
        let key = |i: usize| finals[i].get(s).copied().flatten();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| match (key(a), key(b)) {
            (Some(x), Some(y)) => x.total_cmp(&y),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => std::cmp::Ordering::Equal,
        });
        let mut pos = 0usize;
        while pos < n {
            let mut end = pos + 1;
            while end < n && key(order[end]) == key(order[pos]) {
                end += 1;
            }
            let shared = (pos + 1..=end).sum::<usize>() as f64 / (end - pos) as f64;
            for &t in &order[pos..end] {
                rank_sum[t] += shared;
            }
            pos = end;
        }
    }
    rank_sum
        .into_iter()
        .map(|s| if reps == 0 { 0.0 } else { s / reps as f64 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_order_ties_and_failures() {
        // rep 0: a=1.0, b=2.0, c=None → ranks 1, 2, 3
        // rep 1: a=2.0, b=2.0, c=1.0 → ranks 2.5, 2.5, 1
        let finals = vec![
            vec![Some(1.0), Some(2.0)],
            vec![Some(2.0), Some(2.0)],
            vec![None, Some(1.0)],
        ];
        let ranks = friedman_mean_ranks(&finals);
        assert_eq!(ranks, vec![1.75, 2.25, 2.0]);
    }

    #[test]
    fn ragged_input_counts_missing_reps_as_failures() {
        let finals = vec![vec![Some(1.0), Some(1.0)], vec![Some(2.0)]];
        let ranks = friedman_mean_ranks(&finals);
        // rep 0: 1 vs 2 → 1, 2; rep 1: 1 vs missing → 1, 2.
        assert_eq!(ranks, vec![1.0, 2.0]);
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(friedman_mean_ranks(&[]).is_empty());
        assert_eq!(friedman_mean_ranks(&[vec![], vec![]]), vec![0.0, 0.0]);
    }
}
