//! CART regression trees with histogram-based split search over pre-binned
//! discrete features.
//!
//! Tuning-parameter features take few distinct values (≤ 37 in the BAT
//! spaces), so each feature is binned once per dataset into a column-major
//! `u8` code matrix ([`crate::dataset::BinnedMatrix`]) and every tree node
//! trains from per-bin (sum, sum-of-squares, count) histograms. Child
//! histograms come from the parent-minus-sibling subtraction trick: only
//! the smaller child is re-scanned, the larger is derived by subtraction.
//! Because every distinct value keeps its own bin, the histogram split
//! candidates are exactly the exact sort-based splitter's candidates — the
//! two trainers build the same tree (bit-for-bit whenever target sums incur
//! no rounding, e.g. integer-valued targets).
//!
//! The sort-based splitter is kept as [`RegressionTree::fit_exact`] /
//! `best_split_exact` as the equivalence-test oracle and benchmark
//! baseline. Split quality is variance reduction (equivalent to
//! squared-error gain) in both paths.

use rayon::prelude::*;

use crate::dataset::{BinnedMatrix, Dataset};

/// Hyperparameters for a single regression tree.
#[derive(Debug, Clone, Copy)]
pub struct TreeParams {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples in a leaf.
    pub min_samples_leaf: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 6,
            min_samples_leaf: 5,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted regression tree.
#[derive(Debug, Clone)]
pub struct RegressionTree {
    nodes: Vec<Node>,
}

struct SplitCandidate {
    feature: usize,
    threshold: f64,
    gain: f64,
}

/// A chosen histogram split: the bin boundary plus the exact-splitter
/// threshold it corresponds to.
struct HistSplit {
    feature: usize,
    /// Last bin routed left: rows go left iff `code <= bin`.
    bin: u8,
    threshold: f64,
    gain: f64,
}

/// Relative width of the gain tie band. Two candidate gains within
/// `GAIN_TIE_REL * parent_sse` of each other are treated as tied and
/// resolved by a deterministic key (lowest threshold within a feature,
/// highest feature index across features — the historical `max_by`
/// semantics). The band absorbs last-ulp summation-order differences
/// between the histogram path (per-bin partial sums, parent-minus-sibling
/// subtraction) and the sort-based exact path, so mathematically tied
/// splits resolve identically in both.
const GAIN_TIE_REL: f64 = 1e-9;

/// Per-bin target statistics of one tree node.
#[derive(Debug, Clone, Copy, Default)]
struct BinStat {
    sum: f64,
    sq: f64,
    n: u32,
}

/// A pool of histogram buffers reused across nodes (and, via
/// [`TreeScratch`], across boosting stages). Depth-first growth parks at
/// most one sibling histogram per level, so the pool holds ≤ depth + 1
/// buffers.
#[derive(Debug, Default)]
struct HistPool {
    bufs: Vec<Vec<BinStat>>,
    free: Vec<usize>,
}

impl HistPool {
    /// A zeroed buffer of `total_bins` stats (recycled when possible).
    fn alloc(&mut self, total_bins: usize) -> usize {
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                self.bufs.push(Vec::new());
                self.bufs.len() - 1
            }
        };
        let buf = &mut self.bufs[id];
        buf.clear();
        buf.resize(total_bins, BinStat::default());
        id
    }

    fn release(&mut self, id: usize) {
        self.free.push(id);
    }

    /// `dst -= src`, bin-wise: derives the larger child's histogram from
    /// the parent's (in `dst`) and the freshly-scanned smaller child's.
    fn subtract(&mut self, dst: usize, src: usize) {
        let (a, b) = if dst < src {
            let (lo, hi) = self.bufs.split_at_mut(src);
            (&mut lo[dst], &hi[0][..])
        } else {
            let (lo, hi) = self.bufs.split_at_mut(dst);
            (&mut hi[0], &lo[src][..])
        };
        for (d, s) in a.iter_mut().zip(b) {
            d.sum -= s.sum;
            d.sq -= s.sq;
            d.n -= s.n;
        }
    }
}

/// Reusable fitting buffers: one instance per fit site amortizes every
/// per-node allocation of the old trainer across all nodes, trees and
/// boosting stages.
#[derive(Debug, Default)]
pub(crate) struct TreeScratch {
    /// Working copy of the caller's row set (partitioned in place).
    rows: Vec<usize>,
    /// Single scratch buffer for the stable partition.
    part: Vec<usize>,
    /// Per-node `(target, target²)` gather for histogram builds.
    gather: Vec<(f64, f64)>,
    pool: HistPool,
}

/// Optional folded prediction update: `(predictions, learning_rate)`. When
/// set, every leaf adds `learning_rate * leaf_value` to `predictions[r]`
/// for each training row `r` that lands in it — the boosting update for
/// in-sample rows without a separate predict pass.
pub(crate) type FoldInto<'a> = Option<(&'a mut [f64], f64)>;

/// Stable partition with a single scratch buffer: rows satisfying `pred`
/// first, preserving relative order; returns the split point.
fn stable_partition<F: Fn(usize) -> bool>(
    rows: &mut [usize],
    scratch: &mut Vec<usize>,
    pred: F,
) -> usize {
    scratch.clear();
    let mut write = 0;
    for i in 0..rows.len() {
        let r = rows[i];
        if pred(r) {
            rows[write] = r;
            write += 1;
        } else {
            scratch.push(r);
        }
    }
    rows[write..].copy_from_slice(scratch);
    write
}

/// Accumulate the node's per-bin histogram over `rows`, feature-major so
/// each feature's column-major codes stream contiguously. Targets are
/// gathered once into `gather` (rows order) rather than re-loaded per
/// feature; the per-bin summation order is unchanged.
fn fill_hist(
    binned: &BinnedMatrix,
    targets: &[f64],
    rows: &[usize],
    hist: &mut [BinStat],
    gather: &mut Vec<(f64, f64)>,
) {
    gather.clear();
    gather.extend(rows.iter().map(|&r| {
        let t = targets[r];
        (t, t * t)
    }));
    for f in 0..binned.n_features() {
        let codes = binned.feature_codes(f);
        let base = binned.bin_offset(f);
        for (&r, &(t, tt)) in rows.iter().zip(gather.iter()) {
            let b = &mut hist[base + codes[r] as usize];
            b.sum += t;
            b.sq += tt;
            b.n += 1;
        }
    }
}

/// Tree-growing context shared by the histogram and exact paths.
struct Grower<'a> {
    data: &'a Dataset,
    binned: Option<&'a BinnedMatrix>,
    targets: &'a [f64],
    params: &'a TreeParams,
    part: &'a mut Vec<usize>,
    gather: &'a mut Vec<(f64, f64)>,
    pool: &'a mut HistPool,
    fold: FoldInto<'a>,
    nodes: Vec<Node>,
}

impl Grower<'_> {
    fn leaf(&mut self, value: f64, rows: &[usize]) -> usize {
        if let Some((pred, lr)) = &mut self.fold {
            for &r in rows {
                pred[r] += *lr * value;
            }
        }
        self.nodes.push(Node::Leaf { value });
        self.nodes.len() - 1
    }

    /// The node's leaf value: the mean target of its rows.
    fn leaf_value(&self, sum: f64, n: usize) -> f64 {
        sum / n.max(1) as f64
    }

    /// Histogram path: `hist_id` holds this node's pre-built histogram and
    /// is consumed (released or handed to a child) before returning.
    fn grow_hist(&mut self, rows: &mut [usize], depth: usize, hist_id: usize) -> usize {
        let binned = self.binned.expect("histogram path requires bins");
        let n = rows.len();
        let mut sum = 0.0;
        let mut sq = 0.0;
        for &r in rows.iter() {
            let t = self.targets[r];
            sum += t;
            sq += t * t;
        }
        let value = self.leaf_value(sum, n);
        if depth >= self.params.max_depth || n < 2 * self.params.min_samples_leaf {
            self.pool.release(hist_id);
            return self.leaf(value, rows);
        }
        let Some(best) = self.best_split_hist(hist_id, n as f64, sum, sq) else {
            self.pool.release(hist_id);
            return self.leaf(value, rows);
        };
        let codes = binned.feature_codes(best.feature);
        let mid = stable_partition(rows, self.part, |r| codes[r] <= best.bin);
        if mid == 0 || mid == n {
            // Unreachable for a valid histogram split; kept as a guard.
            self.pool.release(hist_id);
            return self.leaf(value, rows);
        }
        // Scan only the smaller child; derive the larger by subtraction.
        let small_is_left = mid <= n - mid;
        let small_id = self.pool.alloc(binned.total_bins());
        let small_rows = if small_is_left {
            &rows[..mid]
        } else {
            &rows[mid..]
        };
        fill_hist(
            binned,
            self.targets,
            small_rows,
            &mut self.pool.bufs[small_id],
            self.gather,
        );
        self.pool.subtract(hist_id, small_id);
        let (left_id, right_id) = if small_is_left {
            (small_id, hist_id)
        } else {
            (hist_id, small_id)
        };
        let placeholder = self.nodes.len();
        self.nodes.push(Node::Leaf { value }); // replaced below
        let (left_rows, right_rows) = rows.split_at_mut(mid);
        let left = self.grow_hist(left_rows, depth + 1, left_id);
        let right = self.grow_hist(right_rows, depth + 1, right_id);
        self.nodes[placeholder] = Node::Split {
            feature: best.feature,
            threshold: best.threshold,
            left,
            right,
        };
        placeholder
    }

    /// Scan the node's histogram for the best variance-reduction split.
    /// Mirrors `best_split_exact` candidate-for-candidate: boundaries are
    /// only taken between *populated* bins, thresholds are midpoints of the
    /// adjacent populated values, ties within a feature keep the lowest
    /// threshold and ties across features keep the highest feature index
    /// (the exact path's `max_by` semantics).
    fn best_split_hist(&self, hist_id: usize, n: f64, sum: f64, sq: f64) -> Option<HistSplit> {
        let binned = self.binned.expect("histogram path requires bins");
        let parent_sse = sq - sum * sum / n;
        let tie_eps = GAIN_TIE_REL * parent_sse.abs();
        let hist = &self.pool.bufs[hist_id];
        let min_leaf = self.params.min_samples_leaf;
        let mut best: Option<HistSplit> = None;
        for f in 0..binned.n_features() {
            let base = binned.bin_offset(f);
            let bins = &hist[base..base + binned.n_bins(f)];
            let vals = binned.bin_values(f);
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            let mut left_n = 0u32;
            let mut prev: Option<usize> = None;
            let mut feat_best: Option<HistSplit> = None;
            for (b, stat) in bins.iter().enumerate() {
                if stat.n == 0 {
                    continue;
                }
                if let Some(pb) = prev {
                    let ln = f64::from(left_n);
                    let rn = n - ln;
                    if (ln as usize) >= min_leaf && (rn as usize) >= min_leaf {
                        let right_sum = sum - left_sum;
                        let right_sq = sq - left_sq;
                        let sse = (left_sq - left_sum * left_sum / ln)
                            + (right_sq - right_sum * right_sum / rn);
                        let gain = parent_sse - sse;
                        // Earlier (lower) thresholds win ties.
                        if gain > 1e-12
                            && feat_best.as_ref().is_none_or(|x| gain > x.gain + tie_eps)
                        {
                            feat_best = Some(HistSplit {
                                feature: f,
                                bin: pb as u8,
                                threshold: 0.5 * (vals[pb] + vals[b]),
                                gain,
                            });
                        }
                    }
                }
                left_sum += stat.sum;
                left_sq += stat.sq;
                left_n += stat.n;
                prev = Some(b);
            }
            if let Some(fb) = feat_best {
                // Later (higher) features win ties.
                if best.as_ref().is_none_or(|ov| fb.gain > ov.gain - tie_eps) {
                    best = Some(fb);
                }
            }
        }
        best
    }

    /// Exact path: per-node, per-feature sort over raw values.
    fn grow_exact(&mut self, rows: &mut [usize], depth: usize) -> usize {
        let sum = rows.iter().map(|&r| self.targets[r]).sum::<f64>();
        let value = self.leaf_value(sum, rows.len());
        if depth >= self.params.max_depth || rows.len() < 2 * self.params.min_samples_leaf {
            return self.leaf(value, rows);
        }
        let Some(best) = best_split_exact(self.data, self.targets, rows, self.params) else {
            return self.leaf(value, rows);
        };
        let data = self.data;
        let mid = stable_partition(rows, self.part, |r| {
            data.value(r, best.feature) <= best.threshold
        });
        if mid == 0 || mid == rows.len() {
            return self.leaf(value, rows);
        }
        let placeholder = self.nodes.len();
        self.nodes.push(Node::Leaf { value }); // replaced below
        let (left_rows, right_rows) = rows.split_at_mut(mid);
        let left = self.grow_exact(left_rows, depth + 1);
        let right = self.grow_exact(right_rows, depth + 1);
        self.nodes[placeholder] = Node::Split {
            feature: best.feature,
            threshold: best.threshold,
            left,
            right,
        };
        placeholder
    }
}

impl RegressionTree {
    /// Fit a tree to `(data, targets)` where `targets` overrides the
    /// dataset's own target column (the boosting residuals). Uses the
    /// histogram trainer whenever the dataset is binnable (≤ 256 distinct
    /// values per feature), falling back to the exact sort-based splitter
    /// otherwise.
    pub fn fit(data: &Dataset, targets: &[f64], rows: &[usize], params: &TreeParams) -> Self {
        let mut scratch = TreeScratch::default();
        Self::fit_with_scratch(data, targets, rows, params, &mut scratch, None, false)
    }

    /// Fit with the exact sort-based splitter regardless of binnability —
    /// the equivalence-test oracle and benchmark baseline.
    pub fn fit_exact(data: &Dataset, targets: &[f64], rows: &[usize], params: &TreeParams) -> Self {
        let mut scratch = TreeScratch::default();
        Self::fit_with_scratch(data, targets, rows, params, &mut scratch, None, true)
    }

    /// Fit reusing caller-owned scratch buffers, optionally folding leaf
    /// values into a prediction vector (`fold`), optionally forcing the
    /// exact splitter.
    pub(crate) fn fit_with_scratch(
        data: &Dataset,
        targets: &[f64],
        rows: &[usize],
        params: &TreeParams,
        scratch: &mut TreeScratch,
        fold: FoldInto<'_>,
        exact: bool,
    ) -> Self {
        assert_eq!(targets.len(), data.n_rows());
        let TreeScratch {
            rows: row_buf,
            part,
            gather,
            pool,
        } = scratch;
        row_buf.clear();
        row_buf.extend_from_slice(rows);
        let binned = if exact { None } else { data.binned() };
        let mut grower = Grower {
            data,
            binned,
            targets,
            params,
            part,
            gather,
            pool,
            fold,
            nodes: Vec::new(),
        };
        match binned {
            Some(b) => {
                let root = grower.pool.alloc(b.total_bins());
                fill_hist(
                    b,
                    targets,
                    row_buf,
                    &mut grower.pool.bufs[root],
                    grower.gather,
                );
                grower.grow_hist(row_buf, 0, root);
            }
            None => {
                grower.grow_exact(row_buf, 0);
            }
        }
        RegressionTree {
            nodes: grower.nodes,
        }
    }

    /// Predict one row by walking from the root. Ensembles score through
    /// their compiled form instead; the walk is its reference.
    pub fn predict(&self, row: &[f64]) -> f64 {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Every split's `(feature, threshold)`, in node order.
    pub(crate) fn splits(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.nodes.iter().filter_map(|node| match node {
            Node::Split {
                feature, threshold, ..
            } => Some((*feature, *threshold)),
            Node::Leaf { .. } => None,
        })
    }

    /// Walk the tree depth first, left subtree first, numbering the leaves
    /// left to right from 0: `leaf(value)` sees the leaves in that order,
    /// and `split(feature, threshold, lo, mid)` sees each split once its
    /// left subtree, leaves `lo..mid`, is numbered. Returns the leaf count.
    pub(crate) fn number_leaves(
        &self,
        leaf: &mut impl FnMut(f64),
        split: &mut impl FnMut(usize, f64, usize, usize),
    ) -> usize {
        self.number_from(0, 0, leaf, split)
    }

    /// [`number_leaves`](Self::number_leaves) below `node`, whose first
    /// leaf is number `first`; returns the number after its last leaf.
    fn number_from(
        &self,
        node: usize,
        first: usize,
        leaf: &mut impl FnMut(f64),
        split: &mut impl FnMut(usize, f64, usize, usize),
    ) -> usize {
        match &self.nodes[node] {
            Node::Leaf { value } => {
                leaf(*value);
                first + 1
            }
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                let mid = self.number_from(*left, first, leaf, split);
                split(*feature, *threshold, first, mid);
                self.number_from(*right, mid, leaf, split)
            }
        }
    }

    /// Number of nodes (diagnostics).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tree is a single leaf.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }
}

/// The sort-based exact splitter. Accumulates each equal-value group
/// separately before folding it into the left prefix — the same summation
/// order as a histogram bin — and applies the shared tie band, so a
/// freshly-scanned histogram node picks the identical split bit-for-bit.
fn best_split_exact(
    data: &Dataset,
    targets: &[f64],
    rows: &[usize],
    params: &TreeParams,
) -> Option<SplitCandidate> {
    let n = rows.len() as f64;
    let sum: f64 = rows.iter().map(|&r| targets[r]).sum();
    let sum_sq: f64 = rows.iter().map(|&r| targets[r] * targets[r]).sum();
    let parent_sse = sum_sq - sum * sum / n;
    let tie_eps = GAIN_TIE_REL * parent_sse.abs();

    let per_feature: Vec<SplitCandidate> = (0..data.n_features())
        .into_par_iter()
        .filter_map(|feature| {
            // Sort (value, target) pairs once per feature (stable, so rows
            // keep their node order within an equal-value group).
            let mut pairs: Vec<(f64, f64)> = rows
                .iter()
                .map(|&r| (data.value(r, feature), targets[r]))
                .collect();
            pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN feature"));
            let mut best: Option<SplitCandidate> = None;
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            let mut left_n = 0.0;
            let mut i = 0;
            while i < pairs.len() {
                // Group-local sums first, then one fold into the prefix.
                let v = pairs[i].0;
                let mut group_sum = 0.0;
                let mut group_sq = 0.0;
                let mut group_n = 0.0;
                let mut j = i;
                while j < pairs.len() && pairs[j].0 == v {
                    let t = pairs[j].1;
                    group_sum += t;
                    group_sq += t * t;
                    group_n += 1.0;
                    j += 1;
                }
                left_sum += group_sum;
                left_sq += group_sq;
                left_n += group_n;
                i = j;
                if i >= pairs.len() {
                    break;
                }
                // Candidate boundary between value `v` and the next value.
                let right_n = n - left_n;
                if (left_n as usize) < params.min_samples_leaf
                    || (right_n as usize) < params.min_samples_leaf
                {
                    continue;
                }
                let right_sum = sum - left_sum;
                let right_sq = sum_sq - left_sq;
                let sse = (left_sq - left_sum * left_sum / left_n)
                    + (right_sq - right_sum * right_sum / right_n);
                let gain = parent_sse - sse;
                // Earlier (lower) thresholds win ties.
                if gain > 1e-12 && best.as_ref().is_none_or(|b| gain > b.gain + tie_eps) {
                    best = Some(SplitCandidate {
                        feature,
                        threshold: 0.5 * (v + pairs[i].0),
                        gain,
                    });
                }
            }
            best
        })
        .collect();
    // Later (higher) features win ties — the historical `max_by` rule.
    let mut overall: Option<SplitCandidate> = None;
    for fb in per_feature {
        if overall
            .as_ref()
            .is_none_or(|ov| fb.gain > ov.gain - tie_eps)
        {
            overall = Some(fb);
        }
    }
    overall
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> (Dataset, Vec<f64>) {
        // y = 1 for x<5, 10 for x>=5; second feature is noise.
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![f64::from(i % 10), f64::from(i % 3)])
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| if r[0] < 5.0 { 1.0 } else { 10.0 })
            .collect();
        (
            Dataset::new(&rows, y.clone(), vec!["x".into(), "noise".into()]),
            y,
        )
    }

    #[test]
    fn learns_a_step_function() {
        let (data, y) = step_data();
        let rows: Vec<usize> = (0..data.n_rows()).collect();
        let tree = RegressionTree::fit(&data, &y, &rows, &TreeParams::default());
        assert!((tree.predict(&[2.0, 0.0]) - 1.0).abs() < 1e-9);
        assert!((tree.predict(&[7.0, 0.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn depth_zero_is_mean_leaf() {
        let (data, y) = step_data();
        let rows: Vec<usize> = (0..data.n_rows()).collect();
        let tree = RegressionTree::fit(
            &data,
            &y,
            &rows,
            &TreeParams {
                max_depth: 0,
                min_samples_leaf: 1,
            },
        );
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        assert!((tree.predict(&[0.0, 0.0]) - mean).abs() < 1e-9);
        assert!(tree.is_empty());
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let (data, y) = step_data();
        let rows: Vec<usize> = (0..data.n_rows()).collect();
        let tree = RegressionTree::fit(
            &data,
            &y,
            &rows,
            &TreeParams {
                max_depth: 10,
                min_samples_leaf: 60, // cannot split 100 rows into 60+60,
            },
        );
        assert!(tree.is_empty());
    }

    #[test]
    fn splits_prefer_informative_features() {
        let (data, y) = step_data();
        let rows: Vec<usize> = (0..data.n_rows()).collect();
        let s = best_split_exact(&data, &y, &rows, &TreeParams::default()).unwrap();
        assert_eq!(s.feature, 0);
        assert!((s.threshold - 4.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_tree_matches_exact_tree() {
        let (data, y) = step_data();
        let rows: Vec<usize> = (0..data.n_rows()).collect();
        for params in [
            TreeParams::default(),
            TreeParams {
                max_depth: 10,
                min_samples_leaf: 1,
            },
            TreeParams {
                max_depth: 3,
                min_samples_leaf: 7,
            },
        ] {
            let hist = RegressionTree::fit(&data, &y, &rows, &params);
            let exact = RegressionTree::fit_exact(&data, &y, &rows, &params);
            for q in 0..data.n_rows() {
                assert_eq!(hist.predict(data.row(q)), exact.predict(data.row(q)));
            }
            // Off-grid queries must agree too: thresholds are identical.
            for x in [-1.0, 0.5, 4.49, 4.51, 9.7] {
                assert_eq!(hist.predict(&[x, 1.2]), exact.predict(&[x, 1.2]));
            }
        }
    }

    #[test]
    fn duplicate_rows_are_handled() {
        // Bootstrap-style row multisets (forest bagging) must work.
        let (data, y) = step_data();
        let rows: Vec<usize> = (0..data.n_rows()).map(|i| (i * 7) % 50).collect();
        let hist = RegressionTree::fit(&data, &y, &rows, &TreeParams::default());
        let exact = RegressionTree::fit_exact(&data, &y, &rows, &TreeParams::default());
        for q in 0..data.n_rows() {
            assert_eq!(hist.predict(data.row(q)), exact.predict(data.row(q)));
        }
    }

    #[test]
    fn folded_predictions_match_predict() {
        let (data, y) = step_data();
        let rows: Vec<usize> = (0..data.n_rows()).collect();
        let mut scratch = TreeScratch::default();
        let mut folded = vec![0.0; data.n_rows()];
        let lr = 0.3;
        let tree = RegressionTree::fit_with_scratch(
            &data,
            &y,
            &rows,
            &TreeParams::default(),
            &mut scratch,
            Some((&mut folded, lr)),
            false,
        );
        for (i, &f) in folded.iter().enumerate() {
            assert_eq!(f, lr * tree.predict(data.row(i)));
        }
    }

    #[test]
    fn leaves_are_numbered_left_to_right() {
        // Root splits on feature 0; its left child, stored last, splits on
        // feature 1. Left to right the leaves are 10, 20, 30.
        let split = |feature, threshold, left, right| Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        let leaf = |value| Node::Leaf { value };
        let tree = RegressionTree {
            nodes: vec![
                split(0, 1.5, 2, 1),
                leaf(30.0),
                split(1, -0.5, 3, 4),
                leaf(10.0),
                leaf(20.0),
            ],
        };
        let mut leaves = Vec::new();
        let mut splits = Vec::new();
        let n = tree.number_leaves(&mut |v| leaves.push(v), &mut |f, t, lo, mid| {
            splits.push((f, t, lo, mid))
        });
        assert_eq!(n, 3);
        assert_eq!(leaves, [10.0, 20.0, 30.0]);
        assert_eq!(splits, [(1, -0.5, 0, 1), (0, 1.5, 0, 2)]);
        // Compiled, it routes rows as the walk does, also past an infinite
        // threshold and NaN ones (a feature holding only -inf and +inf
        // splits at NaN), which sort nowhere among the finite thresholds.
        let odd = RegressionTree {
            nodes: vec![
                split(1, f64::INFINITY, 1, 4),
                split(0, f64::NAN, 2, 3),
                leaf(40.0),
                leaf(45.0),
                split(0, f64::NAN, 5, 6),
                leaf(50.0),
                leaf(60.0),
            ],
        };
        let scorer = crate::scorer::TreeScorer::compile(&[tree.clone(), odd.clone()], 2);
        let inf = f64::INFINITY;
        for row in [
            [1.0, -1.0],
            [1.0, 0.0],
            [1.5, -0.5],
            [2.0, -9.0],
            [f64::NAN, 0.0],
            [-inf, inf],
            [inf, f64::NAN],
        ] {
            let mut got = Vec::new();
            scorer.for_each_leaf(&row, |_, values| got.push(values[0]));
            assert_eq!(got, [tree.predict(&row), odd.predict(&row)], "row {row:?}");
        }
    }

    #[test]
    fn scratch_reuse_is_clean_across_fits() {
        let (data, y) = step_data();
        let rows: Vec<usize> = (0..data.n_rows()).collect();
        let mut scratch = TreeScratch::default();
        let a = RegressionTree::fit_with_scratch(
            &data,
            &y,
            &rows,
            &TreeParams::default(),
            &mut scratch,
            None,
            false,
        );
        let b = RegressionTree::fit_with_scratch(
            &data,
            &y,
            &rows,
            &TreeParams::default(),
            &mut scratch,
            None,
            false,
        );
        for q in 0..data.n_rows() {
            assert_eq!(a.predict(data.row(q)), b.predict(data.row(q)));
        }
    }
}
