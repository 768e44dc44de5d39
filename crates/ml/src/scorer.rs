//! Tree ensembles compiled for pool scoring, after QuickScorer (Lucchese
//! et al., SIGIR 2015).
//!
//! A walk down a tree costs one dependent load and branch per level. The
//! compiled form trades it for a few independent loads and ANDs per tree.
//! Each tree numbers its leaves left to right. A split that sends a row
//! right rules out every leaf of its left subtree, and the row's exit leaf
//! is the leftmost leaf no split rules out: the lowest set bit of the AND
//! of the masks of the splits the row fails.
//!
//! Those ANDs are precomputed per value range. Each feature keeps the
//! ensemble's distinct thresholds on it, sorted, and a value's rank is the
//! number of them it exceeds (NaN exceeds them all, so it goes right
//! everywhere, as in the walk). For every (tree, feature the tree tests,
//! rank) the scorer stores the AND of the masks of the tree's splits on that
//! feature that a value of the rank fails, in as many `u64` words as the
//! tree's leaves need. Scoring a row is one binary search per feature, then
//! per tree and mask word one AND per tested feature, and a trailing-zero
//! count.

use crate::tree::RegressionTree;

/// Candidates ranked and scored together.
const TILE: usize = 8;

/// One compiled tree.
#[derive(Debug, Clone, Copy)]
struct Compiled {
    /// Mask words per rank.
    words: usize,
    /// The tree's tests are `tests[t0..t1]`.
    t0: usize,
    t1: usize,
    /// The tree's first leaf in `leaves`.
    leaf0: usize,
}

/// One tested feature of one tree.
#[derive(Debug, Clone, Copy)]
struct Test {
    feature: usize,
    /// Its masks, word-major: word `w` of rank `r`'s mask is
    /// `masks[at + w * ranks + r]`.
    at: usize,
    /// The feature's threshold count plus one.
    ranks: usize,
}

/// A tree ensemble compiled for scoring; see the module doc.
#[derive(Debug, Clone)]
pub(crate) struct TreeScorer {
    /// Per feature, the ensemble's sorted distinct thresholds on it.
    thresholds: Vec<Vec<f64>>,
    trees: Vec<Compiled>,
    tests: Vec<Test>,
    masks: Vec<u64>,
    /// Leaf values, tree by tree, each tree's left to right.
    leaves: Vec<f64>,
}

impl TreeScorer {
    /// Compile `trees`, fitted on `n_features` features.
    pub(crate) fn compile(trees: &[RegressionTree], n_features: usize) -> Self {
        // Each feature's distinct thresholds, sorted. NaN is left out: no
        // value is `<=` it, so its splits fail at every rank.
        let mut thresholds: Vec<Vec<f64>> = vec![Vec::new(); n_features];
        for (f, t) in trees.iter().flat_map(RegressionTree::splits) {
            let ts = &mut thresholds[f];
            let i = ts.partition_point(|&u| u < t);
            if !t.is_nan() && ts.get(i) != Some(&t) {
                ts.insert(i, t);
            }
        }
        let mut compiled = Vec::with_capacity(trees.len());
        let mut tests: Vec<Test> = Vec::new();
        let mut masks = Vec::new();
        let mut leaves = Vec::new();
        // Reused across trees: the tree's splits as (feature, first failing
        // rank, left-subtree leaves lo..mid), and each feature's index in
        // `tests` while its tree is built.
        let mut splits = Vec::new();
        let mut slot = vec![usize::MAX; n_features];
        for tree in trees {
            splits.clear();
            let leaf0 = leaves.len();
            let n_leaves =
                tree.number_leaves(&mut |value| leaves.push(value), &mut |f, t, lo, mid| {
                    let fails_from = thresholds[f].partition_point(|&u| u <= t);
                    splits.push((f, fails_from, lo, mid));
                });
            let words = n_leaves.div_ceil(64);
            let t0 = tests.len();
            for &(feature, fails_from, lo, mid) in &splits {
                if slot[feature] == usize::MAX {
                    slot[feature] = tests.len();
                    let ranks = thresholds[feature].len() + 1;
                    tests.push(Test {
                        feature,
                        at: masks.len(),
                        ranks,
                    });
                    masks.resize(masks.len() + words * ranks, !0);
                }
                let Test { at, ranks, .. } = tests[slot[feature]];
                clear_bits(&mut masks[at + fails_from..], ranks, lo, mid);
            }
            for test in &tests[t0..] {
                slot[test.feature] = usize::MAX;
                // A value that fails a split fails it at every higher rank.
                for word in
                    masks[test.at..test.at + words * test.ranks].chunks_exact_mut(test.ranks)
                {
                    for r in 1..word.len() {
                        word[r] &= word[r - 1];
                    }
                }
            }
            compiled.push(Compiled {
                words,
                t0,
                t1: tests.len(),
                leaf0,
            });
        }
        TreeScorer {
            thresholds,
            trees: compiled,
            tests,
            masks,
            leaves,
        }
    }

    /// Number of rows in `rows`, a row-major block as wide as the
    /// training features.
    pub(crate) fn n_rows(&self, rows: &[f64]) -> usize {
        let d = self.thresholds.len();
        assert!(d > 0, "pool scoring needs at least one feature");
        assert_eq!(rows.len() % d, 0, "feature-count mismatch");
        rows.len() / d
    }

    /// Score every row of `rows` (see [`n_rows`](Self::n_rows)): for each
    /// tree in ensemble order, and each tile of [`TILE`] rows starting at
    /// row `c0`, `add(c0, values)` gets the leaf values the tile's rows
    /// reach. Entries past the last row are padding.
    pub(crate) fn for_each_leaf(&self, rows: &[f64], mut add: impl FnMut(usize, &[f64; TILE])) {
        let d = self.thresholds.len();
        let m = self.n_rows(rows);
        // `ranks[tile * d + f][c]`: the rank of the tile's row c on feature
        // f. Padding rows keep rank 0.
        let mut ranks = vec![[0usize; TILE]; m.div_ceil(TILE) * d];
        for (tile, r) in rows.chunks(TILE * d).zip(ranks.chunks_exact_mut(d)) {
            for (c, row) in tile.chunks_exact(d).enumerate() {
                for ((r, ts), &x) in r.iter_mut().zip(&self.thresholds).zip(row) {
                    // The walk's `x <= t` is false for NaN: it exceeds all.
                    r[c] = if x.is_nan() {
                        ts.len()
                    } else {
                        ts.partition_point(|&t| t < x)
                    };
                }
            }
        }
        // Tree by tree, so a tree's masks stay in cache across the pool.
        let mut values = [0.0; TILE];
        for tree in &self.trees {
            let tests = &self.tests[tree.t0..tree.t1];
            let leaves = &self.leaves[tree.leaf0..];
            for (i, ranks) in ranks.chunks_exact(d).enumerate() {
                // Word by word from the last, so the lowest nonzero word
                // names the exit leaf.
                let mut leaf = [0; TILE];
                for w in (0..tree.words).rev() {
                    let mut acc = [!0u64; TILE];
                    for test in tests {
                        let masks = &self.masks[test.at + w * test.ranks..][..test.ranks];
                        for (a, &r) in acc.iter_mut().zip(&ranks[test.feature]) {
                            *a &= masks[r];
                        }
                    }
                    for (l, a) in leaf.iter_mut().zip(acc) {
                        if a != 0 {
                            *l = 64 * w + a.trailing_zeros() as usize;
                        }
                    }
                }
                for (v, &l) in values.iter_mut().zip(&leaf) {
                    *v = leaves[l];
                }
                add(i * TILE, &values);
            }
        }
    }
}

/// Clear bits `lo..hi` of a little-endian bit set whose word `w` is
/// `words[w * stride]`.
fn clear_bits(words: &mut [u64], stride: usize, lo: usize, hi: usize) {
    let mut i = lo;
    while i < hi {
        let (w, b) = (i / 64, i % 64);
        let n = (64 - b).min(hi - i);
        let run = if n == 64 { !0 } else { ((1u64 << n) - 1) << b };
        words[w * stride] &= !run;
        i += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_bits_spans_words() {
        let mut w = [!0u64; 3];
        clear_bits(&mut w, 1, 60, 130);
        assert_eq!(w[0], (1u64 << 60) - 1);
        assert_eq!(w[1], 0);
        assert_eq!(w[2], !0u64 << 2);
        // Every other word: the words of one rank in a two-rank block.
        let mut w = [!0u64; 4];
        clear_bits(&mut w, 2, 0, 64);
        assert_eq!(w, [0, !0, !0, !0]);
        clear_bits(&mut w[1..], 2, 63, 65);
        assert_eq!(w, [0, !(1 << 63), !0, !1]);
    }
}
