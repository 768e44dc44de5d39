//! Tabular dataset representation, plus the pre-binned column-major view
//! the histogram tree trainer runs on.

use std::sync::OnceLock;

/// Maximum distinct values per feature for lossless `u8` binning. Tuning
/// parameters take ≤ 37 distinct values in the BAT spaces, so the cap is
/// never hit there; datasets that exceed it fall back to the exact
/// sort-based splitter.
pub const MAX_BINS: usize = 256;

/// A dense tabular regression dataset: `n` rows × `d` features plus a
/// target column. Feature matrices are stored row-major; a column-major
/// binned view is built lazily (once per dataset) for histogram training.
#[derive(Debug, Clone)]
pub struct Dataset {
    n_rows: usize,
    n_features: usize,
    x: Vec<f64>,
    y: Vec<f64>,
    feature_names: Vec<String>,
    binned: OnceLock<Option<BinnedMatrix>>,
}

/// Column-major pre-binned feature matrix.
///
/// Each feature's values are mapped to the rank of the value among the
/// feature's sorted distinct values, stored as one contiguous `u8` column
/// per feature. Because every distinct value keeps its own bin, the mapping
/// is lossless: a histogram split on bin boundaries enumerates exactly the
/// candidate thresholds of the exact sort-based splitter.
#[derive(Debug, Clone)]
pub struct BinnedMatrix {
    n_rows: usize,
    n_features: usize,
    /// Per-feature sorted distinct values; `values[f][b]` is the value
    /// represented by bin `b` of feature `f`.
    values: Vec<Vec<f64>>,
    /// Exclusive prefix offsets into the concatenated bin axis: feature `f`
    /// owns global bins `offsets[f]..offsets[f + 1]`.
    offsets: Vec<usize>,
    /// Column-major bin codes: `codes[f * n_rows + i]` is row `i`'s bin in
    /// feature `f`.
    codes: Vec<u8>,
}

impl BinnedMatrix {
    /// Bin every feature of `data`, or `None` if some feature has more than
    /// [`MAX_BINS`] distinct values.
    fn build(data: &Dataset) -> Option<BinnedMatrix> {
        let n = data.n_rows;
        let d = data.n_features;
        let mut values = Vec::with_capacity(d);
        let mut offsets = Vec::with_capacity(d + 1);
        offsets.push(0usize);
        let mut codes = vec![0u8; n * d];
        for f in 0..d {
            let uniq = data.unique_values(f);
            if uniq.len() > MAX_BINS {
                return None;
            }
            let col = &mut codes[f * n..(f + 1) * n];
            for (i, slot) in col.iter_mut().enumerate() {
                let v = data.value(i, f);
                // `v` is a member of `uniq`, so partition_point finds its rank.
                *slot = uniq.partition_point(|&u| u < v) as u8;
            }
            offsets.push(offsets[f] + uniq.len());
            values.push(uniq);
        }
        Some(BinnedMatrix {
            n_rows: n,
            n_features: d,
            values,
            offsets,
            codes,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of features.
    #[inline]
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Total bins across all features (the histogram buffer length).
    #[inline]
    pub fn total_bins(&self) -> usize {
        *self.offsets.last().expect("offsets non-empty")
    }

    /// Start of feature `f`'s bins on the concatenated bin axis.
    #[inline]
    pub fn bin_offset(&self, feature: usize) -> usize {
        self.offsets[feature]
    }

    /// Number of bins (distinct values) of feature `f`.
    #[inline]
    pub fn n_bins(&self, feature: usize) -> usize {
        self.offsets[feature + 1] - self.offsets[feature]
    }

    /// The sorted distinct values of feature `f` (bin → value).
    #[inline]
    pub fn bin_values(&self, feature: usize) -> &[f64] {
        &self.values[feature]
    }

    /// Feature `f`'s contiguous per-row bin codes.
    #[inline]
    pub fn feature_codes(&self, feature: usize) -> &[u8] {
        &self.codes[feature * self.n_rows..(feature + 1) * self.n_rows]
    }
}

impl Dataset {
    /// Build a dataset from rows. Every row must have the same length.
    pub fn new(rows: &[Vec<f64>], y: Vec<f64>, feature_names: Vec<String>) -> Self {
        assert_eq!(rows.len(), y.len(), "row/target count mismatch");
        assert!(!rows.is_empty(), "dataset needs at least one row");
        let d = rows[0].len();
        assert_eq!(feature_names.len(), d, "feature-name count mismatch");
        let mut x = Vec::with_capacity(rows.len() * d);
        for r in rows {
            assert_eq!(r.len(), d, "ragged rows");
            x.extend_from_slice(r);
        }
        Dataset {
            n_rows: rows.len(),
            n_features: d,
            x,
            y,
            feature_names,
            binned: OnceLock::new(),
        }
    }

    /// Build from a flat row-major matrix.
    pub fn from_flat(
        x: Vec<f64>,
        y: Vec<f64>,
        n_features: usize,
        feature_names: Vec<String>,
    ) -> Self {
        assert_eq!(x.len(), y.len() * n_features, "matrix shape mismatch");
        assert_eq!(feature_names.len(), n_features);
        Dataset {
            n_rows: y.len(),
            n_features,
            x,
            y,
            feature_names,
            binned: OnceLock::new(),
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Feature names.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.x[i * self.n_features..(i + 1) * self.n_features]
    }

    /// The feature matrix, row-major.
    pub(crate) fn row_major(&self) -> &[f64] {
        &self.x
    }

    /// Feature value (row, feature).
    #[inline]
    pub fn value(&self, row: usize, feature: usize) -> f64 {
        self.x[row * self.n_features + feature]
    }

    /// Target column.
    pub fn targets(&self) -> &[f64] {
        &self.y
    }

    /// The column-major binned view, built on first use and cached for the
    /// dataset's lifetime (one binning pass serves every boosting stage and
    /// every bagged tree). `None` when some feature exceeds [`MAX_BINS`]
    /// distinct values.
    pub fn binned(&self) -> Option<&BinnedMatrix> {
        self.binned
            .get_or_init(|| BinnedMatrix::build(self))
            .as_ref()
    }

    /// A copy with one feature column replaced (used by permutation
    /// importance). The bin cache is not carried over (it would describe
    /// the pre-replacement column, and the permuted copies are only ever
    /// predicted on).
    pub fn with_column(&self, feature: usize, column: &[f64]) -> Dataset {
        assert_eq!(column.len(), self.n_rows);
        let mut x = self.x.clone();
        for (i, v) in column.iter().enumerate() {
            x[i * self.n_features + feature] = *v;
        }
        Dataset {
            n_rows: self.n_rows,
            n_features: self.n_features,
            x,
            y: self.y.clone(),
            feature_names: self.feature_names.clone(),
            binned: OnceLock::new(),
        }
    }

    /// Extract one feature column.
    pub fn column(&self, feature: usize) -> Vec<f64> {
        (0..self.n_rows).map(|i| self.value(i, feature)).collect()
    }

    /// Sorted unique values of a feature column.
    pub fn unique_values(&self, feature: usize) -> Vec<f64> {
        let mut v = self.column(feature);
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN feature"));
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new(
            &[vec![1.0, 10.0], vec![2.0, 20.0], vec![3.0, 10.0]],
            vec![0.1, 0.2, 0.3],
            vec!["a".into(), "b".into()],
        )
    }

    #[test]
    fn shape_accessors() {
        let d = toy();
        assert_eq!(d.n_rows(), 3);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.row(1), &[2.0, 20.0]);
        assert_eq!(d.value(2, 1), 10.0);
    }

    #[test]
    fn unique_values_sorted() {
        let d = toy();
        assert_eq!(d.unique_values(1), vec![10.0, 20.0]);
    }

    #[test]
    fn column_replacement() {
        let d = toy();
        let swapped = d.with_column(0, &[9.0, 8.0, 7.0]);
        assert_eq!(swapped.value(0, 0), 9.0);
        assert_eq!(swapped.value(0, 1), 10.0); // other column untouched
        assert_eq!(d.value(0, 0), 1.0); // original untouched
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = Dataset::new(
            &[vec![1.0], vec![1.0, 2.0]],
            vec![0.0, 0.0],
            vec!["a".into()],
        );
    }

    #[test]
    fn binning_is_lossless() {
        let d = toy();
        let b = d.binned().expect("≤256 distinct values");
        assert_eq!(b.n_rows(), 3);
        assert_eq!(b.n_features(), 2);
        // Feature 0: values 1, 2, 3 → bins 0, 1, 2.
        assert_eq!(b.feature_codes(0), &[0, 1, 2]);
        // Feature 1: values 10, 20, 10 → bins 0, 1, 0.
        assert_eq!(b.feature_codes(1), &[0, 1, 0]);
        assert_eq!(b.n_bins(0), 3);
        assert_eq!(b.n_bins(1), 2);
        assert_eq!(b.total_bins(), 5);
        assert_eq!(b.bin_offset(1), 3);
        // Round-trip: bin value of each row's code equals the raw value.
        for f in 0..2 {
            for (i, &code) in b.feature_codes(f).iter().enumerate() {
                assert_eq!(b.bin_values(f)[code as usize], d.value(i, f));
            }
        }
    }

    #[test]
    fn binned_cache_resets_on_column_replacement() {
        let d = toy();
        let _ = d.binned();
        let swapped = d.with_column(1, &[5.0, 5.0, 5.0]);
        let b = swapped.binned().unwrap();
        assert_eq!(b.n_bins(1), 1);
        assert_eq!(b.feature_codes(1), &[0, 0, 0]);
    }

    #[test]
    fn too_many_distinct_values_disable_binning() {
        let rows: Vec<Vec<f64>> = (0..300).map(|i| vec![f64::from(i)]).collect();
        let y = vec![0.0; 300];
        let d = Dataset::new(&rows, y, vec!["x".into()]);
        assert!(d.binned().is_none());
    }
}
