//! Equivalence properties for the histogram-binned training path and the
//! streaming landscape evaluator.
//!
//! The histogram trainer enumerates exactly the exact sort-based
//! splitter's candidate thresholds (binning is lossless at ≤ 256 distinct
//! values), so on integer-valued targets — where every partial sum is an
//! exactly-representable f64 regardless of summation order — the two
//! trainers must produce bit-identical trees. The streaming landscape
//! evaluator reorganizes work (chunks + one decode scratch per worker) but
//! must reproduce the naive materializing evaluation sample-for-sample.

use bat::core::SyntheticProblem;
use bat::ml::{Dataset, Gbdt, GbdtParams, RegressionTree, TreeParams};
use bat::prelude::*;
use bat::space::Param;
use proptest::prelude::*;

/// A regression dataset whose features take ≤ 37 distinct values (the BAT
/// parameter-space shape) and whose targets are small integers, so target
/// sums are exact in either summation order.
fn arb_discrete_dataset() -> impl Strategy<Value = (Dataset, Vec<f64>)> {
    (1usize..4, 20usize..160).prop_flat_map(|(d, n)| {
        let cells = proptest::collection::vec(0u32..37, n * d);
        let targets = proptest::collection::vec(-50i32..50, n);
        (cells, targets).prop_map(move |(cells, targets)| {
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| (0..d).map(|j| f64::from(cells[i * d + j])).collect())
                .collect();
            let y: Vec<f64> = targets.iter().map(|&t| f64::from(t)).collect();
            let names = (0..d).map(|j| format!("p{j}")).collect();
            (Dataset::new(&rows, y.clone(), names), y)
        })
    })
}

proptest! {
    /// Histogram-trained trees are bit-identical to sort-based trees on
    /// discrete datasets with integer targets — on training rows and on
    /// off-grid queries (thresholds must match too).
    #[test]
    fn histogram_tree_equals_exact_tree(
        (data, y) in arb_discrete_dataset(),
        max_depth in 1usize..8,
        min_leaf in 1usize..6,
        queries in proptest::collection::vec(-5.0f64..42.0, 12),
    ) {
        let params = TreeParams { max_depth, min_samples_leaf: min_leaf };
        let rows: Vec<usize> = (0..data.n_rows()).collect();
        let hist = RegressionTree::fit(&data, &y, &rows, &params);
        let exact = RegressionTree::fit_exact(&data, &y, &rows, &params);
        prop_assert_eq!(hist.len(), exact.len(), "tree shapes differ");
        for i in 0..data.n_rows() {
            prop_assert_eq!(hist.predict(data.row(i)), exact.predict(data.row(i)));
        }
        let d = data.n_features();
        for w in queries.windows(d.max(1)) {
            if w.len() == d {
                prop_assert_eq!(hist.predict(w), exact.predict(w));
            }
        }
    }

    /// Full boosted ensembles agree between the histogram and exact paths.
    /// Later-stage residuals are no longer integers, so ulp-level rounding
    /// may differ between summation orders — predictions must still agree
    /// to floating-point noise.
    #[test]
    fn histogram_gbdt_matches_exact_gbdt(
        (data, _y) in arb_discrete_dataset(),
        sub_idx in 0usize..2,
        seed in 0u64..32,
    ) {
        let subsample = [1.0f64, 0.6][sub_idx];
        let params = GbdtParams {
            n_trees: 12,
            subsample,
            seed,
            tree: TreeParams { max_depth: 4, min_samples_leaf: 2 },
            ..GbdtParams::default()
        };
        let hist = Gbdt::fit(&data, &params).predict_dataset(&data);
        let exact = Gbdt::fit_exact(&data, &params).predict_dataset(&data);
        for (h, e) in hist.iter().zip(&exact) {
            prop_assert!(
                (h - e).abs() <= 1e-9 * (1.0 + e.abs()),
                "hist {} vs exact {}", h, e
            );
        }
    }

    /// The chunked streaming exhaustive evaluator reproduces the naive
    /// per-index materializing evaluation sample-for-sample.
    #[test]
    fn streaming_exhaustive_matches_materializing(
        a_len in 2i64..8,
        b_len in 2i64..8,
        c_len in 2i64..6,
        forbidden in 0i64..6,
    ) {
        let space = ConfigSpace::builder()
            .param(Param::int_range("a", 0, a_len - 1))
            .param(Param::int_range("b", 0, b_len - 1))
            .param(Param::int_range("c", 0, c_len - 1))
            .restrict(format!("c != {forbidden}").as_str())
            .build()
            .unwrap();
        let p = SyntheticProblem::new("toy", "sim", space, |cfg| {
            Ok(1.0 + cfg[0] as f64 * 3.0 + cfg[1] as f64 + 0.25 * cfg[2] as f64)
        });
        let streamed = Landscape::exhaustive(&p);
        // Oracle: one config_at allocation per index, serial.
        let space = p.space();
        prop_assert_eq!(streamed.samples.len() as u64, space.cardinality());
        for (i, s) in streamed.samples.iter().enumerate() {
            let index = i as u64;
            let config = space.config_at(index);
            let expect = p.evaluate_pure(&config).ok();
            prop_assert_eq!(s.index, index);
            prop_assert_eq!(s.time_ms, expect);
        }
    }

    /// The streaming sampled-landscape path agrees with per-index
    /// evaluation on exactly the indices it drew.
    #[test]
    fn streaming_sampled_matches_materializing(seed in 0u64..64, n in 5usize..60) {
        let space = ConfigSpace::builder()
            .param(Param::int_range("x", 0, 19))
            .param(Param::int_range("y", 0, 9))
            .build()
            .unwrap();
        let p = SyntheticProblem::new("toy", "sim", space, |cfg| {
            if cfg[0] == 7 {
                Err(bat::core::EvalFailure::Launch("x=7 fails".into()))
            } else {
                Ok(1.0 + (cfg[0] * 10 + cfg[1]) as f64)
            }
        });
        let l = bat::analysis::sampled_valid(&p, n, seed, 100_000).unwrap();
        prop_assert_eq!(l.samples.len(), n);
        let space = p.space();
        for s in &l.samples {
            let config = space.config_at(s.index);
            prop_assert_eq!(s.time_ms, p.evaluate_pure(&config).ok());
        }
        // Determinism of the streaming path.
        let again = bat::analysis::sampled_valid(&p, n, seed, 100_000).unwrap();
        prop_assert_eq!(l.samples, again.samples);
    }
}
