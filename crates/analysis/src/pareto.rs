//! Pareto-front reducers for multi-objective campaign artifacts.
//!
//! These are offline aggregations in the spirit of the suite's other
//! summary reducers: given the `(time_ms, energy_mj)` fronts recorded by
//! multi-objective trials, they produce the scalar quality numbers the
//! campaign summary tables report — dominated hypervolume against a
//! deterministic cell-wide reference point, and front cardinality. The
//! geometric primitives ([`bat_moo::hypervolume_2d`],
//! [`bat_moo::pareto_front_2d`]) live in `bat-moo`; this module fixes the
//! *protocol* (reference choice, normalization) so every front-end reports
//! comparable numbers.

use bat_moo::{hypervolume_2d, pareto_front_2d, ParetoArchive, ParetoPoint};

/// Margin applied to the cell-wide worst point when deriving the
/// hypervolume reference, so boundary points contribute non-zero volume.
const REFERENCE_MARGIN: f64 = 1.01;

/// Scalar quality of one trial's front.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontSummary {
    /// Dominated hypervolume w.r.t. the shared reference point.
    pub hypervolume: f64,
    /// Number of non-dominated points.
    pub front_size: usize,
    /// Fastest point's time (ms).
    pub best_time_ms: f64,
    /// Most frugal point's energy (mJ).
    pub best_energy_mj: f64,
}

/// The shared hypervolume reference of a set of fronts: the componentwise
/// worst objective over every point, pushed out by 1 % (`REFERENCE_MARGIN`).
/// Deterministic given the fronts, `None` when no front has any point.
///
/// All fronts of one benchmark × architecture cell must be summarized
/// against the *same* reference — hypervolumes against private references
/// are not comparable.
pub fn hypervolume_reference<'a, I>(fronts: I) -> Option<(f64, f64)>
where
    I: IntoIterator<Item = &'a [(f64, f64)]>,
{
    let mut worst: Option<(f64, f64)> = None;
    for front in fronts {
        for &(t, e) in front {
            worst = Some(match worst {
                Some((wt, we)) => (wt.max(t), we.max(e)),
                None => (t, e),
            });
        }
    }
    worst.map(|(t, e)| (t * REFERENCE_MARGIN, e * REFERENCE_MARGIN))
}

/// Union several recorded fronts into one bounded [`ParetoArchive`] — the
/// *best-known front* of a benchmark × architecture cell, merged across
/// every tuner and repetition that recorded points there (ROADMAP
/// follow-up (k)).
///
/// Points are offered in iteration order (campaign artifacts iterate
/// trials canonically), and the archive resolves domination and crowding
/// ties deterministically, so the merged front is a pure function of the
/// artifact.
pub fn merged_front<'a, I>(fronts: I, capacity: usize) -> ParetoArchive
where
    I: IntoIterator<Item = &'a [ParetoPoint]>,
{
    let mut archive = ParetoArchive::new(capacity.max(1));
    for front in fronts {
        for &p in front {
            archive.insert(p);
        }
    }
    archive
}

/// Reduce one front against a shared reference point.
pub fn front_summary(points: &[(f64, f64)], reference: (f64, f64)) -> Option<FrontSummary> {
    let front = pareto_front_2d(points);
    if front.is_empty() {
        return None;
    }
    let best_time_ms = front.first().unwrap().0;
    let best_energy_mj = front.last().unwrap().1;
    Some(FrontSummary {
        hypervolume: hypervolume_2d(&front, reference),
        front_size: front.len(),
        best_time_ms,
        best_energy_mj,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_the_padded_componentwise_worst() {
        let a: &[(f64, f64)] = &[(1.0, 8.0), (2.0, 4.0)];
        let b: &[(f64, f64)] = &[(5.0, 2.0)];
        let (rt, re) = hypervolume_reference([a, b]).unwrap();
        assert!((rt - 5.0 * REFERENCE_MARGIN).abs() < 1e-12);
        assert!((re - 8.0 * REFERENCE_MARGIN).abs() < 1e-12);
        assert_eq!(
            hypervolume_reference(std::iter::empty::<&[(f64, f64)]>()),
            None
        );
    }

    #[test]
    fn front_summary_reports_extremes_and_size() {
        let pts = vec![(3.0, 1.0), (1.0, 3.0), (2.0, 2.0), (2.5, 2.5)];
        let s = front_summary(&pts, (4.0, 4.0)).unwrap();
        assert_eq!(s.front_size, 3);
        assert_eq!(s.best_time_ms, 1.0);
        assert_eq!(s.best_energy_mj, 1.0);
        assert!(s.hypervolume > 0.0);
        assert!(front_summary(&[], (4.0, 4.0)).is_none());
    }

    #[test]
    fn merged_front_unions_and_prunes_dominated_points() {
        let p = |i: u64, t: f64, e: f64| ParetoPoint {
            index: i,
            time_ms: t,
            energy_mj: e,
        };
        let a = vec![p(0, 1.0, 5.0), p(1, 3.0, 3.0)];
        let b = vec![p(2, 2.0, 4.0), p(3, 3.5, 3.5), p(4, 5.0, 1.0)];
        let merged = merged_front([a.as_slice(), b.as_slice()], 16);
        merged.check_invariants().unwrap();
        let idx: Vec<u64> = merged.front().iter().map(|q| q.index).collect();
        // (3.5, 3.5) is dominated by (3, 3); everything else survives.
        assert_eq!(idx, vec![0, 2, 1, 4]);
        // Deterministic given the same inputs.
        assert_eq!(merged, merged_front([a.as_slice(), b.as_slice()], 16));
        // Capacity bound is honoured.
        assert!(merged_front([a.as_slice(), b.as_slice()], 2).len() <= 2);
    }

    #[test]
    fn dominating_fronts_have_larger_hypervolume_under_a_shared_reference() {
        let strong: &[(f64, f64)] = &[(1.0, 2.0), (2.0, 1.0)];
        let weak: &[(f64, f64)] = &[(1.5, 2.5), (2.5, 1.5)];
        let r = hypervolume_reference([strong, weak]).unwrap();
        let hv_strong = front_summary(strong, r).unwrap().hypervolume;
        let hv_weak = front_summary(weak, r).unwrap().hypervolume;
        assert!(hv_strong > hv_weak);
    }
}
