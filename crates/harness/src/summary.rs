//! Summary reducers over campaign artifacts.
//!
//! Everything here is computed from a serialized [`CampaignResult`] alone —
//! no re-execution — so the paper-style aggregations (final best per cell,
//! convergence AUC, Friedman-style tuner rank matrix, Tables IV/VI in
//! spirit) can be regenerated offline from an archived artifact.

use bat_analysis::{evals_to_target, front_summary, hypervolume_reference, merged_front};
use bat_core::friedman_mean_ranks;
use bat_moo::ParetoPoint;

use crate::result::{CampaignResult, TrialRecord};

/// One benchmark × architecture cell's per-tuner aggregates.
#[derive(Debug, Clone)]
pub struct CellSummary {
    /// Benchmark name.
    pub benchmark: String,
    /// Architecture name.
    pub architecture: String,
    /// Tuner names, in campaign order.
    pub tuners: Vec<String>,
    /// Median over repetitions of each tuner's final best (ms).
    pub median_best_ms: Vec<Option<f64>>,
    /// Minimum over repetitions of each tuner's final best (ms).
    pub min_best_ms: Vec<Option<f64>>,
    /// Mean normalized convergence AUC per tuner (higher = faster
    /// convergence to better configurations; see [`convergence_auc`]).
    pub auc: Vec<Option<f64>>,
    /// Friedman-style mean rank per tuner: within every repetition the
    /// tuners are ranked by final best (failures last, ties share the
    /// average rank), then ranks are averaged over repetitions.
    pub mean_rank: Vec<f64>,
    /// Best objective observed anywhere in the cell (the reference for
    /// relative performance and AUC).
    pub cell_best_ms: Option<f64>,
    /// Mean dominated hypervolume per tuner against the cell-wide reference
    /// point (multi-objective campaigns only; `None` when a tuner recorded
    /// no front).
    pub hypervolume: Vec<Option<f64>>,
    /// Mean Pareto-front size per tuner (multi-objective campaigns only).
    pub front_size: Vec<Option<f64>>,
    /// The cell's best-known front: the [`bat_analysis::merged_front`]
    /// archive union of every recorded front across tuners and
    /// repetitions — the baseline per-tuner fronts are judged against.
    /// Empty on single-objective campaigns.
    pub best_known_front: Vec<ParetoPoint>,
    /// Hypervolume of the best-known front against the cell reference.
    pub best_known_hypervolume: Option<f64>,
    /// Mean retries charged per repetition (fault-injected campaigns;
    /// all zero otherwise).
    pub mean_retries: Vec<Option<f64>>,
    /// Total configurations quarantined across repetitions.
    pub quarantined: Vec<u64>,
    /// Mean evaluations to first reach within 5% of the cell's best
    /// objective (over the repetitions that got there; the companion
    /// `target_hits` counts how many did).
    pub evals_to_target: Vec<Option<f64>>,
    /// Repetitions that reached the 5% target, per tuner.
    pub target_hits: Vec<u64>,
}

/// Relative slack on the cell-best objective that counts as "reached the
/// target" for [`CellSummary::evals_to_target`].
pub const TARGET_SLACK: f64 = 1.05;

impl CellSummary {
    /// The tuner with the lowest mean rank (ties: first in campaign order).
    pub fn winner(&self) -> Option<&str> {
        let mut best: Option<(usize, f64)> = None;
        for (i, r) in self.mean_rank.iter().enumerate() {
            if best.is_none_or(|(_, b)| *r < b) {
                best = Some((i, *r));
            }
        }
        best.map(|(i, _)| self.tuners[i].as_str())
    }
}

/// Campaign-wide aggregates: per-cell summaries plus the cross-cell rank
/// matrix.
#[derive(Debug, Clone)]
pub struct CampaignSummary {
    /// Campaign name (from the spec).
    pub name: String,
    /// Per-cell summaries, in campaign order.
    pub cells: Vec<CellSummary>,
    /// Tuner names, in campaign order (identical across cells).
    pub tuners: Vec<String>,
    /// `rank_matrix[t][c]` = tuner `t`'s mean rank in cell `c`.
    pub rank_matrix: Vec<Vec<f64>>,
    /// Overall mean rank per tuner (mean over cells; 1 = best).
    pub overall_rank: Vec<f64>,
    /// Whether the producing spec carried a fault block — gates the
    /// resilience table in [`CampaignSummary::render`].
    pub faulted: bool,
}

/// Normalized convergence AUC of one trial: the mean over evaluations
/// `1..=E` of `t*/b(e)`, where `b(e)` is the best-so-far objective after
/// `e` evaluations and `t*` the cell's best-known objective. Evaluations
/// before the first success contribute 0, so the metric rewards both
/// finding good configurations and finding them early; 1.0 means the very
/// first evaluation already hit the cell optimum.
pub fn convergence_auc(record: &TrialRecord, cell_best_ms: f64) -> Option<f64> {
    if record.evals == 0 || record.curve.is_empty() || cell_best_ms.is_nan() || cell_best_ms <= 0.0
    {
        return None;
    }
    // Walk the step function segment by segment instead of per eval.
    // Saturating spans keep malformed artifacts (curve points past the
    // recorded eval count, hand-edited files) from underflowing.
    let mut total = 0.0;
    for (i, p) in record.curve.iter().enumerate() {
        let until = record
            .curve
            .get(i + 1)
            .map_or(record.evals, |next| next.eval.saturating_sub(1))
            .min(record.evals);
        let span = (until + 1).saturating_sub(p.eval) as f64;
        total += span * (cell_best_ms / p.best_ms);
    }
    Some(total / record.evals as f64)
}

fn median(mut values: Vec<f64>) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    Some(values[values.len() / 2])
}

impl CampaignSummary {
    /// Reduce a campaign artifact.
    pub fn from_result(result: &CampaignResult) -> CampaignSummary {
        // Cells and tuners in first-appearance (campaign) order.
        let mut cells: Vec<(String, String)> = Vec::new();
        let mut tuners: Vec<String> = Vec::new();
        for t in &result.trials {
            if !cells.contains(&t.cell()) {
                cells.push(t.cell());
            }
            if !tuners.contains(&t.tuner) {
                tuners.push(t.tuner.clone());
            }
        }

        let mut summaries = Vec::with_capacity(cells.len());
        for (bench, arch) in &cells {
            let in_cell = |t: &&TrialRecord| &t.benchmark == bench && &t.architecture == arch;
            let cell_best_ms = result
                .trials
                .iter()
                .filter(in_cell)
                .filter_map(|t| t.best_ms)
                .min_by(f64::total_cmp);
            // finals[tuner][rep], indexed by repetition so partial
            // artifacts (a tuner missing rep 0 but holding rep 1) keep
            // repetitions aligned across tuners; absent reps stay None
            // and rank as failures.
            let reps = result
                .trials
                .iter()
                .filter(in_cell)
                .map(|t| t.rep as usize + 1)
                .max()
                .unwrap_or(0);
            let finals: Vec<Vec<Option<f64>>> = tuners
                .iter()
                .map(|name| {
                    let mut by_rep = vec![None; reps];
                    for t in result
                        .trials
                        .iter()
                        .filter(in_cell)
                        .filter(|t| &t.tuner == name)
                    {
                        by_rep[t.rep as usize] = t.best_ms;
                    }
                    by_rep
                })
                .collect();
            let median_best_ms: Vec<Option<f64>> = finals
                .iter()
                .map(|f| median(f.iter().flatten().copied().collect()))
                .collect();
            let min_best_ms: Vec<Option<f64>> = finals
                .iter()
                .map(|f| f.iter().flatten().copied().min_by(f64::total_cmp))
                .collect();
            let auc: Vec<Option<f64>> = tuners
                .iter()
                .map(|name| {
                    let best = cell_best_ms?;
                    let aucs: Vec<f64> = result
                        .trials
                        .iter()
                        .filter(in_cell)
                        .filter(|t| &t.tuner == name)
                        .filter_map(|t| convergence_auc(t, best))
                        .collect();
                    if aucs.is_empty() {
                        None
                    } else {
                        Some(aucs.iter().sum::<f64>() / aucs.len() as f64)
                    }
                })
                .collect();
            // Pareto reducers: all fronts of the cell share one reference
            // point, otherwise per-tuner hypervolumes are incomparable.
            let cell_fronts: Vec<Vec<(f64, f64)>> = result
                .trials
                .iter()
                .filter(in_cell)
                .filter_map(|t| t.front_points())
                .collect();
            let reference = hypervolume_reference(cell_fronts.iter().map(Vec::as_slice));
            let mut hypervolume = vec![None; tuners.len()];
            let mut front_size = vec![None; tuners.len()];
            // Best-known front: archive union of every recorded front in
            // the cell (cross-rep, cross-tuner), bounded by the campaign's
            // front capacity.
            let best_known = merged_front(
                result
                    .trials
                    .iter()
                    .filter(in_cell)
                    .filter_map(|t| t.front.as_deref()),
                result.spec.objective.front_capacity(),
            );
            let best_known_hypervolume = reference
                .filter(|_| !best_known.is_empty())
                .map(|r| best_known.hypervolume(r));
            if let Some(reference) = reference {
                for (ti, name) in tuners.iter().enumerate() {
                    let reduced: Vec<_> = result
                        .trials
                        .iter()
                        .filter(in_cell)
                        .filter(|t| &t.tuner == name)
                        .filter_map(|t| t.front_points())
                        .filter_map(|pts| front_summary(&pts, reference))
                        .collect();
                    if !reduced.is_empty() {
                        let n = reduced.len() as f64;
                        hypervolume[ti] =
                            Some(reduced.iter().map(|s| s.hypervolume).sum::<f64>() / n);
                        front_size[ti] =
                            Some(reduced.iter().map(|s| s.front_size as f64).sum::<f64>() / n);
                    }
                }
            }
            // Resilience reducers: retry pressure, quarantine volume, and
            // the fault tax on convergence (evals to come within
            // TARGET_SLACK of the cell best). Cheap to compute and all-zero
            // without a fault block, so they are reduced unconditionally
            // and only *rendered* for fault-injected campaigns.
            let mut mean_retries = vec![None; tuners.len()];
            let mut quarantined = vec![0u64; tuners.len()];
            let mut evals_target = vec![None; tuners.len()];
            let mut target_hits = vec![0u64; tuners.len()];
            for (ti, name) in tuners.iter().enumerate() {
                let records: Vec<&TrialRecord> = result
                    .trials
                    .iter()
                    .filter(in_cell)
                    .filter(|t| &t.tuner == name)
                    .collect();
                if records.is_empty() {
                    continue;
                }
                let n = records.len() as f64;
                mean_retries[ti] = Some(records.iter().map(|t| t.retries as f64).sum::<f64>() / n);
                quarantined[ti] = records.iter().map(|t| t.quarantined).sum();
                if let Some(best) = cell_best_ms {
                    let reached: Vec<u64> = records
                        .iter()
                        .filter_map(|t| {
                            let curve: Vec<(u64, f64)> =
                                t.curve.iter().map(|p| (p.eval, p.best_ms)).collect();
                            evals_to_target(&curve, best * TARGET_SLACK)
                        })
                        .collect();
                    target_hits[ti] = reached.len() as u64;
                    if !reached.is_empty() {
                        evals_target[ti] = Some(
                            reached.iter().map(|&e| e as f64).sum::<f64>() / reached.len() as f64,
                        );
                    }
                }
            }
            summaries.push(CellSummary {
                benchmark: bench.clone(),
                architecture: arch.clone(),
                tuners: tuners.clone(),
                median_best_ms,
                min_best_ms,
                auc,
                mean_rank: friedman_mean_ranks(&finals),
                cell_best_ms,
                hypervolume,
                front_size,
                best_known_front: best_known.front().to_vec(),
                best_known_hypervolume,
                mean_retries,
                quarantined,
                evals_to_target: evals_target,
                target_hits,
            });
        }

        let rank_matrix: Vec<Vec<f64>> = (0..tuners.len())
            .map(|t| summaries.iter().map(|c| c.mean_rank[t]).collect())
            .collect();
        let overall_rank: Vec<f64> = rank_matrix
            .iter()
            .map(|row| {
                if row.is_empty() {
                    0.0
                } else {
                    row.iter().sum::<f64>() / row.len() as f64
                }
            })
            .collect();

        CampaignSummary {
            name: result.spec.name.clone(),
            cells: summaries,
            tuners,
            rank_matrix,
            overall_rank,
            faulted: result.spec.faults.is_some(),
        }
    }

    /// Render the three summary tables (final best, convergence AUC,
    /// rank matrix) as aligned text.
    pub fn render(&self) -> String {
        let fmt_opt = |v: Option<f64>, d: usize| v.map_or("-".to_string(), |x| format!("{x:.d$}"));
        let mut out = String::new();
        out.push_str(&format!("campaign: {}\n", self.name));

        out.push_str("\nFinal best per cell (median over reps, ms; * = cell winner by rank):\n");
        let mut rows = Vec::new();
        for c in &self.cells {
            let winner = c.winner().unwrap_or("-").to_string();
            for (i, t) in c.tuners.iter().enumerate() {
                rows.push(vec![
                    format!("{}/{}", c.benchmark, c.architecture),
                    format!("{}{}", if *t == winner { "*" } else { " " }, t),
                    fmt_opt(c.median_best_ms[i], 4),
                    fmt_opt(c.min_best_ms[i], 4),
                    fmt_opt(c.auc[i], 3),
                    format!("{:.2}", c.mean_rank[i]),
                ]);
            }
        }
        out.push_str(&render_table(
            &["cell", "tuner", "median ms", "best ms", "AUC", "rank"],
            &rows,
        ));

        // Multi-objective campaigns: front quality per cell × tuner.
        if self
            .cells
            .iter()
            .any(|c| c.hypervolume.iter().any(Option::is_some))
        {
            out.push_str(
                "\nPareto fronts (mean hypervolume vs cell reference / mean front size):\n",
            );
            let mut rows = Vec::new();
            for c in &self.cells {
                for (i, t) in c.tuners.iter().enumerate() {
                    if c.hypervolume[i].is_none() && c.front_size[i].is_none() {
                        continue;
                    }
                    rows.push(vec![
                        format!("{}/{}", c.benchmark, c.architecture),
                        t.clone(),
                        fmt_opt(c.hypervolume[i], 4),
                        fmt_opt(c.front_size[i], 1),
                    ]);
                }
                // Baseline: the cell's merged best-known front (archive
                // union across every tuner and repetition).
                if !c.best_known_front.is_empty() {
                    rows.push(vec![
                        format!("{}/{}", c.benchmark, c.architecture),
                        "(best known)".to_string(),
                        fmt_opt(c.best_known_hypervolume, 4),
                        format!("{:.1}", c.best_known_front.len() as f64),
                    ]);
                }
            }
            out.push_str(&render_table(
                &["cell", "tuner", "hypervolume", "front size"],
                &rows,
            ));
        }

        // Fault-injected campaigns: retry/quarantine pressure and the
        // fault tax on convergence, per cell × tuner.
        if self.faulted {
            out.push_str(&format!(
                "\nResilience (mean retries / quarantined configs / mean evals to within {:.0}% of cell best):\n",
                (TARGET_SLACK - 1.0) * 100.0
            ));
            let mut rows = Vec::new();
            for c in &self.cells {
                for (i, t) in c.tuners.iter().enumerate() {
                    rows.push(vec![
                        format!("{}/{}", c.benchmark, c.architecture),
                        t.clone(),
                        fmt_opt(c.mean_retries[i], 2),
                        format!("{}", c.quarantined[i]),
                        fmt_opt(c.evals_to_target[i], 1),
                        format!("{}", c.target_hits[i]),
                    ]);
                }
            }
            out.push_str(&render_table(
                &[
                    "cell",
                    "tuner",
                    "retries",
                    "quarantined",
                    "evals to target",
                    "hits",
                ],
                &rows,
            ));
        }

        out.push_str("\nTuner rank matrix (rows: tuners, mean rank per cell; 1 = best):\n");
        let mut header: Vec<String> = vec!["tuner".into()];
        header.extend(
            self.cells
                .iter()
                .map(|c| format!("{}/{}", c.benchmark, c.architecture)),
        );
        header.push("overall".into());
        let mut order: Vec<usize> = (0..self.tuners.len()).collect();
        order.sort_by(|&a, &b| self.overall_rank[a].total_cmp(&self.overall_rank[b]));
        let rows: Vec<Vec<String>> = order
            .iter()
            .map(|&t| {
                let mut row = vec![self.tuners[t].clone()];
                row.extend(self.rank_matrix[t].iter().map(|r| format!("{r:.2}")));
                row.push(format!("{:.2}", self.overall_rank[t]));
                row
            })
            .collect();
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        out.push_str(&render_table(&header_refs, &rows));
        out
    }
}

/// Render an aligned text table.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut width: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, cell) in r.iter().enumerate() {
            width[i] = width[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |cells: Vec<String>, out: &mut String| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<w$}", w = width[i]))
            .collect();
        out.push_str(&format!("  {}\n", padded.join("  ")));
    };
    line(header.iter().map(|h| h.to_string()).collect(), &mut out);
    out.push_str(&format!(
        "  {}\n",
        "-".repeat(width.iter().sum::<usize>() + 2 * cols)
    ));
    for r in rows {
        line(r.clone(), &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignOptions};
    use crate::spec::{ExperimentSpec, Selector};

    fn result() -> CampaignResult {
        let spec = ExperimentSpec {
            tuners: Selector::Subset(vec!["random-search".into(), "greedy-ils".into()]),
            benchmarks: Selector::Subset(vec!["nbody".into(), "gemm".into()]),
            architectures: Selector::Subset(vec!["RTX 3090".into()]),
            budget: 30,
            repetitions: 3,
            ..ExperimentSpec::new("summary-unit")
        };
        run_campaign(&spec, &CampaignOptions::default())
            .unwrap()
            .result
    }

    #[test]
    fn summary_covers_every_cell_and_tuner() {
        let s = CampaignSummary::from_result(&result());
        assert_eq!(s.cells.len(), 2);
        assert_eq!(s.tuners.len(), 2);
        assert_eq!(s.rank_matrix.len(), 2);
        assert_eq!(s.rank_matrix[0].len(), 2);
        for c in &s.cells {
            assert!(c.cell_best_ms.is_some());
            assert!(c.winner().is_some());
            // Ranks within a cell sum to reps-invariant n(n+1)/2.
            let total: f64 = c.mean_rank.iter().sum();
            assert!((total - 3.0).abs() < 1e-9, "total {total}");
        }
    }

    #[test]
    fn auc_is_in_unit_interval_and_rewards_early_convergence() {
        let r = result();
        let s = CampaignSummary::from_result(&r);
        for c in &s.cells {
            for a in c.auc.iter().flatten() {
                assert!(*a > 0.0 && *a <= 1.0 + 1e-12, "AUC {a}");
            }
        }
        // A trial that finds the cell optimum at eval 1 has AUC 1.
        let t = &r.trials[0];
        let mut perfect = t.clone();
        perfect.curve = vec![crate::result::CurvePoint {
            eval: 1,
            best_ms: 2.0,
        }];
        perfect.evals = 10;
        assert!((convergence_auc(&perfect, 2.0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pareto_campaigns_report_hypervolume_and_front_size() {
        let spec = ExperimentSpec {
            tuners: Selector::Subset(vec!["nsga2".into(), "random-search".into()]),
            benchmarks: Selector::Subset(vec!["gemm".into()]),
            architectures: Selector::Subset(vec!["RTX 3090".into()]),
            budget: 60,
            repetitions: 2,
            objective: crate::spec::ObjectiveSpec {
                mode: crate::spec::ObjectiveMode::Pareto,
                ..Default::default()
            },
            record: crate::spec::RecordLevel::Curve,
            ..ExperimentSpec::new("pareto-summary-unit")
        };
        let result = run_campaign(&spec, &CampaignOptions::default())
            .unwrap()
            .result;
        let s = CampaignSummary::from_result(&result);
        let c = &s.cells[0];
        for i in 0..c.tuners.len() {
            let hv = c.hypervolume[i].expect("hypervolume per tuner");
            assert!(hv > 0.0);
            assert!(c.front_size[i].unwrap() >= 1.0);
        }
        // The merged best-known front dominates (or equals) every
        // per-tuner mean hypervolume and is itself a clean front.
        assert!(!c.best_known_front.is_empty());
        for w in c.best_known_front.windows(2) {
            assert!(w[0].time_ms < w[1].time_ms && w[0].energy_mj > w[1].energy_mj);
        }
        let bk = c.best_known_hypervolume.expect("best-known hypervolume");
        for hv in c.hypervolume.iter().flatten() {
            assert!(bk >= *hv - 1e-12, "best-known {bk} < tuner {hv}");
        }
        let rendered = s.render();
        assert!(rendered.contains("hypervolume"));
        assert!(rendered.contains("(best known)"));
        // Reduced purely from the serialized artifact.
        let back = CampaignResult::from_json(&result.to_json()).unwrap();
        assert_eq!(CampaignSummary::from_result(&back).render(), rendered);
    }

    #[test]
    fn resilience_table_renders_only_for_fault_injected_campaigns() {
        let clean = result();
        let clean_summary = CampaignSummary::from_result(&clean);
        assert!(!clean_summary.faulted);
        assert!(!clean_summary.render().contains("Resilience"));

        let mut spec = clean.spec.clone();
        spec.name = "summary-faulted".into();
        spec.faults = Some(crate::spec::FaultSpec {
            transient_rate: 0.2,
            crash_rate: 0.05,
            ..Default::default()
        });
        let faulted = run_campaign(&spec, &CampaignOptions::default())
            .unwrap()
            .result;
        let s = CampaignSummary::from_result(&faulted);
        assert!(s.faulted);
        let rendered = s.render();
        assert!(rendered.contains("Resilience"));
        assert!(rendered.contains("evals to target"));
        // A 20% transient rate over 30-eval budgets must charge retries
        // somewhere, and the reducers must surface them.
        assert!(s
            .cells
            .iter()
            .any(|c| c.mean_retries.iter().flatten().any(|&r| r > 0.0)));
        // Round-trips through the artifact like every other reducer.
        let back = CampaignResult::from_json(&faulted.to_json()).unwrap();
        assert_eq!(CampaignSummary::from_result(&back).render(), rendered);
    }

    #[test]
    fn summary_is_computable_from_json_alone() {
        let r = result();
        let back = CampaignResult::from_json(&r.to_json()).unwrap();
        let a = CampaignSummary::from_result(&r).render();
        let b = CampaignSummary::from_result(&back).render();
        assert_eq!(a, b);
        assert!(a.contains("random-search"));
        assert!(a.contains("nbody/RTX 3090"));
    }

    #[test]
    fn render_table_aligns_columns() {
        let t = render_table(
            &["a", "bb"],
            &[
                vec!["x".into(), "y".into()],
                vec!["long".into(), "z".into()],
            ],
        );
        assert!(t.contains("a     bb"));
        assert!(t.contains("long  z"));
    }
}
