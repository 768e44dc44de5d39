//! The ask/tell (step-driven) search protocol and its shared driver.
//!
//! Classic tuner loops *pull* measurements one at a time, which hard-wires
//! strictly serial evaluation into the comparison protocol. This module
//! inverts that control flow, the way CATBench's black-box interface does:
//! a [`StepTuner`] is a resumable state machine that **asks** for a batch
//! of candidate configurations and is later **told** their outcomes, while
//! the evaluation side — the shared [`try_drive`] loop plus
//! [`Evaluator::evaluate_batch`] — owns batching, measurement and budget
//! accounting.
//!
//! The driver is deterministic: candidates are evaluated in ask order
//! (fan-out happens inside `evaluate_batch`, which collects results in
//! order), trials are recorded in ask order, and the tuner's RNG only ever
//! advances inside `ask`/`tell`. With `Protocol::batch == 1` every ported
//! tuner reproduces its historical pull-loop bit-exactly (property-tested
//! against the retained `reference_tune` oracles); larger batches trade
//! per-candidate feedback for measurement parallelism — a new scenario
//! axis campaigns can sweep.

use bat_core::{Error, EvalBackend, EvalFailure, Measurement, Trial, TuningRun};

/// What the evaluation side offers for the current step.
#[derive(Debug, Clone, Copy)]
pub struct StepCtx {
    /// Maximum number of configurations measurable in one ask/tell round
    /// (the protocol's measurement parallelism; always ≥ 1). Tuners may
    /// ask fewer — sequential algorithms typically ask exactly one.
    pub batch: usize,
}

/// The outcome of one asked configuration, as reported to [`StepTuner::tell`].
#[derive(Debug, Clone)]
pub struct Told {
    /// The dense configuration index that was asked.
    pub index: u64,
    /// Its measurement (or why there is none).
    pub outcome: Result<Measurement, EvalFailure>,
}

impl Told {
    /// The scalar objective, when the evaluation succeeded.
    pub fn value(&self) -> Option<f64> {
        self.outcome.as_ref().ok().map(|m| m.time_ms)
    }
}

/// A search algorithm in ask/tell form: a resumable state machine that
/// proposes candidate configurations and digests their outcomes.
///
/// Contract (enforced by [`try_drive`]):
///
/// * `ask` returns the next candidates to measure, at most `ctx.batch` of
///   them. An empty vector means the algorithm is finished (e.g.
///   exhaustive search ran out of configurations).
/// * `tell` receives one [`Told`] per asked index, in ask order — except
///   when the budget died mid-batch, in which case only the evaluated
///   prefix is told (the run is over either way).
/// * The driver alternates strictly: every `ask` is followed by exactly
///   one `tell` before the next `ask`.
pub trait StepTuner {
    /// Propose up to `ctx.batch` candidate configuration indices.
    fn ask(&mut self, ctx: &StepCtx) -> Vec<u64>;

    /// Digest the outcomes of the previous [`StepTuner::ask`].
    fn tell(&mut self, results: &[Told]);
}

/// Run a step-driven session to budget exhaustion under the suite's
/// measurement discipline, producing the same [`TuningRun`] a classic
/// pull-loop would.
///
/// This is the single search loop of the suite: every [`crate::Tuner`]'s
/// `tune` is this function applied to its [`crate::Tuner::start`] session,
/// so no caller ever constructs an evaluation loop by hand. It is generic
/// over the [`EvalBackend`] — in-process, loopback and remote evaluation
/// all run this exact loop, which is why their trial histories agree byte
/// for byte.
///
/// `Err` means the *backend* failed (transport, session); per-configuration
/// failures are ordinary [`Told`] outcomes.
pub fn try_drive(
    name: &str,
    session: &mut dyn StepTuner,
    backend: &dyn EvalBackend,
    seed: u64,
) -> Result<TuningRun, Error> {
    let space = backend.space();
    let mut run = crate::tuner::new_run(backend, name, seed);
    let ctx = StepCtx {
        batch: backend.protocol().batch(),
    };
    while backend.has_budget() {
        let asked = session.ask(&ctx);
        if asked.is_empty() {
            break;
        }
        debug_assert!(
            asked.len() <= ctx.batch,
            "session asked {} candidates, protocol batch is {}",
            asked.len(),
            ctx.batch
        );
        // One trace span per ask/tell round; inert (one atomic load) when
        // tracing is off. The batch span nests under it via the thread
        // stack.
        let mut step_span = bat_obs::trace::span("step");
        step_span.record_u64("asked", asked.len() as u64);
        let outcomes = backend.evaluate_batch(&asked)?;
        let evaluated = outcomes.len();
        step_span.record_u64("evaluated", evaluated as u64);
        drop(step_span);
        let mut told = Vec::with_capacity(evaluated);
        for (&index, outcome) in asked.iter().zip(outcomes) {
            run.push(Trial {
                eval: run.trials.len() as u64 + 1,
                index,
                config: space.config_at(index),
                outcome: outcome.clone(),
            });
            told.push(Told { index, outcome });
        }
        session.tell(&told);
        if evaluated < asked.len() {
            break; // budget died mid-batch
        }
    }
    Ok(run)
}

/// Select up to `batch` distinct candidate indices from `(score, index)`
/// pairs — the shared top-of-pool pick of the model-based tuners
/// (GBDT/GP/TPE/SMAC). `minimize` orders by ascending score (prediction
/// objectives), otherwise descending (acquisition scores / likelihood
/// ratios). The sort is stable, so ties keep pool order and `batch = 1`
/// selects exactly the classic first-strict-extremum candidate — the
/// tie-break the reference oracles are property-tested against.
pub(crate) fn take_top_distinct(
    mut scored: Vec<(f64, u64)>,
    batch: usize,
    minimize: bool,
) -> Vec<u64> {
    if minimize {
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));
    } else {
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
    }
    let mut out: Vec<u64> = Vec::with_capacity(batch);
    for (_, idx) in scored {
        if !out.contains(&idx) {
            out.push(idx);
            if out.len() >= batch {
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::evaluator;
    use bat_core::{Protocol, SyntheticProblem};
    use bat_space::{ConfigSpace, Param};

    #[test]
    fn take_top_distinct_keeps_pool_order_on_ties_and_dedups() {
        let scored = vec![(2.0, 7), (1.0, 3), (1.0, 9), (1.0, 3), (0.5, 7)];
        // Minimizing: 0.5 first, then the tied 1.0s in pool order, 7 deduped.
        assert_eq!(take_top_distinct(scored.clone(), 3, true), vec![7, 3, 9]);
        // batch = 1 is the first strict minimum.
        assert_eq!(take_top_distinct(scored.clone(), 1, true), vec![7]);
        // Maximizing: 2.0 first.
        assert_eq!(take_top_distinct(scored, 2, false), vec![7, 3]);
        assert!(take_top_distinct(Vec::new(), 4, true).is_empty());
    }

    struct Counting {
        next: u64,
        card: u64,
        telled: Vec<usize>,
    }

    impl StepTuner for Counting {
        fn ask(&mut self, ctx: &StepCtx) -> Vec<u64> {
            let end = (self.next + ctx.batch as u64).min(self.card);
            let out: Vec<u64> = (self.next..end).collect();
            self.next = end;
            out
        }
        fn tell(&mut self, results: &[Told]) {
            self.telled.push(results.len());
        }
    }

    fn problem(
    ) -> SyntheticProblem<impl Fn(&[i64]) -> Result<f64, bat_core::EvalFailure> + Send + Sync> {
        let space = ConfigSpace::builder()
            .param(Param::int_range("x", 0, 99))
            .build()
            .unwrap();
        SyntheticProblem::new("lin", "sim", space, |c| Ok(1.0 + c[0] as f64))
    }

    #[test]
    fn driver_records_trials_in_ask_order_and_respects_budget() {
        let p = problem();
        let eval = evaluator(&p, Protocol::noiseless().with_batch(4), 10);
        let mut s = Counting {
            next: 0,
            card: 100,
            telled: Vec::new(),
        };
        let run = try_drive("counting", &mut s, &eval, 0).unwrap();
        assert_eq!(run.trials.len(), 10);
        let idx: Vec<u64> = run.trials.iter().map(|t| t.index).collect();
        assert_eq!(idx, (0..10).collect::<Vec<u64>>());
        // Three full batches of 4, then a truncated tell of 2.
        assert_eq!(s.telled, vec![4, 4, 2]);
        // Trial numbering is sequential.
        let evals: Vec<u64> = run.trials.iter().map(|t| t.eval).collect();
        assert_eq!(evals, (1..=10).collect::<Vec<u64>>());
    }

    #[test]
    fn driver_stops_when_the_session_is_done() {
        let p = problem();
        let eval = evaluator(&p, Protocol::noiseless().with_batch(8), 50);
        let mut s = Counting {
            next: 0,
            card: 5,
            telled: Vec::new(),
        };
        let run = try_drive("counting", &mut s, &eval, 0).unwrap();
        assert_eq!(run.trials.len(), 5);
        assert_eq!(eval.evals_used(), 5);
    }
}
