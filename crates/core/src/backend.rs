//! The evaluation-backend abstraction behind the service boundary.
//!
//! [`Evaluator`] is the in-process measurement harness; the tuning service
//! puts the same contract behind a codec so tuners and measurement hardware
//! can live in different processes (or machines). [`EvalBackend`] is that
//! contract, extracted from the `Evaluator` surface the shared ask/tell
//! driver actually consumes: batch evaluation with single-claim budget
//! accounting, memoization and retry/quarantine semantics on the far side,
//! and the session statistics campaigns record.
//!
//! Three implementations exist:
//!
//! * **in-process** — [`Evaluator`] itself (infallible: every method wraps
//!   the native call in `Ok`);
//! * **loopback** — client and server in one process, over the real
//!   `bat/wire/v1` codec (`bat-server`);
//! * **remote** — the same client over TCP (`bat-server`).
//!
//! The contract is deterministic: for a fixed problem, protocol and request
//! sequence, every backend must produce the same outcomes, budget charges
//! and statistics, which is what keeps campaign artifacts byte-identical
//! across deployment shapes.

use bat_space::ConfigSpace;
use serde::{Deserialize, Serialize};

use crate::error::Error;
use crate::evaluator::{Evaluator, Protocol};
use crate::measurement::{EvalFailure, Measurement};

/// One evaluation outcome: a measurement, or why there is none.
pub type EvalOutcome = Result<Measurement, EvalFailure>;

/// The statistics snapshot of one backend — the *single* definition every
/// layer shares: the evaluator's counters, the wire's per-session `stats`
/// payload, and the harness artifact's per-trial tallies are all this
/// struct, so the resilience numbers a summary prints cannot drift from
/// the numbers the evaluator counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct EvalStats {
    /// Evaluations performed (cached or not).
    pub evals: u64,
    /// Distinct configurations measured.
    pub distinct: u64,
    /// Retries spent on retryable failures.
    pub retries: u64,
    /// Configurations quarantined after repeated crashes.
    pub quarantined: u64,
}

/// A source of measurements for the ask/tell driver: the [`Evaluator`]
/// contract with every method allowed to fail at the transport layer.
///
/// Semantics every implementation must honour (they are what the
/// determinism CI holds across backends):
///
/// * [`EvalBackend::evaluate_batch`] charges the budget once for the whole
///   batch; if only `k` of `n` requested evaluations were affordable, the
///   returned vector has length `k` (a truncated tail, never a hole).
/// * Repeated indices re-charge budget but are measured once
///   (memoization), and retryable failures are never memoized.
/// * [`EvalBackend::stats`] reflects every evaluation performed so far
///   through this backend, exactly as [`Evaluator`]'s counters do.
pub trait EvalBackend {
    /// The configuration space being tuned (client-side copy for remote
    /// backends; tuners decode candidate indices against it).
    fn space(&self) -> &ConfigSpace;

    /// Name of the problem under measurement (blended objectives report
    /// their scalarized name, e.g. `"gemm+energy"`).
    fn problem_name(&self) -> &str;

    /// Platform (architecture) label of the problem under measurement.
    fn platform(&self) -> &str;

    /// The measurement protocol (the driver reads its `batch` knob).
    fn protocol(&self) -> Protocol;

    /// Measure a batch of configurations by dense index, charging the
    /// budget once. `Err` means the *backend* failed (transport, session);
    /// per-configuration failures come back as `Err` elements inside the
    /// vector.
    fn evaluate_batch(&self, indices: &[u64]) -> Result<Vec<EvalOutcome>, Error>;

    /// Measure one configuration: a one-element
    /// [`EvalBackend::evaluate_batch`] (same budget charge, same memo
    /// state). `Ok(None)` when the budget is exhausted.
    fn evaluate_index(&self, index: u64) -> Result<Option<EvalOutcome>, Error> {
        Ok(self.evaluate_batch(std::slice::from_ref(&index))?.pop())
    }

    /// Remaining budget, if a budget is set.
    fn budget_left(&self) -> Option<u64>;

    /// True when another evaluation may be performed.
    fn has_budget(&self) -> bool {
        self.budget_left().is_none_or(|left| left > 0)
    }

    /// All four statistics counters as one snapshot — the one way to read
    /// a backend's tallies (campaign records and wire responses both go
    /// through here).
    fn stats(&self) -> EvalStats;
}

/// The in-process backend: today's [`Evaluator`], verbatim. Infallible —
/// there is no transport to fail.
impl EvalBackend for Evaluator<'_> {
    fn space(&self) -> &ConfigSpace {
        self.problem().space()
    }

    fn problem_name(&self) -> &str {
        self.problem().name()
    }

    fn platform(&self) -> &str {
        self.problem().platform()
    }

    fn protocol(&self) -> Protocol {
        *Evaluator::protocol(self)
    }

    fn evaluate_batch(&self, indices: &[u64]) -> Result<Vec<EvalOutcome>, Error> {
        Ok(Evaluator::evaluate_batch(self, indices))
    }

    fn budget_left(&self) -> Option<u64> {
        Evaluator::budget_left(self)
    }

    fn stats(&self) -> EvalStats {
        EvalStats {
            evals: self.evals_used(),
            distinct: self.distinct_evals(),
            retries: self.retries_used(),
            quarantined: self.quarantined_configs(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::SyntheticProblem;
    use bat_space::Param;

    fn problem() -> SyntheticProblem<impl Fn(&[i64]) -> Result<f64, EvalFailure> + Send + Sync> {
        let space = ConfigSpace::builder()
            .param(Param::int_range("x", 0, 9))
            .build()
            .unwrap();
        SyntheticProblem::new("lin", "sim", space, |c| Ok(1.0 + c[0] as f64))
    }

    #[test]
    fn evaluator_backend_mirrors_native_calls() {
        let p = problem();
        let native = Evaluator::builder(&p)
            .protocol(Protocol::noiseless())
            .budget(6)
            .build()
            .unwrap();
        let eval = Evaluator::builder(&p)
            .protocol(Protocol::noiseless())
            .budget(6)
            .build()
            .unwrap();
        let backend: &dyn EvalBackend = &eval;

        assert_eq!(backend.problem_name(), "lin");
        assert_eq!(backend.platform(), "sim");
        assert_eq!(backend.protocol(), Protocol::noiseless());
        assert_eq!(backend.space().cardinality(), 10);

        let want = Evaluator::evaluate_batch(&native, &[1, 2, 1]);
        let got = backend.evaluate_batch(&[1, 2, 1]).unwrap();
        assert_eq!(got, want);
        assert_eq!((backend.stats().evals, backend.stats().distinct), (3, 2));
        assert_eq!(backend.budget_left(), Some(3));
        assert!(backend.has_budget());
    }

    #[test]
    fn default_evaluate_index_matches_batch_of_one() {
        let p = problem();
        let eval = Evaluator::builder(&p)
            .protocol(Protocol::noiseless())
            .budget(2)
            .build()
            .unwrap();
        let backend: &dyn EvalBackend = &eval;
        assert!(backend.evaluate_index(4).unwrap().unwrap().is_ok());
        assert!(backend.evaluate_index(5).unwrap().is_some());
        // Budget exhausted: batch-of-one truncates to empty, i.e. `None`.
        assert!(backend.evaluate_index(6).unwrap().is_none());
        assert_eq!(backend.stats().evals, 2);
    }
}
