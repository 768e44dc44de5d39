//! The campaign executor: compiled trials in, a deterministic artifact out.
//!
//! Every trial is independent — its own problem instance, evaluator,
//! tuner and RNG seed — so trials fan out over the compat-rayon pool and
//! the result is bit-identical no matter how many threads ran them or in
//! what order they finished. Resume works the same way: trials already
//! present in a prior (possibly partial) result are reused verbatim and
//! only the missing ones execute.

use std::io::{Read, Write};
use std::time::{Duration, Instant};

use rayon::prelude::*;

use bat_cache::CacheStore;
use bat_core::{Error, EvalBackend, Evaluator, TuningProblem, TuningRun};
use bat_server::wire::OpenSession;
use bat_server::{Daemon, RemoteBackend, ServerConfig};
use bat_tuners::{default_tuners, Tuner};

use crate::cache_integration::{cache_prior, fold_run_into_cache};
use crate::files::{cache_error, read_resume_artifact, write_artifact, write_metadata};
use crate::result::{CampaignResult, TrialRecord, RESULT_SCHEMA};
use crate::spec::{CompiledTrial, ExperimentSpec, ObjectiveMode, RecordLevel};

/// Trials executed between checkpoint writes of the output artifact.
/// Small enough that an interrupted long campaign loses little work,
/// large enough that serialization stays a rounding error next to trial
/// execution.
pub(crate) const CHECKPOINT_TRIALS: usize = 32;

/// Where campaign trials evaluate.
///
/// The historical (and default) endpoint is [`Endpoint::InProcess`]: each
/// trial builds its own [`Evaluator`] in this process. The remote
/// endpoints route every trial through the `bat/wire/v1` protocol
/// instead — [`Endpoint::Loopback`] against a daemon living in this
/// process (exercising the full codec without a socket), [`Endpoint::Tcp`]
/// against a `bat serve` daemon elsewhere. Because all three share the
/// evaluator semantics, the produced artifacts are byte-identical.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Endpoint {
    /// Evaluate trials with in-process evaluators (the default).
    #[default]
    InProcess,
    /// Spin up a daemon in this process and talk to it over the real
    /// wire codec via an in-memory stream.
    Loopback,
    /// Connect to a `bat serve` daemon at `host:port` (one session per
    /// trial).
    Tcp(String),
}

impl Endpoint {
    /// Parse a `--connect` argument: `in-process`, `loopback`, or a
    /// `host:port` address.
    pub fn parse(s: &str) -> Result<Endpoint, Error> {
        match s {
            "in-process" => Ok(Endpoint::InProcess),
            "loopback" => Ok(Endpoint::Loopback),
            addr if addr.contains(':') => Ok(Endpoint::Tcp(addr.to_string())),
            other => Err(Error::spec(format!(
                "bad endpoint {other:?}: expected in-process, loopback, or host:port"
            ))),
        }
    }
}

/// An [`Endpoint`] resolved for one campaign run: the loopback daemon is
/// created once and shared by every trial (sessions are cheap; daemons
/// own the fair scheduler), so concurrent trials contend exactly like
/// concurrent clients of a real server.
enum Target {
    InProcess,
    Loopback(Daemon),
    Tcp(String),
}

impl Target {
    fn of(endpoint: &Endpoint) -> Target {
        match endpoint {
            Endpoint::InProcess => Target::InProcess,
            Endpoint::Loopback => Target::Loopback(Daemon::new(ServerConfig::default())),
            Endpoint::Tcp(addr) => Target::Tcp(addr.clone()),
        }
    }
}

/// How [`run_campaign`] runs a spec. The default evaluates every trial in
/// this process, in parallel, and writes no file.
#[derive(Debug, Default)]
pub struct CampaignOptions {
    /// Where trials evaluate. The artifact is byte-identical across
    /// endpoints.
    pub endpoint: Endpoint,
    /// Where to write the artifact: rewritten every 32 executed trials,
    /// so an interrupted run leaves a partial artifact that `resume`
    /// picks up, plus its T4 metadata document at `<out>.meta.json`.
    pub out: Option<String>,
    /// Reuse the trials already in `out`. A missing file runs everything;
    /// an unreadable or foreign one is an error, since re-running would
    /// overwrite it.
    pub resume: bool,
    /// A prior result of exactly this spec (possibly partial): its
    /// trials are reused verbatim.
    pub prior: Option<CampaignResult>,
    /// Results of this campaign under any shard block, typically shard
    /// artifacts: their trials are reused, so merging every shard
    /// reproduces the unsharded artifact without executing anything.
    pub merge: Vec<CampaignResult>,
    /// A `bat/cache/v1` file (missing is fine: it starts empty). Trials
    /// whose exact fingerprint is stored replay verbatim, and the finished
    /// campaign folds back into the file, which a fully warm run leaves
    /// untouched.
    pub cache: Option<String>,
    /// Run trials one by one on the calling thread: the determinism
    /// oracle, whose artifact equals the parallel run's.
    pub serial: bool,
}

/// A finished campaign plus execution metadata. The metadata (wall time,
/// executed/reused counts) is deliberately *not* part of the serialized
/// [`CampaignResult`], which must stay a pure function of the spec.
#[derive(Debug)]
pub struct CampaignRun {
    /// The deterministic artifact.
    pub result: CampaignResult,
    /// Trials executed in this run.
    pub executed: usize,
    /// Trials reused from a prior result.
    pub reused: usize,
    /// Evaluations spent by the trials executed in this run (reused trials
    /// excluded).
    pub executed_evals: u64,
    /// Wall time spent executing trials.
    pub wall: Duration,
}

impl CampaignRun {
    /// Executed-trial throughput (trials per second of wall time).
    pub fn trials_per_sec(&self) -> f64 {
        if self.wall.as_secs_f64() <= 0.0 {
            return 0.0;
        }
        self.executed as f64 / self.wall.as_secs_f64()
    }

    /// Evaluation throughput of the trials executed in this run.
    pub fn evals_per_sec(&self) -> f64 {
        if self.wall.as_secs_f64() <= 0.0 {
            return 0.0;
        }
        self.executed_evals as f64 / self.wall.as_secs_f64()
    }

    /// One-line execution report (trial counts, wall time, throughput).
    pub fn report(&self) -> String {
        format!(
            "{} trials ({} executed, {} reused) in {:.2}s — {:.1} trials/s, {:.0} evals/s",
            self.result.trials.len(),
            self.executed,
            self.reused,
            self.wall.as_secs_f64(),
            self.trials_per_sec(),
            self.evals_per_sec(),
        )
    }
}

/// Look up a suite tuner by name (the default registry plus the
/// multi-objective tuners of `bat-moo`).
pub fn tuner_by_name(name: &str) -> Option<Box<dyn Tuner>> {
    default_tuners()
        .into_iter()
        .chain(bat_moo::moo_tuners())
        .find(|t| t.name() == name)
}

fn trial_tuner(ct: &CompiledTrial) -> Result<Box<dyn Tuner>, Error> {
    tuner_by_name(&ct.key.tuner)
        .ok_or_else(|| Error::spec(format!("unknown tuner {:?}", ct.key.tuner)))
}

/// The wire-session description of one compiled trial: same protocol,
/// budget, energy flag, scalarization and fault block the in-process
/// evaluator would get, so the daemon's session is semantically the
/// trial's evaluator.
fn open_session(ct: &CompiledTrial) -> OpenSession {
    let mut open = OpenSession::new(&ct.key.benchmark, &ct.key.architecture, ct.protocol);
    open.budget = Some(ct.budget);
    open.energy = ct.objective.mode != ObjectiveMode::Time;
    open.scalarization = ct.objective.scalarization().map(Into::into);
    open.faults = ct.faults.map(|f| (f.model(), f.retry_policy()).into());
    open
}

/// The record of one finished trial; Pareto trials also record their
/// bounded non-dominated front.
fn trial_record(
    ct: &CompiledTrial,
    run: &TuningRun,
    names: &[String],
    stats: bat_core::EvalStats,
) -> TrialRecord {
    let keep_history = ct.record == RecordLevel::Full;
    let mut record = TrialRecord::from_run(&ct.key, ct.seed, run, names, stats, keep_history);
    if ct.objective.mode == ObjectiveMode::Pareto {
        let front = bat_moo::front_of_run(run, ct.objective.front_capacity());
        record.front = Some(front.front().to_vec());
    }
    record
}

/// Execute one trial against an open remote session. The shared ask/tell
/// driver runs against the [`RemoteBackend`] exactly as it runs against
/// the in-process evaluator; the Pareto front (like the rest of the
/// record) is derived client-side from the returned run.
fn execute_trial_remote<S: Read + Write>(
    ct: &CompiledTrial,
    backend: RemoteBackend<S>,
) -> Result<TrialRecord, Error> {
    let tuner = trial_tuner(ct)?;
    let names = backend.space().names().to_vec();
    let run = tuner.try_tune(&backend, ct.seed)?;
    let record = trial_record(ct, &run, &names, EvalBackend::stats(&backend));
    backend.close()?;
    Ok(record)
}

/// [`execute_trial`] wrapped in a `trial` trace span parented (via
/// explicit id — trials run on pool threads, not under the campaign
/// span's thread stack) to the enclosing `campaign` span.
fn execute_trial_traced(
    ct: &CompiledTrial,
    target: &Target,
    parent: u64,
) -> Result<TrialRecord, Error> {
    let mut sp = bat_obs::trace::span_at("trial", parent);
    sp.record_str("tuner", &ct.key.tuner);
    sp.record_str("benchmark", &ct.key.benchmark);
    sp.record_u64("seed", ct.seed);
    let out = execute_trial(ct, target);
    if let Ok(record) = &out {
        sp.record_u64("evals", record.evals);
    }
    out
}

fn execute_trial(ct: &CompiledTrial, target: &Target) -> Result<TrialRecord, Error> {
    match target {
        Target::InProcess => execute_trial_in_process(ct),
        Target::Loopback(daemon) => execute_trial_remote(
            ct,
            RemoteBackend::open(daemon.connect_loopback(), open_session(ct))?,
        ),
        Target::Tcp(addr) => {
            execute_trial_remote(ct, RemoteBackend::connect(addr, open_session(ct))?)
        }
    }
}

fn execute_trial_in_process(ct: &CompiledTrial) -> Result<TrialRecord, Error> {
    let arch = bat_gpusim::GpuArch::by_name(&ct.key.architecture)
        .ok_or_else(|| Error::spec(format!("unknown GPU {:?}", ct.key.architecture)))?;
    let problem = bat_kernels::benchmark(&ct.key.benchmark, arch)
        .ok_or_else(|| Error::spec(format!("unknown benchmark {:?}", ct.key.benchmark)))?;
    let tuner = trial_tuner(ct)?;
    let names = problem.space().names().to_vec();
    // Blended modes tune the scalarization through the ordinary evaluator
    // interface: `best_ms` holds the blended objective and
    // `best_energy_mj` the underlying energy. Every mode but `time`
    // measures energy; a `time` trial measures exactly what the
    // pre-energy suite did.
    let blended;
    let tuned: &dyn TuningProblem = match ct.objective.scalarization() {
        Some(s) => {
            blended = bat_moo::Scalarized::new(problem, s);
            &blended
        }
        None => &problem,
    };
    let mut builder = Evaluator::builder(tuned)
        .protocol(ct.protocol)
        .budget(ct.budget)
        .energy(ct.objective.mode != ObjectiveMode::Time);
    // A spec-level `faults` block installs the fault model + retry policy
    // on the trial's evaluator; without one, the evaluation path — and
    // therefore every artifact byte — is exactly the pre-fault one.
    if let Some(f) = ct.faults {
        builder = builder.faults(f.model(), f.retry_policy());
    }
    let eval = builder.build()?;
    let run = tuner.tune(&eval, ct.seed);
    Ok(trial_record(ct, &run, &names, EvalBackend::stats(&eval)))
}

/// Check that `prior` holds trials of `spec`'s campaign: the result
/// schema, and the spec itself — exactly, or modulo the shard block when
/// `any_shard`. Resume stays exact on purpose: resuming a *sharded* spec
/// from an unsharded artifact would let the checkpoint writer overwrite a
/// complete artifact with the shard's subset. Merging is where shard
/// artifacts deliberately recombine (per-trial seeds never depend on the
/// shard block).
fn check_prior(
    spec: &ExperimentSpec,
    prior: &CampaignResult,
    any_shard: bool,
) -> Result<(), Error> {
    if prior.schema != RESULT_SCHEMA {
        return Err(Error::session(format!(
            "cannot resume: prior result schema {:?} is not {RESULT_SCHEMA:?}",
            prior.schema
        )));
    }
    let same = if any_shard {
        prior.spec.same_campaign(spec)
    } else {
        prior.spec == *spec
    };
    if !same {
        return Err(Error::session(
            "cannot resume: prior result was produced by a different spec",
        ));
    }
    Ok(())
}

type PriorIndex<'a> = std::collections::HashMap<(&'a str, &'a str, &'a str, u32), &'a TrialRecord>;

/// Index prior records by trial key (first prior holding a key wins) — a
/// linear `find()` per compiled trial would make resuming large campaigns
/// quadratic.
fn index_prior<'a>(priors: &[&'a CampaignResult]) -> PriorIndex<'a> {
    let mut index = PriorIndex::new();
    for p in priors {
        for r in &p.trials {
            index
                .entry((
                    r.tuner.as_str(),
                    r.benchmark.as_str(),
                    r.architecture.as_str(),
                    r.rep,
                ))
                .or_insert(r);
        }
    }
    index
}

/// The prior's record for `ct`, if its key and seed match.
fn reuse_record(index: &PriorIndex<'_>, ct: &CompiledTrial) -> Option<TrialRecord> {
    index
        .get(&(
            ct.key.tuner.as_str(),
            ct.key.benchmark.as_str(),
            ct.key.architecture.as_str(),
            ct.key.rep,
        ))
        .filter(|r| r.seed == ct.seed)
        .map(|r| (*r).clone())
}

/// Run a campaign: compile `spec`, reuse every trial a prior already
/// holds (the `out` artifact under `resume`, the in-memory `prior`, the
/// `merge` inputs and the cache, first holder of a key wins), execute
/// the rest and return the canonical-order artifact.
pub fn run_campaign(spec: &ExperimentSpec, opts: &CampaignOptions) -> Result<CampaignRun, Error> {
    if opts.resume && opts.serial {
        return Err(Error::spec("--resume and --serial are mutually exclusive"));
    }
    if opts.serial && opts.endpoint != Endpoint::InProcess {
        return Err(Error::spec(
            "--serial runs the in-process determinism oracle; drop --connect",
        ));
    }
    let out = opts.out.as_deref();
    let disk = match (opts.resume, out) {
        (false, _) => None,
        (true, None) => {
            return Err(Error::spec(
                "--resume requires --out (the file to resume from)",
            ))
        }
        (true, Some(path)) => read_resume_artifact(path)?,
    };
    let mut store = match opts.cache.as_deref() {
        Some(path) => Some(CacheStore::load_or_empty(path).map_err(cache_error)?),
        None => None,
    };
    let target = Target::of(&opts.endpoint);
    let compiled = spec.compile()?;
    for p in disk.iter().chain(&opts.prior) {
        check_prior(spec, p, false)?;
    }
    for p in &opts.merge {
        check_prior(spec, p, true)?;
    }
    let cached = store.as_ref().and_then(|s| cache_prior(s, spec));
    let priors: Vec<&CampaignResult> = disk
        .iter()
        .chain(&opts.prior)
        .chain(&opts.merge)
        .chain(&cached)
        .collect();
    let prior_index = index_prior(&priors);

    // `present[i]` ⇔ compiled trial `i` is already in `result.trials`
    // (which stays sorted in canonical compiled order throughout).
    let mut present = vec![false; compiled.len()];
    let mut trials = Vec::with_capacity(compiled.len());
    for (i, ct) in compiled.iter().enumerate() {
        if let Some(r) = reuse_record(&prior_index, ct) {
            present[i] = true;
            trials.push(r);
        }
    }
    let reused = trials.len();
    let mut result = CampaignResult {
        schema: RESULT_SCHEMA.to_string(),
        spec: spec.clone(),
        trials,
    };
    let todo: Vec<(usize, &CompiledTrial)> = present
        .iter()
        .enumerate()
        .filter(|(_, p)| !**p)
        .map(|(i, _)| (i, &compiled[i]))
        .collect();
    let executed = todo.len();
    let checkpoint = |result: &CampaignResult| match out {
        Some(path) => write_artifact(path, result),
        None => Ok(()),
    };
    if executed == 0 {
        checkpoint(&result)?;
    }
    // Without an output file there is nothing to checkpoint into, so every
    // pending trial runs in one chunk.
    let chunk_len = if out.is_some() {
        CHECKPOINT_TRIALS
    } else {
        executed.max(1)
    };

    let mut campaign_span = bat_obs::trace::span("campaign");
    campaign_span.record_str("name", &spec.name);
    campaign_span.record_u64("trials", compiled.len() as u64);
    campaign_span.record_u64("reused", reused as u64);
    let parent = campaign_span.id();

    let start = Instant::now();
    let mut executed_evals = 0u64;
    // Records arrive in strictly ascending compiled index, so a running
    // cursor yields each insert position in O(1) amortized instead of a
    // per-record prefix scan. Inserts only shift when resuming into holes
    // before reused trials; fresh runs append.
    let mut cursor_i = 0usize;
    let mut cursor_pos = 0usize;
    for chunk in todo.chunks(chunk_len) {
        let execute =
            |&(i, ct): &(usize, &CompiledTrial)| (i, execute_trial_traced(ct, &target, parent));
        let outcomes: Vec<(usize, Result<TrialRecord, Error>)> = if opts.serial {
            chunk.iter().map(execute).collect()
        } else {
            chunk.par_iter().map(execute).collect()
        };
        for (i, outcome) in outcomes {
            let record = outcome?;
            executed_evals += record.evals;
            while cursor_i < i {
                cursor_pos += usize::from(present[cursor_i]);
                cursor_i += 1;
            }
            result.trials.insert(cursor_pos, record);
            present[i] = true;
        }
        checkpoint(&result)?;
    }
    let wall = start.elapsed();
    drop(campaign_span);

    if let Some(path) = out {
        write_metadata(path, spec)?;
    }
    if let (Some(path), Some(store)) = (opts.cache.as_deref(), store.as_mut()) {
        let before = store.to_json();
        fold_run_into_cache(store, &result);
        // Skip the write when nothing changed (fully-warm runs) so a
        // shipped cache can sit on read-only media.
        if store.to_json() != before {
            store.save_atomic(path).map_err(cache_error)?;
        }
    }
    Ok(CampaignRun {
        result,
        executed,
        reused,
        executed_evals,
        wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ObjectiveSpec, Selector, ShardSpec};

    fn spec() -> ExperimentSpec {
        ExperimentSpec {
            tuners: Selector::Subset(vec!["random-search".into(), "simulated-annealing".into()]),
            benchmarks: Selector::Subset(vec!["nbody".into()]),
            architectures: Selector::Subset(vec!["RTX 3090".into()]),
            budget: 25,
            repetitions: 2,
            ..ExperimentSpec::new("campaign-unit")
        }
    }

    fn run(s: &ExperimentSpec) -> CampaignRun {
        run_campaign(s, &CampaignOptions::default()).unwrap()
    }

    fn serial(s: &ExperimentSpec) -> CampaignRun {
        let opts = CampaignOptions {
            serial: true,
            ..CampaignOptions::default()
        };
        run_campaign(s, &opts).unwrap()
    }

    fn at(s: &ExperimentSpec, endpoint: Endpoint) -> Result<CampaignRun, Error> {
        let opts = CampaignOptions {
            endpoint,
            ..CampaignOptions::default()
        };
        run_campaign(s, &opts)
    }

    fn resume(s: &ExperimentSpec, prior: &CampaignResult) -> Result<CampaignRun, Error> {
        let opts = CampaignOptions {
            prior: Some(prior.clone()),
            ..CampaignOptions::default()
        };
        run_campaign(s, &opts)
    }

    fn merge(s: &ExperimentSpec, shards: &[CampaignResult]) -> Result<CampaignRun, Error> {
        let opts = CampaignOptions {
            merge: shards.to_vec(),
            ..CampaignOptions::default()
        };
        run_campaign(s, &opts)
    }

    #[test]
    fn parallel_and_serial_runs_are_byte_identical() {
        let s = spec();
        let a = run(&s);
        let b = serial(&s);
        assert_eq!(a.result.to_json(), b.result.to_json());
        assert_eq!(a.executed, 4);
        assert_eq!(a.reused, 0);
    }

    #[test]
    fn loopback_campaign_is_byte_identical_to_in_process() {
        let s = spec();
        let local = run(&s);
        let loopback = at(&s, Endpoint::Loopback).unwrap();
        assert_eq!(loopback.result.to_json(), local.result.to_json());
        assert_eq!(loopback.executed, 4);
    }

    #[test]
    fn loopback_matches_in_process_across_objectives_and_faults() {
        // Every objective mode routes through the daemon differently
        // (energy flag, scalarization block, client-side fronts), and a
        // fault block rides along on the wire — all must reproduce the
        // in-process artifact byte for byte.
        for mode in [
            ObjectiveMode::Energy,
            ObjectiveMode::Edp,
            ObjectiveMode::Scalarized,
            ObjectiveMode::Pareto,
        ] {
            let mut s = ExperimentSpec {
                objective: ObjectiveSpec {
                    mode,
                    weight: (mode == ObjectiveMode::Scalarized).then_some(0.3),
                    front_capacity: (mode == ObjectiveMode::Pareto).then_some(8),
                    ..ObjectiveSpec::default()
                },
                record: RecordLevel::Curve,
                budget: 15,
                repetitions: 1,
                ..spec()
            };
            s.set_fault_rate(0.05);
            let local = run(&s);
            let loopback = at(&s, Endpoint::Loopback).unwrap();
            assert_eq!(
                loopback.result.to_json(),
                local.result.to_json(),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn endpoint_parses_the_connect_argument() {
        assert_eq!(Endpoint::parse("in-process").unwrap(), Endpoint::InProcess);
        assert_eq!(Endpoint::parse("loopback").unwrap(), Endpoint::Loopback);
        assert_eq!(
            Endpoint::parse("10.0.0.1:4780").unwrap(),
            Endpoint::Tcp("10.0.0.1:4780".into())
        );
        assert!(Endpoint::parse("carrier-pigeon").is_err());
    }

    #[test]
    fn remote_failures_are_typed_not_stringly() {
        // A daemonless TCP endpoint fails with a transport error in the
        // unified hierarchy, not a panic or ad-hoc string.
        let err = at(&spec(), Endpoint::Tcp("127.0.0.1:1".into())).unwrap_err();
        assert!(matches!(err, Error::Transport(_)), "{err:?}");
    }

    #[test]
    fn trials_spend_their_budget_and_record_order_is_canonical() {
        let run = run(&spec());
        assert_eq!(run.result.trials.len(), 4);
        for t in &run.result.trials {
            assert_eq!(t.evals, 25);
            assert!(t.best_ms.is_some());
            assert!(t.distinct_evals <= t.evals);
        }
        let keys: Vec<(String, u32)> = run
            .result
            .trials
            .iter()
            .map(|t| (t.tuner.clone(), t.rep))
            .collect();
        assert_eq!(
            keys,
            vec![
                ("random-search".into(), 0),
                ("random-search".into(), 1),
                ("simulated-annealing".into(), 0),
                ("simulated-annealing".into(), 1),
            ]
        );
    }

    #[test]
    fn resume_from_partial_result_reproduces_full_result() {
        let s = spec();
        let full = run(&s);
        let mut partial = full.result.clone();
        partial.trials.truncate(1);
        let resumed = resume(&s, &partial).unwrap();
        assert_eq!(resumed.reused, 1);
        assert_eq!(resumed.executed, 3);
        assert_eq!(resumed.result.to_json(), full.result.to_json());
    }

    #[test]
    fn resume_rejects_foreign_artifacts() {
        let s = spec();
        let full = run(&s);
        let other = ExperimentSpec { seed: 99, ..spec() };
        assert!(matches!(
            resume(&other, &full.result),
            Err(Error::Session(_))
        ));
        // Resume is shard-strict: a sharded spec must not resume from (and
        // later overwrite) the unsharded artifact — recombination goes
        // through the merge inputs only.
        let sharded = ExperimentSpec {
            shard: Some(ShardSpec { index: 0, count: 2 }),
            ..spec()
        };
        assert!(matches!(
            resume(&sharded, &full.result),
            Err(Error::Session(_))
        ));
        // Merge accepts the same pairing by design, but not a foreign spec.
        assert!(merge(&sharded, std::slice::from_ref(&full.result)).is_ok());
        assert!(merge(&other, std::slice::from_ref(&full.result)).is_err());
    }

    #[test]
    fn sharded_runs_merge_to_the_unsharded_artifact() {
        let s = spec();
        let full = run(&s);
        let shards: Vec<CampaignResult> = (0..2)
            .map(|index| {
                run(&ExperimentSpec {
                    shard: Some(ShardSpec { index, count: 2 }),
                    ..spec()
                })
                .result
            })
            .collect();
        assert_eq!(shards[0].trials.len() + shards[1].trials.len(), 4);
        let merged = merge(&s, &shards).unwrap();
        assert_eq!(merged.executed, 0);
        assert_eq!(merged.reused, 4);
        assert_eq!(merged.result.to_json(), full.result.to_json());
        // A missing shard degenerates to executing the hole.
        let partial = merge(&s, &shards[..1]).unwrap();
        assert_eq!(partial.reused, shards[0].trials.len());
        assert_eq!(partial.result.to_json(), full.result.to_json());
    }

    #[test]
    fn pareto_objective_records_clean_fronts() {
        let s = ExperimentSpec {
            tuners: Selector::Subset(vec!["nsga2".into(), "random-search".into()]),
            objective: ObjectiveSpec {
                mode: ObjectiveMode::Pareto,
                front_capacity: Some(8),
                ..ObjectiveSpec::default()
            },
            record: RecordLevel::Curve,
            budget: 60,
            repetitions: 1,
            ..spec()
        };
        let run = run(&s);
        assert_eq!(run.result.to_json(), serial(&s).result.to_json());
        for t in &run.result.trials {
            let front = t.front.as_ref().expect("pareto trials record fronts");
            assert!(!front.is_empty() && front.len() <= 8);
            // Mutually non-dominated, sorted by time.
            for w in front.windows(2) {
                assert!(w[0].time_ms < w[1].time_ms);
                assert!(w[0].energy_mj > w[1].energy_mj);
            }
            assert!(t.best_energy_mj.is_some());
        }
    }

    #[test]
    fn scalarized_objectives_measure_energy_and_stay_deterministic() {
        for mode in [
            ObjectiveMode::Energy,
            ObjectiveMode::Edp,
            ObjectiveMode::Scalarized,
        ] {
            let s = ExperimentSpec {
                objective: ObjectiveSpec {
                    mode,
                    weight: (mode == ObjectiveMode::Scalarized).then_some(0.5),
                    ..ObjectiveSpec::default()
                },
                record: RecordLevel::Curve,
                budget: 20,
                ..spec()
            };
            let a = run(&s);
            assert_eq!(a.result.to_json(), serial(&s).result.to_json(), "{mode:?}");
            for t in &a.result.trials {
                assert!(t.best_ms.is_some(), "{mode:?}");
                assert!(t.best_energy_mj.is_some(), "{mode:?}");
            }
        }
    }

    #[test]
    fn objective_modes_select_different_optima() {
        // On gemm × RTX 3090 with a healthy budget, the time-optimal and
        // energy-optimal configurations should differ (that is the whole
        // point of the second objective).
        let base = ExperimentSpec {
            tuners: Selector::Subset(vec!["greedy-ils".into()]),
            benchmarks: Selector::Subset(vec!["gemm".into()]),
            architectures: Selector::Subset(vec!["RTX 3090".into()]),
            budget: 400,
            repetitions: 1,
            record: RecordLevel::Curve,
            ..ExperimentSpec::new("objective-split")
        };
        let time = run(&base);
        let energy = run(&ExperimentSpec {
            objective: ObjectiveSpec {
                mode: ObjectiveMode::Energy,
                ..ObjectiveSpec::default()
            },
            ..base.clone()
        });
        let t_cfg = &time.result.trials[0].best_config;
        let e_cfg = &energy.result.trials[0].best_config;
        assert_ne!(t_cfg, e_cfg, "time and energy optima coincide");
    }
}
