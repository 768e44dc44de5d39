//! Campaign specifications: experiments as data.
//!
//! An [`ExperimentSpec`] names *what* to run — tuners × benchmarks ×
//! architectures × budget × repetitions — and is compiled into a flat list
//! of independent [`CompiledTrial`]s. Every derived quantity (most
//! importantly each trial's RNG seed) is a pure function of the spec, so a
//! campaign is reproducible from its JSON alone, bit-for-bit, on any
//! machine and with any thread count.

use serde::{DeError, Deserialize, Serialize, Value};

use bat_core::{Protocol, RetryPolicy};
use bat_gpusim::{mix, FaultModel, GpuArch};
use bat_tuners::default_tuners;

/// Schema identifier every spec document must carry.
pub const SPEC_SCHEMA: &str = "bat/campaign-spec/v1";

/// A dimension selector: every known value, or an explicit subset.
///
/// Serializes as the JSON string `"all"` or an array of names.
#[derive(Debug, Clone, PartialEq)]
pub enum Selector {
    /// Every value the suite knows (resolved at compile time).
    All,
    /// An explicit, ordered subset of names.
    Subset(Vec<String>),
}

impl Serialize for Selector {
    fn to_value(&self) -> Value {
        match self {
            Selector::All => Value::String("all".to_string()),
            Selector::Subset(names) => {
                Value::Array(names.iter().map(|n| Value::String(n.clone())).collect())
            }
        }
    }
}

impl Deserialize for Selector {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::String(s) if s == "all" => Ok(Selector::All),
            Value::String(_) => Err(DeError::expected("\"all\" or an array", "Selector")),
            Value::Array(items) => items
                .iter()
                .map(|i| {
                    i.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| DeError::expected("string element", "Selector"))
                })
                .collect::<Result<Vec<String>, DeError>>()
                .map(Selector::Subset),
            _ => Err(DeError::expected("\"all\" or an array", "Selector")),
        }
    }
}

impl Selector {
    /// Resolve against `universe` (the known names, in canonical order).
    /// Subset entries must be distinct members of the universe or of
    /// `extra` (opt-in names that `All` deliberately does *not* pick up —
    /// the multi-objective tuners live there, so `"all"` keeps resolving
    /// exactly as it did before they existed); `All` keeps the universe's
    /// own order.
    fn resolve(
        &self,
        universe: &[String],
        extra: &[String],
        dimension: &str,
    ) -> Result<Vec<String>, SpecError> {
        match self {
            Selector::All => Ok(universe.to_vec()),
            Selector::Subset(names) => {
                if names.is_empty() {
                    return Err(SpecError(format!("{dimension}: empty selection")));
                }
                let mut seen = Vec::with_capacity(names.len());
                for n in names {
                    if !universe.contains(n) && !extra.contains(n) {
                        return Err(SpecError(if extra.is_empty() {
                            format!("{dimension}: unknown name {n:?} (known: {universe:?})")
                        } else {
                            format!(
                                "{dimension}: unknown name {n:?} (known: {universe:?} + {extra:?})"
                            )
                        }));
                    }
                    if seen.contains(n) {
                        return Err(SpecError(format!("{dimension}: duplicate name {n:?}")));
                    }
                    seen.push(n.clone());
                }
                Ok(seen)
            }
        }
    }
}

/// How per-trial RNG seeds derive from the campaign seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum SeedPolicy {
    /// Hash of `(campaign_seed, tuner, benchmark, architecture, rep)` —
    /// statistically independent streams for every cell of the campaign.
    #[default]
    Derived,
    /// `campaign_seed + rep`: every cell's repetition `r` reuses seed
    /// `seed + r`, matching the suite's historical CLI loops
    /// (`for seed in 0..repeats`).
    Sequential,
}

/// Measurement-protocol block of a spec (mirrors [`Protocol`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ProtocolSpec {
    /// Runs per configuration.
    pub runs: u32,
    /// Relative run-to-run noise (σ of the multiplicative factor).
    pub sigma: f64,
    /// Seed folded into the deterministic measurement noise.
    pub noise_seed: u64,
    /// Measurement parallelism of the ask/tell protocol: step-driven
    /// tuners ask up to this many configurations per round. Absent means
    /// `1` — the classic strictly-serial protocol, under which artifacts
    /// are byte-identical to the pre-batch suite (which is why the default
    /// is skipped during serialization).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub batch: Option<u32>,
}

impl Default for ProtocolSpec {
    fn default() -> Self {
        let p = Protocol::default();
        ProtocolSpec {
            runs: p.runs,
            sigma: p.sigma,
            noise_seed: p.seed,
            batch: None,
        }
    }
}

impl ProtocolSpec {
    /// The evaluator protocol this block describes.
    pub fn protocol(&self) -> Protocol {
        Protocol {
            runs: self.runs,
            sigma: self.sigma,
            seed: self.noise_seed,
            batch: self.batch.unwrap_or(1),
        }
    }

    /// The effective measurement parallelism (≥ 1).
    pub fn batch(&self) -> u32 {
        self.batch.unwrap_or(1).max(1)
    }

    /// Set the batch knob in canonical form: `1` is stored as absent, so
    /// a `batch = 1` override keeps specs (and their embedded artifact
    /// copies) byte-identical to the pre-batch suite.
    pub fn set_batch(&mut self, batch: u32) {
        self.batch = (batch != 1).then_some(batch);
    }
}

/// What each trial optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ObjectiveMode {
    /// Runtime in ms (the suite's historical single objective).
    #[default]
    Time,
    /// Energy in mJ.
    Energy,
    /// Energy–delay product (mJ·ms).
    Edp,
    /// Weighted time–energy blend (`weight` on time, see
    /// [`ObjectiveSpec::weight`]).
    Scalarized,
    /// Chebyshev (max-norm) time–energy blend.
    Chebyshev,
    /// Multi-objective: tuners guide on time, both objectives are measured,
    /// and every trial records its non-dominated (time, energy) front.
    Pareto,
}

/// The objective block of a spec.
///
/// Defaults to plain `time`, in which case the block is skipped during
/// serialization and the evaluator never touches the power model — existing
/// time-only specs and their artifacts are byte-identical to the
/// pre-objective suite.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ObjectiveSpec {
    /// Objective mode (default `time`).
    #[serde(default)]
    pub mode: ObjectiveMode,
    /// Weight on the normalized time objective for
    /// `scalarized`/`chebyshev`, in `[0, 1]` (required there, rejected
    /// elsewhere).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub weight: Option<f64>,
    /// Time normalization scale in ms for the blended modes (default 1.0).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub time_scale_ms: Option<f64>,
    /// Energy normalization scale in mJ for the blended modes
    /// (default 1.0).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub energy_scale_mj: Option<f64>,
    /// Capacity of the recorded Pareto front in `pareto` mode
    /// (default 32).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub front_capacity: Option<u32>,
}

impl ObjectiveSpec {
    /// True for the default (plain time) block — the serialization skip
    /// predicate that keeps time-only artifacts byte-identical.
    pub fn is_default(&self) -> bool {
        *self == ObjectiveSpec::default()
    }

    /// The scalarization this block describes, `None` for `time`/`pareto`.
    pub fn scalarization(&self) -> Option<bat_moo::Scalarization> {
        match self.mode {
            ObjectiveMode::Time | ObjectiveMode::Pareto => None,
            ObjectiveMode::Energy => Some(bat_moo::Scalarization::Energy),
            ObjectiveMode::Edp => Some(bat_moo::Scalarization::Edp),
            ObjectiveMode::Scalarized => Some(bat_moo::Scalarization::Weighted {
                time_weight: self.weight.unwrap_or(0.5),
                time_scale_ms: self.time_scale_ms.unwrap_or(1.0),
                energy_scale_mj: self.energy_scale_mj.unwrap_or(1.0),
            }),
            ObjectiveMode::Chebyshev => Some(bat_moo::Scalarization::Chebyshev {
                time_weight: self.weight.unwrap_or(0.5),
                time_scale_ms: self.time_scale_ms.unwrap_or(1.0),
                energy_scale_mj: self.energy_scale_mj.unwrap_or(1.0),
            }),
        }
    }

    /// Bounded front capacity for `pareto` mode.
    pub fn front_capacity(&self) -> usize {
        self.front_capacity.map_or(32, |c| c.max(1) as usize)
    }

    /// One-line human description (T4 metadata, reports).
    pub fn describe(&self) -> String {
        match self.mode {
            ObjectiveMode::Time => "time (ms, minimized)".into(),
            ObjectiveMode::Energy => "energy (mJ, minimized)".into(),
            ObjectiveMode::Edp => "energy-delay product (mJ*ms, minimized)".into(),
            ObjectiveMode::Scalarized => format!(
                "weighted time-energy blend (time weight {})",
                self.weight.unwrap_or(0.5)
            ),
            ObjectiveMode::Chebyshev => format!(
                "chebyshev time-energy blend (time weight {})",
                self.weight.unwrap_or(0.5)
            ),
            ObjectiveMode::Pareto => format!(
                "pareto time x energy (front capacity {})",
                self.front_capacity()
            ),
        }
    }

    fn validate(&self) -> Result<(), SpecError> {
        let blended = matches!(
            self.mode,
            ObjectiveMode::Scalarized | ObjectiveMode::Chebyshev
        );
        if blended && self.weight.is_none() {
            return Err(SpecError(format!(
                "objective.weight is required for {:?}",
                self.mode
            )));
        }
        if let Some(w) = self.weight {
            if !blended {
                return Err(SpecError(format!(
                    "objective.weight only applies to scalarized/chebyshev, not {:?}",
                    self.mode
                )));
            }
            if !(0.0..=1.0).contains(&w) {
                return Err(SpecError(format!("objective.weight {w} outside [0, 1]")));
            }
        }
        for (label, v) in [
            ("time_scale_ms", self.time_scale_ms),
            ("energy_scale_mj", self.energy_scale_mj),
        ] {
            if let Some(s) = v {
                if !blended {
                    return Err(SpecError(format!(
                        "objective.{label} only applies to scalarized/chebyshev"
                    )));
                }
                if !(s.is_finite() && s > 0.0) {
                    return Err(SpecError(format!("objective.{label} must be positive")));
                }
            }
        }
        if self.front_capacity.is_some() && self.mode != ObjectiveMode::Pareto {
            return Err(SpecError(
                "objective.front_capacity only applies to pareto mode".into(),
            ));
        }
        if self.front_capacity == Some(0) {
            return Err(SpecError(
                "objective.front_capacity must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Campaign sharding: run only every `count`-th compiled trial, starting
/// at `index`. Shards of the same spec partition the trial list exactly,
/// and their artifacts merge back through the resume path into the
/// byte-identical unsharded artifact (per-trial seeds ignore the shard
/// block).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ShardSpec {
    /// This shard's index, `0..count`.
    pub index: u32,
    /// Total number of shards.
    pub count: u32,
}

/// Fault-injection block of a spec: a declarative [`FaultModel`] plus the
/// [`RetryPolicy`] knobs of the resilient measurement pipeline. An absent
/// block (the default) installs no fault model at all, so the evaluation
/// path — and every artifact byte — is identical to the pre-fault suite.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FaultSpec {
    /// Probability one measurement attempt fails transiently, additionally
    /// scaled per architecture by a deterministic factor in `[0.5, 1.5)`.
    #[serde(default)]
    pub transient_rate: f64,
    /// Probability one measurement attempt hangs past the deadline.
    #[serde(default)]
    pub timeout_rate: f64,
    /// Probability an individual run sample comes back corrupted.
    #[serde(default)]
    pub outlier_rate: f64,
    /// Fraction of the configuration space that crashes on every attempt.
    #[serde(default)]
    pub crash_rate: f64,
    /// Measurement deadline in ms a timed-out attempt exceeded
    /// (reporting-only; default 1000).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub deadline_ms: Option<f64>,
    /// Multiplier applied to corrupted samples (default 10).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub outlier_factor: Option<f64>,
    /// Seed folded into every fault draw (default 0).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub fault_seed: Option<u64>,
    /// Retries per evaluation after a retryable failure (default 2).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub max_retries: Option<u32>,
    /// Backoff: the r-th retry charges `1 + backoff_evals · r` evaluations
    /// against the budget (default 0).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub backoff_evals: Option<u32>,
    /// Quarantine a configuration after this many observed crashes
    /// (default 3).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub quarantine_after: Option<u32>,
}

impl FaultSpec {
    /// The fault model this block describes.
    pub fn model(&self) -> FaultModel {
        let d = FaultModel::disabled();
        FaultModel {
            transient_rate: self.transient_rate,
            timeout_rate: self.timeout_rate,
            deadline_ms: self.deadline_ms.unwrap_or(d.deadline_ms),
            outlier_rate: self.outlier_rate,
            outlier_factor: self.outlier_factor.unwrap_or(d.outlier_factor),
            crash_rate: self.crash_rate,
            seed: self.fault_seed.unwrap_or(0),
        }
    }

    /// The retry policy this block describes.
    pub fn retry_policy(&self) -> RetryPolicy {
        let d = RetryPolicy::default();
        RetryPolicy {
            max_retries: self.max_retries.unwrap_or(d.max_retries),
            backoff_evals: self.backoff_evals.unwrap_or(d.backoff_evals),
            quarantine_after: self.quarantine_after.unwrap_or(d.quarantine_after),
        }
    }

    fn validate(&self) -> Result<(), SpecError> {
        for (label, r) in [
            ("transient_rate", self.transient_rate),
            ("timeout_rate", self.timeout_rate),
            ("outlier_rate", self.outlier_rate),
            ("crash_rate", self.crash_rate),
        ] {
            if !(0.0..=1.0).contains(&r) {
                return Err(SpecError(format!("faults.{label} {r} outside [0, 1]")));
            }
        }
        for (label, v) in [
            ("deadline_ms", self.deadline_ms),
            ("outlier_factor", self.outlier_factor),
        ] {
            if let Some(x) = v {
                if !(x.is_finite() && x > 0.0) {
                    return Err(SpecError(format!("faults.{label} must be positive")));
                }
            }
        }
        if self.quarantine_after == Some(0) {
            return Err(SpecError(
                "faults.quarantine_after must be positive (omit the block to disable faults)"
                    .into(),
            ));
        }
        Ok(())
    }
}

/// How much per-trial detail the result artifact keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum RecordLevel {
    /// Full T4 evaluation history per trial plus the compact summary.
    #[default]
    Full,
    /// Only the compact summary (best-so-far curve, counters, best config).
    Curve,
}

/// A declarative tuning campaign: the suite's unit of experimentation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ExperimentSpec {
    /// Format version; must equal [`SPEC_SCHEMA`].
    pub schema: String,
    /// Human-readable campaign name (carried into the result artifact).
    pub name: String,
    /// Campaign seed all per-trial seeds derive from.
    #[serde(default)]
    pub seed: u64,
    /// Tuner selection (`"all"` = every suite tuner).
    pub tuners: Selector,
    /// Benchmark selection (`"all"` = all seven kernels).
    pub benchmarks: Selector,
    /// Architecture selection (`"all"` = the four-GPU paper testbed).
    pub architectures: Selector,
    /// Evaluation budget per trial.
    pub budget: u64,
    /// Independent repetitions per (tuner, benchmark, architecture) cell.
    pub repetitions: u32,
    /// Per-trial seed derivation (default: hash-derived).
    #[serde(default)]
    pub seed_policy: SeedPolicy,
    /// Measurement protocol (default: the suite protocol — 5 runs, 1% σ).
    #[serde(default)]
    pub protocol: ProtocolSpec,
    /// Result detail level (default: full T4 histories).
    #[serde(default)]
    pub record: RecordLevel,
    /// Objective block (default: plain time — skipped in serialization, so
    /// time-only specs and artifacts are unchanged).
    #[serde(default, skip_serializing_if = "ObjectiveSpec::is_default")]
    pub objective: ObjectiveSpec,
    /// Campaign shard selector (default: run every trial). Per-trial seeds
    /// ignore this block, so shard artifacts merge byte-exactly.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub shard: Option<ShardSpec>,
    /// Fault-injection block (default: none — the evaluation path and all
    /// artifacts are byte-identical to the pre-fault suite).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub faults: Option<FaultSpec>,
}

/// Resolved campaign dimensions: `(tuners, benchmarks, architectures)`.
pub type ResolvedDimensions = (Vec<String>, Vec<String>, Vec<String>);

/// A spec that does not describe a runnable campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid campaign spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl From<SpecError> for bat_core::Error {
    fn from(e: SpecError) -> Self {
        bat_core::Error::spec(e)
    }
}

/// Identity of one trial within a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialKey {
    /// Tuner name (as in [`default_tuners`]).
    pub tuner: String,
    /// Benchmark (kernel) name.
    pub benchmark: String,
    /// Architecture (GPU) name.
    pub architecture: String,
    /// Repetition index, `0..repetitions`.
    pub rep: u32,
}

/// One fully resolved, independently executable trial.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledTrial {
    /// Which cell of the campaign this is.
    pub key: TrialKey,
    /// The trial's tuner RNG seed (pure function of spec + key).
    pub seed: u64,
    /// Evaluation budget.
    pub budget: u64,
    /// Measurement protocol.
    pub protocol: Protocol,
    /// Result detail level.
    pub record: RecordLevel,
    /// What the trial optimizes.
    pub objective: ObjectiveSpec,
    /// Fault injection to run the trial under, when the spec asks for it.
    pub faults: Option<FaultSpec>,
}

/// FNV-1a over a string — a stable, platform-independent name hash for
/// seed derivation (must never change, or archived campaigns stop being
/// reproducible).
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// All tuner names the suite ships, in canonical (comparison-table) order.
pub fn known_tuners() -> Vec<String> {
    default_tuners()
        .iter()
        .map(|t| t.name().to_string())
        .collect()
}

/// The multi-objective tuner names (`bat_moo::moo_tuners`). Selectable by
/// explicit subset, *not* included in `"all"`: campaigns archived before
/// the moo subsystem must keep resolving to the same trial lists.
pub fn known_moo_tuners() -> Vec<String> {
    bat_moo::moo_tuners()
        .iter()
        .map(|t| t.name().to_string())
        .collect()
}

/// All benchmark names, in the paper's Table VIII order.
pub fn known_benchmarks() -> Vec<String> {
    bat_kernels::BENCHMARK_NAMES
        .iter()
        .map(|s| s.to_string())
        .collect()
}

/// All simulated testbed GPU names.
pub fn known_architectures() -> Vec<String> {
    GpuArch::paper_testbed()
        .iter()
        .map(|a| a.name.to_string())
        .collect()
}

impl ExperimentSpec {
    /// A minimal well-formed spec (callers then adjust the selections).
    pub fn new(name: impl Into<String>) -> ExperimentSpec {
        ExperimentSpec {
            schema: SPEC_SCHEMA.to_string(),
            name: name.into(),
            seed: 0,
            tuners: Selector::All,
            benchmarks: Selector::All,
            architectures: Selector::All,
            budget: 100,
            repetitions: 1,
            seed_policy: SeedPolicy::default(),
            protocol: ProtocolSpec::default(),
            record: RecordLevel::default(),
            objective: ObjectiveSpec::default(),
            shard: None,
            faults: None,
        }
    }

    /// Parse a spec from JSON (unknown fields are rejected).
    pub fn from_json(s: &str) -> Result<ExperimentSpec, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serializes")
    }

    /// Check the spec describes a runnable campaign and resolve selectors.
    /// Returns `(tuners, benchmarks, architectures)` in execution order.
    pub fn validate(&self) -> Result<ResolvedDimensions, SpecError> {
        if self.schema != SPEC_SCHEMA {
            return Err(SpecError(format!(
                "schema {:?} is not the supported {SPEC_SCHEMA:?}",
                self.schema
            )));
        }
        if self.budget == 0 {
            return Err(SpecError("budget must be positive".into()));
        }
        if self.repetitions == 0 {
            return Err(SpecError("repetitions must be positive".into()));
        }
        if self.protocol.runs == 0 {
            return Err(SpecError("protocol.runs must be positive".into()));
        }
        if self.protocol.sigma.is_nan() || self.protocol.sigma < 0.0 {
            return Err(SpecError("protocol.sigma must be non-negative".into()));
        }
        if self.protocol.batch == Some(0) {
            return Err(SpecError("protocol.batch must be positive".into()));
        }
        if let Some(b) = self.protocol.batch {
            if u64::from(b) > self.budget {
                return Err(SpecError(format!(
                    "protocol.batch {b} exceeds the per-trial budget {}",
                    self.budget
                )));
            }
        }
        self.objective.validate()?;
        if let Some(faults) = &self.faults {
            faults.validate()?;
        }
        if let Some(shard) = self.shard {
            if shard.count == 0 {
                return Err(SpecError("shard.count must be positive".into()));
            }
            if shard.index >= shard.count {
                return Err(SpecError(format!(
                    "shard.index {} out of range 0..{}",
                    shard.index, shard.count
                )));
            }
        }
        let tuners = self
            .tuners
            .resolve(&known_tuners(), &known_moo_tuners(), "tuners")?;
        let benchmarks = self
            .benchmarks
            .resolve(&known_benchmarks(), &[], "benchmarks")?;
        let architectures =
            self.architectures
                .resolve(&known_architectures(), &[], "architectures")?;
        Ok((tuners, benchmarks, architectures))
    }

    /// The RNG seed of one trial: a pure function of the spec and the
    /// trial's key, so results never depend on execution order.
    pub fn trial_seed(&self, key: &TrialKey) -> u64 {
        match self.seed_policy {
            SeedPolicy::Derived => mix(
                mix(self.seed, fnv1a(&key.tuner)),
                mix(
                    mix(fnv1a(&key.benchmark), fnv1a(&key.architecture)),
                    u64::from(key.rep),
                ),
            ),
            // Wrapping: a near-u64::MAX campaign seed must not make the
            // same spec panic in debug builds but run in release.
            SeedPolicy::Sequential => self.seed.wrapping_add(u64::from(key.rep)),
        }
    }

    /// CLI override for the transient fault rate, in canonical form: a
    /// zero rate on an otherwise-default block removes the block entirely,
    /// so a `--fault-rate 0` override keeps specs (and their embedded
    /// artifact copies) byte-identical to fault-free ones.
    pub fn set_fault_rate(&mut self, rate: f64) {
        let mut block = self.faults.unwrap_or_default();
        block.transient_rate = rate;
        self.faults = (block != FaultSpec::default()).then_some(block);
    }

    /// True when `other` describes the same campaign, shard selection
    /// aside. This is the *merge* compatibility test: a shard artifact may
    /// seed the unsharded campaign (and vice versa) because per-trial
    /// seeds are shard-independent. Resume stays shard-strict — see
    /// the harness's prior validation.
    pub fn same_campaign(&self, other: &ExperimentSpec) -> bool {
        let a = ExperimentSpec {
            shard: None,
            ..self.clone()
        };
        let b = ExperimentSpec {
            shard: None,
            ..other.clone()
        };
        a == b
    }

    /// Compile into the flat list of independent trials, in canonical
    /// order: benchmarks → architectures → tuners → repetitions. A `shard`
    /// block keeps every `count`-th trial of that same canonical list
    /// (starting at `index`), so the shards of a spec partition it exactly.
    pub fn compile(&self) -> Result<Vec<CompiledTrial>, SpecError> {
        let (tuners, benchmarks, architectures) = self.validate()?;
        let protocol = self.protocol.protocol();
        let mut trials = Vec::with_capacity(
            tuners.len() * benchmarks.len() * architectures.len() * self.repetitions as usize,
        );
        for benchmark in &benchmarks {
            for architecture in &architectures {
                for tuner in &tuners {
                    for rep in 0..self.repetitions {
                        let key = TrialKey {
                            tuner: tuner.clone(),
                            benchmark: benchmark.clone(),
                            architecture: architecture.clone(),
                            rep,
                        };
                        trials.push(CompiledTrial {
                            seed: self.trial_seed(&key),
                            key,
                            budget: self.budget,
                            protocol,
                            record: self.record,
                            objective: self.objective,
                            faults: self.faults,
                        });
                    }
                }
            }
        }
        if let Some(shard) = self.shard {
            let (index, count) = (shard.index as usize, shard.count as usize);
            trials = trials
                .into_iter()
                .enumerate()
                .filter(|(i, _)| i % count == index)
                .map(|(_, t)| t)
                .collect();
        }
        Ok(trials)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> ExperimentSpec {
        ExperimentSpec {
            tuners: Selector::Subset(vec!["random-search".into()]),
            benchmarks: Selector::Subset(vec!["gemm".into(), "nbody".into()]),
            architectures: Selector::Subset(vec!["RTX 3090".into()]),
            budget: 10,
            repetitions: 3,
            ..ExperimentSpec::new("unit")
        }
    }

    #[test]
    fn compile_enumerates_all_cells() {
        let trials = small_spec().compile().unwrap();
        assert_eq!(trials.len(), 6); // 2 benchmarks × 1 arch × 1 tuner × 3 reps
                                     // Canonical order: benchmark-major, rep-minor.
        assert_eq!(trials[0].key.benchmark, "gemm");
        assert_eq!(trials[0].key.rep, 0);
        assert_eq!(trials[2].key.rep, 2);
        assert_eq!(trials[3].key.benchmark, "nbody");
    }

    #[test]
    fn derived_seeds_differ_between_cells_and_reps() {
        let trials = small_spec().compile().unwrap();
        let mut seeds: Vec<u64> = trials.iter().map(|t| t.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), trials.len(), "derived seeds must be distinct");
    }

    #[test]
    fn sequential_seeds_are_campaign_seed_plus_rep() {
        let spec = ExperimentSpec {
            seed: 5,
            seed_policy: SeedPolicy::Sequential,
            ..small_spec()
        };
        for t in spec.compile().unwrap() {
            assert_eq!(t.seed, 5 + u64::from(t.key.rep));
        }
    }

    #[test]
    fn trial_seed_is_order_free_and_stable() {
        let spec = small_spec();
        let key = TrialKey {
            tuner: "random-search".into(),
            benchmark: "gemm".into(),
            architecture: "RTX 3090".into(),
            rep: 1,
        };
        assert_eq!(spec.trial_seed(&key), spec.trial_seed(&key));
        // Pinned value: changing the derivation breaks replay of archived
        // campaign artifacts, so it must fail loudly here first.
        assert_eq!(spec.trial_seed(&key), 5971933076532582476);
    }

    #[test]
    fn validate_rejects_bad_specs() {
        assert!(ExperimentSpec {
            schema: "bat/campaign-spec/v0".into(),
            ..small_spec()
        }
        .validate()
        .is_err());
        assert!(ExperimentSpec {
            budget: 0,
            ..small_spec()
        }
        .validate()
        .is_err());
        assert!(ExperimentSpec {
            tuners: Selector::Subset(vec!["no-such-tuner".into()]),
            ..small_spec()
        }
        .validate()
        .is_err());
        assert!(ExperimentSpec {
            benchmarks: Selector::Subset(vec![]),
            ..small_spec()
        }
        .validate()
        .is_err());
        assert!(ExperimentSpec {
            benchmarks: Selector::Subset(vec!["gemm".into(), "gemm".into()]),
            ..small_spec()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn batch_knob_is_validated_and_canonically_serialized() {
        // Absent batch serializes without the field (byte-stable specs).
        let spec = small_spec();
        assert!(!spec.to_json().contains("batch"));
        assert_eq!(spec.protocol.batch(), 1);
        // Canonical setter: 1 → absent, n → present.
        let mut batched = small_spec();
        batched.protocol.set_batch(4);
        assert_eq!(batched.protocol.batch, Some(4));
        assert!(batched.to_json().contains("\"batch\": 4"));
        assert!(batched.validate().is_ok());
        let back = ExperimentSpec::from_json(&batched.to_json()).unwrap();
        assert_eq!(back, batched);
        batched.protocol.set_batch(1);
        assert_eq!(batched.protocol.batch, None);
        // Zero is rejected; so is a batch wider than the whole budget.
        let mut zero = small_spec();
        zero.protocol.batch = Some(0);
        assert!(zero.validate().is_err());
        let mut wide = small_spec();
        wide.protocol.batch = Some(11); // budget is 10
        assert!(wide.validate().is_err());
    }

    #[test]
    fn all_selector_resolves_every_dimension() {
        let spec = ExperimentSpec {
            budget: 1,
            ..ExperimentSpec::new("all")
        };
        let (t, b, a) = spec.validate().unwrap();
        assert_eq!(t.len(), default_tuners().len());
        assert_eq!(b.len(), 7);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn default_objective_is_skipped_in_json_and_round_trips() {
        let spec = small_spec();
        assert!(spec.objective.is_default());
        let json = spec.to_json();
        assert!(!json.contains("objective"));
        assert!(!json.contains("shard"));
        assert_eq!(ExperimentSpec::from_json(&json).unwrap(), spec);

        let moo = ExperimentSpec {
            objective: ObjectiveSpec {
                mode: ObjectiveMode::Scalarized,
                weight: Some(0.25),
                ..ObjectiveSpec::default()
            },
            shard: Some(ShardSpec { index: 1, count: 2 }),
            ..small_spec()
        };
        let json = moo.to_json();
        assert!(json.contains("\"scalarized\"") && json.contains("\"shard\""));
        assert_eq!(ExperimentSpec::from_json(&json).unwrap(), moo);
    }

    #[test]
    fn objective_blocks_are_validated() {
        let with = |objective| ExperimentSpec {
            objective,
            ..small_spec()
        };
        assert!(with(ObjectiveSpec {
            mode: ObjectiveMode::Time,
            weight: Some(0.5),
            ..ObjectiveSpec::default()
        })
        .validate()
        .is_err());
        assert!(with(ObjectiveSpec {
            mode: ObjectiveMode::Scalarized,
            weight: Some(1.5),
            ..ObjectiveSpec::default()
        })
        .validate()
        .is_err());
        // Blended modes require an explicit weight.
        assert!(with(ObjectiveSpec {
            mode: ObjectiveMode::Chebyshev,
            ..ObjectiveSpec::default()
        })
        .validate()
        .is_err());
        assert!(with(ObjectiveSpec {
            mode: ObjectiveMode::Energy,
            front_capacity: Some(8),
            ..ObjectiveSpec::default()
        })
        .validate()
        .is_err());
        assert!(with(ObjectiveSpec {
            mode: ObjectiveMode::Pareto,
            front_capacity: Some(0),
            ..ObjectiveSpec::default()
        })
        .validate()
        .is_err());
        assert!(with(ObjectiveSpec {
            mode: ObjectiveMode::Edp,
            ..ObjectiveSpec::default()
        })
        .validate()
        .is_ok());
    }

    #[test]
    fn shards_partition_the_compiled_trials() {
        let spec = small_spec();
        let all = spec.compile().unwrap();
        let mut rebuilt: Vec<Option<CompiledTrial>> = vec![None; all.len()];
        for index in 0..3 {
            let shard = ExperimentSpec {
                shard: Some(ShardSpec { index, count: 3 }),
                ..small_spec()
            };
            for t in shard.compile().unwrap() {
                let pos = all.iter().position(|a| *a == t).unwrap();
                assert!(rebuilt[pos].is_none(), "trial compiled by two shards");
                rebuilt[pos] = Some(t);
            }
        }
        let rebuilt: Vec<CompiledTrial> = rebuilt.into_iter().map(Option::unwrap).collect();
        assert_eq!(rebuilt, all);
        // Bad shard blocks are rejected.
        assert!(ExperimentSpec {
            shard: Some(ShardSpec { index: 2, count: 2 }),
            ..small_spec()
        }
        .validate()
        .is_err());
        assert!(ExperimentSpec {
            shard: Some(ShardSpec { index: 0, count: 0 }),
            ..small_spec()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn same_campaign_ignores_only_the_shard_block() {
        let a = small_spec();
        let sharded = ExperimentSpec {
            shard: Some(ShardSpec { index: 0, count: 2 }),
            ..small_spec()
        };
        assert!(a.same_campaign(&sharded));
        let other_seed = ExperimentSpec {
            seed: 1,
            ..small_spec()
        };
        assert!(!a.same_campaign(&other_seed));
    }

    #[test]
    fn moo_tuners_resolve_only_by_explicit_subset() {
        // "all" stays exactly the historical registry…
        let (t, _, _) = ExperimentSpec::new("all").validate().unwrap();
        assert_eq!(t, known_tuners());
        assert!(!t.contains(&"nsga2".to_string()));
        // …but subsets may name the moo tuners.
        let spec = ExperimentSpec {
            tuners: Selector::Subset(vec!["nsga2".into(), "random-search".into()]),
            ..small_spec()
        };
        let (t, _, _) = spec.validate().unwrap();
        assert_eq!(t, vec!["nsga2".to_string(), "random-search".to_string()]);
    }

    #[test]
    fn fault_block_is_validated_and_canonically_serialized() {
        // Absent faults serialize without the field (byte-stable specs).
        let spec = small_spec();
        assert!(!spec.to_json().contains("faults"));
        // A populated block round-trips and compiles into every trial.
        let chaotic = ExperimentSpec {
            faults: Some(FaultSpec {
                transient_rate: 0.05,
                crash_rate: 0.02,
                quarantine_after: Some(2),
                ..FaultSpec::default()
            }),
            ..small_spec()
        };
        assert!(chaotic.validate().is_ok());
        let json = chaotic.to_json();
        assert!(json.contains("\"faults\"") && json.contains("\"transient_rate\": 0.05"));
        assert_eq!(ExperimentSpec::from_json(&json).unwrap(), chaotic);
        let trials = chaotic.compile().unwrap();
        assert!(trials.iter().all(|t| t.faults == chaotic.faults));
        // Bad blocks are rejected.
        for bad in [
            FaultSpec {
                transient_rate: 1.5,
                ..FaultSpec::default()
            },
            FaultSpec {
                crash_rate: -0.1,
                ..FaultSpec::default()
            },
            FaultSpec {
                deadline_ms: Some(0.0),
                ..FaultSpec::default()
            },
            FaultSpec {
                quarantine_after: Some(0),
                ..FaultSpec::default()
            },
        ] {
            assert!(
                ExperimentSpec {
                    faults: Some(bad),
                    ..small_spec()
                }
                .validate()
                .is_err(),
                "{bad:?} must be rejected"
            );
        }
        // Unknown fault fields are rejected.
        let tampered = json.replacen("\"transient_rate\"", "\"jitter\": 1, \"transient_rate\"", 1);
        assert!(ExperimentSpec::from_json(&tampered).is_err());
    }

    #[test]
    fn fault_rate_override_is_canonical() {
        let mut spec = small_spec();
        spec.set_fault_rate(0.05);
        assert_eq!(
            spec.faults.map(|f| f.transient_rate),
            Some(0.05),
            "{spec:?}"
        );
        // Zero on an otherwise-default block removes it entirely.
        spec.set_fault_rate(0.0);
        assert_eq!(spec.faults, None);
        assert_eq!(spec, small_spec());
        // Zero on a non-default block keeps the block (other faults live).
        let mut chaotic = ExperimentSpec {
            faults: Some(FaultSpec {
                transient_rate: 0.1,
                crash_rate: 0.2,
                ..FaultSpec::default()
            }),
            ..small_spec()
        };
        chaotic.set_fault_rate(0.0);
        let block = chaotic.faults.unwrap();
        assert_eq!(block.transient_rate, 0.0);
        assert_eq!(block.crash_rate, 0.2);
    }

    #[test]
    fn fault_spec_defaults_mirror_core_defaults() {
        let block = FaultSpec::default();
        assert_eq!(block.model(), FaultModel::disabled());
        assert_eq!(block.retry_policy(), RetryPolicy::default());
        assert!(!block.model().is_enabled());
    }

    #[test]
    fn selector_json_forms() {
        let all: Selector = serde_json::from_str("\"all\"").unwrap();
        assert_eq!(all, Selector::All);
        let sub: Selector = serde_json::from_str("[\"gemm\", \"nbody\"]").unwrap();
        assert_eq!(sub, Selector::Subset(vec!["gemm".into(), "nbody".into()]));
        assert!(serde_json::from_str::<Selector>("\"everything\"").is_err());
        assert!(serde_json::from_str::<Selector>("{\"x\": 1}").is_err());
    }
}
