//! The `bat/wire/v1` message schema.
//!
//! Every frame on the wire (see [`crate::codec`]) is one JSON document: a
//! [`RequestEnvelope`] client→server, a [`ResponseEnvelope`] server→client.
//! Envelopes carry the schema id so both sides fail fast on version skew,
//! and every message body rejects unknown fields — a frame from a future
//! schema revision is an error, never a silent partial parse.
//!
//! Messages use externally-tagged `snake_case` enums whose payloads are
//! plain structs, e.g.
//!
//! ```json
//! {"v": "bat/wire/v1", "req": {"eval": {"session": 3, "indices": [0, 7]}}}
//! ```
//!
//! Evaluation outcomes reuse the serde representations of
//! [`Measurement`](bat_core::Measurement) and
//! [`EvalFailure`](bat_core::EvalFailure) verbatim — the same shapes
//! campaign artifacts store — so a measurement that crossed the wire
//! serializes back into an artifact byte-identically to one measured in
//! process.

use serde::{Deserialize, Serialize};

use bat_cache::CacheCell;
use bat_core::{Error, EvalOutcome, Evaluator, Protocol, RetryPolicy, TuningProblem};
use bat_gpusim::{FaultModel, GpuArch};

/// The wire-schema identifier every envelope must carry.
pub const WIRE_SCHEMA: &str = "bat/wire/v1";

/// A client→server frame: schema id + request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RequestEnvelope {
    /// Schema id; must equal [`WIRE_SCHEMA`].
    pub v: String,
    /// The request body.
    pub req: Request,
}

impl RequestEnvelope {
    /// Wrap a request in a current-schema envelope.
    pub fn new(req: Request) -> Self {
        RequestEnvelope {
            v: WIRE_SCHEMA.to_string(),
            req,
        }
    }
}

/// A server→client frame: schema id + response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ResponseEnvelope {
    /// Schema id; must equal [`WIRE_SCHEMA`].
    pub v: String,
    /// The response body.
    pub resp: Response,
}

impl ResponseEnvelope {
    /// Wrap a response in a current-schema envelope.
    pub fn new(resp: Response) -> Self {
        ResponseEnvelope {
            v: WIRE_SCHEMA.to_string(),
            resp,
        }
    }
}

/// Everything a client can ask of the daemon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Request {
    /// Open a tuning session over a benchmark problem.
    Open(OpenSession),
    /// Evaluate a batch of configuration indices in an open session.
    Eval(EvalBatch),
    /// Close a session, collecting its final statistics.
    Close(CloseSession),
    /// Look up the daemon's loaded `bat/cache/v1` cell for a key.
    CacheLookup(CacheLookup),
    /// Liveness probe.
    Ping,
    /// Fetch the daemon's metrics registry as Prometheus text exposition.
    Metrics,
    /// Ask the daemon to stop accepting new connections.
    Shutdown,
}

/// Everything the daemon can answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Response {
    /// A session is open and ready to evaluate.
    Opened(Opened),
    /// Outcomes of one evaluated batch.
    Evaluated(Evaluated),
    /// A session closed; final statistics.
    Closed(Closed),
    /// Answer to a cache lookup (a miss carries no cell).
    CacheResult(CacheResult),
    /// Liveness answer.
    Pong,
    /// The metrics registry, rendered as text exposition.
    Metrics(MetricsReport),
    /// The daemon acknowledged shutdown.
    ShuttingDown,
    /// The request failed.
    Error(ErrorResponse),
}

/// Payload of [`Request::Open`]: the full recipe for a server-side
/// evaluator, pre-resolved to primitives (no spec-compilation logic lives
/// on the server).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct OpenSession {
    /// Benchmark name from the kernel registry, e.g. `"gemm"`.
    pub benchmark: String,
    /// GPU architecture name, e.g. `"RTX 3090"`.
    pub architecture: String,
    /// Runs per configuration.
    pub runs: u32,
    /// Relative run-to-run noise.
    pub sigma: f64,
    /// Seed folded into the deterministic measurement noise.
    pub noise_seed: u64,
    /// Candidates per ask/tell step (the protocol's batch size).
    pub batch: u32,
    /// Per-session evaluation budget (`null` = unlimited).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub budget: Option<u64>,
    /// Measure the energy objective too.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub energy: bool,
    /// Blend both objectives into one scalar, server-side.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub scalarization: Option<WireScalarization>,
    /// Fault-injection model + retry policy for chaos sessions.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub faults: Option<WireFaults>,
}

impl OpenSession {
    /// A time-only session over `benchmark`×`architecture` under
    /// `protocol` — the common case; optional blocks default off.
    pub fn new(
        benchmark: impl Into<String>,
        architecture: impl Into<String>,
        protocol: Protocol,
    ) -> Self {
        OpenSession {
            benchmark: benchmark.into(),
            architecture: architecture.into(),
            runs: protocol.runs,
            sigma: protocol.sigma,
            noise_seed: protocol.seed,
            batch: protocol.batch,
            budget: None,
            energy: false,
            scalarization: None,
            faults: None,
        }
    }

    /// The measurement protocol this session spec describes.
    pub fn protocol(&self) -> Protocol {
        Protocol {
            runs: self.runs,
            sigma: self.sigma,
            seed: self.noise_seed,
            batch: self.batch,
        }
    }

    /// The problem this session tunes: the registry's `benchmark` on
    /// `architecture`, wrapped in the session's scalarization when it has
    /// one. Campaign trials, the daemon and the remote client all build
    /// their problem here, so names, noise salts and spaces agree byte
    /// for byte.
    pub fn problem(&self) -> Result<Box<dyn TuningProblem>, Error> {
        let arch = GpuArch::by_name(&self.architecture).ok_or_else(|| {
            Error::spec(format!("unknown GPU architecture {:?}", self.architecture))
        })?;
        let base = bat_kernels::benchmark(&self.benchmark, arch)
            .ok_or_else(|| Error::spec(format!("unknown benchmark {:?}", self.benchmark)))?;
        Ok(match self.scalarization {
            None => Box::new(base),
            Some(s) => Box::new(bat_moo::Scalarized::new(base, s.into())),
        })
    }

    /// The session's evaluator over `problem` (from
    /// [`OpenSession::problem`]): its protocol, budget, energy flag and
    /// fault model with retry policy. Without a fault block the evaluation
    /// path is exactly the fault-free one.
    pub fn evaluator<'a>(&self, problem: &'a dyn TuningProblem) -> Result<Evaluator<'a>, Error> {
        let mut builder = Evaluator::builder(problem)
            .protocol(self.protocol())
            .energy(self.energy);
        if let Some(b) = self.budget {
            builder = builder.budget(b);
        }
        if let Some(wf) = self.faults {
            let (model, policy) = wf.into();
            builder = builder.faults(model, policy);
        }
        builder.build()
    }
}

/// Payload of [`Request::Eval`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct EvalBatch {
    /// The session to evaluate in.
    pub session: u64,
    /// Dense configuration indices to measure, in order.
    pub indices: Vec<u64>,
}

/// Payload of [`Request::Close`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CloseSession {
    /// The session to close.
    pub session: u64,
}

/// Payload of [`Response::Opened`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Opened {
    /// Daemon-assigned session id; quote it in every later request.
    pub session: u64,
    /// The (possibly scalarized) problem name, e.g. `"gemm+energy"`.
    pub problem: String,
    /// The platform label of the session's problem.
    pub platform: String,
    /// Remaining budget at open (`null` = unlimited).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub budget_left: Option<u64>,
}

/// Payload of [`Response::Evaluated`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Evaluated {
    /// The session that evaluated.
    pub session: u64,
    /// One outcome per affordable requested index, in request order. A
    /// shorter vector than the request means the budget died mid-batch
    /// (truncated tail, exactly like the in-process evaluator).
    pub outcomes: Vec<EvalOutcome>,
    /// Session statistics after this batch.
    pub stats: SessionStats,
    /// Remaining budget after this batch (`null` = unlimited).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub budget_left: Option<u64>,
}

/// Payload of [`Response::Closed`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Closed {
    /// The session that closed.
    pub session: u64,
    /// Final session statistics.
    pub stats: SessionStats,
}

/// Payload of [`Request::CacheLookup`]: the exact cell key. The scenario
/// string is the harness's canonical form (`bat_harness::scenario_of`), so
/// clients and campaign-built caches agree on keys by construction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CacheLookup {
    /// Benchmark name, e.g. `"gemm"`.
    pub benchmark: String,
    /// Architecture name, e.g. `"RTX 3090"`.
    pub architecture: String,
    /// Canonical measurement-scenario string.
    pub scenario: String,
}

/// Payload of [`Response::CacheResult`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CacheResult {
    /// The cached cell, absent on a miss (or when the daemon loaded no
    /// cache at all).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub cell: Option<CacheCell>,
}

/// Payload of [`Response::Error`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ErrorResponse {
    /// The session the error concerns, when there is one.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub session: Option<u64>,
    /// What went wrong, in the suite's unified error hierarchy.
    pub error: Error,
}

/// Payload of [`Response::Metrics`]: the registry in Prometheus text
/// exposition format — exactly what `bat serve --metrics` serves over
/// HTTP, so wire clients and scrapers read the same counters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct MetricsReport {
    /// Prometheus-style text exposition.
    pub text: String,
}

/// Evaluation counters of one session — the wire shape *is* the core
/// statistics snapshot ([`bat_core::EvalStats`]): one definition shared by
/// the evaluator, the wire and the harness artifacts, so the tallies
/// cannot drift between layers.
pub use bat_core::EvalStats as SessionStats;

/// Wire mirror of [`bat_moo::Scalarization`] (which predates the wire and
/// carries no serde of its own).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum WireScalarization {
    /// Pure energy.
    Energy,
    /// Energy–delay product.
    Edp,
    /// Weighted time–energy blend.
    Weighted(WireBlend),
    /// Chebyshev (max-norm) time–energy blend.
    Chebyshev(WireBlend),
}

/// Blend coefficients shared by the weighted and Chebyshev scalarizations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct WireBlend {
    /// Weight on the (scaled) time objective, in `[0, 1]`.
    pub time_weight: f64,
    /// Time normalization scale in ms.
    pub time_scale_ms: f64,
    /// Energy normalization scale in mJ.
    pub energy_scale_mj: f64,
}

impl From<bat_moo::Scalarization> for WireScalarization {
    fn from(s: bat_moo::Scalarization) -> Self {
        use bat_moo::Scalarization as S;
        match s {
            S::Energy => WireScalarization::Energy,
            S::Edp => WireScalarization::Edp,
            S::Weighted {
                time_weight,
                time_scale_ms,
                energy_scale_mj,
            } => WireScalarization::Weighted(WireBlend {
                time_weight,
                time_scale_ms,
                energy_scale_mj,
            }),
            S::Chebyshev {
                time_weight,
                time_scale_ms,
                energy_scale_mj,
            } => WireScalarization::Chebyshev(WireBlend {
                time_weight,
                time_scale_ms,
                energy_scale_mj,
            }),
        }
    }
}

impl From<WireScalarization> for bat_moo::Scalarization {
    fn from(s: WireScalarization) -> Self {
        use bat_moo::Scalarization as S;
        match s {
            WireScalarization::Energy => S::Energy,
            WireScalarization::Edp => S::Edp,
            WireScalarization::Weighted(b) => S::Weighted {
                time_weight: b.time_weight,
                time_scale_ms: b.time_scale_ms,
                energy_scale_mj: b.energy_scale_mj,
            },
            WireScalarization::Chebyshev(b) => S::Chebyshev {
                time_weight: b.time_weight,
                time_scale_ms: b.time_scale_ms,
                energy_scale_mj: b.energy_scale_mj,
            },
        }
    }
}

/// Wire mirror of [`FaultModel`] + [`RetryPolicy`] (which predate the wire
/// and carry no serde of their own).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct WireFaults {
    /// Probability a measurement attempt fails transiently.
    pub transient_rate: f64,
    /// Probability a measurement attempt hangs past the deadline.
    pub timeout_rate: f64,
    /// Measurement deadline in ms (reporting only).
    pub deadline_ms: f64,
    /// Probability an individual run sample comes back corrupted.
    pub outlier_rate: f64,
    /// Multiplicative corruption applied to outlier samples.
    pub outlier_factor: f64,
    /// Fraction of the configuration space that crashes every attempt.
    pub crash_rate: f64,
    /// Seed folded into every fault draw.
    pub fault_seed: u64,
    /// Retries per evaluation after a retryable failure.
    pub max_retries: u32,
    /// Backoff: the r-th retry charges `1 + backoff_evals · r` evals.
    pub backoff_evals: u32,
    /// Quarantine after this many observed crashes (`0` disables).
    pub quarantine_after: u32,
}

impl From<(FaultModel, RetryPolicy)> for WireFaults {
    fn from((m, p): (FaultModel, RetryPolicy)) -> Self {
        WireFaults {
            transient_rate: m.transient_rate,
            timeout_rate: m.timeout_rate,
            deadline_ms: m.deadline_ms,
            outlier_rate: m.outlier_rate,
            outlier_factor: m.outlier_factor,
            crash_rate: m.crash_rate,
            fault_seed: m.seed,
            max_retries: p.max_retries,
            backoff_evals: p.backoff_evals,
            quarantine_after: p.quarantine_after,
        }
    }
}

impl From<WireFaults> for (FaultModel, RetryPolicy) {
    fn from(w: WireFaults) -> Self {
        (
            FaultModel {
                transient_rate: w.transient_rate,
                timeout_rate: w.timeout_rate,
                deadline_ms: w.deadline_ms,
                outlier_rate: w.outlier_rate,
                outlier_factor: w.outlier_factor,
                crash_rate: w.crash_rate,
                seed: w.fault_seed,
            },
            RetryPolicy {
                max_retries: w.max_retries,
                backoff_evals: w.backoff_evals,
                quarantine_after: w.quarantine_after,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_core::{EvalFailure, Measurement};

    #[test]
    fn request_envelope_round_trips() {
        let env = RequestEnvelope::new(Request::Eval(EvalBatch {
            session: 3,
            indices: vec![0, 7, 7],
        }));
        let json = serde_json::to_string(&env).unwrap();
        assert!(json.contains("\"bat/wire/v1\""), "{json}");
        assert!(json.contains("\"eval\""), "{json}");
        let back: RequestEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(back, env);
    }

    #[test]
    fn response_with_outcomes_round_trips() {
        let env = ResponseEnvelope::new(Response::Evaluated(Evaluated {
            session: 1,
            outcomes: vec![
                Ok(Measurement::from_samples(vec![1.5, 1.25])),
                Err(EvalFailure::Restricted),
            ],
            stats: SessionStats {
                evals: 2,
                distinct: 2,
                retries: 0,
                quarantined: 0,
            },
            budget_left: Some(38),
        }));
        let json = serde_json::to_string(&env).unwrap();
        let back: ResponseEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(back, env);
    }

    #[test]
    fn unit_requests_are_compact() {
        let json = serde_json::to_string(&RequestEnvelope::new(Request::Ping)).unwrap();
        assert_eq!(json, "{\"v\":\"bat/wire/v1\",\"req\":\"ping\"}");
    }

    #[test]
    fn metrics_round_trips() {
        let req = serde_json::to_string(&RequestEnvelope::new(Request::Metrics)).unwrap();
        assert_eq!(req, "{\"v\":\"bat/wire/v1\",\"req\":\"metrics\"}");
        let back: RequestEnvelope = serde_json::from_str(&req).unwrap();
        assert_eq!(back.req, Request::Metrics);

        let env = ResponseEnvelope::new(Response::Metrics(MetricsReport {
            text: "# TYPE bat_sched_grants_total counter\nbat_sched_grants_total 3\n".into(),
        }));
        let json = serde_json::to_string(&env).unwrap();
        let back: ResponseEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(back, env);
    }

    #[test]
    fn cache_lookup_round_trips() {
        let env = RequestEnvelope::new(Request::CacheLookup(CacheLookup {
            benchmark: "gemm".into(),
            architecture: "RTX 3090".into(),
            scenario: "objective=time;budget=40;runs=3;sigma=0.01;noise_seed=0;batch=1".into(),
        }));
        let json = serde_json::to_string(&env).unwrap();
        assert!(json.contains("\"cache_lookup\""), "{json}");
        let back: RequestEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(back, env);

        let miss = ResponseEnvelope::new(Response::CacheResult(CacheResult { cell: None }));
        let json = serde_json::to_string(&miss).unwrap();
        assert!(!json.contains("cell"), "a miss carries no cell: {json}");
        let back: ResponseEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(back, miss);

        let mut store = bat_cache::CacheStore::new();
        store.observe(
            "gemm",
            "RTX 3090",
            "objective=time;budget=40;runs=3;sigma=0.01;noise_seed=0;batch=1",
            &std::collections::BTreeMap::from([("block_size_x".to_string(), 64)]),
            1.25,
            None,
        );
        let cell = store.cells.first().cloned().unwrap();
        let hit = ResponseEnvelope::new(Response::CacheResult(CacheResult { cell: Some(cell) }));
        let json = serde_json::to_string(&hit).unwrap();
        assert!(json.contains("\"cache_result\""), "{json}");
        let back: ResponseEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(back, hit);
    }

    #[test]
    fn open_session_skips_default_blocks() {
        let open = OpenSession::new("gemm", "RTX 3090", Protocol::default());
        let json = serde_json::to_string(&open).unwrap();
        assert!(!json.contains("scalarization"), "{json}");
        assert!(!json.contains("faults"), "{json}");
        assert!(!json.contains("energy"), "{json}");
        assert!(!json.contains("budget"), "{json}");
        let back: OpenSession = serde_json::from_str(&json).unwrap();
        assert_eq!(back, open);
        assert_eq!(back.protocol(), Protocol::default());
    }

    #[test]
    fn envelopes_reject_unknown_fields() {
        let json = "{\"v\":\"bat/wire/v1\",\"req\":\"ping\",\"extra\":1}";
        assert!(serde_json::from_str::<RequestEnvelope>(json).is_err());
        let body = "{\"session\":1,\"indices\":[2],\"surprise\":true}";
        assert!(serde_json::from_str::<EvalBatch>(body).is_err());
    }

    #[test]
    fn scalarization_mirror_round_trips() {
        for s in [
            bat_moo::Scalarization::Energy,
            bat_moo::Scalarization::Edp,
            bat_moo::Scalarization::Weighted {
                time_weight: 0.3,
                time_scale_ms: 2.0,
                energy_scale_mj: 5.0,
            },
            bat_moo::Scalarization::Chebyshev {
                time_weight: 0.7,
                time_scale_ms: 1.0,
                energy_scale_mj: 1.0,
            },
        ] {
            let wire = WireScalarization::from(s);
            let json = serde_json::to_string(&wire).unwrap();
            let back: WireScalarization = serde_json::from_str(&json).unwrap();
            assert_eq!(bat_moo::Scalarization::from(back), s);
        }
    }

    #[test]
    fn faults_mirror_round_trips() {
        let model = FaultModel {
            transient_rate: 0.1,
            crash_rate: 0.05,
            seed: 9,
            ..FaultModel::disabled()
        };
        let pair = (model, RetryPolicy::default());
        let wire = WireFaults::from(pair);
        let json = serde_json::to_string(&wire).unwrap();
        let back: WireFaults = serde_json::from_str(&json).unwrap();
        assert_eq!(<(FaultModel, RetryPolicy)>::from(back), pair);
    }
}
