//! The `bat campaign --threads 1` flow rebuilt from the harness's public
//! calls, with a span around each call into a layer.
//!
//! The artifact this writes must equal the CLI's byte for byte; the
//! driver script compares them. Evaluation cannot be wrapped from
//! outside (the benchmark implements no backend of its own), so after
//! each trial its asked batches are replayed through a fresh
//! `Evaluator::evaluate_batch`, and the distinct indices through
//! `decode_into`, `is_valid` and `evaluate_pure`. Replays run inside
//! [`REPLAY`] spans, which the traced wall time excludes.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use bat_cache::CacheStore;
use bat_core::{EvalBackend, Evaluator, TuningProblem, TuningRun};
use bat_harness::{
    cache_prior, campaign_metadata, fold_run_into_cache, tuner_by_name, CampaignResult,
    CampaignSummary, CompiledTrial, ExperimentSpec, RecordLevel, TrialRecord, RESULT_SCHEMA,
};
use bat_tuners::{try_drive, Tuner};

use crate::trace::{Timed, Tracer, REPLAY};

/// Trials between checkpoint writes, as `bat campaign` checkpoints.
const CHECKPOINT_TRIALS: usize = 32;

/// Counts and replay timings gathered next to the spans.
#[derive(Default)]
pub struct Counters {
    pub evals: u64,
    pub batches: u64,
    pub memo_hits: u64,
    pub invalid: u64,
    pub eval_s: f64,
    pub decode_s: f64,
    pub valid_s: f64,
    pub model_s: f64,
    pub builds: u64,
    pub parse_bytes: u64,
    pub checkpoint_bytes: u64,
    pub cache_bytes: u64,
    pub cache_lookups: u64,
    pub cache_hits: u64,
    /// Trials whose replayed evaluation differed from the told outcomes.
    pub replay_mismatches: u64,
    pub wire_encode_s: f64,
    pub wire_decode_s: f64,
    pub frame_bytes: u64,
}

/// One `bat campaign` invocation.
pub struct Call<'a> {
    pub spec: &'a Path,
    pub out: &'a Path,
    pub batch: Option<u32>,
    pub cache: Option<&'a Path>,
    pub resume: bool,
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

/// Read a file that may be missing.
fn read_optional(path: &Path) -> Result<Option<String>, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ok(Some(text)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("reading {}: {e}", path.display())),
    }
}

/// Run a `from_json` inside a `serde_json.parse` span.
pub fn parse<T, E: std::fmt::Display>(
    tr: &mut Tracer,
    c: &mut Counters,
    text: &str,
    f: impl FnOnce(&str) -> Result<T, E>,
) -> Result<T, String> {
    c.parse_bytes += text.len() as u64;
    tr.span("serde_json.parse", || f(text))
        .map_err(|e| format!("parse: {e}"))
}

/// Load a spec inside `harness.compile` and compile it.
pub fn load_spec(
    tr: &mut Tracer,
    c: &mut Counters,
    path: &Path,
    batch: Option<u32>,
) -> Result<(ExperimentSpec, Vec<CompiledTrial>), String> {
    let text = read(path)?;
    let id = tr.open("harness.compile");
    let loaded = parse(tr, c, &text, ExperimentSpec::from_json).and_then(|mut spec| {
        if let Some(b) = batch {
            spec.protocol.set_batch(b);
        }
        let compiled = spec.compile().map_err(|e| e.to_string())?;
        Ok((spec, compiled))
    });
    tr.close(id);
    let (spec, compiled) = loaded?;
    // The traced flow covers the time objective without faults, which is
    // all the benchmark's workloads use.
    if !spec.objective.is_default() || spec.faults.is_some() {
        return Err("traced campaigns support the time objective without faults".into());
    }
    Ok((spec, compiled))
}

/// Write a document as `bat campaign` does: temp file, then rename.
fn write_atomic(path: &Path, text: &str) -> Result<(), String> {
    let tmp = format!("{}.tmp", path.display());
    std::fs::write(&tmp, text).map_err(|e| format!("writing {tmp}: {e}"))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("renaming {tmp}: {e}"))
}

fn checkpoint(
    tr: &mut Tracer,
    c: &mut Counters,
    out: &Path,
    result: &CampaignResult,
) -> Result<(), String> {
    let id = tr.open("harness.checkpoint");
    let json = result.to_json();
    c.checkpoint_bytes += json.len() as u64;
    let written = write_atomic(out, &json);
    tr.close(id);
    written
}

/// Drive one tuner session through the shared driver with its `ask` and
/// `tell` timed. Returns the run and the size of every asked batch.
pub fn drive(
    tr: &mut Tracer,
    tuner: &dyn Tuner,
    backend: &dyn EvalBackend,
    seed: u64,
) -> Result<(TuningRun, Vec<usize>, Vec<f64>), String> {
    let id = tr.open("tuners.drive");
    let mut session = tuner.start(backend.space(), seed);
    let mut timed = Timed::new(session.as_mut());
    let run = try_drive(tuner.name(), &mut timed, backend, seed);
    let Timed {
        ask_ns,
        tell_ns,
        gaps_us,
        sizes,
        ..
    } = timed;
    tr.close(id);
    let steps = sizes.len() as u64;
    tr.aggregate(id, &format!("tuners.{}.ask", tuner.name()), ask_ns, steps);
    tr.aggregate(id, &format!("tuners.{}.tell", tuner.name()), tell_ns, steps);
    let run = run.map_err(|e| format!("{} on {}: {e}", tuner.name(), backend.problem_name()))?;
    Ok((run, sizes, gaps_us))
}

/// Replay a finished trial's evaluation: its batches through a fresh
/// evaluator, then its distinct indices through the space and the model.
pub fn replay_eval(
    c: &mut Counters,
    problem: &dyn TuningProblem,
    ct: &CompiledTrial,
    run: &TuningRun,
    sizes: &[usize],
) {
    let eval = Evaluator::builder(problem)
        .protocol(ct.protocol)
        .budget(ct.budget)
        .build()
        .expect("the trial's own protocol builds");
    let indices: Vec<u64> = run.trials.iter().map(|t| t.index).collect();
    let mut outcomes = Vec::with_capacity(indices.len());
    let t = Instant::now();
    let mut at = 0;
    for &n in sizes {
        if at >= indices.len() {
            break;
        }
        let end = (at + n).min(indices.len());
        outcomes.extend(eval.evaluate_batch(&indices[at..end]));
        at = end;
        c.batches += 1;
    }
    c.eval_s += t.elapsed().as_secs_f64();
    let same = outcomes.len() == run.trials.len()
        && outcomes
            .iter()
            .zip(&run.trials)
            .all(|(o, t)| *o == t.outcome);
    c.replay_mismatches += u64::from(!same);
    c.evals += eval.evals_used();
    c.memo_hits += eval.evals_used() - eval.distinct_evals();
    c.invalid += outcomes.iter().filter(|o| o.is_err()).count() as u64;

    let space = problem.space();
    let n = space.num_params();
    let mut seen = HashSet::new();
    let distinct: Vec<u64> = indices.into_iter().filter(|i| seen.insert(*i)).collect();
    let mut flat = vec![0i64; distinct.len() * n];
    let t = Instant::now();
    for (cfg, &index) in flat.chunks_mut(n).zip(&distinct) {
        space.decode_into(index, cfg);
    }
    c.decode_s += t.elapsed().as_secs_f64();
    let t = Instant::now();
    let valid: Vec<bool> = flat.chunks(n).map(|cfg| space.is_valid(cfg)).collect();
    c.valid_s += t.elapsed().as_secs_f64();
    let t = Instant::now();
    for (cfg, _) in flat.chunks(n).zip(&valid).filter(|(_, ok)| **ok) {
        let _ = black_box(problem.evaluate_pure(black_box(cfg)));
    }
    c.model_s += t.elapsed().as_secs_f64();
}

/// Execute one compiled trial in process, as the harness does.
fn run_trial(tr: &mut Tracer, c: &mut Counters, ct: &CompiledTrial) -> Result<TrialRecord, String> {
    let id = tr.open("trial");
    let arch = bat_gpusim::GpuArch::by_name(&ct.key.architecture)
        .ok_or_else(|| format!("unknown GPU {:?}", ct.key.architecture))?;
    let problem = tr
        .span("kernels.build", || {
            bat_kernels::benchmark(&ct.key.benchmark, arch)
        })
        .ok_or_else(|| format!("unknown benchmark {:?}", ct.key.benchmark))?;
    c.builds += 1;
    let tuner =
        tuner_by_name(&ct.key.tuner).ok_or_else(|| format!("unknown tuner {:?}", ct.key.tuner))?;
    let names = problem.space().names().to_vec();
    // Building and dropping the evaluator (its memo table) is evaluation
    // work; dropping the run (one config per evaluation) is the driver's.
    let eval = tr
        .span("core.eval", || {
            Evaluator::builder(&problem)
                .protocol(ct.protocol)
                .budget(ct.budget)
                .threads(1)
                .build()
        })
        .map_err(|e| e.to_string())?;
    let (run, sizes, _) = drive(tr, tuner.as_ref(), &eval, ct.seed)?;
    let stats = EvalBackend::stats(&eval);
    let keep_history = ct.record == RecordLevel::Full;
    let record = tr.span("harness.trial_record", || {
        TrialRecord::from_run(&ct.key, ct.seed, &run, &names, stats, keep_history)
    });
    tr.span(REPLAY, || replay_eval(c, &problem, ct, &run, &sizes));
    tr.span("core.eval", || drop(eval));
    tr.span("tuners.drive", || drop(run));
    tr.close(id);
    Ok(record)
}

type Key<'a> = (&'a str, &'a str, &'a str, u32);

/// `bat campaign --spec S --out O [--batch N] [--cache C] [--resume]`.
/// Returns the number of trials it executed.
pub fn run(tr: &mut Tracer, c: &mut Counters, call: &Call<'_>) -> Result<usize, String> {
    let root = tr.open("campaign");
    let (spec, compiled) = load_spec(tr, c, call.spec, call.batch)?;

    let disk = if call.resume {
        match read_optional(call.out)? {
            Some(text) => Some(parse(tr, c, &text, CampaignResult::from_json)?),
            None => None,
        }
    } else {
        None
    };
    if let Some(d) = &disk {
        if d.schema != RESULT_SCHEMA || d.spec != spec {
            return Err("cannot resume: the artifact belongs to another spec".into());
        }
    }
    let mut store = match call.cache {
        Some(path) => {
            let text = tr.span("cache.load", || read_optional(path))?;
            Some(match text {
                Some(text) => {
                    c.cache_bytes += text.len() as u64;
                    parse(tr, c, &text, CacheStore::from_json)?
                }
                None => CacheStore::new(),
            })
        }
        None => None,
    };
    let cached = match &store {
        Some(s) => {
            let prior = tr.span("harness.replay", || cache_prior(s, &spec));
            c.cache_lookups += compiled.len() as u64;
            c.cache_hits += prior.as_ref().map_or(0, |p| p.trials.len()) as u64;
            prior
        }
        None => None,
    };
    // First prior holding a trial key wins, artifact before cache.
    let mut index: HashMap<Key<'_>, &TrialRecord> = HashMap::new();
    for r in disk.iter().chain(cached.iter()).flat_map(|p| &p.trials) {
        let key = (
            r.tuner.as_str(),
            r.benchmark.as_str(),
            r.architecture.as_str(),
            r.rep,
        );
        index.entry(key).or_insert(r);
    }

    let mut present = vec![false; compiled.len()];
    let mut trials = Vec::new();
    for (i, ct) in compiled.iter().enumerate() {
        let key = (
            ct.key.tuner.as_str(),
            ct.key.benchmark.as_str(),
            ct.key.architecture.as_str(),
            ct.key.rep,
        );
        if let Some(r) = index.get(&key).filter(|r| r.seed == ct.seed) {
            present[i] = true;
            trials.push((*r).clone());
        }
    }
    let mut result = CampaignResult {
        schema: RESULT_SCHEMA.to_string(),
        spec: spec.clone(),
        trials,
    };
    let todo: Vec<usize> = (0..compiled.len()).filter(|&i| !present[i]).collect();
    if todo.is_empty() {
        checkpoint(tr, c, call.out, &result)?;
    }
    for chunk in todo.chunks(CHECKPOINT_TRIALS) {
        for &i in chunk {
            let record = run_trial(tr, c, &compiled[i])?;
            let pos = present[..i].iter().filter(|p| **p).count();
            result.trials.insert(pos, record);
            present[i] = true;
        }
        checkpoint(tr, c, call.out, &result)?;
    }
    let meta = PathBuf::from(format!("{}.meta.json", call.out.display()));
    tr.span("harness.checkpoint", || {
        write_atomic(&meta, &campaign_metadata(&spec).to_json())
    })?;

    if let (Some(path), Some(store)) = (call.cache, store.as_mut()) {
        let id = tr.open("cache.fold");
        let before = store.to_json();
        fold_run_into_cache(store, &result);
        let changed = store.to_json() != before;
        tr.close(id);
        if changed {
            tr.span("cache.save", || {
                store.save_atomic(&path.display().to_string())
            })
            .map_err(|e| format!("saving the cache: {e:?}"))?;
        }
    }
    tr.span("harness.summary", || {
        black_box(CampaignSummary::from_result(&result).render());
    });
    tr.close(root);
    Ok(todo.len())
}
