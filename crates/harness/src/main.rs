//! `bat-harness` — run declarative tuning campaigns and summarize their
//! artifacts.
//!
//! The binary is a thin shell over [`bat_harness`]: it reads a spec JSON,
//! executes (or resumes) the campaign, writes the deterministic result
//! artifact, and prints the summary tables. CI runs it twice and byte-
//! diffs the outputs.

use std::process::ExitCode;

use bat_harness::{
    convergence_auc, load_result_file, load_spec_file, merge_files, render_table, report_run,
    run_campaign, run_spec_to_file_cached, CampaignSummary, Endpoint, ExperimentSpec, ShardSpec,
};

const HELP: &str = "\
bat-harness — declarative experiment orchestration for BAT-rs

USAGE:
    bat-harness run --spec FILE [--out FILE] [--resume] [--serial] [--strict] [--quiet] [--shard I/N] [--batch N] [--fault-rate R] [--threads N] [--connect EP] [--trace FILE] [--cache FILE]
    bat-harness merge --spec FILE --inputs A,B,... --out FILE [--quiet]
    bat-harness summary --input FILE
    bat-harness sweep-batch --spec FILE [--batches 1,4,16,64] [--threads N]
    bat-harness trials --spec FILE

COMMANDS:
    run        execute a campaign spec; writes the CampaignResult JSON to
               --out (or stdout, plus a <out>.meta.json T4 metadata
               document) and prints the summary tables
    merge      merge shard artifacts into the complete campaign artifact
               (missing trials execute); byte-identical to the unsharded run
    summary    print the summary tables of an existing result artifact
    sweep-batch
               run the spec once per batch size and print the batch-vs-
               quality view: throughput, mean final best and mean
               convergence AUC per batch size (see specs/batch-sweep.json)
    trials     list the compiled trials of a spec without running them

OPTIONS:
    --spec FILE    campaign spec (see specs/ for examples)
    --out FILE     where to write the result JSON (default: stdout)
    --resume       reuse trials already present in --out, run only the rest
    --serial       run trials sequentially (determinism oracle; the output
                   must be byte-identical to the parallel run)
    --shard I/N    override the spec's shard block: run only every N-th
                   compiled trial, starting at I (0-based)
    --batch N      override the spec's protocol.batch (measurement
                   parallelism of the ask/tell protocol; 1 = the classic
                   serial protocol, stored canonically as absent)
    --fault-rate R override the spec's faults.transient_rate (0 disables;
                   an otherwise-default fault block collapses to absent, so
                   `--fault-rate 0` reproduces the fault-free artifact
                   byte for byte)
    --threads N    worker-pool size for parallel evaluation (precedence:
                   --threads, then the BAT_THREADS environment variable,
                   then available_parallelism; artifacts are byte-identical
                   at every setting)
    --connect EP   evaluation endpoint: in-process (default), loopback
                   (an in-process daemon behind the real bat/wire/v1
                   codec), or HOST:PORT of a running `bat serve` daemon;
                   artifacts are byte-identical across endpoints
    --trace FILE   write a bat/trace/v1 JSONL span trace of the run
                   (campaign → trial → step → batch);
                   telemetry only — the artifact stays byte-identical
    --cache FILE   persistent bat/cache/v1 best-config store: trials whose
                   exact fingerprint is cached replay verbatim (the warm
                   artifact is byte-identical to the cold one), misses tune
                   and fold back into the cache atomically
    --inputs A,B   comma-separated shard artifacts to merge
    --strict       exit non-zero if any trial found no valid configuration
    --quiet        suppress the summary tables and throughput line
";

fn opt(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

fn load_spec(args: &[String]) -> Result<ExperimentSpec, String> {
    let path = opt(args, "--spec").ok_or("--spec FILE is required")?;
    load_spec_file(&path).map_err(|e| e.to_string())
}

/// Parse an `I/N` shard selector.
fn parse_shard(s: &str) -> Result<ShardSpec, String> {
    let (index, count) = s
        .split_once('/')
        .ok_or_else(|| format!("--shard expects I/N, got {s:?}"))?;
    let index = index
        .parse()
        .map_err(|_| format!("bad shard index {index:?}"))?;
    let count = count
        .parse()
        .map_err(|_| format!("bad shard count {count:?}"))?;
    Ok(ShardSpec { index, count })
}

/// Apply a `--threads N` option, if present, before any parallel work runs.
fn apply_threads(args: &[String]) -> Result<(), String> {
    if let Some(threads) = opt(args, "--threads") {
        let n: usize = threads
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("--threads expects a positive integer, got {threads:?}"))?;
        if !rayon::set_global_threads(n) {
            return Err("--threads came too late: the worker pool already started".into());
        }
    }
    Ok(())
}

/// Apply a `--trace FILE` option: install the process-wide trace sink
/// before any spans open. Telemetry only — never touches the artifact.
fn apply_trace(args: &[String]) -> Result<(), String> {
    if let Some(path) = opt(args, "--trace") {
        bat_obs::trace::install(std::path::Path::new(&path))
            .map_err(|e| format!("--trace {path}: {e}"))?;
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    apply_threads(args)?;
    apply_trace(args)?;
    let mut spec = load_spec(args)?;
    if let Some(shard) = opt(args, "--shard") {
        spec.shard = Some(parse_shard(&shard)?);
    }
    if let Some(batch) = opt(args, "--batch") {
        let batch: u32 = batch
            .parse()
            .map_err(|_| format!("bad --batch value {batch:?}"))?;
        spec.protocol.set_batch(batch);
    }
    if let Some(rate) = opt(args, "--fault-rate") {
        let rate: f64 = rate
            .parse()
            .map_err(|_| format!("bad --fault-rate value {rate:?}"))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("--fault-rate must be in [0, 1], got {rate}"));
        }
        spec.set_fault_rate(rate);
    }
    let out = opt(args, "--out");
    let quiet = flag(args, "--quiet");
    let endpoint = match opt(args, "--connect") {
        Some(ep) => Endpoint::parse(&ep).map_err(|e| e.to_string())?,
        None => Endpoint::InProcess,
    };

    let cache = opt(args, "--cache");

    let run = run_spec_to_file_cached(
        &spec,
        out.as_deref(),
        flag(args, "--resume"),
        flag(args, "--serial"),
        &endpoint,
        cache.as_deref(),
    )
    .map_err(|e| e.to_string())?;
    if out.is_none() {
        println!("{}", run.result.to_json());
    }

    let failed = report_run(&run, quiet);
    bat_obs::trace::flush();
    if failed > 0 && flag(args, "--strict") {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_merge(args: &[String]) -> Result<ExitCode, String> {
    let spec = load_spec(args)?;
    let inputs: Vec<String> = opt(args, "--inputs")
        .ok_or("--inputs A,B,... is required")?
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if inputs.is_empty() {
        return Err("--inputs names no artifacts".into());
    }
    let out = opt(args, "--out").ok_or("--out FILE is required")?;
    let run = merge_files(&spec, &inputs, &out).map_err(|e| e.to_string())?;
    report_run(&run, flag(args, "--quiet"));
    eprintln!("merged {} artifacts into {out}", inputs.len());
    Ok(ExitCode::SUCCESS)
}

/// `sweep-batch` — the batch-vs-quality view: run the same campaign at
/// several `protocol.batch` values and tabulate, per batch size, the
/// measurement throughput against the search quality it buys (mean final
/// best and mean convergence AUC against a sweep-wide per-cell reference).
/// Quality at `batch = 1` is the serial protocol's; larger batches trade
/// staler search state for batched measurement, and this table is how that
/// trade is audited.
fn cmd_sweep_batch(args: &[String]) -> Result<ExitCode, String> {
    apply_threads(args)?;
    let base = load_spec(args)?;
    let batches: Vec<u32> = opt(args, "--batches")
        .unwrap_or_else(|| "1,4,16,64".into())
        .split(',')
        .map(|s| {
            s.trim()
                .parse::<u32>()
                .ok()
                .filter(|&b| b >= 1)
                .ok_or_else(|| format!("bad --batches entry {s:?}"))
        })
        .collect::<Result<_, _>>()?;
    if batches.is_empty() {
        return Err("--batches names no sizes".into());
    }

    let mut runs = Vec::new();
    for &batch in &batches {
        let mut spec = base.clone();
        spec.protocol.set_batch(batch);
        let run = run_campaign(&spec).map_err(|e| e.to_string())?;
        eprintln!(
            "batch {batch:4}: {} trials in {:.2}s",
            run.executed,
            run.wall.as_secs_f64()
        );
        runs.push((batch, run));
    }

    // Sweep-wide per-cell reference: the best objective any batch size
    // found in a benchmark × architecture cell, so AUC is comparable
    // across batch sizes.
    let mut cell_best: std::collections::BTreeMap<(String, String), f64> =
        std::collections::BTreeMap::new();
    for (_, run) in &runs {
        for t in &run.result.trials {
            if let Some(ms) = t.best_ms {
                let key = (t.benchmark.clone(), t.architecture.clone());
                let slot = cell_best.entry(key).or_insert(f64::INFINITY);
                *slot = slot.min(ms);
            }
        }
    }

    let fmt_opt = |v: Option<f64>, digits: usize| match v {
        Some(x) => format!("{x:.digits$}"),
        None => "—".into(),
    };
    let mean = |xs: &[f64]| (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64);
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|(batch, run)| {
            let bests: Vec<f64> = run.result.trials.iter().filter_map(|t| t.best_ms).collect();
            let aucs: Vec<f64> = run
                .result
                .trials
                .iter()
                .filter_map(|t| {
                    let key = (t.benchmark.clone(), t.architecture.clone());
                    convergence_auc(t, *cell_best.get(&key)?)
                })
                .collect();
            let rate = run.executed_evals as f64 / run.wall.as_secs_f64().max(1e-9);
            vec![
                batch.to_string(),
                format!("{:.1}", rate / 1e3),
                fmt_opt(mean(&bests), 4),
                fmt_opt(mean(&aucs), 4),
                format!("{}/{}", bests.len(), run.result.trials.len()),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &["batch", "evals/s (k)", "mean best ms", "mean AUC", "solved"],
            &rows
        )
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_summary(args: &[String]) -> Result<ExitCode, String> {
    let path = opt(args, "--input").ok_or("--input FILE is required")?;
    let result = load_result_file(&path).map_err(|e| e.to_string())?;
    print!("{}", CampaignSummary::from_result(&result).render());
    Ok(ExitCode::SUCCESS)
}

fn cmd_trials(args: &[String]) -> Result<ExitCode, String> {
    let spec = load_spec(args)?;
    let trials = spec.compile().map_err(|e| e.to_string())?;
    let rows: Vec<Vec<String>> = trials
        .iter()
        .map(|t| {
            vec![
                t.key.benchmark.clone(),
                t.key.architecture.clone(),
                t.key.tuner.clone(),
                t.key.rep.to_string(),
                t.seed.to_string(),
                t.budget.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        bat_harness::render_table(
            &[
                "benchmark",
                "architecture",
                "tuner",
                "rep",
                "seed",
                "budget"
            ],
            &rows
        )
    );
    println!("{} trials", trials.len());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("summary") => cmd_summary(&args[1..]),
        Some("sweep-batch") => cmd_sweep_batch(&args[1..]),
        Some("trials") => cmd_trials(&args[1..]),
        Some("help") | Some("--help") | Some("-h") => {
            print!("{HELP}");
            return ExitCode::SUCCESS;
        }
        _ => {
            eprint!("{HELP}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("bat-harness: {msg}");
            ExitCode::from(2)
        }
    }
}
