//! `bat campaign` — run declarative campaign specs and work with their
//! artifacts.

use bat_core::Error;
use bat_harness::{
    convergence_auc, load_result_file, load_spec_file, render_table, report_run, run_campaign,
    CampaignOptions, CampaignSummary, Endpoint, ExperimentSpec, ShardSpec,
};

use crate::ctx::{apply_threads, Opts};

/// `bat campaign [merge|summary|trials|sweep-batch]` — without a
/// subcommand, run the `--spec` campaign.
pub fn cmd_campaign(opts: &Opts) -> Result<(), Error> {
    match opts.positional(0).as_deref() {
        None => run_spec(opts),
        Some("merge") => merge(opts),
        Some("summary") => summary(opts),
        Some("trials") => trials(opts),
        Some("sweep-batch") => sweep_batch(opts),
        Some(other) => Err(Error::spec(format!(
            "unknown campaign subcommand {other:?}; expected merge, summary, trials or sweep-batch"
        ))),
    }
}

fn spec_arg(opts: &Opts) -> Result<ExperimentSpec, Error> {
    load_spec_file(&opts.require("--spec", "FILE")?)
}

/// Parse an `I/N` shard selector.
fn parse_shard(s: &str) -> Result<ShardSpec, Error> {
    let (index, count) = s
        .split_once('/')
        .ok_or_else(|| Error::spec(format!("--shard expects I/N, got {s:?}")))?;
    let index = index
        .parse()
        .map_err(|_| Error::spec(format!("bad shard index {index:?}")))?;
    let count = count
        .parse()
        .map_err(|_| Error::spec(format!("bad shard count {count:?}")))?;
    Ok(ShardSpec { index, count })
}

/// Run the `--spec` campaign. `--connect` routes trial evaluation
/// through a tuning daemon (loopback or TCP); the artifact is
/// byte-identical to the in-process run.
fn run_spec(opts: &Opts) -> Result<(), Error> {
    apply_threads(opts)?;
    if let Some(trace) = opts.get("--trace") {
        bat_obs::trace::install(std::path::Path::new(&trace))
            .map_err(|e| Error::io(format!("--trace {trace}: {e}")))?;
    }
    let mut spec = spec_arg(opts)?;
    if let Some(shard) = opts.get("--shard") {
        spec.shard = Some(parse_shard(&shard)?);
    }
    if let Some(batch) = opts.get("--batch") {
        let batch: u32 = batch
            .parse()
            .map_err(|_| Error::spec(format!("bad --batch value {batch:?}")))?;
        spec.protocol.set_batch(batch);
    }
    if let Some(rate) = opts.get("--fault-rate") {
        let rate: f64 = rate
            .parse()
            .ok()
            .filter(|r| (0.0..=1.0).contains(r))
            .ok_or_else(|| Error::spec(format!("--fault-rate must be in [0, 1], got {rate:?}")))?;
        spec.set_fault_rate(rate);
    }
    let endpoint = match opts.get("--connect") {
        Some(ep) => Endpoint::parse(&ep)?,
        None => Endpoint::InProcess,
    };
    let out = opts.get("--out");
    let campaign = CampaignOptions {
        endpoint,
        out: out.clone(),
        resume: opts.has("--resume"),
        cache: opts.get("--cache"),
        ..CampaignOptions::default()
    };
    let run = run_campaign(&spec, &campaign)?;

    match &out {
        Some(p) => println!("wrote {p}"),
        // Artifact on stdout; the report goes to stderr so a redirected
        // artifact stays parseable.
        None => println!("{}", run.result.to_json()),
    }
    let failed = report_run(&run, opts.has("--quiet"));
    bat_obs::trace::flush();
    if failed > 0 && opts.has("--strict") {
        return Err(Error::spec(format!(
            "--strict: {failed} trial(s) found no valid configuration"
        )));
    }
    Ok(())
}

/// `merge` — merge shard artifacts into the complete campaign artifact.
/// Missing trials execute, so an incomplete shard set still produces the
/// complete artifact; a complete one reproduces the unsharded run byte
/// for byte.
fn merge(opts: &Opts) -> Result<(), Error> {
    let spec = spec_arg(opts)?;
    let merge = opts
        .require("--inputs", "A,B,...")?
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(load_result_file)
        .collect::<Result<Vec<_>, _>>()?;
    if merge.is_empty() {
        return Err(Error::spec("--inputs names no artifacts"));
    }
    let out = opts.require("--out", "FILE")?;
    let inputs = merge.len();
    let campaign = CampaignOptions {
        out: Some(out.clone()),
        merge,
        ..CampaignOptions::default()
    };
    let run = run_campaign(&spec, &campaign)?;
    report_run(&run, opts.has("--quiet"));
    eprintln!("merged {inputs} artifacts into {out}");
    Ok(())
}

/// `summary` — the summary tables of an existing artifact.
fn summary(opts: &Opts) -> Result<(), Error> {
    let result = load_result_file(&opts.require("--input", "FILE")?)?;
    print!("{}", CampaignSummary::from_result(&result).render());
    Ok(())
}

/// `trials` — the compiled trials of a spec, without running them.
fn trials(opts: &Opts) -> Result<(), Error> {
    let trials = spec_arg(opts)?.compile()?;
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
        render_table(
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
    Ok(())
}

/// `sweep-batch` — the batch-vs-quality view: run the same campaign at
/// several `protocol.batch` values and tabulate, per batch size, the
/// measurement throughput against the search quality it buys (mean final
/// best and mean convergence AUC against a sweep-wide per-cell reference).
/// Quality at `batch = 1` is the serial protocol's; larger batches trade
/// staler search state for batched measurement, and this table is how that
/// trade is audited.
fn sweep_batch(opts: &Opts) -> Result<(), Error> {
    apply_threads(opts)?;
    let base = spec_arg(opts)?;
    let batches: Vec<u32> = opts
        .get("--batches")
        .unwrap_or_else(|| "1,4,16,64".into())
        .split(',')
        .map(|s| {
            s.trim()
                .parse::<u32>()
                .ok()
                .filter(|&b| b >= 1)
                .ok_or_else(|| Error::spec(format!("bad --batches entry {s:?}")))
        })
        .collect::<Result<_, _>>()?;
    if batches.is_empty() {
        return Err(Error::spec("--batches names no sizes"));
    }

    let mut runs = Vec::new();
    for &batch in &batches {
        let mut spec = base.clone();
        spec.protocol.set_batch(batch);
        let run = run_campaign(&spec, &CampaignOptions::default())?;
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
    Ok(())
}
