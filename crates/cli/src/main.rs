//! `bat` — the BAT-rs command-line interface.
//!
//! Regenerates every table and figure of the BAT 2.0 paper on the simulated
//! GPU testbed, and runs/compares tuners on the benchmark suite.

mod campaign;
mod commands;
mod ctx;

use ctx::Opts;

const HELP: &str = "\
bat — BAT-rs: a benchmarking suite for kernel tuners (BAT 2.0 reproduction)

USAGE:
    bat <command> [options]

EXPERIMENT COMMANDS (one per paper table/figure):
    tables       Tables I-VII: tunable parameter spaces
    table8       Table VIII: search-space sizes (cardinality/constrained/valid/reduced)
    fig1         performance distributions centred on the median configuration
    fig2         random-search convergence curves
    fig3         proportion-of-centrality search difficulty (FFG + PageRank)
    fig4         max speedup of optimum over median
    fig5         performance-portability matrices
    fig6         permutation feature importance (+ regressor R²)

SUITE COMMANDS:
    list                 benchmarks, GPUs and tuners
    tune                 run one tuner  (--bench, --tuner, --budget, --seed, --batch, --json, --t4, --source)
    pareto               multi-objective tuning: time × energy Pareto fronts
                         (--bench, --arch, --budget, --seed, --tuner, --capacity, --batch)
    campaign             run a declarative campaign spec (--spec FILE, --out FILE
                         plus a FILE.meta.json T4 document, default stdout;
                         --resume reuses the trials already in --out;
                         --serial runs trials one by one (the determinism
                         oracle); --shard I/N runs every N-th trial from I;
                         --batch N, --fault-rate R override the spec;
                         --threads N, --connect EP, --strict exits non-zero
                         when a trial finds no valid configuration, --quiet
                         drops the summary tables; --cache FILE reuses a
                         bat/cache/v1 store: exact-hit trials replay verbatim
                         (warm artifact byte-identical to cold), misses tune
                         and fold back in atomically; --trace FILE writes a
                         bat/trace/v1 JSONL span trace; EP = in-process |
                         loopback | HOST:PORT of a `bat serve` daemon —
                         artifacts are byte-identical across endpoints;
                         thread-count precedence: --threads > BAT_THREADS >
                         host cores)
    campaign merge       merge shard artifacts (--spec FILE, --inputs A,B,...,
                         --out FILE, --quiet); missing trials execute, so the
                         result is byte-identical to the unsharded run
    campaign summary     summary tables of an artifact (--input FILE)
    campaign trials      list a spec's compiled trials (--spec FILE)
    campaign sweep-batch batch-vs-quality table: throughput, mean best and
                         mean convergence AUC per batch size (--spec FILE,
                         --batches 1,4,16,64, --threads N)
    cache                inspect/merge/evict bat/cache/v1 stores:
                         inspect --input FILE [--bench B --arch A ranks
                         warm-start donor architectures], merge --inputs
                         A,B,... --out FILE (order-independent, byte-stable),
                         evict --input FILE --out FILE (drop replay blobs,
                         keep the compact shippable cells)
    serve                host tuning sessions as a daemon (--addr HOST:PORT,
                         --slots N concurrent batches, --inflight N queued
                         batches per session, --threads N, --metrics ADDR
                         serves Prometheus text exposition over HTTP,
                         --heartbeat N prints a status line every N seconds,
                         0 disables, default 10, --cache FILE loads a
                         bat/cache/v1 store and answers wire cache_lookup
                         requests from it); clients connect with
                         `bat campaign --connect HOST:PORT`
    compare              compare all tuners at equal budget (--bench, --budget, --repeats)
    ranks                cross-benchmark tuner ranking, Friedman-style (--budget, --repeats)
    online               KTT-style dynamic autotuning time-to-solution (--bench, --invocations)
    difficulty           FDC / walk-autocorrelation / minima statistics (--bench, --samples)
    noise                measurement-noise sensitivity of selection quality (--bench, --budget)
    convergence-tuners   best-so-far curves for every tuner (--bench, --budget)
    source               print generated CUDA for a configuration (--bench, --config v1,v2,...)
    t1                   print a benchmark's T1 specification document (--bench)

COMMON OPTIONS:
    --bench a,b,...      restrict to benchmarks (default: all seven)
    --arch a,b,...       restrict to GPUs (default: RTX 2080 Ti, RTX 3060, RTX 3090, RTX Titan)
    --samples N          sample count for the non-exhaustive benchmarks (default 10000)
    --seed N             RNG seed (default 0)

EXAMPLES:
    bat table8 --samples 3000
    bat fig5 --bench pnpoly
    bat tune --bench hotspot --arch rtx3090 --tuner greedy-ils --budget 500
    bat campaign --spec specs/ci-smoke.json --out smoke.json
";

/// Print a typed [`bat_core::Error`] and exit non-zero — every subcommand
/// reports failures through the unified error hierarchy instead of
/// panicking.
fn fail_on_error(outcome: Result<(), bat_core::Error>) {
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        print!("{HELP}");
        std::process::exit(2);
    };
    let opts = Opts::new(&args[1..]);
    fail_on_error(match cmd {
        "list" => commands::cmd_list(&opts),
        "tables" => commands::cmd_tables(&opts),
        "table8" => commands::cmd_table8(&opts),
        "fig1" => commands::cmd_fig1(&opts),
        "fig2" => commands::cmd_fig2(&opts),
        "fig3" => commands::cmd_fig3(&opts),
        "fig4" => commands::cmd_fig4(&opts),
        "fig5" => commands::cmd_fig5(&opts),
        "fig6" => commands::cmd_fig6(&opts),
        "tune" => commands::cmd_tune(&opts),
        "pareto" => commands::cmd_pareto(&opts),
        "campaign" => campaign::cmd_campaign(&opts),
        "serve" => commands::cmd_serve(&opts),
        "cache" => commands::cmd_cache(&opts),
        "compare" => commands::cmd_compare(&opts),
        "ranks" => commands::cmd_ranks(&opts),
        "online" => commands::cmd_online(&opts),
        "difficulty" => commands::cmd_difficulty(&opts),
        "noise" => commands::cmd_noise(&opts),
        "t1" => commands::cmd_t1(&opts),
        "convergence-tuners" => commands::cmd_convergence_tuners(&opts),
        "source" => commands::cmd_source(&opts),
        "help" | "--help" | "-h" => {
            print!("{HELP}");
            Ok(())
        }
        other => {
            eprintln!("unknown command {other:?}\n");
            print!("{HELP}");
            std::process::exit(2);
        }
    });
}
