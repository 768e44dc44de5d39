//! `campaign-probe`: the compiled half of the campaign benchmark.
//!
//! `run.py` times the `bat` binary from outside; this program supplies
//! what it cannot do from Python:
//!
//! * `host-probe` — time a fixed piece of work compiled into the
//!   benchmark, to tell a slow host from a slow program;
//! * `served --addr A --dir D --seconds S [--trace] [--ready-only]` —
//!   the `served` workload's client;
//! * `trace --workload W --dir D` — the traced in-process run of an
//!   in-process workload, printing per-layer self times as JSON.

mod campaign;
mod served;
mod trace;

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use campaign::{Call, Counters};
use trace::Tracer;

/// Every suite tuner, in the order `bat list` prints them.
const TUNERS: [&str; 13] = [
    "random-search",
    "mls-first-improvement",
    "mls-best-improvement",
    "greedy-ils",
    "simulated-annealing",
    "basin-hopping",
    "genetic-algorithm",
    "particle-swarm",
    "differential-evolution",
    "gbdt-surrogate",
    "gp-bo-ei",
    "tpe",
    "smac-forest",
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics a tracer and its counters give, by name.
pub fn layers(tr: &Tracer, c: &Counters) -> Vec<(String, f64)> {
    let selfs = tr.self_times();
    let s = |name: &str| selfs.get(name).map_or(0.0, |v| v.0);
    let n = |name: &str| selfs.get(name).map_or(0, |v| v.1) as f64;
    let mut out: Vec<(String, f64)> = Vec::new();
    for t in TUNERS {
        out.push((format!("tuners.{t}.ask_s"), s(&format!("tuners.{t}.ask"))));
        out.push((format!("tuners.{t}.tell_s"), s(&format!("tuners.{t}.tell"))));
        out.push((format!("tuners.{t}.steps"), n(&format!("tuners.{t}.ask"))));
    }
    let evals = c.evals as f64;
    let wall = tr.wall_s();
    let metrics = [
        ("core.eval_s", c.eval_s + s("core.eval")),
        ("core.evals", evals),
        ("core.batches", c.batches as f64),
        ("core.memo_hit_frac", ratio(c.memo_hits as f64, evals)),
        ("core.invalid_frac", ratio(c.invalid as f64, evals)),
        ("space.decode_s", c.decode_s),
        ("space.valid_s", c.valid_s),
        ("kernels.model_s", c.model_s),
        ("tuners.driver_s", (s("tuners.drive") - c.eval_s).max(0.0)),
        ("kernels.build_s", s("kernels.build")),
        ("kernels.builds", c.builds as f64),
        ("harness.compile_s", s("harness.compile")),
        ("harness.trial_record_s", s("harness.trial_record")),
        ("harness.checkpoint_s", s("harness.checkpoint")),
        ("harness.checkpoint_bytes", c.checkpoint_bytes as f64),
        ("harness.summary_s", s("harness.summary")),
        ("serde_json.parse_s", s("serde_json.parse")),
        ("serde_json.parse_bytes", c.parse_bytes as f64),
        ("cache.load_s", s("cache.load")),
        ("cache.bytes", c.cache_bytes as f64),
        ("harness.replay_s", s("harness.replay")),
        (
            "cache.hit_frac",
            ratio(c.cache_hits as f64, c.cache_lookups as f64),
        ),
        (
            "cache.lookup_us",
            ratio(s("cache.lookup") * 1e6, n("cache.lookup")),
        ),
        ("cache.fold_s", s("cache.fold")),
        ("cache.save_s", s("cache.save")),
        ("server.open_s", s("server.open")),
        ("server.close_s", s("server.close")),
        ("trace.wall_s", wall),
        ("trace.coverage", ratio(tr.layer_self_s(), wall)),
    ];
    out.extend(metrics.iter().map(|(k, v)| (k.to_string(), *v)));
    out
}

/// Render `(name, value)` pairs as one JSON object.
pub fn json_object(pairs: &[(String, f64)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", if v.is_finite() { *v } else { 0.0 }))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Median milliseconds of a fixed xorshift-and-scatter loop.
fn host_probe() -> f64 {
    let mut times: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            let mut table = vec![0u64; 1 << 16];
            let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
            for i in 0..4_000_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let slot = (x as usize) & 0xFFFF;
                table[slot] = table[slot].wrapping_add(i);
            }
            black_box(&table);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// One `bat campaign` invocation of a traced flow, by file name in the
/// run directory.
struct Step {
    spec: &'static str,
    out: &'static str,
    batch: Option<u32>,
    cache: Option<&'static str>,
    resume: bool,
}

/// The `bat campaign` invocations a workload's traced flow makes.
fn plan(workload: &str) -> Option<Vec<Step>> {
    let plain = |spec, out| Step {
        spec,
        out,
        batch: None,
        cache: None,
        resume: false,
    };
    let cached = |spec, out, cache| Step {
        cache: Some(cache),
        ..plain(spec, out)
    };
    Some(match workload {
        "paper-ranking" => vec![plain("pr.json", "traced.json")],
        "eval-sweep" => vec![
            plain("sweep.json", "traced-b1.json"),
            Step {
                batch: Some(256),
                ..plain("sweep.json", "traced-b256.json")
            },
        ],
        // Fixture builds, traced in a process of their own so that a
        // replay starts from a fresh heap, as the CLI's does.
        "served-setup" => vec![
            cached("served.json", "traced-served-ref.json", "traced-fix.json"),
            cached("pr.json", "traced-cold.json", "traced-fix.json"),
        ],
        "cache-replay-setup" => vec![cached("pr.json", "traced-cold.json", "traced-fix.json")],
        "cache-replay" => vec![
            cached("pr.json", "traced-warm.json", "fix.json"),
            Step {
                resume: true,
                ..plain("pr.json", "traced-warm.json")
            },
        ],
        _ => return None,
    })
}

/// Run the traced in-process flow of `workload`, whose inputs `run.py`
/// wrote into `dir`. Prints the trials each campaign executed and the
/// per-layer metrics.
fn traced(workload: &str, dir: &Path) -> Result<(), String> {
    let steps = plan(workload).ok_or_else(|| format!("no traced run for workload {workload:?}"))?;
    let mut tr = Tracer::new();
    let mut c = Counters::default();
    let mut executed = Vec::new();
    for step in &steps {
        let (spec, out) = (dir.join(step.spec), dir.join(step.out));
        let cache = step.cache.map(|p| dir.join(p));
        let call = Call {
            spec: &spec,
            out: &out,
            batch: step.batch,
            cache: cache.as_deref(),
            resume: step.resume,
        };
        executed.push(campaign::run(&mut tr, &mut c, &call)?);
    }
    tr.write_jsonl(&dir.join(format!("spans-{workload}.jsonl")))
        .map_err(|e| format!("writing spans: {e}"))?;
    let metrics = layers(&tr, &c);
    let executed: Vec<String> = executed.iter().map(usize::to_string).collect();
    println!(
        "{{\"executed\":[{}],\"replay_mismatches\":{},\"layers\":{}}}",
        executed.join(","),
        c.replay_mismatches,
        json_object(&metrics)
    );
    Ok(())
}

/// The value after `flag`, if present.
fn opt<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn required<'a>(args: &'a [String], flag: &str) -> Result<&'a str, String> {
    opt(args, flag).ok_or_else(|| format!("{flag} is required"))
}

fn number<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<T, String> {
    let v = required(args, flag)?;
    v.parse().map_err(|_| format!("{flag}: bad value {v:?}"))
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("host-probe") => {
            println!("{}", host_probe());
            Ok(())
        }
        Some("trace") => traced(
            required(args, "--workload")?,
            Path::new(required(args, "--dir")?),
        ),
        Some("served") => served::main(&served::Args {
            addr: required(args, "--addr")?,
            dir: Path::new(required(args, "--dir")?),
            seconds: number(args, "--seconds")?,
            trace: args.iter().any(|a| a == "--trace"),
            ready_only: args.iter().any(|a| a == "--ready-only"),
        }),
        _ => Err("usage: campaign-probe host-probe | served ... | trace ...".into()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("campaign-probe: {e}");
        std::process::exit(1);
    }
}
