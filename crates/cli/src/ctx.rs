//! Shared helpers for the `bat` CLI.

use std::sync::Arc;

use bat_analysis::{sampled_valid, Landscape};
use bat_core::Error;
use bat_gpusim::GpuArch;
use bat_kernels::{GpuBenchmark, KernelSpec, BENCHMARK_NAMES};

/// The benchmarks the paper searches exhaustively (§V).
pub const EXHAUSTIVE_BENCHES: [&str; 4] = ["pnpoly", "nbody", "gemm", "convolution"];

/// Parse `--key value` style options from an argument list.
pub struct Opts {
    args: Vec<String>,
}

impl Opts {
    /// Wrap an argument vector.
    pub fn new(args: &[String]) -> Opts {
        Opts {
            args: args.to_vec(),
        }
    }

    /// String option, e.g. `--bench gemm`.
    pub fn get(&self, key: &str) -> Option<String> {
        self.args
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.args.get(i + 1))
            .cloned()
    }

    /// Numeric option, or `default` when absent.
    fn get_number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, Error> {
        match self.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| Error::spec(format!("{key} expects a number, got {v:?}"))),
            None => Ok(default),
        }
    }

    /// Integer option with default.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, Error> {
        self.get_number(key, default)
    }

    /// u64 option with default.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, Error> {
        self.get_number(key, default)
    }

    /// Required string option, e.g. `--spec FILE`.
    pub fn require(&self, key: &str, what: &str) -> Result<String, Error> {
        self.get(key)
            .ok_or_else(|| Error::spec(format!("{key} {what} is required")))
    }

    /// Flag presence, e.g. `--csv`.
    pub fn has(&self, key: &str) -> bool {
        self.args.iter().any(|a| a == key)
    }

    /// Positional argument at `idx`, counted before the first `--option` —
    /// the `inspect` in `bat cache inspect --input FILE`.
    pub fn positional(&self, idx: usize) -> Option<String> {
        self.args
            .iter()
            .take_while(|a| !a.starts_with("--"))
            .nth(idx)
            .cloned()
    }
}

/// Benchmarks selected by `--bench` (comma-separated) or all seven.
pub fn selected_benches(opts: &Opts) -> Result<Vec<String>, Error> {
    match opts.get("--bench") {
        Some(list) => list
            .split(',')
            .map(|s| {
                let s = s.trim().to_ascii_lowercase();
                kernel(&s)?;
                Ok(s)
            })
            .collect(),
        None => Ok(BENCHMARK_NAMES.iter().map(|s| s.to_string()).collect()),
    }
}

/// Architectures selected by `--arch` (comma-separated) or the testbed.
pub fn selected_archs(opts: &Opts) -> Result<Vec<GpuArch>, Error> {
    match opts.get("--arch") {
        Some(list) => list
            .split(',')
            .map(|s| {
                GpuArch::by_name(s.trim()).ok_or_else(|| {
                    Error::spec(format!(
                        "unknown GPU {s:?}; available: RTX 2080 Ti, RTX 3060, RTX 3090, RTX Titan"
                    ))
                })
            })
            .collect(),
        None => Ok(GpuArch::paper_testbed()),
    }
}

/// The kernel named `name` (case-insensitive).
pub fn kernel(name: &str) -> Result<Arc<dyn KernelSpec>, Error> {
    bat_kernels::kernel_by_name(name).ok_or_else(|| {
        Error::spec(format!(
            "unknown benchmark {name:?}; available: {BENCHMARK_NAMES:?}"
        ))
    })
}

/// Bind a benchmark to an architecture.
pub fn bench_on(name: &str, arch: &GpuArch) -> Result<GpuBenchmark, Error> {
    Ok(GpuBenchmark::new(kernel(name)?, arch.clone()))
}

/// Parse `--threads N` and size the worker pool before any parallel work.
pub fn apply_threads(opts: &Opts) -> Result<(), Error> {
    if let Some(threads) = opts.get("--threads") {
        let n: usize = threads.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
            Error::spec(format!(
                "--threads expects a positive integer, got {threads:?}"
            ))
        })?;
        if !rayon::set_global_threads(n) {
            return Err(Error::spec(
                "--threads came too late: the worker pool already started",
            ));
        }
    }
    Ok(())
}

/// Collect the paper-protocol landscape: exhaustive for the four small
/// benchmarks, `samples` distinct valid configurations otherwise.
pub fn paper_landscape(bench: &GpuBenchmark, samples: usize, seed: u64) -> Landscape {
    if EXHAUSTIVE_BENCHES.contains(&bat_core::TuningProblem::name(bench)) {
        Landscape::exhaustive(bench)
    } else {
        sampled_valid(bench, samples, seed, samples.saturating_mul(10_000))
            .expect("valid-space sampling failed; space too constrained")
    }
}

/// Print an aligned text table: `header` then `rows` (the harness's
/// renderer, so both binaries format tables identically).
pub fn print_table(header: &[String], rows: &[Vec<String>]) {
    let refs: Vec<&str> = header.iter().map(String::as_str).collect();
    print!("{}", bat_harness::render_table(&refs, rows));
}

/// Format a float with `d` decimals.
pub fn f(x: f64, d: usize) -> String {
    format!("{x:.d$}")
}

/// Format an optional percentage.
pub fn pct(x: Option<f64>) -> String {
    match x {
        Some(v) => format!("{:.1}%", v * 100.0),
        None => "fail".to_string(),
    }
}
