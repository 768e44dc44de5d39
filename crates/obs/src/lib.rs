//! Observability for the tuning stack: metrics and trace spans.
//!
//! The suite's hard rule is that campaign artifacts are byte-identical
//! however they were produced — across thread counts, endpoints, resume,
//! and with observability on or off. Everything in
//! this crate is therefore strictly *out-of-band*: counters accumulate in
//! process-global atomics, spans stream to a side-channel JSONL file, and
//! nothing here ever feeds back into a measurement or an artifact.
//!
//! Two halves:
//!
//! * [`metrics`] — a process-wide registry of lock-free counters, gauges
//!   and log-scale histograms, cheap enough for the evaluator hot path
//!   (relaxed `fetch_add` on per-thread shards, merged on read), rendered
//!   as Prometheus-style text exposition for `bat serve --metrics`.
//! * [`trace`] — structured span tracing (campaign → trial → step →
//!   batch), emitted as schema-versioned `bat/trace/v1` JSONL
//!   behind `--trace PATH`. Timestamps are monotonic microseconds relative
//!   to the sink's install instant; the single wall-clock anchor lives in
//!   the file's meta line.
//!
//! The crate depends on nothing but `std`, so every other crate in the
//! workspace — including the vendored compat crates — may depend on it
//! without cycles.

pub mod metrics;
pub mod trace;
