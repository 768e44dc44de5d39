//! The shippable autotune cache: a persistent `bat/cache/v1` best-config
//! store.
//!
//! Kernel tuning is an expensive search that should be done once and
//! reused. This crate is where the reuse lives:
//!
//! * [`CacheStore`] — the on-disk artifact. One *cell* per
//!   (benchmark, architecture, scenario) holding the best known
//!   configurations, their measured objective(s) and a compact landscape
//!   digest (top-k configs + a mergeable quantile sketch); one *trial
//!   blob* per exact tuning-trial fingerprint so a campaign re-run with
//!   `--cache` replays finished trials instead of re-tuning. The JSON form
//!   is byte-stable: entries are kept sorted, nothing volatile is
//!   recorded, and [`merge`](CacheStore::merge) is commutative and
//!   associative, so shard caches recombine into the unsharded cache
//!   byte-for-byte. Cells are kept sorted by key and looked up by binary
//!   search ([`cell`](CacheStore::cell)).
//! * [`transfer`] — deterministic cross-architecture warm starts: cells
//!   recorded on *other* GPUs feed a
//!   [`TransferDatabase`](bat_tuners::TransferDatabase), nearest
//!   architecture first (by a fixed machine-feature distance), so an
//!   unseen GPU starts its search from its closest cached neighbours.

#![warn(missing_docs)]

mod digest;
mod index;
mod store;
pub mod transfer;

pub use digest::{DigestEntry, QuantileSketch, SKETCH_BINS, TOP_K};
pub use store::{CacheCell, CacheError, CacheStore, CachedTrial, CACHE_SCHEMA};

/// Observability handles for the cache. Telemetry only: lookup results are
/// never affected by these, and under the `no-obs` feature every call
/// compiles down to a no-op.
pub(crate) struct CacheMetrics {
    pub(crate) lookups: &'static bat_obs::metrics::Counter,
    pub(crate) hits: &'static bat_obs::metrics::Counter,
    pub(crate) misses: &'static bat_obs::metrics::Counter,
    pub(crate) warm_starts: &'static bat_obs::metrics::Counter,
}

/// Record one logical cache lookup in the observability counters. Every
/// front-end that queries a [`CacheStore`] (the campaign `--cache`
/// exact-hit path, the daemon's `cache_lookup`) calls this, so hit rates
/// stay observable. Under the `no-obs` feature this is a no-op.
pub fn record_lookup(hit: bool) {
    let m = obs();
    m.lookups.inc();
    if hit {
        m.hits.inc();
    } else {
        m.misses.inc();
    }
}

pub(crate) fn obs() -> &'static CacheMetrics {
    use bat_obs::metrics::counter;
    static M: std::sync::OnceLock<CacheMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| CacheMetrics {
        lookups: counter("bat_cache_lookups_total", "Cache lookups."),
        hits: counter(
            "bat_cache_hits_total",
            "Cache lookups that found a cell or trial.",
        ),
        misses: counter(
            "bat_cache_misses_total",
            "Cache lookups that found nothing.",
        ),
        warm_starts: counter(
            "bat_cache_warm_starts_total",
            "Warm-start seed configurations served from the cache.",
        ),
    })
}
