//! Cross-architecture warm starts from the cache.
//!
//! When a cache holds nothing for the GPU being tuned, its cells for
//! *other* GPUs are still worth money: the paper's portability study shows
//! optimal configurations transfer between architectures at 58.5–99.9% of
//! optimal — lossy, but a far better opening move than a random sample.
//! [`transfer_database`] turns a store into a [`TransferDatabase`] for one
//! benchmark and target architecture, nearest cached neighbour first,
//! ready to feed `WarmStartTuner::from_database` or `Nsga2::warm_started`.

use crate::store::CacheStore;
use bat_gpusim::GpuArch;
use bat_tuners::TransferDatabase;
use std::cmp::Ordering;

/// Deterministic distance between two machine models: the L2 norm of
/// per-feature relative differences over the numeric model constants,
/// plus 1.0 when the micro-architecture families differ (the paper's
/// portability cliff is between families, not within them).
pub fn arch_distance(a: &GpuArch, b: &GpuArch) -> f64 {
    fn rel(x: f64, y: f64) -> f64 {
        let scale = x.abs().max(y.abs()).max(1e-12);
        (x - y).abs() / scale
    }
    let features = [
        (f64::from(a.sm_count), f64::from(b.sm_count)),
        (f64::from(a.fp32_per_sm), f64::from(b.fp32_per_sm)),
        (a.clock_ghz, b.clock_ghz),
        (a.mem_bandwidth_gbs, b.mem_bandwidth_gbs),
        (a.l2_bandwidth_gbs, b.l2_bandwidth_gbs),
        (a.l2_bytes as f64, b.l2_bytes as f64),
        (
            f64::from(a.max_threads_per_sm),
            f64::from(b.max_threads_per_sm),
        ),
        (
            f64::from(a.max_blocks_per_sm),
            f64::from(b.max_blocks_per_sm),
        ),
        (f64::from(a.registers_per_sm), f64::from(b.registers_per_sm)),
        (
            f64::from(a.shared_mem_per_sm),
            f64::from(b.shared_mem_per_sm),
        ),
        (a.smem_bytes_per_cycle, b.smem_bytes_per_cycle),
        (a.dram_latency_cycles, b.dram_latency_cycles),
        (a.launch_overhead_us, b.launch_overhead_us),
    ];
    let l2: f64 = features
        .iter()
        .map(|&(x, y)| rel(x, y).powi(2))
        .sum::<f64>()
        .sqrt();
    l2 + if a.family == b.family { 0.0 } else { 1.0 }
}

/// Build a transfer database for tuning `benchmark` on `target` from a
/// cache's cells for other architectures.
///
/// Cells are visited nearest architecture first ([`arch_distance`] to the
/// target, ties broken by architecture name), and within a cell its top
/// configurations best-first, so the seed order — and therefore every
/// downstream artifact — is deterministic. Configurations are flattened
/// to dense `Vec<i64>` form through `param_names` (the target space's
/// parameter order); entries missing a parameter are skipped, the
/// cross-space case where a shipped cache predates a space change.
pub fn transfer_database(
    store: &CacheStore,
    benchmark: &str,
    target: &GpuArch,
    param_names: &[String],
) -> TransferDatabase {
    let mut donors: Vec<(f64, &str)> = Vec::new();
    for cell in &store.cells {
        if cell.benchmark != benchmark || cell.architecture == target.name {
            continue;
        }
        if donors.iter().any(|&(_, name)| name == cell.architecture) {
            continue;
        }
        if let Some(arch) = GpuArch::by_name(&cell.architecture) {
            donors.push((arch_distance(&arch, target), &cell.architecture));
        }
    }
    donors.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(b.1)));

    let mut db = TransferDatabase::new();
    for (_, donor) in donors {
        for cell in &store.cells {
            if cell.benchmark != benchmark || cell.architecture != donor {
                continue;
            }
            for entry in &cell.top {
                let config: Vec<i64> = param_names
                    .iter()
                    .filter_map(|name| entry.config.get(name).copied())
                    .collect();
                if config.len() != param_names.len() {
                    continue;
                }
                crate::obs().warm_starts.inc();
                db.record(cell.architecture.clone(), config);
            }
        }
    }
    db
}

/// Architectures in a store for one benchmark, nearest the target first —
/// the order [`transfer_database`] visits them in. Exposed for inspection
/// (`bat cache inspect` reports it).
pub fn nearest_architectures(
    store: &CacheStore,
    benchmark: &str,
    target: &GpuArch,
) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    for cell in &store.cells {
        if cell.benchmark != benchmark || cell.architecture == target.name {
            continue;
        }
        if out.iter().any(|(name, _)| *name == cell.architecture) {
            continue;
        }
        if let Some(arch) = GpuArch::by_name(&cell.architecture) {
            out.push((cell.architecture.clone(), arch_distance(&arch, target)));
        }
    }
    out.sort_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .unwrap_or(Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn config(x: i64, y: i64) -> BTreeMap<String, i64> {
        let mut c = BTreeMap::new();
        c.insert("block_size_x".to_string(), x);
        c.insert("tile_size".to_string(), y);
        c
    }

    #[test]
    fn distance_is_a_metric_like_shape() {
        let a = GpuArch::rtx_3090();
        let b = GpuArch::rtx_3060();
        let c = GpuArch::rtx_2080_ti();
        assert_eq!(arch_distance(&a, &a), 0.0);
        assert_eq!(arch_distance(&a, &b), arch_distance(&b, &a));
        // Cross-family pays the +1 cliff: 3090 (Ampere) is nearer the 3060
        // (Ampere) than the 2080 Ti (Turing) despite the 3090/2080 Ti
        // being closer in raw size.
        assert!(arch_distance(&a, &c) > 1.0);
    }

    #[test]
    fn database_orders_donors_nearest_first() {
        let mut store = CacheStore::new();
        for (arch, x) in [("RTX 2080 Ti", 1), ("RTX 3060", 2), ("RTX Titan", 3)] {
            store.observe("gemm", arch, "s", &config(x, 10), 1.0, None);
        }
        // A cell for another benchmark must not leak in.
        store.observe("nbody", "RTX 3060", "s", &config(9, 9), 1.0, None);
        let target = GpuArch::rtx_3090();
        let names = vec!["block_size_x".to_string(), "tile_size".to_string()];
        let db = transfer_database(&store, "gemm", &target, &names);
        let seeds = db.seeds_for(target.name);
        // Same family (3060) first, then the nearer Turing card.
        assert_eq!(seeds[0], vec![2, 10]);
        assert_eq!(seeds.len(), 3);
        let order = nearest_architectures(&store, "gemm", &target);
        assert_eq!(order[0].0, "RTX 3060");
        assert!(order[0].1 < order[1].1);
    }

    #[test]
    fn target_cells_and_unknown_archs_are_excluded() {
        let mut store = CacheStore::new();
        store.observe("gemm", "RTX 3090", "s", &config(1, 1), 1.0, None);
        store.observe("gemm", "Imaginary GPU", "s", &config(2, 2), 1.0, None);
        let target = GpuArch::rtx_3090();
        let names = vec!["block_size_x".to_string(), "tile_size".to_string()];
        let db = transfer_database(&store, "gemm", &target, &names);
        assert!(db.is_empty());
    }

    #[test]
    fn entries_missing_a_parameter_are_skipped() {
        let mut store = CacheStore::new();
        store.observe("gemm", "RTX 3060", "s", &config(4, 8), 1.0, None);
        let target = GpuArch::rtx_3090();
        let names = vec![
            "block_size_x".to_string(),
            "tile_size".to_string(),
            "unknown_param".to_string(),
        ];
        let db = transfer_database(&store, "gemm", &target, &names);
        assert!(db.is_empty());
    }
}
