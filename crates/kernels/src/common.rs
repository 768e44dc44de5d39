//! Shared infrastructure for the seven BAT benchmarks.

use std::sync::Arc;

use bat_core::{EvalFailure, TuningProblem};
use bat_gpusim::{execute_repeated, execute_with_energy_repeated, GpuArch, KernelModel};
use bat_space::ConfigSpace;

/// A tunable GPU kernel: its configuration space, its cost model and its
/// generated source.
///
/// This is the benchmark side of the paper's shared problem interface. A
/// `KernelSpec` is architecture-agnostic; binding it to a [`GpuArch`] via
/// [`GpuBenchmark`] yields a [`TuningProblem`].
pub trait KernelSpec: Send + Sync {
    /// Benchmark name (`"gemm"`, `"nbody"`, …).
    fn name(&self) -> &'static str;

    /// Build the tunable parameter space (Tables I–VII) with its
    /// restriction set.
    fn build_space(&self) -> ConfigSpace;

    /// Map a restriction-valid configuration to a single-launch model.
    ///
    /// `config` is aligned with the space built by
    /// [`KernelSpec::build_space`].
    fn model(&self, config: &[i64]) -> KernelModel;

    /// Write the model for `config` into a caller-owned slot.
    ///
    /// The batch evaluation path calls this against a per-worker arena
    /// slot (see [`GpuBenchmark::evaluate_pure`]) so the ~180-byte model
    /// is rebuilt in place across millions of evaluations instead of
    /// being constructed and moved through a fresh stack slot each time.
    /// The default delegates to [`KernelSpec::model`]; kernels whose
    /// models share most fields across configurations can override it to
    /// update only what changes.
    fn model_into(&self, config: &[i64], out: &mut KernelModel) {
        *out = self.model(config);
    }

    /// Number of kernel launches one application-level run performs
    /// (e.g. Hotspot runs `ceil(steps / temporal_tiling_factor)` launches).
    fn launches(&self, _config: &[i64]) -> u64 {
        1
    }

    /// Generate CUDA-C source for this configuration (for inspection and
    /// docs; the simulator prices the [`KernelModel`] directly).
    fn source(&self, config: &[i64]) -> String;
}

/// A [`KernelSpec`] bound to a target architecture: the concrete
/// [`TuningProblem`] a tuner optimizes.
pub struct GpuBenchmark {
    spec: Arc<dyn KernelSpec>,
    arch: GpuArch,
    space: ConfigSpace,
}

impl GpuBenchmark {
    /// Bind `spec` to `arch`.
    pub fn new(spec: Arc<dyn KernelSpec>, arch: GpuArch) -> Self {
        let space = spec.build_space();
        GpuBenchmark { spec, arch, space }
    }

    /// The target architecture.
    pub fn arch(&self) -> &GpuArch {
        &self.arch
    }

    /// The underlying kernel spec.
    pub fn spec(&self) -> &Arc<dyn KernelSpec> {
        &self.spec
    }
}

thread_local! {
    /// Per-thread model arena. One long-lived slot per measuring thread —
    /// a campaign trial's pool worker or a daemon session's worker, since
    /// an evaluator measures a batch on its calling thread — that the
    /// evaluation hot path rebuilds in place via [`KernelSpec::model_into`],
    /// instead of constructing a fresh [`KernelModel`] per evaluation.
    static MODEL_ARENA: std::cell::RefCell<KernelModel> =
        std::cell::RefCell::new(KernelModel::new("", 0, 0));
}

impl TuningProblem for GpuBenchmark {
    fn name(&self) -> &str {
        self.spec.name()
    }

    fn platform(&self) -> &str {
        self.arch.name
    }

    fn space(&self) -> &ConfigSpace {
        &self.space
    }

    fn evaluate_pure(&self, config: &[i64]) -> Result<f64, EvalFailure> {
        if !self.space.is_valid(config) {
            return Err(EvalFailure::Restricted);
        }
        MODEL_ARENA.with(|slot| {
            let mut model = slot.borrow_mut();
            self.spec.model_into(config, &mut model);
            let launches = self.spec.launches(config);
            execute_repeated(&self.arch, &model, launches)
                .map_err(|e| EvalFailure::Launch(e.to_string()))
        })
    }

    fn evaluate_pure2(&self, config: &[i64]) -> Result<(f64, Option<f64>), EvalFailure> {
        if !self.space.is_valid(config) {
            return Err(EvalFailure::Restricted);
        }
        // Same kernel-specific work profile as `evaluate_pure`, priced
        // through the simulator's power model as well: the time component
        // is bit-identical to the single-objective path.
        MODEL_ARENA.with(|slot| {
            let mut model = slot.borrow_mut();
            self.spec.model_into(config, &mut model);
            let launches = self.spec.launches(config);
            execute_with_energy_repeated(&self.arch, &model, launches)
                .map(|(t, e)| (t, Some(e)))
                .map_err(|e| EvalFailure::Launch(e.to_string()))
        })
    }

    fn noise_salt(&self) -> u64 {
        bat_gpusim::mix(self.arch.noise_salt(), {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in self.spec.name().bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            h
        })
    }
}

/// Ceiling division for positive integers.
#[inline]
pub fn ceil_div(a: u64, b: u64) -> u64 {
    a.div_ceil(b)
}

/// Model the effect of `__launch_bounds__(threads, min_blocks)`: the
/// compiler caps register usage so `min_blocks` blocks fit per SM, spilling
/// the excess to local memory.
///
/// Returns `(regs_per_thread, spill_bytes_per_thread_per_use)` where the
/// second component is the number of spilled registers (×4 bytes each); the
/// caller scales it by how often spilled values are touched.
pub fn apply_launch_bounds(
    natural_regs: u32,
    threads_per_block: u32,
    min_blocks: u32,
) -> (u32, f64) {
    let natural = natural_regs.min(255);
    let spilled_by_cap = f64::from(natural_regs.saturating_sub(255));
    if min_blocks == 0 {
        return (natural, spilled_by_cap * 4.0);
    }
    // Register file is 64K on all modeled parts; allocation granularity is
    // folded into a 95% usable fraction.
    let budget = (65_536.0 * 0.95 / f64::from(min_blocks) / f64::from(threads_per_block.max(1)))
        .floor()
        .clamp(16.0, 255.0) as u32;
    if natural <= budget {
        (natural, spilled_by_cap * 4.0)
    } else {
        let spilled = f64::from(natural - budget);
        (budget, (spilled + spilled_by_cap) * 4.0)
    }
}

/// Coalescing efficiency of loads where consecutive threads access
/// addresses `stride_bytes` apart, each loading `access_bytes`.
///
/// 1.0 when accesses are dense (stride == access size ≤ 32-byte sector);
/// degrades toward `access/32` for scattered accesses.
#[inline]
pub fn strided_coalescing(access_bytes: f64, stride_bytes: f64) -> f64 {
    if stride_bytes <= access_bytes {
        return 1.0;
    }
    // Each 32-byte sector fetched carries `access_bytes` useful bytes when
    // stride exceeds the sector size.
    let sector = 32.0;
    let useful = access_bytes.min(sector);
    let fetched = stride_bytes.min(sector).max(useful);
    (useful / fetched).clamp(useful / sector, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_objective_paths_report_the_same_time() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        let b = crate::benchmark("gemm", GpuArch::rtx_3090()).unwrap();
        let space = bat_core::TuningProblem::space(&b);
        for _ in 0..20 {
            let idx = bat_space::sample_one_valid(space, &mut rng, 100_000).unwrap();
            let cfg = space.config_at(idx);
            match (b.evaluate_pure(&cfg), b.evaluate_pure2(&cfg)) {
                (Ok(t), Ok((t2, e))) => {
                    assert_eq!(t, t2, "time drifted between objective paths");
                    assert!(e.unwrap() > 0.0);
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("paths disagree: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn launch_bounds_unset_keeps_registers() {
        assert_eq!(apply_launch_bounds(80, 256, 0), (80, 0.0));
    }

    #[test]
    fn launch_bounds_caps_and_spills() {
        let (regs, spill) = apply_launch_bounds(200, 512, 2);
        // budget = 65536*0.95/2/512 ≈ 60
        assert!(regs < 80);
        assert!(spill > 0.0);
    }

    #[test]
    fn over_255_always_spills() {
        let (regs, spill) = apply_launch_bounds(300, 64, 0);
        assert_eq!(regs, 255);
        assert_eq!(spill, 45.0 * 4.0);
    }

    #[test]
    fn coalescing_dense_is_full() {
        assert_eq!(strided_coalescing(4.0, 4.0), 1.0);
        assert_eq!(strided_coalescing(16.0, 16.0), 1.0);
    }

    #[test]
    fn coalescing_degrades_with_stride() {
        let dense = strided_coalescing(4.0, 4.0);
        let gap = strided_coalescing(4.0, 16.0);
        let scatter = strided_coalescing(4.0, 64.0);
        assert!(dense > gap);
        assert!(gap > scatter);
        assert!((scatter - 4.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn ceil_div_basics() {
        assert_eq!(ceil_div(10, 3), 4);
        assert_eq!(ceil_div(9, 3), 3);
    }
}
