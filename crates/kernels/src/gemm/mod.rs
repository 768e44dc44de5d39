//! GEMM: generalized dense matrix-matrix multiplication, `C = αA·B + βC`.
//!
//! The BAT GEMM kernel is CLBlast's tunable `xgemm` (Nugteren, IWOCL'18).
//! Table I of the paper lists ten tunable parameters; the restriction set is
//! CLBlast's, with the K-loop parameters fixed at `KWG = 32`, `KWI = 2`
//! (folding them in reproduces the paper's constrained cardinality of
//! **17 956** exactly — asserted in this module's tests).

pub mod exec;

use bat_gpusim::KernelModel;
use bat_space::{ConfigSpace, Param};

use crate::common::{apply_launch_bounds, ceil_div, KernelSpec};

/// K-loop blocking factor folded into the restriction set.
pub const KWG: i64 = 32;
/// K-loop unroll factor (fixed, as in the paper's space).
pub const KWI: i64 = 2;

/// Slot order of the GEMM space (Table I order).
pub mod slots {
    /// Per-block tile size in M.
    pub const MWG: usize = 0;
    /// Per-block tile size in N.
    pub const NWG: usize = 1;
    /// Threads per block in M.
    pub const MDIMC: usize = 2;
    /// Threads per block in N.
    pub const NDIMC: usize = 3;
    /// Re-shaped thread dimension for loading A into shared memory.
    pub const MDIMA: usize = 4;
    /// Re-shaped thread dimension for loading B into shared memory.
    pub const NDIMB: usize = 5;
    /// Vector width for loads/stores of A / C columns.
    pub const VWM: usize = 6;
    /// Vector width for loads/stores of B.
    pub const VWN: usize = 7;
    /// Stage A in shared memory?
    pub const SA: usize = 8;
    /// Stage B in shared memory?
    pub const SB: usize = 9;
}

/// Decoded GEMM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmConfig {
    /// Per-block tile in M.
    pub mwg: i64,
    /// Per-block tile in N.
    pub nwg: i64,
    /// Thread-block dimension in M.
    pub mdimc: i64,
    /// Thread-block dimension in N.
    pub ndimc: i64,
    /// A-load thread reshaping.
    pub mdima: i64,
    /// B-load thread reshaping.
    pub ndimb: i64,
    /// Vector width (A/C).
    pub vwm: i64,
    /// Vector width (B).
    pub vwn: i64,
    /// Stage A in shared memory.
    pub sa: bool,
    /// Stage B in shared memory.
    pub sb: bool,
}

impl GemmConfig {
    /// Decode from a space-ordered value slice.
    pub fn from_values(v: &[i64]) -> Self {
        GemmConfig {
            mwg: v[slots::MWG],
            nwg: v[slots::NWG],
            mdimc: v[slots::MDIMC],
            ndimc: v[slots::NDIMC],
            mdima: v[slots::MDIMA],
            ndimb: v[slots::NDIMB],
            vwm: v[slots::VWM],
            vwn: v[slots::VWN],
            sa: v[slots::SA] != 0,
            sb: v[slots::SB] != 0,
        }
    }

    /// Threads per block.
    pub fn threads(&self) -> i64 {
        self.mdimc * self.ndimc
    }

    /// Work per thread in M (integral under the restriction set).
    pub fn wpt_m(&self) -> i64 {
        self.mwg / self.mdimc
    }

    /// Work per thread in N.
    pub fn wpt_n(&self) -> i64 {
        self.nwg / self.ndimc
    }
}

/// The GEMM benchmark: problem size plus the Table I space.
#[derive(Debug, Clone)]
pub struct GemmKernel {
    /// Rows of A / C.
    pub m: u64,
    /// Columns of B / C.
    pub n: u64,
    /// Inner dimension.
    pub k: u64,
}

impl Default for GemmKernel {
    fn default() -> Self {
        // Large square problem, as used for CLBlast tuning.
        GemmKernel {
            m: 2048,
            n: 2048,
            k: 2048,
        }
    }
}

impl GemmKernel {
    /// Create with an explicit problem size.
    pub fn with_size(m: u64, n: u64, k: u64) -> Self {
        GemmKernel { m, n, k }
    }
}

impl KernelSpec for GemmKernel {
    fn name(&self) -> &'static str {
        "gemm"
    }

    fn build_space(&self) -> ConfigSpace {
        ConfigSpace::builder()
            .param(Param::pow2("MWG", 16, 128))
            .param(Param::pow2("NWG", 16, 128))
            .param(Param::new("MDIMC", vec![8, 16, 32]))
            .param(Param::new("NDIMC", vec![8, 16, 32]))
            .param(Param::new("MDIMA", vec![8, 16, 32]))
            .param(Param::new("NDIMB", vec![8, 16, 32]))
            .param(Param::new("VWM", vec![1, 2, 4, 8]))
            .param(Param::new("VWN", vec![1, 2, 4, 8]))
            .param(Param::boolean("SA"))
            .param(Param::boolean("SB"))
            // CLBlast xgemm restrictions with KWG=32, KWI=2 folded in.
            .restrict("MWG % (MDIMC * VWM) == 0")
            .restrict("NWG % (NDIMC * VWN) == 0")
            .restrict("MWG % (MDIMA * VWM) == 0")
            .restrict("NWG % (NDIMB * VWN) == 0")
            .restrict("32 % ((MDIMC * NDIMC) / MDIMA) == 0")
            .restrict("32 % ((MDIMC * NDIMC) / NDIMB) == 0")
            .build()
            .expect("GEMM space is statically well-formed")
    }

    fn model(&self, config: &[i64]) -> KernelModel {
        let c = GemmConfig::from_values(config);
        let threads = c.threads() as u32;
        let grid = ceil_div(self.m, c.mwg as u64) * ceil_div(self.n, c.nwg as u64);
        let mut m = KernelModel::new("gemm", grid, threads);

        let wpt_m = c.wpt_m() as f64;
        let wpt_n = c.wpt_n() as f64;
        let k = self.k as f64;

        // FMA per output element per K step.
        m.flops_per_thread = 2.0 * k * wpt_m * wpt_n;

        // Registers: accumulator tile + A/B fragments + bookkeeping. Vector
        // loads widen the fragment registers slightly.
        let natural_regs =
            24.0 + wpt_m * wpt_n + 2.0 * (wpt_m + wpt_n) + 0.5 * (c.vwm + c.vwn) as f64;
        let (regs, spill) = apply_launch_bounds(natural_regs.round() as u32, threads, 0);
        m.regs_per_thread = regs;
        // Spilled accumulators are touched every K-iteration.
        m.spill_bytes_per_thread = spill * (k / KWG as f64);

        m.smem_per_block =
            ((c.sa as i64) * KWG * c.mwg * 4 + (c.sb as i64) * KWG * c.nwg * 4) as u32;

        // Global traffic per block. Staged operands are read once per block;
        // direct (unstaged) reads are replicated across the other thread
        // dimension but mostly hit L2.
        let a_bytes = k * c.mwg as f64 * 4.0 * if c.sa { 1.0 } else { c.ndimc as f64 };
        let b_bytes = k * c.nwg as f64 * 4.0 * if c.sb { 1.0 } else { c.mdimc as f64 };
        let c_bytes = (c.mwg * c.nwg) as f64 * 4.0 * 2.0; // read-modify-write (β≠0)
        let total_bytes = a_bytes + b_bytes + c_bytes;
        m.gmem_bytes_per_thread = total_bytes / f64::from(threads);

        // Coalescing: staged loads are cooperative and fully coalesced;
        // direct loads depend on the vector width.
        let direct_coal_a = ((c.vwm as f64) * 4.0 / 16.0).clamp(0.55, 1.0);
        let direct_coal_b = ((c.vwn as f64) * 4.0 / 16.0).clamp(0.55, 1.0);
        let coal_a = if c.sa { 1.0 } else { direct_coal_a };
        let coal_b = if c.sb { 1.0 } else { direct_coal_b };
        m.coalescing = (a_bytes * coal_a + b_bytes * coal_b + c_bytes * 1.0) / total_bytes;

        // L2: replicated direct reads have strong temporal locality.
        let l2_a = if c.sa { 0.15 } else { 0.92 };
        let l2_b = if c.sb { 0.15 } else { 0.92 };
        m.l2_hit_rate = (a_bytes * l2_a + b_bytes * l2_b + c_bytes * 0.10) / total_bytes;

        // Shared-memory traffic: every K step reads the fragments from the
        // staged tiles, plus the cooperative stores that fill them.
        let smem_reads = k * (wpt_m * f64::from(c.sa as u8) + wpt_n * f64::from(c.sb as u8));
        let smem_writes = k
            * ((c.mwg as f64 / f64::from(threads)) * f64::from(c.sa as u8)
                + (c.nwg as f64 / f64::from(threads)) * f64::from(c.sb as u8));
        m.smem_accesses_per_thread = smem_reads + smem_writes;
        // CLBlast's layout is conflict-free for power-of-two shapes except
        // narrow staging tiles written with wide vectors.
        m.bank_conflict_factor =
            if (c.sa && c.vwm == 8 && c.mdima == 8) || (c.sb && c.vwn == 8 && c.ndimb == 8) {
                1.5
            } else {
                1.0
            };

        // Loop overhead: K/KWI iterations of pointer bumps and branches.
        m.int_ops_per_thread = (k / KWI as f64) * 4.0 + k * 0.5;

        // Independent accumulators give ILP; cap at a realistic window.
        m.ilp = (wpt_m * wpt_n).clamp(1.0, 16.0);

        m
    }

    fn source(&self, config: &[i64]) -> String {
        let c = GemmConfig::from_values(config);
        format!(
            "// CLBlast-style tunable SGEMM (BAT-rs generated)\n\
             #define MWG {}\n#define NWG {}\n#define KWG {KWG}\n\
             #define MDIMC {}\n#define NDIMC {}\n#define MDIMA {}\n#define NDIMB {}\n\
             #define VWM {}\n#define VWN {}\n#define KWI {KWI}\n\
             #define SA {}\n#define SB {}\n\
             \n\
             extern \"C\" __global__ void xgemm(const int kSizeM, const int kSizeN,\n\
             \x20                               const int kSizeK, const float alpha,\n\
             \x20                               const float beta, const float* restrict agm,\n\
             \x20                               const float* restrict bgm, float* cgm) {{\n\
             #if SA == 1\n  __shared__ float alm[KWG * MWG];\n#endif\n\
             #if SB == 1\n  __shared__ float blm[KWG * NWG];\n#endif\n\
             \x20 float cpm[MWG / MDIMC][NWG / NDIMC];\n\
             \x20 // ... K-loop in steps of KWG, unrolled by KWI,\n\
             \x20 // vector loads of width VWM/VWN, MDIMA/NDIMB staging shape ...\n\
             }}\n",
            c.mwg,
            c.nwg,
            c.mdimc,
            c.ndimc,
            c.mdima,
            c.ndimb,
            c.vwm,
            c.vwn,
            i64::from(c.sa),
            i64::from(c.sb),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinality_matches_table_i() {
        let s = GemmKernel::default().build_space();
        assert_eq!(s.cardinality(), 82_944);
    }

    #[test]
    fn constrained_cardinality_matches_table_viii_exactly() {
        let s = GemmKernel::default().build_space();
        assert_eq!(
            s.count_valid(),
            17_956,
            "paper Table VIII: GEMM constrained"
        );
    }

    #[test]
    fn factored_count_agrees_with_brute_force() {
        let s = GemmKernel::default().build_space();
        assert_eq!(s.count_valid(), s.count_valid_brute());
    }

    #[test]
    fn model_respects_work_partitioning() {
        let g = GemmKernel::default();
        let cfg = [64, 64, 16, 16, 16, 16, 2, 2, 1, 1];
        let s = g.build_space();
        assert!(s.is_valid(&cfg));
        let m = g.model(&cfg);
        assert_eq!(m.threads_per_block, 256);
        assert_eq!(m.grid_blocks, (2048 / 64) * (2048 / 64));
        // 4x4 outputs per thread, 2 flops per K step each.
        assert_eq!(m.flops_per_thread, 2.0 * 2048.0 * 4.0 * 4.0);
        assert_eq!(m.smem_per_block, (32 * 64 * 4 * 2) as u32);
    }

    #[test]
    fn staging_reduces_dram_traffic() {
        let g = GemmKernel::default();
        let staged = g.model(&[64, 64, 16, 16, 16, 16, 2, 2, 1, 1]);
        let direct = g.model(&[64, 64, 16, 16, 16, 16, 2, 2, 0, 0]);
        let staged_dram = staged.gmem_bytes_per_thread * (1.0 - staged.l2_hit_rate);
        let direct_dram = direct.gmem_bytes_per_thread * (1.0 - direct.l2_hit_rate);
        assert!(staged_dram < direct_dram);
    }

    #[test]
    fn flops_are_conserved_across_partitionings() {
        // Total FLOPs must not depend on the configuration.
        let g = GemmKernel::default();
        let s = g.build_space();
        let total = |cfg: &[i64]| {
            let m = g.model(cfg);
            m.flops_per_thread * m.total_threads()
        };
        let a = [64, 64, 16, 16, 16, 16, 2, 2, 1, 1];
        let b = [128, 32, 8, 8, 8, 8, 1, 1, 0, 1];
        assert!(s.is_valid(&a) && s.is_valid(&b));
        assert_eq!(total(&a), total(&b));
        assert_eq!(total(&a), 2.0 * 2048.0f64.powi(3));
    }

    #[test]
    fn source_embeds_parameters() {
        let g = GemmKernel::default();
        let src = g.source(&[64, 32, 16, 8, 16, 8, 2, 4, 1, 0]);
        assert!(src.contains("#define MWG 64"));
        assert!(src.contains("#define VWN 4"));
        assert!(src.contains("#define SB 0"));
    }

    #[test]
    fn all_valid_models_validate() {
        let g = GemmKernel::default();
        let s = g.build_space();
        let mut scratch = vec![0i64; s.num_params()];
        let mut checked = 0;
        for idx in (0..s.cardinality()).step_by(97) {
            s.decode_into(idx, &mut scratch);
            if s.is_valid(&scratch) {
                let m = g.model(&scratch);
                assert_eq!(m.validate(), Ok(()), "config {scratch:?}");
                checked += 1;
            }
        }
        assert!(checked > 100);
    }
}
