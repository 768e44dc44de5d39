//! Expdist: Bhattacharyya-style distance between localization clouds.
//!
//! Part of a template-free particle-fusion pipeline for localization
//! microscopy (Heydarian et al., Nature Methods 2018): registration quality
//! of two particles is the double sum over all localization pairs of a
//! Gaussian kernel weighted by localization uncertainty. Quadratic in the
//! number of localizations and heavily compute-bound.
//!
//! Tunables (Table VI): 2D block/tile shape, three shared-memory staging
//! strategies, per-axis inner-loop unrolling, and an alternative "column"
//! parallelization (`use_column`) that processes the m-cloud in
//! `n_y_blocks` strips to shrink the reduction tree.

pub mod exec;

use bat_gpusim::KernelModel;
use bat_space::{ConfigSpace, Param};

use crate::common::{apply_launch_bounds, ceil_div, KernelSpec};

/// Slot order of the Expdist space (Table VI order).
pub mod slots {
    /// Thread-block width.
    pub const BLOCK_SIZE_X: usize = 0;
    /// Thread-block height.
    pub const BLOCK_SIZE_Y: usize = 1;
    /// t-localizations per thread.
    pub const TILE_SIZE_X: usize = 2;
    /// m-localizations per thread.
    pub const TILE_SIZE_Y: usize = 3;
    /// Shared-memory staging strategy (0 = none, 1 = m-tile, 2 = both).
    pub const USE_SHARED_MEM: usize = 4;
    /// Unroll factor of the x inner loop.
    pub const LOOP_UNROLL_FACTOR_X: usize = 5;
    /// Unroll factor of the y inner loop.
    pub const LOOP_UNROLL_FACTOR_Y: usize = 6;
    /// Column-strip parallelization?
    pub const USE_COLUMN: usize = 7;
    /// Fixed y-block count in column mode.
    pub const N_Y_BLOCKS: usize = 8;
}

/// Decoded Expdist configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpdistConfig {
    /// Thread-block width.
    pub block_size_x: i64,
    /// Thread-block height.
    pub block_size_y: i64,
    /// t-points per thread.
    pub tile_size_x: i64,
    /// m-points per thread.
    pub tile_size_y: i64,
    /// Shared-memory strategy.
    pub use_shared_mem: i64,
    /// x unroll factor.
    pub unroll_x: i64,
    /// y unroll factor.
    pub unroll_y: i64,
    /// Column mode.
    pub use_column: bool,
    /// y blocks in column mode.
    pub n_y_blocks: i64,
}

impl ExpdistConfig {
    /// Decode from a space-ordered value slice.
    pub fn from_values(v: &[i64]) -> Self {
        ExpdistConfig {
            block_size_x: v[slots::BLOCK_SIZE_X],
            block_size_y: v[slots::BLOCK_SIZE_Y],
            tile_size_x: v[slots::TILE_SIZE_X],
            tile_size_y: v[slots::TILE_SIZE_Y],
            use_shared_mem: v[slots::USE_SHARED_MEM],
            unroll_x: v[slots::LOOP_UNROLL_FACTOR_X],
            unroll_y: v[slots::LOOP_UNROLL_FACTOR_Y],
            use_column: v[slots::USE_COLUMN] != 0,
            n_y_blocks: v[slots::N_Y_BLOCKS],
        }
    }
}

/// FLOPs per localization pair (2D distance, uncertainty scaling, expf).
pub const FLOPS_PER_PAIR: f64 = 26.0;

/// The Expdist benchmark.
#[derive(Debug, Clone)]
pub struct ExpdistKernel {
    /// Localizations in the t (template) particle.
    pub kt: u64,
    /// Localizations in the m (moving) particle.
    pub km: u64,
}

impl Default for ExpdistKernel {
    fn default() -> Self {
        ExpdistKernel { kt: 2048, km: 2048 }
    }
}

impl ExpdistKernel {
    /// Create with explicit localization counts.
    pub fn with_size(kt: u64, km: u64) -> Self {
        ExpdistKernel { kt, km }
    }
}

impl KernelSpec for ExpdistKernel {
    fn name(&self) -> &'static str {
        "expdist"
    }

    fn build_space(&self) -> ConfigSpace {
        let nyb: Vec<i64> = (0..=10).map(|e| 1i64 << e).collect(); // 1..1024
        ConfigSpace::builder()
            .param(Param::pow2("block_size_x", 32, 1024))
            .param(Param::pow2("block_size_y", 1, 32))
            .param(Param::int_range("tile_size_x", 1, 8))
            .param(Param::int_range("tile_size_y", 1, 8))
            .param(Param::new("use_shared_mem", vec![0, 1, 2]))
            .param(Param::int_range("loop_unroll_factor_x", 1, 8))
            .param(Param::int_range("loop_unroll_factor_y", 1, 8))
            .param(Param::boolean("use_column"))
            .param(Param::new("n_y_blocks", nyb))
            // Hardware block limit.
            .restrict("block_size_x * block_size_y <= 1024")
            // Partial unrolling must evenly divide the per-thread tile.
            .restrict("tile_size_x % loop_unroll_factor_x == 0")
            .restrict("tile_size_y % loop_unroll_factor_y == 0")
            // n_y_blocks only exists in the column variant.
            .restrict("use_column == 1 or n_y_blocks == 1")
            .build()
            .expect("Expdist space is statically well-formed")
    }

    fn model(&self, config: &[i64]) -> KernelModel {
        let c = ExpdistConfig::from_values(config);
        let threads = (c.block_size_x * c.block_size_y) as u32;
        let x_blocks = ceil_div(self.kt, (c.block_size_x * c.tile_size_x) as u64);
        let y_span = (c.block_size_y * c.tile_size_y) as u64; // m-points per block pass
        let y_blocks = if c.use_column {
            c.n_y_blocks as u64
        } else {
            ceil_div(self.km, y_span)
        };
        let grid = x_blocks * y_blocks;
        let mut m = KernelModel::new("expdist", grid, threads.max(1));

        // In column mode each block strides over its share of the m-cloud.
        let j_iters = if c.use_column {
            ceil_div(ceil_div(self.km, c.n_y_blocks as u64), y_span).max(1)
        } else {
            1
        };
        let pairs_per_thread = (c.tile_size_x * c.tile_size_y) as f64 * j_iters as f64;
        m.flops_per_thread = pairs_per_thread * FLOPS_PER_PAIR;

        // Localizations are (x, y, σ²) records; model 16 B aligned.
        let point_bytes = 16.0;
        let t_tile = (c.block_size_x * c.tile_size_x) as f64 * point_bytes;
        let m_tile = y_span as f64 * point_bytes * j_iters as f64;
        let (smem, m_l2, t_l2) = match c.use_shared_mem {
            0 => (0.0, 0.90, 0.90), // direct broadcast reads, cache-served
            1 => ((y_span as f64) * point_bytes, 0.20, 0.90),
            2 => ((y_span as f64) * point_bytes + t_tile, 0.20, 0.20),
            _ => unreachable!("use_shared_mem out of range"),
        };
        m.smem_per_block = smem as u32;
        if c.use_shared_mem >= 1 {
            // Each pair reads one staged m-point (4 words).
            m.smem_accesses_per_thread = pairs_per_thread * 4.0;
        }
        if c.use_shared_mem == 2 {
            m.smem_accesses_per_thread += pairs_per_thread * 4.0;
        }

        // Partial-sum reduction: block tree in shared memory + one global
        // scratch write per block (second-stage reduction kernel is folded
        // into launch overhead).
        m.smem_accesses_per_thread += (f64::from(threads).log2().max(1.0)) * 2.0;
        let reduction_bytes = 8.0; // one double per block
        let total_bytes = t_tile + m_tile + reduction_bytes;
        m.gmem_bytes_per_thread = total_bytes / f64::from(threads);
        m.l2_hit_rate = (t_tile * t_l2 + m_tile * m_l2) / total_bytes;
        m.coalescing = 1.0; // SoA point records, cooperative loads
        m.gmem_transactions_per_thread = total_bytes / f64::from(threads) / 16.0;

        // expf maps to SFU ops: fewer per-cycle than FMA; fold into a mild
        // divergence-style penalty.
        m.divergence_factor = 1.10;

        let u = (c.unroll_x * c.unroll_y) as f64;
        m.int_ops_per_thread = pairs_per_thread * 2.0 / u.max(1.0) + j_iters as f64 * 8.0;

        let natural_regs = (26.0
            + (c.tile_size_x * c.tile_size_y) as f64 * 2.0
            + 2.0 * (c.unroll_x + c.unroll_y) as f64) as u32;
        let (regs, spill) = apply_launch_bounds(natural_regs, threads, 0);
        m.regs_per_thread = regs;
        m.spill_bytes_per_thread = spill * j_iters as f64;

        m.ilp = ((c.tile_size_x * c.tile_size_y) as f64 * (1.0 + u / 16.0)).clamp(1.0, 14.0);

        m
    }

    fn source(&self, config: &[i64]) -> String {
        let c = ExpdistConfig::from_values(config);
        format!(
            "// Expdist registration-quality kernel (BAT-rs generated)\n\
             #define BLOCK_SIZE_X {}\n#define BLOCK_SIZE_Y {}\n\
             #define TILE_SIZE_X {}\n#define TILE_SIZE_Y {}\n\
             #define USE_SHARED_MEM {}\n#define LOOP_UNROLL_FACTOR_X {}\n\
             #define LOOP_UNROLL_FACTOR_Y {}\n#define USE_COLUMN {}\n\
             #define N_Y_BLOCKS {}\n\
             \n\
             extern \"C\" __global__ void ExpDist(const float* A, const float* B,\n\
             \x20   int m, int n, const float* scale_A, const float* scale_B,\n\
             \x20   double* d_cost) {{\n\
             \x20 // double sum over pairs of expf(-dist2 / (sA + sB));\n\
             \x20 // USE_COLUMN strips the B cloud over N_Y_BLOCKS blocks ...\n\
             }}\n",
            c.block_size_x,
            c.block_size_y,
            c.tile_size_x,
            c.tile_size_y,
            c.use_shared_mem,
            c.unroll_x,
            c.unroll_y,
            i64::from(c.use_column),
            c.n_y_blocks,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinality_matches_table_vi() {
        let s = ExpdistKernel::default().build_space();
        assert_eq!(s.cardinality(), 9_732_096);
    }

    #[test]
    fn constrained_count_is_reported() {
        // Paper: 540 000 (restrictions not printed). Our reconstruction:
        // 21 (bx,by) × 20 (tx,ux) × 20 (ty,uy) × 3 × 12 (col,nyb) = 302 400.
        let s = ExpdistKernel::default().build_space();
        assert_eq!(s.count_valid(), 302_400);
    }

    #[test]
    fn pair_work_is_conserved_in_row_mode() {
        let k = ExpdistKernel::default();
        let total_pairs = |cfg: &[i64]| {
            let m = k.model(cfg);
            m.flops_per_thread * m.total_threads() / FLOPS_PER_PAIR
        };
        let exact = 2048.0 * 2048.0;
        for cfg in [
            [32, 1, 1, 1, 0, 1, 1, 0, 1],
            [64, 4, 2, 2, 1, 2, 2, 0, 1],
            [128, 8, 4, 1, 2, 4, 1, 0, 1],
        ] {
            let t = total_pairs(&cfg);
            assert!((t - exact).abs() / exact < 0.05, "{cfg:?}: {t}");
        }
    }

    #[test]
    fn column_mode_shrinks_grid() {
        let k = ExpdistKernel::default();
        let row = k.model(&[64, 4, 2, 2, 1, 1, 1, 0, 1]);
        let col = k.model(&[64, 4, 2, 2, 1, 1, 1, 1, 4]);
        assert!(col.grid_blocks < row.grid_blocks);
        // Same total pair work regardless.
        let pairs = |m: &bat_gpusim::KernelModel| m.flops_per_thread * m.total_threads();
        let rel = (pairs(&col) - pairs(&row)).abs() / pairs(&row);
        assert!(rel < 0.05, "pair work drifted by {rel}");
    }

    #[test]
    fn staging_moves_traffic_from_l2_to_smem() {
        let k = ExpdistKernel::default();
        let direct = k.model(&[128, 2, 2, 2, 0, 1, 1, 0, 1]);
        let staged = k.model(&[128, 2, 2, 2, 1, 1, 1, 0, 1]);
        assert_eq!(direct.smem_per_block, 0);
        assert!(staged.smem_per_block > 0);
        assert!(staged.smem_accesses_per_thread > direct.smem_accesses_per_thread);
    }

    #[test]
    fn models_validate_across_space_sample() {
        let k = ExpdistKernel::default();
        let s = k.build_space();
        let mut scratch = vec![0i64; s.num_params()];
        let mut n = 0;
        for idx in (0..s.cardinality()).step_by(4_099) {
            s.decode_into(idx, &mut scratch);
            if s.is_valid(&scratch) {
                assert_eq!(k.model(&scratch).validate(), Ok(()), "{scratch:?}");
                n += 1;
            }
        }
        assert!(n > 20);
    }
}
