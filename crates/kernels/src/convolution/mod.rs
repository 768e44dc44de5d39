//! 2D Convolution with adaptive tiling (van Werkhoven et al.).
//!
//! Each output pixel is a weighted sum over a `Fw × Fh` window of the input
//! image. The kernel stages a halo-extended input tile in shared memory;
//! tunables (Table V) cover the block shape, per-thread output tile,
//! shared-memory padding (to dodge bank conflicts when `block_size_x` is
//! not a multiple of the bank count) and routing loads through the
//! read-only cache.

pub mod exec;

use bat_gpusim::KernelModel;
use bat_space::{ConfigSpace, Param};

use crate::common::{apply_launch_bounds, ceil_div, KernelSpec};

/// Slot order of the Convolution space (Table V order).
pub mod slots {
    /// Thread-block width.
    pub const BLOCK_SIZE_X: usize = 0;
    /// Thread-block height.
    pub const BLOCK_SIZE_Y: usize = 1;
    /// Output pixels per thread in x.
    pub const TILE_SIZE_X: usize = 2;
    /// Output pixels per thread in y.
    pub const TILE_SIZE_Y: usize = 3;
    /// Pad shared-memory rows by one element?
    pub const USE_PADDING: usize = 4;
    /// Load input through the read-only cache?
    pub const READ_ONLY: usize = 5;
}

/// Decoded Convolution configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvolutionConfig {
    /// Thread-block width.
    pub block_size_x: i64,
    /// Thread-block height.
    pub block_size_y: i64,
    /// Outputs per thread in x.
    pub tile_size_x: i64,
    /// Outputs per thread in y.
    pub tile_size_y: i64,
    /// Shared-memory row padding.
    pub use_padding: bool,
    /// Read-only cache path.
    pub read_only: bool,
}

impl ConvolutionConfig {
    /// Decode from a space-ordered value slice.
    pub fn from_values(v: &[i64]) -> Self {
        ConvolutionConfig {
            block_size_x: v[slots::BLOCK_SIZE_X],
            block_size_y: v[slots::BLOCK_SIZE_Y],
            tile_size_x: v[slots::TILE_SIZE_X],
            tile_size_y: v[slots::TILE_SIZE_Y],
            use_padding: v[slots::USE_PADDING] != 0,
            read_only: v[slots::READ_ONLY] != 0,
        }
    }

    /// Output-tile width of one block.
    pub fn out_x(&self) -> i64 {
        self.block_size_x * self.tile_size_x
    }

    /// Output-tile height of one block.
    pub fn out_y(&self) -> i64 {
        self.block_size_y * self.tile_size_y
    }
}

/// The Convolution benchmark.
#[derive(Debug, Clone)]
pub struct ConvolutionKernel {
    /// Output image width.
    pub width: u64,
    /// Output image height.
    pub height: u64,
    /// Filter width.
    pub filter_w: u64,
    /// Filter height.
    pub filter_h: u64,
}

impl Default for ConvolutionKernel {
    fn default() -> Self {
        // The sizes used throughout the adaptive-tiling line of work.
        ConvolutionKernel {
            width: 4096,
            height: 4096,
            filter_w: 17,
            filter_h: 17,
        }
    }
}

impl ConvolutionKernel {
    /// Create with an explicit problem size.
    pub fn with_size(width: u64, height: u64, filter_w: u64, filter_h: u64) -> Self {
        ConvolutionKernel {
            width,
            height,
            filter_w,
            filter_h,
        }
    }

    fn halo_x(&self) -> i64 {
        self.filter_w as i64 - 1
    }

    fn halo_y(&self) -> i64 {
        self.filter_h as i64 - 1
    }
}

impl KernelSpec for ConvolutionKernel {
    fn name(&self) -> &'static str {
        "convolution"
    }

    fn build_space(&self) -> ConfigSpace {
        ConfigSpace::builder()
            .param(Param::new(
                "block_size_x",
                vec![1, 2, 4, 8, 16, 32, 48, 64, 80, 96, 112, 128],
            ))
            .param(Param::new("block_size_y", vec![1, 2, 4, 8, 16, 32]))
            .param(Param::int_range("tile_size_x", 1, 8))
            .param(Param::int_range("tile_size_y", 1, 8))
            .param(Param::boolean("use_padding"))
            .param(Param::boolean("read_only"))
            // Between one warp and the hardware block limit.
            .restrict("32 <= block_size_x * block_size_y <= 1024")
            // Per-thread tiles beyond ~30 outputs exhaust registers.
            .restrict("tile_size_x * tile_size_y <= 30")
            .build()
            .expect("Convolution space is statically well-formed")
    }

    fn model(&self, config: &[i64]) -> KernelModel {
        let c = ConvolutionConfig::from_values(config);
        let threads = (c.block_size_x * c.block_size_y) as u32;
        let (ox, oy) = (c.out_x(), c.out_y());
        let grid = ceil_div(self.width, ox as u64) * ceil_div(self.height, oy as u64);
        let mut m = KernelModel::new("convolution", grid, threads);

        let taps = (self.filter_w * self.filter_h) as f64;
        let outputs = (c.tile_size_x * c.tile_size_y) as f64;
        m.flops_per_thread = outputs * taps * 2.0;

        // Shared input tile (halo-extended), optionally padded by one
        // element per row to skew bank mapping.
        let tile_w = ox + self.halo_x() + i64::from(c.use_padding);
        let tile_h = oy + self.halo_y();
        m.smem_per_block = (tile_w * tile_h * 4) as u32;

        // Global traffic per block: the halo tile once + filter (cached) +
        // output writes.
        let in_bytes = (tile_w * tile_h * 4) as f64;
        let filter_bytes = taps * 4.0;
        let out_bytes = (ox * oy * 4) as f64;
        let total = in_bytes + filter_bytes + out_bytes;
        m.gmem_bytes_per_thread = total / f64::from(threads);
        // Overlapping halos between neighbouring blocks are L2-warm; the
        // filter is fully cached.
        m.l2_hit_rate = (0.35 * in_bytes + 1.0 * filter_bytes + 0.05 * out_bytes) / total;
        // Rows are loaded cooperatively by block_size_x threads.
        m.coalescing = ((c.block_size_x as f64) * 4.0 / 32.0).clamp(0.125, 1.0);
        m.gmem_transactions_per_thread = total / f64::from(threads) / 4.0;
        m.uses_readonly_cache = c.read_only;
        if c.read_only {
            // The read-only path also relieves L1/L2 pressure slightly.
            m.l2_hit_rate = (m.l2_hit_rate + 0.08).min(1.0);
        }

        // Shared traffic with register blocking (the adaptive-tiling win):
        // per filter row, a thread loads a row fragment of width
        // tile_size_x + Fw - 1 into registers and shifts it across its
        // tile_size_x outputs, so reads scale with the fragment width, not
        // with outputs × taps. tile_size_x = tile_size_y = 1 degenerates to
        // the naive taps-per-output count.
        let frag_reads = self.filter_h as f64
            * c.tile_size_y as f64
            * (c.tile_size_x as f64 + self.filter_w as f64 - 1.0);
        m.smem_accesses_per_thread = frag_reads + in_bytes / 4.0 / f64::from(threads);
        // Bank conflicts: when block_size_x is not a multiple of the bank
        // count and rows are unpadded, column accesses serialize. Padding
        // removes them. When block_size_x is a multiple of 32 the layout is
        // conflict-free either way (the paper calls this out explicitly).
        m.bank_conflict_factor = if c.block_size_x % 32 == 0 || c.use_padding {
            1.0
        } else {
            2.5
        };

        // Address arithmetic: one index update per fragment read; register
        // tiling amortizes it over the outputs sharing the fragment.
        m.int_ops_per_thread = frag_reads * 1.5 + taps;

        let natural_regs = (24.0 + outputs * 2.5) as u32;
        let (regs, spill) = apply_launch_bounds(natural_regs, threads, 0);
        m.regs_per_thread = regs;
        m.spill_bytes_per_thread = spill * taps / 8.0;

        m.ilp = outputs.clamp(1.0, 12.0);

        m
    }

    fn source(&self, config: &[i64]) -> String {
        let c = ConvolutionConfig::from_values(config);
        format!(
            "// Adaptive-tiling 2D convolution (BAT-rs generated)\n\
             #define BLOCK_SIZE_X {}\n#define BLOCK_SIZE_Y {}\n\
             #define TILE_SIZE_X {}\n#define TILE_SIZE_Y {}\n\
             #define USE_PADDING {}\n#define READ_ONLY {}\n\
             #define FILTER_W {}\n#define FILTER_H {}\n\
             \n\
             __constant__ float d_filter[FILTER_W * FILTER_H];\n\
             extern \"C\" __global__ void convolution_kernel(float* output,\n\
             \x20   const float* input, int iw, int ih) {{\n\
             \x20 __shared__ float tile[/* (BSY*TSY+FH-1) rows of\n\
             \x20     (BSX*TSX+FW-1+USE_PADDING) */];\n\
             \x20 // cooperative halo load (READ_ONLY ? __ldg : direct),\n\
             \x20 // TILE_SIZE_X x TILE_SIZE_Y accumulators per thread ...\n\
             }}\n",
            c.block_size_x,
            c.block_size_y,
            c.tile_size_x,
            c.tile_size_y,
            i64::from(c.use_padding),
            i64::from(c.read_only),
            self.filter_w,
            self.filter_h,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinality_matches_table_v() {
        let s = ConvolutionKernel::default().build_space();
        assert_eq!(s.cardinality(), 18_432);
    }

    #[test]
    fn constrained_count_is_close_to_table_viii() {
        // Paper: 9 400. Our reconstruction: 47 (bx,by) pairs in [32,1024]
        // × 49 (tx,ty) pairs ≤ 30 × 4 = 9 212 (within 2%).
        let s = ConvolutionKernel::default().build_space();
        assert_eq!(s.count_valid(), 9_212);
    }

    #[test]
    fn padding_fixes_bank_conflicts_only_off_multiples() {
        let k = ConvolutionKernel::default();
        // 48 is not a multiple of 32: padding matters.
        let unpadded = k.model(&[48, 1, 2, 2, 0, 0]);
        let padded = k.model(&[48, 1, 2, 2, 1, 0]);
        assert!(unpadded.bank_conflict_factor > padded.bank_conflict_factor);
        // 64 is a multiple of 32: padding is a no-op for conflicts.
        let m64 = k.model(&[64, 1, 2, 2, 0, 0]);
        assert_eq!(m64.bank_conflict_factor, 1.0);
    }

    #[test]
    fn bigger_tiles_cut_traffic_per_output() {
        let k = ConvolutionKernel::default();
        let per_output = |cfg: &[i64]| {
            let m = k.model(cfg);
            let c = ConvolutionConfig::from_values(cfg);
            m.gmem_bytes_per_thread / (c.tile_size_x * c.tile_size_y) as f64
        };
        assert!(per_output(&[32, 4, 4, 4, 0, 0]) < per_output(&[32, 4, 1, 1, 0, 0]));
    }

    #[test]
    fn flops_are_conserved() {
        let k = ConvolutionKernel::default();
        let total = |cfg: &[i64]| {
            let m = k.model(cfg);
            m.flops_per_thread * m.total_threads()
        };
        let exact = 4096.0 * 4096.0 * 17.0 * 17.0 * 2.0;
        for cfg in [
            [32, 4, 2, 2, 0, 1],
            [128, 8, 1, 1, 1, 0],
            [16, 2, 8, 3, 1, 1],
        ] {
            let t = total(&cfg);
            assert!((t - exact).abs() / exact < 0.05, "{cfg:?}: {t} vs {exact}");
        }
    }

    #[test]
    fn valid_models_validate_and_fit_smem_budget_on_ampere() {
        let k = ConvolutionKernel::default();
        let s = k.build_space();
        let mut scratch = vec![0i64; s.num_params()];
        for idx in (0..s.cardinality()).step_by(11) {
            s.decode_into(idx, &mut scratch);
            if s.is_valid(&scratch) {
                let m = k.model(&scratch);
                assert_eq!(m.validate(), Ok(()), "{scratch:?}");
            }
        }
    }
}
