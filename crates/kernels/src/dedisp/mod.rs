//! Dedispersion: brute-force incoherent dedispersion of radio telescope data.
//!
//! From the AMBER single-pulse detection pipeline (Sclocco et al.): a radio
//! pulse sweeps across frequency channels with a delay `k ≈ 4150·DM·(1/fᵢ² −
//! 1/fₕ²)`; dedispersion sums, for every trial dispersion measure (DM), the
//! input samples along that delay curve. The BAT instance uses the ARTS
//! survey parameters on the Apertif telescope: 24.4 kHz sampling, 2 048 DMs,
//! 1 536 channels.
//!
//! Tunables (Table VII): 2D block/tile shape over (samples × DMs), tile
//! stride switches (consecutive vs. block-strided per-thread samples/DMs),
//! partial unrolling of the channel loop (any divisor of 1 536), and a
//! launch-bounds hint.

pub mod exec;

use bat_gpusim::KernelModel;
use bat_space::{ConfigSpace, Param};

use crate::common::{apply_launch_bounds, ceil_div, strided_coalescing, KernelSpec};

/// Slot order of the Dedispersion space (Table VII order; the paper's table
/// lists `block_size_y` twice — the first row is evidently `block_size_x`).
pub mod slots {
    /// Thread-block width (samples).
    pub const BLOCK_SIZE_X: usize = 0;
    /// Thread-block height (DMs).
    pub const BLOCK_SIZE_Y: usize = 1;
    /// Samples per thread.
    pub const TILE_SIZE_X: usize = 2;
    /// DMs per thread.
    pub const TILE_SIZE_Y: usize = 3;
    /// 0 = consecutive samples per thread, 1 = block-strided.
    pub const TILE_STRIDE_X: usize = 4;
    /// 0 = consecutive DMs per thread, 1 = block-strided.
    pub const TILE_STRIDE_Y: usize = 5;
    /// Channel-loop unroll factor (0 = compiler decides).
    pub const LOOP_UNROLL_FACTOR_CHANNEL: usize = 6;
    /// `__launch_bounds__` min-blocks hint (0 = unset).
    pub const BLOCKS_PER_SM: usize = 7;
}

/// Decoded Dedispersion configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DedispConfig {
    /// Thread-block width (samples).
    pub block_size_x: i64,
    /// Thread-block height (DMs).
    pub block_size_y: i64,
    /// Samples per thread.
    pub tile_size_x: i64,
    /// DMs per thread.
    pub tile_size_y: i64,
    /// Sample tiling layout.
    pub tile_stride_x: i64,
    /// DM tiling layout.
    pub tile_stride_y: i64,
    /// Channel unroll (0 = auto).
    pub unroll_channel: i64,
    /// Launch-bounds hint.
    pub blocks_per_sm: i64,
}

impl DedispConfig {
    /// Decode from a space-ordered value slice.
    pub fn from_values(v: &[i64]) -> Self {
        DedispConfig {
            block_size_x: v[slots::BLOCK_SIZE_X],
            block_size_y: v[slots::BLOCK_SIZE_Y],
            tile_size_x: v[slots::TILE_SIZE_X],
            tile_size_y: v[slots::TILE_SIZE_Y],
            tile_stride_x: v[slots::TILE_STRIDE_X],
            tile_stride_y: v[slots::TILE_STRIDE_Y],
            unroll_channel: v[slots::LOOP_UNROLL_FACTOR_CHANNEL],
            blocks_per_sm: v[slots::BLOCKS_PER_SM],
        }
    }
}

/// The Dedispersion benchmark (ARTS/Apertif survey shape).
#[derive(Debug, Clone)]
pub struct DedispKernel {
    /// Frequency channels.
    pub channels: u64,
    /// Trial dispersion measures.
    pub dms: u64,
    /// Output samples per DM.
    pub samples: u64,
}

impl Default for DedispKernel {
    fn default() -> Self {
        DedispKernel {
            channels: 1536,
            dms: 2048,
            samples: 25_000,
        }
    }
}

impl DedispKernel {
    /// Create with an explicit problem shape.
    pub fn with_size(channels: u64, dms: u64, samples: u64) -> Self {
        DedispKernel {
            channels,
            dms,
            samples,
        }
    }

    /// The unroll-factor values of Table VII: 0 plus every divisor of 1536.
    pub fn unroll_values() -> Vec<i64> {
        let mut v = vec![0i64];
        for d in 1..=1536 {
            if 1536 % d == 0 {
                v.push(d);
            }
        }
        v
    }
}

impl KernelSpec for DedispKernel {
    fn name(&self) -> &'static str {
        "dedisp"
    }

    fn build_space(&self) -> ConfigSpace {
        // block_size_x: {1,2,4,8} ∪ {16n | 16n ∈ [16,512]} = 36 values.
        let mut bx = vec![1, 2, 4, 8];
        bx.extend((1..=32).map(|n| 16 * n));
        ConfigSpace::builder()
            .param(Param::new("block_size_x", bx))
            .param(Param::multiples("block_size_y", 4, 4, 128)) // 32 values
            .param(Param::int_range("tile_size_x", 1, 16))
            .param(Param::int_range("tile_size_y", 1, 16))
            .param(Param::boolean("tile_stride_x"))
            .param(Param::boolean("tile_stride_y"))
            .param(Param::new(
                "loop_unroll_factor_channel",
                Self::unroll_values(),
            ))
            .param(Param::new("blocks_per_sm", vec![0, 1, 2, 3, 4]))
            // The stride layout is meaningless for single-element tiles.
            .restrict("tile_size_x > 1 or tile_stride_x == 0")
            .restrict("tile_size_y > 1 or tile_stride_y == 0")
            .build()
            .expect("Dedispersion space is statically well-formed")
    }

    fn model(&self, config: &[i64]) -> KernelModel {
        let c = DedispConfig::from_values(config);
        let threads = (c.block_size_x * c.block_size_y) as u32;
        let x_span = (c.block_size_x * c.tile_size_x) as u64;
        let y_span = (c.block_size_y * c.tile_size_y) as u64;
        let grid = ceil_div(self.samples, x_span) * ceil_div(self.dms, y_span);
        let mut m = KernelModel::new("dedisp", grid, threads.max(1));

        let per_thread_outputs = (c.tile_size_x * c.tile_size_y) as f64;
        let nchan = self.channels as f64;

        // One load+add per channel per output, plus delay lookups.
        m.flops_per_thread = per_thread_outputs * nchan;

        // Memory model: per channel, a thread reads a register window of
        // tile_size_x samples plus the delay spread across *its own* DMs
        // (~4 samples per DM step at ARTS parameters); the block-strided DM
        // layout (tile_stride_y = 1) spaces a thread's DMs block_size_y
        // apart, widening that window. The bulk of these reads hit the
        // L1/texture path, which shares the shared-memory datapath.
        let span = 4.0
            * (c.tile_size_y as f64 - 1.0)
            * if c.tile_stride_y == 1 {
                c.block_size_y as f64
            } else {
                1.0
            };
        // Register reuse can never fetch more than one value per output per
        // channel; wide windows (strided DM layouts) degrade to that bound.
        let window = (c.tile_size_x as f64 + span).min(per_thread_outputs);
        let loads_per_thread = nchan * window.max(c.tile_size_x as f64);
        let l1_hit = if c.tile_stride_x == 1 || c.tile_size_x == 1 {
            0.93
        } else {
            0.88
        };
        m.smem_accesses_per_thread = loads_per_thread * l1_hit;
        let out_bytes = per_thread_outputs * 4.0;
        let delay_table_bytes = nchan * c.tile_size_y as f64 * 4.0 * 0.02; // cached
        m.gmem_bytes_per_thread =
            loads_per_thread * 4.0 * (1.0 - l1_hit) + out_bytes + delay_table_bytes;
        m.l2_hit_rate = 0.90;
        // Sample reads are x-contiguous; a thread owning consecutive
        // samples (stride 0) breaks warp-level coalescing, the strided
        // layout (stride 1) restores it.
        let x_coal = if c.tile_stride_x == 1 || c.tile_size_x == 1 {
            1.0
        } else {
            strided_coalescing(4.0, 4.0 * c.tile_size_x as f64).max(0.35)
        };
        m.coalescing = x_coal;
        m.gmem_transactions_per_thread = per_thread_outputs * nchan;

        // Channel-loop overhead; 0 = compiler picks a moderate unroll.
        let eff_unroll = if c.unroll_channel == 0 {
            8.0
        } else {
            c.unroll_channel as f64
        };
        m.int_ops_per_thread = per_thread_outputs * nchan * 2.0 / eff_unroll.min(16.0)
            + per_thread_outputs * nchan * 0.5;

        // Registers: output accumulators + unroll live ranges (huge unrolls
        // bloat register pressure until values spill).
        let natural_regs = (22.0 + per_thread_outputs * 1.5 + (eff_unroll.min(64.0)) * 0.75) as u32;
        let (regs, spill) =
            apply_launch_bounds(natural_regs, threads.max(1), c.blocks_per_sm as u32);
        m.regs_per_thread = regs;
        m.spill_bytes_per_thread = spill * nchan / 64.0;
        m.launch_bounds_blocks = c.blocks_per_sm as u32;

        // DM-adjacent outputs share loads; stride_y=1 groups same-delay
        // threads in a warp, improving locality a bit.
        if c.tile_stride_y == 1 {
            m.l2_hit_rate = (m.l2_hit_rate + 0.03).min(0.99);
        }

        m.ilp = per_thread_outputs.clamp(1.0, 12.0);

        m
    }

    fn source(&self, config: &[i64]) -> String {
        let c = DedispConfig::from_values(config);
        format!(
            "// AMBER-style dedispersion kernel (BAT-rs generated)\n\
             #define BLOCK_SIZE_X {}\n#define BLOCK_SIZE_Y {}\n\
             #define TILE_SIZE_X {}\n#define TILE_SIZE_Y {}\n\
             #define TILE_STRIDE_X {}\n#define TILE_STRIDE_Y {}\n\
             #define LOOP_UNROLL_FACTOR_CHANNEL {}\n#define BLOCKS_PER_SM {}\n\
             \n\
             #if BLOCKS_PER_SM > 0\n\
             __launch_bounds__(BLOCK_SIZE_X * BLOCK_SIZE_Y, BLOCKS_PER_SM)\n\
             #endif\n\
             extern \"C\" __global__ void dedispersion(const float* input,\n\
             \x20   float* output, const int* delay_table, int nsamps, int nchans,\n\
             \x20   int ndms) {{\n\
             \x20 // sum input[chan][samp + delay(dm, chan)] over channels,\n\
             \x20 // channel loop unrolled by LOOP_UNROLL_FACTOR_CHANNEL ...\n\
             }}\n",
            c.block_size_x,
            c.block_size_y,
            c.tile_size_x,
            c.tile_size_y,
            c.tile_stride_x,
            c.tile_stride_y,
            c.unroll_channel,
            c.blocks_per_sm,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinality_matches_table_vii() {
        let s = DedispKernel::default().build_space();
        assert_eq!(s.cardinality(), 123_863_040);
    }

    #[test]
    fn unroll_values_are_divisors_of_1536() {
        let v = DedispKernel::unroll_values();
        assert_eq!(v.len(), 21);
        assert_eq!(v[0], 0);
        assert!(v[1..].iter().all(|&d| 1536 % d == 0));
        assert_eq!(*v.last().unwrap(), 1536);
    }

    #[test]
    fn constrained_count_is_reported() {
        // Paper: 107 011 905. Ours: stride-relevance restrictions keep
        // 31/32 per axis -> 1152 * 31 * 31 * 21 * 5 = 116 242 560.
        let s = DedispKernel::default().build_space();
        assert_eq!(s.count_valid(), 116_242_560);
    }

    #[test]
    fn oversized_blocks_fail_at_launch_not_in_restrictions() {
        use crate::common::GpuBenchmark;
        use bat_core::{EvalFailure, TuningProblem};
        use std::sync::Arc;
        let b = GpuBenchmark::new(
            Arc::new(DedispKernel::default()),
            bat_gpusim::GpuArch::rtx_3090(),
        );
        // 512 * 128 = 65536 threads: restriction-valid, launch-invalid.
        let cfg = [512, 128, 2, 2, 0, 0, 8, 0];
        assert!(b.space().is_valid(&cfg));
        assert!(matches!(b.evaluate_pure(&cfg), Err(EvalFailure::Launch(_))));
    }

    #[test]
    fn strided_tiles_coalesce_better() {
        let k = DedispKernel::default();
        let consecutive = k.model(&[64, 8, 8, 2, 0, 0, 8, 0]);
        let strided = k.model(&[64, 8, 8, 2, 1, 0, 8, 0]);
        assert!(strided.coalescing > consecutive.coalescing);
    }

    #[test]
    fn huge_unrolls_bloat_registers() {
        let k = DedispKernel::default();
        let small = k.model(&[64, 8, 2, 2, 0, 0, 8, 0]);
        let huge = k.model(&[64, 8, 2, 2, 0, 0, 1536, 0]);
        assert!(huge.regs_per_thread > small.regs_per_thread);
    }

    #[test]
    fn models_validate_across_space_sample() {
        let k = DedispKernel::default();
        let s = k.build_space();
        let mut scratch = vec![0i64; s.num_params()];
        for idx in (0..s.cardinality()).step_by(1_000_003) {
            s.decode_into(idx, &mut scratch);
            if s.is_valid(&scratch) {
                assert_eq!(k.model(&scratch).validate(), Ok(()), "{scratch:?}");
            }
        }
    }
}
