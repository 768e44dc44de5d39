//! N-body: all-pairs gravitational force computation.
//!
//! The BAT N-body kernel is Petrovič et al.'s KTT port of the CUDA SDK
//! sample (Table II of the paper): a quadratic scheme where every iteration
//! computes forces between all pairs of bodies. Tunables cover thread-block
//! size, outer work-per-thread, partial unrolling of the two inner-loop
//! variants, AoS vs. SoA input layout, shared-memory tiling of bodies and
//! the vector width of body loads.

pub mod exec;

use bat_gpusim::KernelModel;
use bat_space::{ConfigSpace, Param};

use crate::common::{apply_launch_bounds, ceil_div, KernelSpec};

/// Slot order of the N-body space (Table II order).
pub mod slots {
    /// Threads per block.
    pub const BLOCK_SIZE: usize = 0;
    /// Bodies computed per thread.
    pub const OUTER_UNROLL_FACTOR: usize = 1;
    /// Partial unroll of the global-memory inner loop.
    pub const INNER_UNROLL_FACTOR1: usize = 2;
    /// Partial unroll of the shared-memory inner loop.
    pub const INNER_UNROLL_FACTOR2: usize = 3;
    /// Structure-of-arrays input layout?
    pub const USE_SOA: usize = 4;
    /// Stage body tiles in shared memory?
    pub const LOCAL_MEM: usize = 5;
    /// Elements per load instruction (1/2/4).
    pub const VECTOR_TYPE: usize = 6;
}

/// Decoded N-body configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NbodyConfig {
    /// Threads per block.
    pub block_size: i64,
    /// Bodies per thread.
    pub outer_unroll: i64,
    /// Unroll factor of the global-loop variant (0 = loop not unrolled).
    pub inner_unroll1: i64,
    /// Unroll factor of the shared-memory-loop variant.
    pub inner_unroll2: i64,
    /// SoA layout.
    pub use_soa: bool,
    /// Shared-memory tiling.
    pub local_mem: bool,
    /// Load vector width.
    pub vector_type: i64,
}

impl NbodyConfig {
    /// Decode from a space-ordered value slice.
    pub fn from_values(v: &[i64]) -> Self {
        NbodyConfig {
            block_size: v[slots::BLOCK_SIZE],
            outer_unroll: v[slots::OUTER_UNROLL_FACTOR],
            inner_unroll1: v[slots::INNER_UNROLL_FACTOR1],
            inner_unroll2: v[slots::INNER_UNROLL_FACTOR2],
            use_soa: v[slots::USE_SOA] != 0,
            local_mem: v[slots::LOCAL_MEM] != 0,
            vector_type: v[slots::VECTOR_TYPE],
        }
    }
}

/// The N-body benchmark.
#[derive(Debug, Clone)]
pub struct NbodyKernel {
    /// Number of bodies.
    pub n: u64,
}

impl Default for NbodyKernel {
    fn default() -> Self {
        NbodyKernel { n: 131_072 }
    }
}

/// FLOPs per body-body interaction (distances, rsqrt, force accumulation).
pub const FLOPS_PER_INTERACTION: f64 = 20.0;

impl KernelSpec for NbodyKernel {
    fn name(&self) -> &'static str {
        "nbody"
    }

    fn build_space(&self) -> ConfigSpace {
        ConfigSpace::builder()
            .param(Param::pow2("block_size", 64, 512))
            .param(Param::new("outer_unroll_factor", vec![1, 2, 4, 8]))
            .param(Param::new(
                "inner_unroll_factor1",
                vec![0, 1, 2, 4, 8, 16, 32],
            ))
            .param(Param::new(
                "inner_unroll_factor2",
                vec![0, 1, 2, 4, 8, 16, 32],
            ))
            .param(Param::boolean("use_soa"))
            .param(Param::boolean("local_mem"))
            .param(Param::new("vector_type", vec![1, 2, 4]))
            // The second inner loop only exists in the shared-memory code
            // path; its unroll factor is meaningless without LOCAL_MEM.
            .restrict("inner_unroll_factor2 == 0 or local_mem == 1")
            // AoS bodies are float4; scalar/short-vector loads of an AoS
            // stream are only generated for SoA layouts.
            .restrict("vector_type == 4 or use_soa == 1")
            .build()
            .expect("N-body space is statically well-formed")
    }

    fn model(&self, config: &[i64]) -> KernelModel {
        let c = NbodyConfig::from_values(config);
        let threads = c.block_size as u32;
        let bodies_per_block = (c.block_size * c.outer_unroll) as u64;
        let grid = ceil_div(self.n, bodies_per_block);
        let mut m = KernelModel::new("nbody", grid, threads);

        let n = self.n as f64;
        let ou = c.outer_unroll as f64;

        m.flops_per_thread = FLOPS_PER_INTERACTION * n * ou;

        // Effective unroll of the hot inner loop (0 = compiler decides; the
        // CUDA compiler usually unrolls the small-trip-count loop by ~4).
        let active_unroll = if c.local_mem {
            c.inner_unroll2
        } else {
            c.inner_unroll1
        };
        let eff_unroll = if active_unroll == 0 {
            4.0
        } else {
            active_unroll as f64
        };

        // Registers: per-body accumulators (ax, ay, az) + position per outer
        // body, plus unroll live ranges and vector load temporaries.
        let natural_regs = (26.0 + ou * 7.0 + eff_unroll * 1.5 + c.vector_type as f64) as u32;
        let (regs, spill) = apply_launch_bounds(natural_regs, threads, 0);
        m.regs_per_thread = regs;
        m.spill_bytes_per_thread = spill * (n / 64.0);

        // Shared memory: one tile of block_size bodies (float4 = 16 B each).
        if c.local_mem {
            m.smem_per_block = (c.block_size * 16) as u32;
            // Each interaction reads one body (4 floats) from the tile.
            m.smem_accesses_per_thread = n * ou * 4.0;
            // Staging writes: each thread stores its share of each tile.
            m.smem_accesses_per_thread += (n / c.block_size as f64) * 4.0;
            m.bank_conflict_factor = 1.0; // broadcast reads are conflict-free
        }

        // Global traffic. With shared-memory tiling each block streams the
        // body array once per tile pass (cooperative, coalesced). Without
        // it, every thread walks the whole body array; the resulting
        // broadcast is served almost entirely by L2/read-only cache.
        let body_bytes = 16.0; // float4 or 4 SoA floats
        let (bytes_per_thread, l2_hit, coalescing) = if c.local_mem {
            let per_block = n * body_bytes;
            let coal = if c.use_soa {
                1.0
            } else {
                // AoS tile staging: efficiency depends on vector width.
                (c.vector_type as f64 * 4.0 / 16.0).clamp(0.25, 1.0)
            };
            (per_block / f64::from(threads), 0.2, coal)
        } else {
            let per_thread = n * body_bytes;
            let coal = if c.use_soa {
                1.0
            } else {
                (c.vector_type as f64 * 4.0 / 16.0).clamp(0.25, 1.0)
            };
            (per_thread, 0.97, coal)
        };
        m.gmem_bytes_per_thread = bytes_per_thread + ou * body_bytes * 2.0; // own body + force writeback
        m.l2_hit_rate = l2_hit;
        m.coalescing = coalescing;
        m.gmem_transactions_per_thread = bytes_per_thread / (c.vector_type as f64 * 4.0);

        // Loop overhead shrinks with unrolling.
        m.int_ops_per_thread = (n / eff_unroll) * 2.0 + n * 0.25;

        // ILP from outer bodies (independent accumulators) and unrolling.
        m.ilp = (ou * (1.0 + eff_unroll / 8.0)).clamp(1.0, 16.0);

        m
    }

    fn source(&self, config: &[i64]) -> String {
        let c = NbodyConfig::from_values(config);
        format!(
            "// KTT-style tunable N-body kernel (BAT-rs generated)\n\
             #define BLOCK_SIZE {}\n#define OUTER_UNROLL_FACTOR {}\n\
             #define INNER_UNROLL_FACTOR1 {}\n#define INNER_UNROLL_FACTOR2 {}\n\
             #define USE_SOA {}\n#define LOCAL_MEM {}\n#define VECTOR_TYPE {}\n\
             \n\
             extern \"C\" __global__ void nbody_kernel(int n, float dt,\n\
             \x20   const float4* posMass, float4* accel) {{\n\
             #if LOCAL_MEM == 1\n  __shared__ float4 tile[BLOCK_SIZE];\n#endif\n\
             \x20 // OUTER_UNROLL_FACTOR bodies per thread; inner loop over all\n\
             \x20 // bodies, unrolled by INNER_UNROLL_FACTOR1/2 per code path ...\n\
             }}\n",
            c.block_size,
            c.outer_unroll,
            c.inner_unroll1,
            c.inner_unroll2,
            i64::from(c.use_soa),
            i64::from(c.local_mem),
            c.vector_type,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinality_matches_table_ii() {
        let s = NbodyKernel::default().build_space();
        assert_eq!(s.cardinality(), 9_408);
    }

    #[test]
    fn constrained_cardinality_is_reported() {
        // The paper reports 1 568 (Table VIII) for KTT's restriction set,
        // which is not printed in the paper. Our physically-motivated
        // reconstruction keeps 3 584 configurations; see EXPERIMENTS.md.
        let s = NbodyKernel::default().build_space();
        assert_eq!(s.count_valid(), 3_584);
    }

    #[test]
    fn flops_conserved_across_configs() {
        let k = NbodyKernel::default();
        let total = |cfg: &[i64]| {
            let m = k.model(cfg);
            m.flops_per_thread * m.total_threads()
        };
        let a = total(&[128, 1, 0, 0, 1, 0, 1]);
        let b = total(&[512, 8, 0, 16, 1, 1, 4]);
        assert_eq!(a, b);
        assert_eq!(a, FLOPS_PER_INTERACTION * (131_072.0f64).powi(2));
    }

    #[test]
    fn aos_scalar_loads_coalesce_poorly() {
        let k = NbodyKernel::default();
        // AoS (use_soa=0) requires vector_type==4 per restrictions; compare
        // the SoA scalar variant vs AoS float4 variant instead.
        let soa = k.model(&[256, 2, 4, 0, 1, 0, 1]);
        let aos4 = k.model(&[256, 2, 4, 0, 0, 0, 4]);
        assert!(soa.coalescing >= aos4.coalescing);
    }

    #[test]
    fn local_mem_reduces_dram_pressure() {
        let k = NbodyKernel::default();
        let tiled = k.model(&[256, 2, 0, 4, 1, 1, 1]);
        let direct = k.model(&[256, 2, 4, 0, 1, 0, 1]);
        let dram = |m: &bat_gpusim::KernelModel| {
            m.gmem_bytes_per_thread * (1.0 - m.l2_hit_rate) * m.total_threads()
        };
        assert!(dram(&tiled) < dram(&direct) * 1.5);
        assert!(tiled.smem_accesses_per_thread > 0.0);
        assert_eq!(direct.smem_accesses_per_thread, 0.0);
    }

    #[test]
    fn models_validate_across_space_sample() {
        let k = NbodyKernel::default();
        let s = k.build_space();
        let mut scratch = vec![0i64; s.num_params()];
        for idx in (0..s.cardinality()).step_by(31) {
            s.decode_into(idx, &mut scratch);
            if s.is_valid(&scratch) {
                assert_eq!(k.model(&scratch).validate(), Ok(()), "{scratch:?}");
            }
        }
    }

    #[test]
    fn source_embeds_parameters() {
        let src = NbodyKernel::default().source(&[128, 2, 8, 0, 1, 0, 2]);
        assert!(src.contains("#define BLOCK_SIZE 128"));
        assert!(src.contains("#define VECTOR_TYPE 2"));
    }
}
