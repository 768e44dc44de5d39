//! Extending the suite: define a *new* tunable kernel against the shared
//! problem interface and tune it with stock tuners — the integration story
//! the paper's §I promises ("easy integration of new autotuners and
//! benchmarks by defining a shared problem interface").
//!
//! The example adds a tunable AXPY-like streaming kernel.
//!
//! ```sh
//! cargo run --release --example custom_kernel
//! ```

use std::sync::Arc;

use bat::kernels::GpuBenchmark;
use bat::prelude::*;
use bat::space::Param;

/// A tunable SAXPY: `y = a*x + y` over `n` elements.
struct SaxpyKernel {
    n: u64,
}

impl KernelSpec for SaxpyKernel {
    fn name(&self) -> &'static str {
        "saxpy"
    }

    fn build_space(&self) -> ConfigSpace {
        ConfigSpace::builder()
            .param(Param::pow2("block_size", 32, 1024))
            .param(Param::new("elements_per_thread", vec![1, 2, 4, 8, 16]))
            .param(Param::new("vector_width", vec![1, 2, 4]))
            // A thread's elements are loaded vector_width at a time.
            .restrict("elements_per_thread % vector_width == 0")
            .build()
            .expect("saxpy space is well-formed")
    }

    fn model(&self, config: &[i64]) -> KernelModel {
        let (block, ept, vw) = (config[0], config[1], config[2]);
        let grid = self.n.div_ceil((block * ept) as u64);
        let mut m = KernelModel::new("saxpy", grid, block as u32);
        m.flops_per_thread = 2.0 * ept as f64; // one FMA per element
        m.gmem_bytes_per_thread = 12.0 * ept as f64; // load x, load y, store y
        m.gmem_transactions_per_thread = 3.0 * ept as f64 / vw as f64;
        // Vectorized accesses stay coalesced; scalar strided ones degrade.
        m.coalescing = if vw >= 2 { 1.0 } else { 0.8 };
        m.int_ops_per_thread = ept as f64 / vw as f64 + 4.0;
        m.ilp = (ept as f64 / vw as f64).clamp(1.0, 8.0);
        m.regs_per_thread = 16 + (vw * 2) as u32;
        m
    }

    fn source(&self, config: &[i64]) -> String {
        format!(
            "#define BLOCK_SIZE {}\n#define ELEMENTS_PER_THREAD {}\n#define VECTOR_WIDTH {}\n\
             extern \"C\" __global__ void saxpy(int n, float a, const float* x, float* y);\n",
            config[0], config[1], config[2]
        )
    }
}

fn main() {
    // Bind the custom kernel to two GPUs from the testbed.
    for arch in [GpuArch::rtx_3060(), GpuArch::rtx_3090()] {
        let problem = GpuBenchmark::new(Arc::new(SaxpyKernel { n: 1 << 26 }), arch);
        println!(
            "\nsaxpy (n = 2^26) on {} — {} configs, {} valid",
            problem.platform(),
            problem.space().cardinality(),
            problem.space().count_valid_factored()
        );

        // Stock tuners work unchanged against the new benchmark.
        let evaluator = Evaluator::builder(&problem)
            .budget(120)
            .build()
            .expect("the default protocol is valid");
        let run = SurrogateTuner::default().tune(&evaluator, 3);
        let best = run.best().expect("surrogate finds a valid config");
        println!(
            "    surrogate tuner best: {:.4} ms with block={}, ept={}, vw={}",
            best.time_ms().unwrap(),
            best.config[0],
            best.config[1],
            best.config[2]
        );

        // Effective bandwidth sanity check: SAXPY is a streaming kernel, so
        // the winner should run near the memory roofline.
        let bytes = 12.0 * (1u64 << 26) as f64;
        let gbs = bytes / (best.time_ms().unwrap() * 1e-3) / 1e9;
        println!("    effective bandwidth: {gbs:.0} GB/s");
    }
}
