//! Sampled landscapes: the central data object of the evaluation.
//!
//! The paper's protocol (§V): exhaustive search of the entire space for
//! Pnpoly, Nbody, GEMM and Convolution; 10 000 random configurations for
//! Hotspot, Dedispersion and Expdist — per architecture. A
//! [`Landscape`] holds the resulting (configuration index → runtime)
//! map plus failure bookkeeping, and feeds every downstream analysis.
//!
//! Evaluation streams in fixed-size chunks directly into the preallocated
//! sample vector: each worker decodes configurations into one reusable
//! scratch (`ConfigSpace::decode_into`) instead of allocating a `Vec<i64>`
//! per index, and no intermediate index vectors are materialized. Chunk
//! *scheduling* is adaptive (compat-rayon `for_each` claims the next
//! pending chunk from a shared cursor when a worker drains its current
//! one), so kernels with skewed per-configuration model costs no longer
//! serialize evaluation behind one statically assigned chunk range.

use rayon::prelude::*;

use bat_core::TuningProblem;

/// One evaluated configuration in a landscape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Dense configuration index.
    pub index: u64,
    /// Noise-free runtime in ms, or `None` for restricted/launch-failed
    /// configurations.
    pub time_ms: Option<f64>,
}

/// A sampled (or exhaustive) view of one benchmark on one platform.
#[derive(Debug, Clone)]
pub struct Landscape {
    /// Benchmark name.
    pub problem: String,
    /// Platform label.
    pub platform: String,
    /// Whether the whole space was enumerated.
    pub exhaustive: bool,
    /// Evaluated configurations, ascending by index.
    pub samples: Vec<Sample>,
}

/// Rows evaluated per scratch-reusing work unit. Small enough to balance
/// load across workers, large enough to amortize the per-chunk closure.
const EVAL_CHUNK: usize = 4096;

/// Evaluate a dense index range `0..card`, streaming: workers fill the
/// preallocated output in place and decode into one per-chunk scratch.
pub(crate) fn evaluate_dense(problem: &dyn TuningProblem, card: u64) -> Vec<Sample> {
    let space = problem.space();
    let n = usize::try_from(card).expect("cardinality exceeds address space");
    let mut samples = vec![
        Sample {
            index: 0,
            time_ms: None,
        };
        n
    ];
    samples
        .par_chunks_mut(EVAL_CHUNK)
        .enumerate()
        .for_each(|(ci, chunk)| {
            let mut config = vec![0i64; space.num_params()];
            for (k, slot) in chunk.iter_mut().enumerate() {
                let index = (ci * EVAL_CHUNK + k) as u64;
                space.decode_into(index, &mut config);
                *slot = Sample {
                    index,
                    time_ms: problem.evaluate_pure(&config).ok(),
                };
            }
        });
    samples
}

/// Evaluate an explicit index list, streaming as in [`evaluate_dense`].
pub(crate) fn evaluate_sparse(problem: &dyn TuningProblem, indices: &[u64]) -> Vec<Sample> {
    let space = problem.space();
    let mut samples = vec![
        Sample {
            index: 0,
            time_ms: None,
        };
        indices.len()
    ];
    samples
        .par_chunks_mut(EVAL_CHUNK)
        .enumerate()
        .for_each(|(ci, chunk)| {
            let mut config = vec![0i64; space.num_params()];
            let base = ci * EVAL_CHUNK;
            for (k, slot) in chunk.iter_mut().enumerate() {
                let index = indices[base + k];
                space.decode_into(index, &mut config);
                *slot = Sample {
                    index,
                    time_ms: problem.evaluate_pure(&config).ok(),
                };
            }
        });
    samples
}

impl Landscape {
    /// Exhaustively evaluate `problem` (noise-free), in parallel.
    pub fn exhaustive(problem: &dyn TuningProblem) -> Landscape {
        let card = problem.space().cardinality();
        Landscape {
            problem: problem.name().to_string(),
            platform: problem.platform().to_string(),
            exhaustive: true,
            samples: evaluate_dense(problem, card),
        }
    }

    /// Runtimes of successful configurations.
    pub fn times(&self) -> Vec<f64> {
        self.samples.iter().filter_map(|s| s.time_ms).collect()
    }

    /// Number of successful (valid) configurations.
    pub fn valid_count(&self) -> usize {
        self.samples.iter().filter(|s| s.time_ms.is_some()).count()
    }

    /// The best (minimum-runtime) sample.
    pub fn best(&self) -> Option<Sample> {
        self.samples
            .iter()
            .filter(|s| s.time_ms.is_some())
            .min_by(|a, b| a.time_ms.partial_cmp(&b.time_ms).expect("NaN time"))
            .copied()
    }

    /// Median runtime over successful configurations.
    pub fn median_time(&self) -> Option<f64> {
        let mut t = self.times();
        if t.is_empty() {
            return None;
        }
        t.sort_by(|a, b| a.partial_cmp(b).expect("NaN time"));
        let mid = t.len() / 2;
        Some(if t.len() % 2 == 1 {
            t[mid]
        } else {
            0.5 * (t[mid - 1] + t[mid])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampled_valid;
    use bat_core::SyntheticProblem;
    use bat_space::{ConfigSpace, Param};

    fn problem(
    ) -> SyntheticProblem<impl Fn(&[i64]) -> Result<f64, bat_core::EvalFailure> + Send + Sync> {
        let space = ConfigSpace::builder()
            .param(Param::int_range("x", 0, 9))
            .param(Param::int_range("y", 0, 9))
            .restrict("x != 3")
            .build()
            .unwrap();
        SyntheticProblem::new("toy", "sim", space, |c| Ok(1.0 + (c[0] + c[1]) as f64))
    }

    #[test]
    fn exhaustive_covers_whole_space() {
        let p = problem();
        let l = Landscape::exhaustive(&p);
        assert_eq!(l.samples.len(), 100);
        assert_eq!(l.valid_count(), 90); // x == 3 column restricted
        assert!(l.exhaustive);
    }

    #[test]
    fn best_and_median_are_correct() {
        let p = problem();
        let l = Landscape::exhaustive(&p);
        let best = l.best().unwrap();
        assert_eq!(best.time_ms, Some(1.0));
        // times are 1 + x + y over the 90 valid cells
        let med = l.median_time().unwrap();
        assert!(med > 1.0 && med < 19.0);
    }

    #[test]
    fn sampled_draws_distinct_indices() {
        let p = problem();
        let l = sampled_valid(&p, 40, 7, 100_000).unwrap();
        assert_eq!(l.samples.len(), 40);
        let mut idx: Vec<u64> = l.samples.iter().map(|s| s.index).collect();
        let before = idx.len();
        idx.dedup();
        assert_eq!(idx.len(), before);
        assert!(!l.exhaustive);
    }

    #[test]
    fn deterministic_given_seed() {
        let p = problem();
        let a = sampled_valid(&p, 30, 9, 100_000).unwrap();
        let b = sampled_valid(&p, 30, 9, 100_000).unwrap();
        assert_eq!(a.samples, b.samples);
    }
}
