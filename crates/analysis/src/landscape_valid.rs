//! The sampled variant of the landscape protocol (the paper's 10 000-sample
//! protocol for the large spaces).
//!
//! Tuning frameworks sample the *constrained* space (restriction-violating
//! configurations never reach the device), and so does this constructor:
//! `n` distinct configurations drawn uniformly from the restriction-valid
//! space; architecture-dependent launch failures still appear as failed
//! samples. Evaluation uses the same chunked, scratch-reusing streaming
//! path as [`Landscape::exhaustive`].

use bat_core::TuningProblem;
use bat_space::sample_valid_indices_distinct;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::landscape::{evaluate_sparse, Landscape};

/// Evaluate `n` distinct restriction-valid configurations.
///
/// Returns `None` when rejection sampling cannot find `n` valid
/// configurations within `max_tries` draws.
pub fn sampled_valid(
    problem: &dyn TuningProblem,
    n: usize,
    seed: u64,
    max_tries: usize,
) -> Option<Landscape> {
    let space = problem.space();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut indices = sample_valid_indices_distinct(space, n, &mut rng, max_tries)?;
    indices.sort_unstable();
    Some(Landscape {
        problem: problem.name().to_string(),
        platform: problem.platform().to_string(),
        exhaustive: false,
        samples: evaluate_sparse(problem, &indices),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_core::SyntheticProblem;
    use bat_space::{ConfigSpace, Param};

    #[test]
    fn samples_are_restriction_valid() {
        let space = ConfigSpace::builder()
            .param(Param::int_range("x", 0, 99))
            .param(Param::int_range("y", 0, 9))
            .restrict("x % 10 == y")
            .build()
            .unwrap();
        let p = SyntheticProblem::new("toy", "sim", space, |c| Ok(1.0 + c[0] as f64));
        let l = sampled_valid(&p, 50, 3, 1_000_000).unwrap();
        assert_eq!(l.samples.len(), 50);
        // Every sample valid -> every sample succeeded.
        assert_eq!(l.valid_count(), 50);
    }

    #[test]
    fn infeasible_spaces_return_none() {
        let space = ConfigSpace::builder()
            .param(Param::int_range("x", 0, 9))
            .restrict("x > 100")
            .build()
            .unwrap();
        let p = SyntheticProblem::new("toy", "sim", space, |c| Ok(1.0 + c[0] as f64));
        assert!(sampled_valid(&p, 5, 3, 10_000).is_none());
    }
}
