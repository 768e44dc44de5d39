//! Random sampling from configuration spaces.
//!
//! The paper evaluates Hotspot, Dedispersion and Expdist on 10 000 random
//! configurations per architecture, and runs random search 100 times per
//! benchmark. These helpers provide uniform sampling over the full cartesian
//! product and rejection sampling over the restricted space.

use rand::Rng;

use crate::space::ConfigSpace;

/// Draw `n` dense indices uniformly (with replacement) from the full space.
pub fn sample_indices<R: Rng + ?Sized>(space: &ConfigSpace, n: usize, rng: &mut R) -> Vec<u64> {
    (0..n)
        .map(|_| rng.random_range(0..space.cardinality()))
        .collect()
}

/// Draw `n` *distinct* valid indices (satisfying the restriction set) by
/// rejection sampling.
///
/// Returns `None` if `max_tries` draws fail to produce enough valid samples
/// (i.e. the restricted space is a vanishing fraction of the product space).
pub fn sample_valid_indices_distinct<R: Rng + ?Sized>(
    space: &ConfigSpace,
    n: usize,
    rng: &mut R,
    max_tries: usize,
) -> Option<Vec<u64>> {
    let mut scratch = vec![0i64; space.num_params()];
    let mut seen = std::collections::HashSet::with_capacity(n * 2);
    let mut out = Vec::with_capacity(n);
    for _ in 0..max_tries {
        if out.len() == n {
            break;
        }
        let idx = rng.random_range(0..space.cardinality());
        space.decode_into(idx, &mut scratch);
        if space.is_valid(&scratch) && seen.insert(idx) {
            out.push(idx);
        }
    }
    (out.len() == n).then_some(out)
}

/// Draw one valid configuration index, or `None` after `max_tries` draws.
pub fn sample_one_valid<R: Rng + ?Sized>(
    space: &ConfigSpace,
    rng: &mut R,
    max_tries: usize,
) -> Option<u64> {
    let mut scratch = vec![0i64; space.num_params()];
    for _ in 0..max_tries {
        let idx = rng.random_range(0..space.cardinality());
        space.decode_into(idx, &mut scratch);
        if space.is_valid(&scratch) {
            return Some(idx);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> ConfigSpace {
        ConfigSpace::builder()
            .param(Param::new("a", vec![1, 2, 4, 8]))
            .param(Param::new("b", vec![1, 2, 3]))
            .param(Param::boolean("c"))
            .restrict("a * b <= 12")
            .build()
            .unwrap()
    }

    #[test]
    fn samples_are_in_range() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(7);
        for idx in sample_indices(&s, 100, &mut rng) {
            assert!(idx < s.cardinality());
        }
    }

    #[test]
    fn distinct_sampling_has_no_repeats() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(7);
        let mut v = sample_valid_indices_distinct(&s, 15, &mut rng, 100_000).unwrap();
        v.sort_unstable();
        let before = v.len();
        v.dedup();
        assert_eq!(v.len(), before);
    }

    #[test]
    fn distinct_sampling_can_exhaust_space() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(7);
        let valid: Vec<u64> = (0..s.cardinality())
            .filter(|&i| s.is_valid_index(i))
            .collect();
        let mut v = sample_valid_indices_distinct(&s, valid.len(), &mut rng, 100_000).unwrap();
        v.sort_unstable();
        assert_eq!(v, valid);
    }

    #[test]
    fn valid_sampling_respects_restrictions() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(42);
        let v = sample_valid_indices_distinct(&s, 12, &mut rng, 100_000).unwrap();
        assert_eq!(v.len(), 12);
        assert!(v.iter().all(|&i| s.is_valid_index(i)));
    }

    #[test]
    fn impossible_restriction_times_out() {
        let s = ConfigSpace::builder()
            .param(Param::boolean("x"))
            .restrict("x == 2")
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(sample_valid_indices_distinct(&s, 1, &mut rng, 1000).is_none());
        assert!(sample_one_valid(&s, &mut rng, 1000).is_none());
    }
}
