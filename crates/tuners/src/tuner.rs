//! The tuner-side of the shared problem interface.

use bat_core::{Error, EvalBackend, Evaluator, TuningRun};
use bat_space::{ConfigSpace, Param};
use rand::Rng;

/// An optimization algorithm that searches a configuration space through an
/// [`Evaluator`].
///
/// Tuners never touch the problem directly: all measurements flow through
/// the evaluator's protocol and budget, which is what makes comparisons
/// between algorithms fair (the paper's motivation for a shared interface).
///
/// Since the ask/tell refactor the search core is *push-based*: a tuner's
/// real implementation is the step session it opens in
/// [`Tuner::start`], and [`Tuner::tune`] is provided for every implementor
/// by the shared [`crate::try_drive`] loop — callers keep the familiar
/// pull-style entry point, the evaluation side owns batching.
///
/// `Send + Sync` is required so campaigns can fan trials out over
/// threads; tuners are configuration-holding value types, so this costs
/// implementors nothing.
pub trait Tuner: Send + Sync {
    /// Algorithm name used in run records.
    fn name(&self) -> &str;

    /// Open a step-driven (ask/tell) search session over `space`, seeded
    /// with `seed`. The session borrows the space (and the tuner's own
    /// configuration) for its lifetime.
    fn start<'a>(&'a self, space: &'a ConfigSpace, seed: u64) -> Box<dyn crate::StepTuner + 'a>;

    /// Search until the backend's budget is exhausted (or the algorithm is
    /// done), over *any* [`EvalBackend`] — in-process, loopback or remote.
    /// Returns the complete trial history, or the backend's
    /// transport/session error.
    ///
    /// The default implementation runs [`Tuner::start`]'s session through
    /// the shared deterministic driver, so across backends it produces
    /// byte-identical trial histories for the same problem and protocol.
    fn try_tune(&self, backend: &dyn EvalBackend, seed: u64) -> Result<TuningRun, Error> {
        let mut session = self.start(backend.space(), seed);
        crate::step::try_drive(self.name(), session.as_mut(), backend, seed)
    }

    /// [`Tuner::try_tune`] for the infallible in-process backend — the
    /// familiar pull-style entry point.
    ///
    /// # Panics
    ///
    /// Panics if the backend reports a transport-level error (impossible
    /// for [`Evaluator`]).
    fn tune(&self, eval: &Evaluator<'_>, seed: u64) -> TuningRun {
        self.try_tune(eval, seed)
            .expect("in-process evaluation cannot fail")
    }
}

/// A model-based tuner's candidate pool: dense indices and their feature
/// rows, built straight from the positions drawn, with no index decode and
/// no per-candidate allocation.
pub(crate) struct CandidatePool<'a> {
    space: &'a ConfigSpace,
    feature: fn(&Param, usize) -> f64,
    /// Dense index of each kept candidate, in the order offered.
    pub indices: Vec<u64>,
    /// Their feature rows, row-major, one feature per parameter.
    pub rows: Vec<f64>,
}

impl<'a> CandidatePool<'a> {
    /// An empty pool whose rows hold `feature(param, position)`.
    pub fn new(space: &'a ConfigSpace, feature: fn(&Param, usize) -> f64, capacity: usize) -> Self {
        CandidatePool {
            space,
            feature,
            indices: Vec::with_capacity(capacity),
            rows: Vec::with_capacity(capacity * space.num_params()),
        }
    }

    /// Draw a configuration with the RNG calls of
    /// [`ordinal::random_positions`]; keep it if `keep` accepts its index.
    pub fn draw<R: Rng + ?Sized>(&mut self, rng: &mut R, keep: impl Fn(u64) -> bool) {
        let start = self.rows.len();
        let mut idx = 0u64;
        for (i, p) in self.space.params().iter().enumerate() {
            let pos = rng.random_range(0..p.len());
            idx += pos as u64 * self.space.stride(i);
            self.rows.push((self.feature)(p, pos));
        }
        if keep(idx) {
            self.indices.push(idx);
        } else {
            self.rows.truncate(start);
        }
    }

    /// Offer every Hamming-1 neighbour of `pos`, parameter by parameter and
    /// position by position; keep those `keep` accepts.
    pub fn neighbours(&mut self, pos: &[usize], keep: impl Fn(u64) -> bool) {
        let params = self.space.params();
        let base = ordinal::index_of(self.space, pos);
        let row: Vec<f64> = params
            .iter()
            .zip(pos)
            .map(|(p, &q)| (self.feature)(p, q))
            .collect();
        for (i, p) in params.iter().enumerate() {
            let stride = self.space.stride(i);
            for alt in (0..p.len()).filter(|&alt| alt != pos[i]) {
                let idx = base - pos[i] as u64 * stride + alt as u64 * stride;
                if keep(idx) {
                    self.indices.push(idx);
                    let start = self.rows.len();
                    self.rows.extend_from_slice(&row);
                    self.rows[start + i] = (self.feature)(p, alt);
                }
            }
        }
    }
}

/// A candidate's ordinal position as its feature (the GP's encoding).
pub(crate) fn position_feature(_: &Param, pos: usize) -> f64 {
    pos as f64
}

/// A candidate's parameter value as its feature (the tree ensembles').
pub(crate) fn value_feature(p: &Param, pos: usize) -> f64 {
    p.value(pos) as f64
}

/// Ordinal encoding helpers: tuners operate on per-parameter *positions*
/// (indices into each parameter's ordered value list), which makes
/// crossover, mutation and velocity updates uniform across benchmarks.
pub mod ordinal {
    use super::*;

    /// Random position vector.
    pub fn random_positions<R: Rng + ?Sized>(space: &ConfigSpace, rng: &mut R) -> Vec<usize> {
        space
            .params()
            .iter()
            .map(|p| rng.random_range(0..p.len()))
            .collect()
    }

    /// Dense index of a position vector.
    pub fn index_of(space: &ConfigSpace, pos: &[usize]) -> u64 {
        let mut idx = 0u64;
        for (i, &p) in pos.iter().enumerate() {
            debug_assert!(p < space.params()[i].len());
            idx += (p as u64) * space.stride(i);
        }
        idx
    }

    /// Position vector of a dense index.
    pub fn positions_of(space: &ConfigSpace, mut index: u64) -> Vec<usize> {
        let mut pos = vec![0usize; space.num_params()];
        for (i, p) in pos.iter_mut().enumerate() {
            *p = (index / space.stride(i)) as usize;
            index %= space.stride(i);
        }
        pos
    }

    /// Mutate one random coordinate to a different random position.
    pub fn mutate_one<R: Rng + ?Sized>(space: &ConfigSpace, pos: &mut [usize], rng: &mut R) {
        let i = rng.random_range(0..pos.len());
        let len = space.params()[i].len();
        if len <= 1 {
            return;
        }
        let mut alt = rng.random_range(0..len - 1);
        if alt >= pos[i] {
            alt += 1;
        }
        pos[i] = alt;
    }

    /// Clamp a continuous coordinate into a valid position.
    pub fn clamp(space: &ConfigSpace, i: usize, v: f64) -> usize {
        let len = space.params()[i].len();
        (v.round().max(0.0) as usize).min(len - 1)
    }

    /// Dense index of a continuous genome: every coordinate rounded and
    /// clamped into its parameter's position range (the shared embedding
    /// of the continuous-relaxation tuners, DE and PSO).
    pub fn index_of_continuous(space: &ConfigSpace, x: &[f64]) -> u64 {
        let pos: Vec<usize> = (0..space.num_params())
            .map(|i| clamp(space, i, x[i]))
            .collect();
        index_of(space, &pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_space::Param;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> ConfigSpace {
        ConfigSpace::builder()
            .param(Param::new("a", vec![1, 2, 4, 8]))
            .param(Param::new("b", vec![0, 1, 2]))
            .param(Param::boolean("c"))
            .build()
            .unwrap()
    }

    #[test]
    fn ordinal_round_trip() {
        let s = space();
        for idx in 0..s.cardinality() {
            let pos = ordinal::positions_of(&s, idx);
            assert_eq!(ordinal::index_of(&s, &pos), idx);
        }
    }

    #[test]
    fn mutate_changes_exactly_one_coordinate() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let pos = ordinal::random_positions(&s, &mut rng);
            let mut mutated = pos.clone();
            ordinal::mutate_one(&s, &mut mutated, &mut rng);
            let diff = pos.iter().zip(&mutated).filter(|(x, y)| x != y).count();
            assert_eq!(diff, 1);
        }
    }

    #[test]
    fn clamp_respects_bounds() {
        let s = space();
        assert_eq!(ordinal::clamp(&s, 0, -3.0), 0);
        assert_eq!(ordinal::clamp(&s, 0, 99.0), 3);
        assert_eq!(ordinal::clamp(&s, 1, 1.4), 1);
    }
}
