//! Particle swarm optimization, discretized to ordinal positions.
//!
//! Ask/tell form: swarm initialization batches freely; the flight phase
//! advances up to `batch` particles per step against the global-best
//! snapshot and folds personal/global bests back in told order.
//! `batch = 1` replays the historical loop bit-exactly; `batch = swarm
//! size` is the classic synchronous PSO iteration.

use bat_core::{Evaluator, TuningRun};
use bat_space::ConfigSpace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::step::{StepCtx, StepTuner, Told};
use crate::tuner::{new_run, ordinal, record_eval, Recorded, Tuner};

/// PSO over the ordinal embedding of the space: particles carry continuous
/// coordinates that are rounded/clamped to parameter positions for
/// evaluation.
#[derive(Debug, Clone, Copy)]
pub struct ParticleSwarm {
    /// Number of particles.
    pub particles: usize,
    /// Inertia weight.
    pub inertia: f64,
    /// Cognitive (personal-best) acceleration.
    pub cognitive: f64,
    /// Social (global-best) acceleration.
    pub social: f64,
}

impl Default for ParticleSwarm {
    fn default() -> Self {
        ParticleSwarm {
            particles: 15,
            inertia: 0.7,
            cognitive: 1.5,
            social: 1.5,
        }
    }
}

struct Particle {
    x: Vec<f64>,
    v: Vec<f64>,
    best_x: Vec<f64>,
    best_val: f64,
}

struct PsoStep<'a> {
    cfg: &'a ParticleSwarm,
    space: &'a ConfigSpace,
    rng: StdRng,
    swarm: Vec<Particle>,
    g_best: Option<(Vec<f64>, f64)>,
    /// Next particle of the cyclic flight pass.
    next: usize,
    /// `(particle slot, flown position)` pairs asked but not yet told
    /// (flight phase). The position snapshot keeps (position, value)
    /// pairs honest even when a batch wider than the swarm flies the
    /// same particle twice before its first result arrives.
    pending: Vec<(usize, Vec<f64>)>,
    /// `(x, v)` of initial particles asked but not yet told.
    init_pending: Vec<(Vec<f64>, Vec<f64>)>,
}

impl PsoStep<'_> {
    fn random_particle(&mut self) -> (Vec<f64>, Vec<f64>) {
        let dims = self.space.num_params();
        let x: Vec<f64> = (0..dims)
            .map(|i| {
                self.rng
                    .random_range(0.0..self.space.params()[i].len() as f64 - 1e-9)
            })
            .collect();
        let v: Vec<f64> = (0..dims)
            .map(|i| {
                let span = self.space.params()[i].len() as f64;
                self.rng.random_range(-span / 4.0..span / 4.0)
            })
            .collect();
        (x, v)
    }

    /// Advance particle `p` one flight step against the current global
    /// best (mutates its position in place, as the classic loop did).
    fn fly(&mut self, p: usize) {
        let (gx, _) = self.g_best.as_ref().expect("swarm initialized");
        let gx = gx.clone();
        let particle = &mut self.swarm[p];
        for (i, &g) in gx.iter().enumerate() {
            let r1: f64 = self.rng.random_range(0.0..1.0);
            let r2: f64 = self.rng.random_range(0.0..1.0);
            particle.v[i] = self.cfg.inertia * particle.v[i]
                + self.cfg.cognitive * r1 * (particle.best_x[i] - particle.x[i])
                + self.cfg.social * r2 * (g - particle.x[i]);
            // Velocity clamp to half the axis span.
            let span = self.space.params()[i].len() as f64;
            particle.v[i] = particle.v[i].clamp(-span / 2.0, span / 2.0);
            particle.x[i] = (particle.x[i] + particle.v[i]).clamp(0.0, span - 1.0);
        }
    }
}

impl StepTuner for PsoStep<'_> {
    fn ask(&mut self, ctx: &StepCtx) -> Vec<u64> {
        if self.swarm.len() < self.cfg.particles {
            let want = (self.cfg.particles - self.swarm.len()).min(ctx.batch);
            self.init_pending = (0..want).map(|_| self.random_particle()).collect();
            return self
                .init_pending
                .iter()
                .map(|(x, _)| ordinal::index_of_continuous(self.space, x))
                .collect();
        }
        self.pending.clear();
        let mut out = Vec::with_capacity(ctx.batch);
        for _ in 0..ctx.batch {
            let p = self.next;
            self.next = (self.next + 1) % self.cfg.particles;
            self.fly(p);
            self.pending.push((p, self.swarm[p].x.clone()));
            out.push(ordinal::index_of_continuous(self.space, &self.swarm[p].x));
        }
        out
    }

    fn tell(&mut self, results: &[Told]) {
        if !self.init_pending.is_empty() {
            for ((x, v), r) in self.init_pending.drain(..).zip(results) {
                let val = r.value().unwrap_or(f64::INFINITY);
                // Failed particles carry +inf, exactly like the classic
                // loop — the very first one may even seed the global best.
                if self.g_best.as_ref().is_none_or(|(_, gv)| val < *gv) {
                    self.g_best = Some((x.clone(), val));
                }
                self.swarm.push(Particle {
                    best_x: x.clone(),
                    best_val: val,
                    x,
                    v,
                });
            }
            return;
        }
        for ((p, x), r) in self.pending.drain(..).zip(results) {
            let Some(val) = r.value() else { continue };
            let particle = &mut self.swarm[p];
            if val < particle.best_val {
                particle.best_val = val;
                particle.best_x = x.clone();
            }
            if self.g_best.as_ref().is_none_or(|(_, gv)| val < *gv) {
                self.g_best = Some((x, val));
            }
        }
    }
}

impl ParticleSwarm {
    /// The pre-ask/tell pull loop, kept verbatim as the equivalence oracle
    /// for the step driver (property-tested bit-identical at `batch = 1`).
    pub fn reference_tune(&self, eval: &Evaluator<'_>, seed: u64) -> TuningRun {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut run = new_run(eval, self.name(), seed);
        let space = eval.problem().space();
        let dims = space.num_params();

        let evaluate = |run: &mut TuningRun, x: &[f64]| -> Option<f64> {
            let pos: Vec<usize> = (0..dims).map(|i| ordinal::clamp(space, i, x[i])).collect();
            let idx = ordinal::index_of(space, &pos);
            match record_eval(eval, run, idx) {
                Recorded::Exhausted => None,
                Recorded::Failed => Some(f64::INFINITY),
                Recorded::Ok(v) => Some(v),
            }
        };

        // Initialize swarm.
        let mut swarm: Vec<Particle> = Vec::with_capacity(self.particles);
        let mut g_best: Option<(Vec<f64>, f64)> = None;
        for _ in 0..self.particles {
            let x: Vec<f64> = (0..dims)
                .map(|i| rng.random_range(0.0..space.params()[i].len() as f64 - 1e-9))
                .collect();
            let v: Vec<f64> = (0..dims)
                .map(|i| {
                    let span = space.params()[i].len() as f64;
                    rng.random_range(-span / 4.0..span / 4.0)
                })
                .collect();
            let Some(val) = evaluate(&mut run, &x) else {
                return run;
            };
            if g_best.as_ref().is_none_or(|(_, gv)| val < *gv) {
                g_best = Some((x.clone(), val));
            }
            swarm.push(Particle {
                best_x: x.clone(),
                best_val: val,
                x,
                v,
            });
        }

        'outer: loop {
            for p in &mut swarm {
                let (gx, _) = g_best.as_ref().expect("swarm initialized");
                debug_assert_eq!(gx.len(), dims);
                for (i, &g) in gx.iter().enumerate() {
                    let r1: f64 = rng.random_range(0.0..1.0);
                    let r2: f64 = rng.random_range(0.0..1.0);
                    p.v[i] = self.inertia * p.v[i]
                        + self.cognitive * r1 * (p.best_x[i] - p.x[i])
                        + self.social * r2 * (g - p.x[i]);
                    // Velocity clamp to half the axis span.
                    let span = space.params()[i].len() as f64;
                    p.v[i] = p.v[i].clamp(-span / 2.0, span / 2.0);
                    p.x[i] = (p.x[i] + p.v[i]).clamp(0.0, span - 1.0);
                }
                let Some(val) = evaluate(&mut run, &p.x) else {
                    break 'outer;
                };
                if val < p.best_val {
                    p.best_val = val;
                    p.best_x = p.x.clone();
                }
                if g_best.as_ref().is_none_or(|(_, gv)| val < *gv) {
                    g_best = Some((p.x.clone(), val));
                }
            }
        }
        run
    }
}

impl Tuner for ParticleSwarm {
    fn name(&self) -> &str {
        "particle-swarm"
    }

    fn start<'a>(&'a self, space: &'a ConfigSpace, seed: u64) -> Box<dyn StepTuner + 'a> {
        Box::new(PsoStep {
            cfg: self,
            space,
            rng: StdRng::seed_from_u64(seed),
            swarm: Vec::with_capacity(self.particles),
            g_best: None,
            next: 0,
            pending: Vec::new(),
            init_pending: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{evaluator, noiseless};
    use bat_core::{Protocol, SyntheticProblem};
    use bat_space::{ConfigSpace, Param};

    fn problem(
    ) -> SyntheticProblem<impl Fn(&[i64]) -> Result<f64, bat_core::EvalFailure> + Send + Sync> {
        let space = ConfigSpace::builder()
            .param(Param::int_range("x", 0, 20))
            .param(Param::int_range("y", 0, 20))
            .param(Param::int_range("z", 0, 20))
            .build()
            .unwrap();
        SyntheticProblem::new("bowl3", "sim", space, |c| {
            Ok(1.0
                + ((c[0] - 14) * (c[0] - 14) + (c[1] - 5) * (c[1] - 5) + (c[2] - 10) * (c[2] - 10))
                    as f64)
        })
    }

    #[test]
    fn swarm_converges_to_optimum_region() {
        let p = problem();
        let eval = noiseless(&p, 1_000);
        let run = ParticleSwarm::default().tune(&eval, 5);
        let best = run.best().unwrap().time_ms().unwrap();
        assert!(best <= 3.0, "PSO should approach optimum, got {best}");
    }

    #[test]
    fn budget_respected() {
        let p = problem();
        let eval = noiseless(&p, 77);
        let run = ParticleSwarm::default().tune(&eval, 1);
        assert_eq!(run.trials.len(), 77);
    }

    #[test]
    fn deterministic_per_seed() {
        let p = problem();
        let e1 = noiseless(&p, 120);
        let e2 = noiseless(&p, 120);
        assert_eq!(
            ParticleSwarm::default().tune(&e1, 6),
            ParticleSwarm::default().tune(&e2, 6)
        );
    }

    #[test]
    fn step_driver_matches_reference_loop_at_batch_one() {
        let p = problem();
        let pso = ParticleSwarm::default();
        for seed in 0..6 {
            let e1 = noiseless(&p, 160);
            let e2 = noiseless(&p, 160);
            assert_eq!(pso.tune(&e1, seed), pso.reference_tune(&e2, seed));
        }
    }

    #[test]
    fn synchronous_swarm_converges() {
        let p = problem();
        let protocol = Protocol::noiseless().with_batch(15);
        let eval = evaluator(&p, protocol, 1_000);
        let run = ParticleSwarm::default().tune(&eval, 5);
        assert_eq!(run.trials.len(), 1_000);
        assert!(run.best().unwrap().time_ms().unwrap() <= 4.0);
    }

    #[test]
    fn batch_wider_than_swarm_pairs_positions_with_their_values() {
        // A batch wider than the swarm flies particles twice per ask; the
        // pending snapshot must keep each measured value paired with the
        // position that produced it. The measured best trial and the
        // recorded global best must agree at every batch width.
        let p = problem();
        for batch in [32u32, 64] {
            let protocol = Protocol::noiseless().with_batch(batch);
            let e1 = evaluator(&p, protocol, 1_000);
            let e2 = evaluator(&p, protocol, 1_000);
            let a = ParticleSwarm::default().tune(&e1, 5);
            let b = ParticleSwarm::default().tune(&e2, 5);
            assert_eq!(a, b);
            assert_eq!(a.trials.len(), 1_000);
            // A healthy swarm still converges despite double-speculation.
            assert!(a.best().unwrap().time_ms().unwrap() <= 6.0, "batch {batch}");
        }
    }
}
