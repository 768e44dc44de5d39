//! Property-based tests (proptest) on the suite's core data structures and
//! invariants.

use bat::prelude::*;
use bat::space::expr::CompiledExpr;
use bat::space::{sample_indices, Param};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a random configuration space of 1–5 parameters with 1–9 values
/// each (values distinct by construction).
fn arb_space() -> impl Strategy<Value = ConfigSpace> {
    proptest::collection::vec(1usize..9, 1..5).prop_map(|radices| {
        let mut b = ConfigSpace::builder();
        for (i, r) in radices.iter().enumerate() {
            let values: Vec<i64> = (0..*r as i64).map(|v| v * v + 1).collect();
            b = b.param(Param::new(format!("p{i}"), values));
        }
        b.build().unwrap()
    })
}

proptest! {
    /// The dense index ↔ configuration mapping is a bijection.
    #[test]
    fn index_bijection(space in arb_space(), salt in 0u64..1000) {
        let idx = salt % space.cardinality();
        let cfg = space.config_at(idx);
        prop_assert_eq!(space.index_of(&cfg), Some(idx));
    }

    /// Neighbour relations are symmetric and never self-referential.
    #[test]
    fn neighbors_symmetric(space in arb_space(), salt in 0u64..1000) {
        let idx = salt % space.cardinality();
        for nb in [Neighborhood::HammingAny, Neighborhood::Adjacent] {
            for n in nb.neighbor_indices(&space, idx) {
                prop_assert_ne!(n, idx);
                prop_assert!(nb.neighbor_indices(&space, n).contains(&idx));
            }
        }
    }

    /// Uniform index samples always land inside the space.
    #[test]
    fn samples_in_range(space in arb_space(), seed in 0u64..99) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for idx in sample_indices(&space, 64, &mut rng) {
            prop_assert!(idx < space.cardinality());
        }
    }

    /// Restriction counting: brute force and factored agree on arbitrary
    /// modular restrictions.
    #[test]
    fn counting_methods_agree(radix_a in 2usize..8, radix_b in 2usize..8, k in 1i64..5) {
        let space = ConfigSpace::builder()
            .param(Param::new("a", (1..=radix_a as i64).collect::<Vec<_>>()))
            .param(Param::new("b", (1..=radix_b as i64).collect::<Vec<_>>()))
            .param(Param::boolean("c"))
            .restrict(&format!("a % {k} == b % {k}"))
            .build()
            .unwrap();
        prop_assert_eq!(space.count_valid(), space.count_valid_factored());
    }

    /// Expression evaluator agrees with a direct Rust oracle on a family of
    /// arithmetic comparisons.
    #[test]
    fn expression_oracle(a in 1i64..100, b in 1i64..100, c in 1i64..100) {
        use bat::space::expr::{parse, CompiledExpr};
        let names = vec!["a".to_string(), "b".to_string(), "c".to_string()];
        let cases: Vec<(&str, bool)> = vec![
            ("a + b > c", a + b > c),
            ("a * b % c == 0", (a * b) % c == 0),
            ("a <= b or b <= c", a <= b || b <= c),
            ("not (a == b)", a != b),
            ("min(a, b) <= max(b, c)", a.min(b) <= b.max(c)),
            ("a // b + 1 >= 1", a / b + 1 >= 1),
            ("2 <= a + 1 <= 101", (2..=101).contains(&(a + 1))),
        ];
        for (src, expected) in cases {
            let compiled = CompiledExpr::compile(&parse(src).unwrap(), &names).unwrap();
            prop_assert_eq!(compiled.eval_bool(&[a, b, c]), expected, "{}", src);
        }
    }

    /// Measurement aggregation: the median lies within [min, max] of the
    /// samples and is permutation-invariant.
    #[test]
    fn measurement_median_bounds(mut samples in proptest::collection::vec(0.1f64..100.0, 1..20)) {
        let m = Measurement::from_samples(samples.clone());
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m.time_ms >= lo && m.time_ms <= hi);
        samples.reverse();
        let m2 = Measurement::from_samples(samples);
        prop_assert_eq!(m.time_ms, m2.time_ms);
    }

    /// Occupancy is monotone: more registers or more shared memory per
    /// block never increase the number of resident blocks.
    #[test]
    fn occupancy_monotone(threads in 32u32..1024, regs in 16u32..128, smem in 0u32..49_152) {
        use bat::gpusim::{occupancy, BlockResources};
        let arch = GpuArch::rtx_3090();
        let base = BlockResources { threads, regs_per_thread: regs, smem_bytes: smem, launch_bounds_blocks: 0 };
        if let Ok(o1) = occupancy(&arch, &base) {
            let heavier = BlockResources { regs_per_thread: regs + 32, ..base };
            if let Ok(o2) = occupancy(&arch, &heavier) {
                prop_assert!(o2.blocks_per_sm <= o1.blocks_per_sm);
            }
            let fatter = BlockResources { smem_bytes: smem + 8192, ..base };
            if let Ok(o3) = occupancy(&arch, &fatter) {
                prop_assert!(o3.blocks_per_sm <= o1.blocks_per_sm);
            }
        }
    }

    /// The timing model is deterministic, positive, and monotone in total
    /// work.
    #[test]
    fn timing_monotone_in_work(flops in 1.0f64..1e6, blocks in 1u64..4096) {
        let arch = GpuArch::rtx_2080_ti();
        let mut m = KernelModel::new("p", blocks, 128);
        m.flops_per_thread = flops;
        let t1 = bat::gpusim::execute(&arch, &m).unwrap().time_ms;
        m.flops_per_thread = flops * 2.0;
        let t2 = bat::gpusim::execute(&arch, &m).unwrap().time_ms;
        prop_assert!(t1 > 0.0);
        prop_assert!(t2 >= t1);
    }

    /// Tuning runs respect arbitrary budgets exactly (random search).
    #[test]
    fn budget_exact(budget in 1u64..120, seed in 0u64..50) {
        let problem = bat::kernels::benchmark("pnpoly", GpuArch::rtx_3060()).unwrap();
        let evaluator = Evaluator::builder(&problem).protocol(Protocol::noiseless()).budget(budget).build().unwrap();
        let run = RandomSearch.tune(&evaluator, seed);
        prop_assert_eq!(run.trials.len() as u64, budget);
    }

    /// Run records survive JSON round trips.
    #[test]
    fn record_round_trip(budget in 1u64..40, seed in 0u64..20) {
        let problem = bat::kernels::benchmark("nbody", GpuArch::rtx_titan()).unwrap();
        let evaluator = Evaluator::builder(&problem).budget(budget).build().unwrap();
        let run = RandomSearch.tune(&evaluator, seed);
        let back = TuningRun::from_json(&run.to_json()).unwrap();
        prop_assert_eq!(run, back);
    }
}

// ---------------------------------------------------------------------------
// Enumeration-engine equivalence properties
// ---------------------------------------------------------------------------

/// Build a random compiled expression over `n_slots` slots. Covers every
/// node kind the restriction language has (arithmetic, short-circuit
/// logic, chained comparisons, builtins) with small literals.
fn gen_expr(rng: &mut StdRng, depth: u32, n_slots: usize) -> CompiledExpr {
    use bat::space::expr::{BinOp, CmpOp, UnOp};
    use rand::Rng;
    if depth == 0 || rng.random_range(0..4u32) == 0 {
        return match rng.random_range(0..4u32) {
            0 => CompiledExpr::Int(rng.random_range(-8i64..9)),
            1 => CompiledExpr::Float(rng.random_range(-4i64..5) as f64 * 0.5),
            _ => CompiledExpr::Slot(rng.random_range(0..n_slots)),
        };
    }
    let bin_ops = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::FloorDiv,
        BinOp::Mod,
        BinOp::Pow,
        BinOp::And,
        BinOp::Or,
    ];
    let cmp_ops = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    match rng.random_range(0..4u32) {
        0 => {
            let op = if rng.random_bool(0.5) {
                UnOp::Neg
            } else {
                UnOp::Not
            };
            CompiledExpr::Unary(op, Box::new(gen_expr(rng, depth - 1, n_slots)))
        }
        1 => CompiledExpr::Binary(
            bin_ops[rng.random_range(0..bin_ops.len())],
            Box::new(gen_expr(rng, depth - 1, n_slots)),
            Box::new(gen_expr(rng, depth - 1, n_slots)),
        ),
        2 => {
            let links = (0..rng.random_range(1..3usize))
                .map(|_| {
                    (
                        cmp_ops[rng.random_range(0..cmp_ops.len())],
                        gen_expr(rng, depth - 1, n_slots),
                    )
                })
                .collect();
            CompiledExpr::Compare(Box::new(gen_expr(rng, depth - 1, n_slots)), links)
        }
        _ => {
            let n_args = rng.random_range(1..4usize);
            let args: Vec<CompiledExpr> = (0..n_args)
                .map(|_| gen_expr(rng, depth - 1, n_slots))
                .collect();
            gen_call(rng, args)
        }
    }
}

/// Random builtin call over pre-generated arguments, built by compiling a
/// `min(q0, q1, ...)`-style template and splicing the arguments in for the
/// template's slots (the `Builtin` type itself is not exported).
fn gen_call(rng: &mut StdRng, args: Vec<CompiledExpr>) -> CompiledExpr {
    use bat::space::expr::parse;
    use rand::Rng;
    // min/max require at least two arguments; fall back to abs otherwise.
    let name = match rng.random_range(0..3u32) {
        0 if args.len() >= 2 => "min",
        1 if args.len() >= 2 => "max",
        _ => "abs",
    };
    let arity = if name == "abs" { 1 } else { args.len() };
    let arg_names: Vec<String> = (0..arity).map(|i| format!("q{i}")).collect();
    let src = format!("{name}({})", arg_names.join(", "));
    let template = CompiledExpr::compile(&parse(&src).unwrap(), &arg_names).unwrap();
    substitute_slots(&template, &args[..arity])
}

/// Replace `Slot(i)` with `subs[i]` throughout.
fn substitute_slots(e: &CompiledExpr, subs: &[CompiledExpr]) -> CompiledExpr {
    match e {
        CompiledExpr::Slot(i) => subs[*i].clone(),
        CompiledExpr::Int(_) | CompiledExpr::Float(_) => e.clone(),
        CompiledExpr::Unary(op, inner) => {
            CompiledExpr::Unary(*op, Box::new(substitute_slots(inner, subs)))
        }
        CompiledExpr::Binary(op, a, b) => CompiledExpr::Binary(
            *op,
            Box::new(substitute_slots(a, subs)),
            Box::new(substitute_slots(b, subs)),
        ),
        CompiledExpr::Compare(first, links) => CompiledExpr::Compare(
            Box::new(substitute_slots(first, subs)),
            links
                .iter()
                .map(|(op, l)| (*op, substitute_slots(l, subs)))
                .collect(),
        ),
        CompiledExpr::Call(b, args) => {
            CompiledExpr::Call(*b, args.iter().map(|a| substitute_slots(a, subs)).collect())
        }
    }
}

fn nums_agree(a: bat::space::Num, b: bat::space::Num) -> bool {
    use bat::space::Num;
    match (a, b) {
        (Num::Float(x), Num::Float(y)) if x.is_nan() && y.is_nan() => true,
        _ => a == b,
    }
}

proptest! {
    /// Tentpole invariant (a): the bytecode VM computes exactly what the
    /// tree-walking evaluator computes, on arbitrary expressions and
    /// configurations — numerically, not just truthiness.
    #[test]
    fn vm_equals_tree_walk_on_random_expressions(seed in 0u64..2000) {
        use bat::space::expr::Program;
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let n_slots = rng.random_range(1..5usize);
        let expr = gen_expr(&mut rng, 4, n_slots);
        let program = Program::compile(&expr);
        for _ in 0..8 {
            let values: Vec<i64> =
                (0..n_slots).map(|_| rng.random_range(-6i64..13)).collect();
            prop_assert!(
                nums_agree(program.eval_num(&values), expr.eval_num(&values)),
                "vm {:?} != tree {:?} for {expr:?} on {values:?}",
                program.eval_num(&values),
                expr.eval_num(&values)
            );
            prop_assert_eq!(program.eval_bool(&values), expr.eval_bool(&values));
        }
    }

    /// Tentpole invariant (b): the prefix-pruned counter/enumerator agrees
    /// with exhaustive brute force on random restricted spaces.
    #[test]
    fn pruned_enumeration_equals_brute_force(
        radix_a in 2usize..6,
        radix_b in 2usize..6,
        radix_c in 2usize..5,
        k in 1i64..4,
        t in 2i64..13,
        picks in proptest::collection::vec(0usize..7, 1..4),
    ) {
        let mut b = ConfigSpace::builder()
            .param(Param::new("a", (1..=radix_a as i64).collect::<Vec<_>>()))
            .param(Param::new("b", (1..=radix_b as i64).collect::<Vec<_>>()))
            .param(Param::new("c", (1..=radix_c as i64).collect::<Vec<_>>()))
            .param(Param::boolean("d"));
        for pick in &picks {
            let src = match pick {
                0 => format!("a % {k} == b % {k}"),
                1 => format!("a * b <= {t}"),
                2 => "a != 2".to_string(),
                3 => format!("2 <= a * c <= {t}"),
                4 => "a + b >= c or c == 1".to_string(),
                5 => "not (a == b) or d == 1".to_string(),
                _ => format!("{t} > 1"), // constant: folded out at build
            };
            b = b.restrict(&src);
        }
        let space = b.build().unwrap();
        let mut scratch = vec![0i64; space.num_params()];
        let brute_indices: Vec<u64> = (0..space.cardinality())
            .filter(|&i| space.is_valid_index_into(i, &mut scratch))
            .collect();
        prop_assert_eq!(space.count_valid(), brute_indices.len() as u64);
        prop_assert_eq!(space.count_valid_brute(), brute_indices.len() as u64);
        prop_assert_eq!(space.count_valid_factored(), brute_indices.len() as u64);
        prop_assert_eq!(space.valid_indices(), brute_indices);
    }

    /// The patched-slot neighbour fast path agrees with decode-and-check.
    #[test]
    fn neighbor_fast_path_equals_naive(seed in 0u64..300) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let t = rng.random_range(3i64..9);
        let space = ConfigSpace::builder()
            .param(Param::new("a", vec![1, 2, 3, 4]))
            .param(Param::new("b", vec![1, 2, 3]))
            .param(Param::boolean("c"))
            .restrict(&format!("a * b <= {t}"))
            .restrict("b != 2 or c == 1")
            .build()
            .unwrap();
        let idx = rng.random_range(0..space.cardinality());
        let mut scratch = vec![0i64; space.num_params()];
        for nb in [Neighborhood::HammingAny, Neighborhood::Adjacent] {
            let naive: Vec<u64> = nb
                .neighbor_indices(&space, idx)
                .into_iter()
                .filter(|&n| space.is_valid_index_into(n, &mut scratch))
                .collect();
            prop_assert_eq!(nb.valid_neighbor_indices(&space, idx), naive);
        }
    }
}
