//! Compare every registry tuner on one benchmark at equal budget — the
//! kind of study the BAT suite exists to make cheap: one campaign, reduced
//! by its summary.
//!
//! ```sh
//! cargo run --release --example compare_tuners
//! ```

use bat::harness::RecordLevel;
use bat::prelude::*;

fn main() {
    let arch = GpuArch::rtx_2080_ti();
    let problem =
        bat::kernels::benchmark("hotspot", arch.clone()).expect("hotspot is in the registry");

    // Ground truth: sample the landscape hard to approximate the optimum.
    let landscape = bat::analysis::sampled_valid(&problem, 8_000, 0, 80_000_000)
        .expect("hotspot's valid space is easily sampled");
    let t_opt = landscape.best().unwrap().time_ms.unwrap();
    println!(
        "hotspot on {}: sampled optimum {:.4} ms over {} configs\n",
        problem.platform(),
        t_opt,
        landscape.samples.len()
    );

    // Every registry tuner, 250 evaluations, seeds 0..7.
    let spec = ExperimentSpec {
        benchmarks: Selector::Subset(vec!["hotspot".into()]),
        architectures: Selector::Subset(vec![arch.name.to_string()]),
        budget: 250,
        repetitions: 7,
        seed_policy: SeedPolicy::Sequential,
        record: RecordLevel::Curve,
        ..ExperimentSpec::new("compare-tuners")
    };
    let run = run_campaign(&spec, &CampaignOptions::default()).expect("the campaign runs");
    let summary = CampaignSummary::from_result(&run.result);
    let cell = &summary.cells[0];

    println!(
        "{:<26} {:>14} {:>14} {:>10}",
        "tuner", "median (ms)", "best (ms)", "rel perf"
    );
    // Ascending median; tuners that found no valid configuration last.
    let sort_key = |t: usize| cell.median_best_ms[t].unwrap_or(f64::INFINITY);
    let mut order: Vec<usize> = (0..cell.tuners.len()).collect();
    order.sort_by(|&a, &b| sort_key(a).total_cmp(&sort_key(b)));
    for t in order {
        let name = &cell.tuners[t];
        match (cell.median_best_ms[t], cell.min_best_ms[t]) {
            (Some(median), Some(best)) => println!(
                "{name:<26} {median:>14.4} {best:>14.4} {:>9.1}%",
                t_opt / median * 100.0
            ),
            _ => println!("{name:<26} {:>14} {:>14} {:>10}", "-", "-", "-"),
        }
    }
}
