//! Property tests for the shippable autotune cache.
//!
//! Three determinism claims, in property form:
//!
//! * [`CacheStore::merge`] is commutative and associative with the empty
//!   store as identity, and the merged JSON is byte-stable — so shard
//!   caches recombine into the unsharded cache no matter the grouping.
//! * A `--cache` campaign is byte-deterministic: the warm (fully cached)
//!   artifact equals the cold one, and resuming on top of a cache changes
//!   nothing.
//! * An empty cache is invisible: running against a zero-entry cache
//!   produces an artifact byte-identical to running with no cache at all.

use std::collections::BTreeMap;

use bat_cache::{CacheStore, CachedTrial};
use bat_harness::{run_campaign, CampaignOptions, ExperimentSpec, RecordLevel, Selector};
use proptest::prelude::*;

/// One synthetic cache observation: small index spaces so entries collide
/// across stores (exercising the cell-merge path, not just concatenation).
type Entry = (u8, u8, u8, i64, u16);

/// Strategy drawing one [`Entry`].
fn entry() -> impl Strategy<Value = Entry> {
    (0u8..3, 0u8..3, 0u8..4, -4i64..5, 0u16..200)
}

fn store_from(entries: &[Entry]) -> CacheStore {
    let mut store = CacheStore::new();
    for (i, &(bench, arch, scen, val, raw_ms)) in entries.iter().enumerate() {
        let benchmark = format!("bench-{}", bench % 3);
        let architecture = format!("arch-{}", arch % 3);
        let scenario = format!("objective=time;budget={}", 10 + scen % 4);
        let config = BTreeMap::from([("p".to_string(), val)]);
        let ms = 0.5 + f64::from(raw_ms) / 100.0;
        store.observe(&benchmark, &architecture, &scenario, &config, ms, None);
        store.count_evals(&benchmark, &architecture, &scenario, 1);
        // Every third entry also carries an exact-replay trial blob, so
        // the properties cover trial merging (first-in wins, sorted).
        if i % 3 == 0 {
            store.insert_trial(CachedTrial {
                fingerprint: format!("fp-{bench}-{arch}-{scen}-{val}"),
                benchmark,
                architecture,
                record: serde::Value::Object(vec![("ms".to_string(), serde::Value::Float(ms))]),
            });
        }
    }
    store
}

fn merged(stores: &[&CacheStore]) -> CacheStore {
    let mut out = CacheStore::new();
    for s in stores {
        out.merge(s);
    }
    out
}

proptest! {
    #[test]
    fn merge_is_commutative_associative_and_byte_stable(
        a in collection::vec(entry(), 0..12),
        b in collection::vec(entry(), 0..12),
        c in collection::vec(entry(), 0..12),
    ) {
        let (a, b, c) = (store_from(&a), store_from(&b), store_from(&c));

        let ab = merged(&[&a, &b]);
        let ba = merged(&[&b, &a]);
        prop_assert_eq!(ab.to_json(), ba.to_json(), "merge must be commutative");

        let ab_c = merged(&[&ab, &c]);
        let bc = merged(&[&b, &c]);
        let a_bc = merged(&[&a, &bc]);
        prop_assert_eq!(ab_c.to_json(), a_bc.to_json(), "merge must be associative");

        let empty = CacheStore::new();
        prop_assert_eq!(
            merged(&[&a, &empty]).to_json(),
            a.to_json(),
            "empty store must be the merge identity"
        );

        // Byte-stability: re-parsing and re-serializing changes nothing.
        let round = CacheStore::from_json(&ab_c.to_json()).unwrap();
        prop_assert_eq!(round.to_json(), ab_c.to_json());
    }
}

const TUNERS: [&str; 2] = ["random-search", "greedy-ils"];
const BENCHMARKS: [&str; 2] = ["nbody", "pnpoly"];

fn small_spec(tuner: usize, benchmark: usize, budget: u64) -> ExperimentSpec {
    ExperimentSpec {
        tuners: Selector::Subset(vec![TUNERS[tuner % TUNERS.len()].into()]),
        benchmarks: Selector::Subset(vec![BENCHMARKS[benchmark % BENCHMARKS.len()].into()]),
        architectures: Selector::Subset(vec!["RTX 3090".into()]),
        budget,
        repetitions: 2,
        record: RecordLevel::Full,
        ..ExperimentSpec::new("cache-prop")
    }
}

/// A unique scratch path per property case, so parallel test threads and
/// shrunken re-runs never collide.
fn scratch(tag: &str, case: &str) -> String {
    let dir = std::env::temp_dir().join("bat-cache-prop");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}-{case}.json"));
    let _ = std::fs::remove_file(&path);
    path.to_str().unwrap().to_string()
}

/// A file-writing `--cache` run of `spec`.
fn cached_run(
    spec: &ExperimentSpec,
    out: &str,
    cache: Option<&str>,
    resume: bool,
) -> bat_harness::CampaignRun {
    let opts = CampaignOptions {
        out: Some(out.to_string()),
        cache: cache.map(str::to_string),
        resume,
        ..CampaignOptions::default()
    };
    run_campaign(spec, &opts).unwrap()
}

proptest! {
    #[test]
    fn cached_campaigns_are_byte_deterministic(
        tuner in 0..TUNERS.len(),
        benchmark in 0..BENCHMARKS.len(),
        budget in 4..=10u64,
    ) {
        let spec = small_spec(tuner, benchmark, budget);
        let case = format!("{tuner}-{benchmark}-{budget}");
        let cache = scratch("cache", &case);
        let cold_out = scratch("cold", &case);
        let warm_out = scratch("warm", &case);

        // Cold parallel run populates the cache.
        let cold = cached_run(&spec, &cold_out, Some(&cache), false);
        prop_assert_eq!(cold.executed, cold.result.trials.len());

        // Warm run: everything replays from the cache, and the artifact
        // does not move by a byte.
        let warm = cached_run(&spec, &warm_out, Some(&cache), false);
        prop_assert_eq!(warm.executed, 0, "a fully warm run executes nothing");
        prop_assert_eq!(warm.reused, cold.result.trials.len());
        prop_assert_eq!(warm.result.to_json(), cold.result.to_json());
        prop_assert_eq!(
            std::fs::read_to_string(&warm_out).unwrap(),
            std::fs::read_to_string(&cold_out).unwrap(),
            "warm artifact must be byte-identical to the cold one"
        );

        // Resuming the cold artifact with the cache still loaded changes
        // nothing — and neither does the combination rewrite the cache.
        let cache_bytes = std::fs::read_to_string(&cache).unwrap();
        let resumed = cached_run(&spec, &cold_out, Some(&cache), true);
        prop_assert_eq!(resumed.executed, 0);
        prop_assert_eq!(resumed.result.to_json(), cold.result.to_json());
        prop_assert_eq!(
            std::fs::read_to_string(&cache).unwrap(),
            cache_bytes,
            "re-running warm must not rewrite the cache file"
        );

        for p in [cache, cold_out, warm_out] {
            let _ = std::fs::remove_file(&p);
        }
    }

    #[test]
    fn zero_entry_cache_is_invisible(
        tuner in 0..TUNERS.len(),
        benchmark in 0..BENCHMARKS.len(),
        budget in 4..=10u64,
    ) {
        let spec = small_spec(tuner, benchmark, budget);
        let case = format!("zero-{tuner}-{benchmark}-{budget}");
        let cache = scratch("empty-cache", &case);
        std::fs::write(&cache, CacheStore::new().to_json()).unwrap();
        let cached_out = scratch("cached", &case);
        let plain_out = scratch("plain", &case);

        let cached = cached_run(&spec, &cached_out, Some(&cache), false);
        let plain = cached_run(&spec, &plain_out, None, false);
        prop_assert_eq!(cached.result.to_json(), plain.result.to_json());
        prop_assert_eq!(
            std::fs::read_to_string(&cached_out).unwrap(),
            std::fs::read_to_string(&plain_out).unwrap(),
            "an empty cache must not perturb the artifact"
        );

        for p in [cache, cached_out, plain_out] {
            let _ = std::fs::remove_file(&p);
        }
    }
}
