//! Hostile-input tests: every decoder of outside input fails with a typed
//! error, and never panics or aborts, on truncated and corrupted input.
//!
//! The inputs are one of each kind the suite reads:
//!
//! * a `bat/wire/v1` request frame and a 64-outcome `Evaluated` response
//!   frame (`codec::read_request` / `codec::read_response`);
//! * a `bat/cache/v1` file (`CacheStore::from_json`);
//! * a campaign spec (`ExperimentSpec::from_json`);
//! * a campaign artifact (`CampaignResult::from_json`).
//!
//! Each is truncated at every byte boundary (a proper prefix of a JSON
//! object is never valid, so every one must be an `Err`) and corrupted by
//! seeded random byte edits (each must decode to `Ok` or `Err`).

use std::io::Cursor;

use bat_cache::CacheStore;
use bat_core::{EvalStats, Evaluator, Protocol, TuningProblem};
use bat_gpusim::GpuArch;
use bat_harness::{
    fold_run_into_cache, run_campaign, CampaignOptions, CampaignResult, ExperimentSpec,
    RecordLevel, Selector,
};
use bat_server::codec;
use bat_server::wire::{EvalBatch, Evaluated, Request, Response};

/// Random edits per input.
const MUTATIONS: usize = 600;

/// A deterministic 64-bit stream (splitmix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `bytes` with 1–4 random edits: a byte replaced, inserted or removed.
/// Half the new bytes are JSON punctuation and digits, which reach deeper
/// into the parser than arbitrary bytes.
fn mutate(bytes: &[u8], rng: &mut Rng) -> Vec<u8> {
    const JSONISH: &[u8] = b"{}[]\",:-+.0123456789eEnulltruefalse\\ ";
    let mut out = bytes.to_vec();
    for _ in 0..1 + rng.below(4) {
        let byte = if rng.below(2) == 0 {
            JSONISH[rng.below(JSONISH.len())]
        } else {
            rng.below(256) as u8
        };
        let at = rng.below(out.len() + 1);
        match rng.below(3) {
            0 if at < out.len() => out[at] = byte,
            1 => out.insert(at, byte),
            _ if at < out.len() => {
                out.remove(at);
            }
            _ => out.push(byte),
        }
    }
    out
}

/// Check a text decoder: every proper prefix of `text` (trailing
/// whitespace aside) is an error, and no corruption panics.
fn hostile_text<T>(name: &str, text: &str, decode: impl Fn(&str) -> Result<T, String>, seed: u64) {
    assert!(decode(text).is_ok(), "{name}: the intact input must decode");
    let body = text.trim_end().len();
    for cut in (0..body).filter(|&c| text.is_char_boundary(c)) {
        assert!(
            decode(&text[..cut]).is_err(),
            "{name}: the {cut}-byte prefix decoded"
        );
    }
    let mut rng = Rng(seed);
    for _ in 0..MUTATIONS {
        let corrupt = mutate(text.as_bytes(), &mut rng);
        let _ = decode(&String::from_utf8_lossy(&corrupt));
    }
}

/// Check a frame decoder on `payload`: truncated frames (prefix and
/// payload cut anywhere), re-framed payload prefixes, and corrupted frames
/// (length prefix included) are all typed errors or values, never panics.
fn hostile_frame<T>(
    name: &str,
    payload: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, bat_core::Error>,
    seed: u64,
) {
    let frame = |p: &[u8]| {
        let mut out = (p.len() as u32).to_be_bytes().to_vec();
        out.extend_from_slice(p);
        out
    };
    let whole = frame(payload);
    assert!(
        decode(&whole).is_ok(),
        "{name}: the intact frame must decode"
    );
    for cut in 0..whole.len() {
        let err = decode(&whole[..cut]).err();
        assert!(
            matches!(err, Some(bat_core::Error::Transport(_))),
            "{name}: a frame cut at {cut} bytes gave {err:?}"
        );
    }
    for cut in 0..payload.len() {
        let err = decode(&frame(&payload[..cut])).err();
        assert!(
            matches!(err, Some(bat_core::Error::Wire(_))),
            "{name}: a payload cut at {cut} bytes gave {err:?}"
        );
    }
    let mut rng = Rng(seed);
    for _ in 0..MUTATIONS {
        let _ = decode(&mutate(&whole, &mut rng));
        let _ = decode(&frame(&mutate(payload, &mut rng)));
    }
}

fn payload_of(write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut buf = Vec::new();
    write(&mut buf);
    buf.split_off(4)
}

#[test]
fn wire_frames_survive_truncation_and_corruption() {
    let request = payload_of(|buf| {
        codec::write_request(
            buf,
            Request::Eval(EvalBatch {
                session: 7,
                indices: (0..64).map(|i| i * 97).collect(),
            }),
        )
        .unwrap()
    });
    hostile_frame(
        "request",
        &request,
        |b| codec::read_request(&mut Cursor::new(b)),
        1,
    );

    // A real 64-outcome batch: measurements, restricted configurations
    // and launch failures.
    let problem = bat_kernels::benchmark("hotspot", GpuArch::rtx_3090()).unwrap();
    let eval = Evaluator::builder(&problem)
        .protocol(Protocol::default())
        .build()
        .unwrap();
    let n = problem.space().cardinality() as u64;
    let indices: Vec<u64> = (0..64).map(|i| i * (n / 64)).collect();
    let outcomes = Evaluator::evaluate_batch(&eval, &indices);
    assert_eq!(outcomes.len(), 64);
    assert!(outcomes.iter().any(|o| o.is_ok()) && outcomes.iter().any(|o| o.is_err()));
    let response = payload_of(|buf| {
        codec::write_response(
            buf,
            Response::Evaluated(Evaluated {
                session: 7,
                outcomes,
                stats: EvalStats {
                    evals: 64,
                    distinct: 64,
                    retries: 0,
                    quarantined: 0,
                },
                budget_left: Some(36),
            }),
        )
        .unwrap()
    });
    hostile_frame(
        "evaluated",
        &response,
        |b| codec::read_response(&mut Cursor::new(b)),
        2,
    );
}

/// A small campaign: one tuner, one kernel, full records.
fn small_campaign() -> CampaignResult {
    let spec = ExperimentSpec {
        tuners: Selector::Subset(vec!["random-search".into()]),
        benchmarks: Selector::Subset(vec!["pnpoly".into()]),
        architectures: Selector::Subset(vec!["RTX 3090".into()]),
        budget: 6,
        repetitions: 1,
        record: RecordLevel::Full,
        ..ExperimentSpec::new("hostile-inputs")
    };
    run_campaign(&spec, &CampaignOptions::default())
        .unwrap()
        .result
}

#[test]
fn files_survive_truncation_and_corruption() {
    let spec = include_str!("../../../specs/ci-smoke.json");
    hostile_text(
        "spec",
        spec,
        |s| ExperimentSpec::from_json(s).map_err(|e| e.to_string()),
        3,
    );

    let result = small_campaign();
    hostile_text(
        "artifact",
        &result.to_json(),
        |s| CampaignResult::from_json(s).map_err(|e| e.to_string()),
        4,
    );

    let mut store = CacheStore::new();
    fold_run_into_cache(&mut store, &result);
    assert_eq!(store.trials.len(), 1);
    hostile_text(
        "cache",
        &store.to_json(),
        |s| CacheStore::from_json(s).map_err(|e| e.to_string()),
        5,
    );
}
