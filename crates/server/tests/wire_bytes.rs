//! The `bat/wire/v1` bytes an outside client reads, pinned.
//!
//! Every `Request` and `Response` variant goes through
//! `codec::write_request` / `codec::write_response`, and the frame —
//! 4-byte big-endian length prefix plus compact JSON — must equal the
//! committed literal byte for byte. The values cover the number forms
//! that are easiest to get wrong (`-0.0`, subnormals, `f64::MAX`, NaN,
//! `u64::MAX`, `i64::MIN`), strings that need escaping, optional fields
//! present and absent, and every `EvalFailure` variant. The last test pins
//! the pretty `bat/cache/v1` form with a nested record blob.
//!
//! Each frame that can be decoded is decoded back to the value it came
//! from; frames carrying NaN cannot (NaN is written as `null`).

use std::collections::BTreeMap;
use std::io::Cursor;

use bat_cache::{CacheCell, CacheStore, CachedTrial};
use bat_core::{Error, EvalFailure, EvalStats, Measurement, Protocol, Samples};
use bat_server::codec;
use bat_server::wire::{
    CacheLookup, CacheResult, CloseSession, Closed, ErrorResponse, EvalBatch, Evaluated,
    MetricsReport, OpenSession, Opened, Request, Response, WireBlend, WireFaults,
    WireScalarization,
};
use serde::Value;

/// The frame `payload` must travel in: length prefix, then the bytes.
fn frame(payload: &str) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(payload.as_bytes());
    out
}

fn check_request(req: Request, payload: &str, decodes: bool) {
    let mut buf = Vec::new();
    codec::write_request(&mut buf, req.clone()).unwrap();
    assert_eq!(
        String::from_utf8_lossy(&buf[4..]),
        payload,
        "payload of {req:?}"
    );
    assert_eq!(buf, frame(payload), "frame of {req:?}");
    if decodes {
        assert_eq!(codec::read_request(&mut Cursor::new(&buf)).unwrap(), req);
    }
}

fn check_response(resp: Response, payload: &str, decodes: bool) {
    let mut buf = Vec::new();
    codec::write_response(&mut buf, resp.clone()).unwrap();
    assert_eq!(
        String::from_utf8_lossy(&buf[4..]),
        payload,
        "payload of {resp:?}"
    );
    assert_eq!(buf, frame(payload), "frame of {resp:?}");
    if decodes {
        assert_eq!(codec::read_response(&mut Cursor::new(&buf)).unwrap(), resp);
    }
}

/// A string with a quote, a backslash, control characters and non-ASCII.
const AWKWARD: &str = "q\"b\\s/n\nr\rt\tb\u{8}f\u{c}x\u{1}y\u{1f}-é∑🦀";

fn stats() -> EvalStats {
    EvalStats {
        evals: u64::MAX,
        distinct: 0,
        retries: 7,
        quarantined: 1,
    }
}

fn full_open() -> OpenSession {
    let mut open = OpenSession::new(
        "gemm",
        "RTX 3090",
        Protocol {
            runs: 3,
            sigma: 1e-7,
            seed: u64::MAX,
            batch: 8,
        },
    );
    open.budget = Some(40);
    open.energy = true;
    open.scalarization = Some(WireScalarization::Chebyshev(WireBlend {
        time_weight: 0.7,
        time_scale_ms: 1e16,
        energy_scale_mj: -0.0,
    }));
    open.faults = Some(WireFaults {
        transient_rate: 0.1,
        timeout_rate: 0.0,
        deadline_ms: 5e-324,
        outlier_rate: 0.25,
        outlier_factor: f64::MAX,
        crash_rate: 1.0,
        fault_seed: 0,
        max_retries: 2,
        backoff_evals: 1,
        quarantine_after: u32::MAX,
    });
    open
}

fn cell() -> CacheCell {
    let mut cell = CacheCell::new("gemm", AWKWARD, "objective=time;budget=40");
    cell.observe(
        &BTreeMap::from([("a".to_string(), i64::MIN), ("b".to_string(), i64::MAX)]),
        1.5,
        Some(2.0),
    );
    cell.observe(&BTreeMap::from([("a".to_string(), -1)]), 1e-7, None);
    cell.evals = 3;
    cell
}

#[test]
fn every_request_variant_has_pinned_bytes() {
    check_request(
        Request::Open(OpenSession::new("nbody", "A100", Protocol::default())),
        PIN_OPEN_DEFAULT,
        true,
    );
    check_request(Request::Open(full_open()), PIN_OPEN_FULL, true);
    let mut weighted = full_open();
    weighted.scalarization = Some(WireScalarization::Weighted(WireBlend {
        time_weight: f64::NAN,
        time_scale_ms: 1.0,
        energy_scale_mj: 2.5,
    }));
    weighted.faults = None;
    check_request(Request::Open(weighted), PIN_OPEN_NAN, false);
    let mut edp = full_open();
    edp.scalarization = Some(WireScalarization::Edp);
    edp.faults = None;
    edp.budget = None;
    check_request(Request::Open(edp), PIN_OPEN_EDP, true);
    check_request(
        Request::Eval(EvalBatch {
            session: 3,
            indices: vec![0, 7, u64::MAX],
        }),
        PIN_EVAL,
        true,
    );
    check_request(
        Request::Eval(EvalBatch {
            session: 0,
            indices: vec![],
        }),
        PIN_EVAL_EMPTY,
        true,
    );
    check_request(
        Request::Close(CloseSession { session: u64::MAX }),
        PIN_CLOSE,
        true,
    );
    check_request(
        Request::CacheLookup(CacheLookup {
            benchmark: "gemm".into(),
            architecture: AWKWARD.into(),
            scenario: "objective=time;budget=40;runs=3;sigma=0.01;noise_seed=0;batch=1".into(),
        }),
        PIN_CACHE_LOOKUP,
        true,
    );
    check_request(Request::Ping, PIN_PING, true);
    check_request(Request::Metrics, PIN_METRICS_REQ, true);
    check_request(Request::Shutdown, PIN_SHUTDOWN, true);
}

#[test]
fn every_response_variant_has_pinned_bytes() {
    check_response(
        Response::Opened(Opened {
            session: 1,
            problem: "gemm+energy".into(),
            platform: AWKWARD.into(),
            budget_left: Some(u64::MAX),
        }),
        PIN_OPENED,
        true,
    );
    check_response(
        Response::Opened(Opened {
            session: 2,
            problem: "gemm".into(),
            platform: "RTX 3090".into(),
            budget_left: None,
        }),
        PIN_OPENED_UNLIMITED,
        true,
    );
    let energy = Measurement {
        time_ms: -0.0,
        samples: Samples::from(vec![1e-7, 1e16, 5e-324, f64::MAX, 0.1, -2.5]),
        energy_mj: Some(1e-300),
        energy_samples: Samples::from(vec![3.0, 1.0 / 3.0]),
    };
    let outcomes = vec![
        Ok(Measurement::from_samples(vec![1.5, 1.25, 2.0])),
        Ok(energy),
        Err(EvalFailure::Restricted),
        Err(EvalFailure::Launch(AWKWARD.into())),
        Err(EvalFailure::Transient("driver flake".into())),
        Err(EvalFailure::Timeout),
        Err(EvalFailure::Crash(String::new())),
    ];
    check_response(
        Response::Evaluated(Evaluated {
            session: 4,
            outcomes,
            stats: stats(),
            budget_left: Some(0),
        }),
        PIN_EVALUATED,
        true,
    );
    let nan = Measurement {
        time_ms: f64::NAN,
        samples: Samples::from(vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY]),
        energy_mj: None,
        energy_samples: Samples::new(),
    };
    check_response(
        Response::Evaluated(Evaluated {
            session: 5,
            outcomes: vec![Ok(nan)],
            stats: EvalStats::default(),
            budget_left: None,
        }),
        PIN_EVALUATED_NAN,
        false,
    );
    check_response(
        Response::Closed(Closed {
            session: 4,
            stats: stats(),
        }),
        PIN_CLOSED,
        true,
    );
    check_response(
        Response::CacheResult(CacheResult { cell: Some(cell()) }),
        PIN_CACHE_HIT,
        true,
    );
    check_response(
        Response::CacheResult(CacheResult { cell: None }),
        PIN_CACHE_MISS,
        true,
    );
    check_response(Response::Pong, PIN_PONG, true);
    check_response(
        Response::Metrics(MetricsReport {
            text: format!("# TYPE bat_x counter\nbat_x 3\n{AWKWARD}\n"),
        }),
        PIN_METRICS,
        true,
    );
    check_response(Response::ShuttingDown, PIN_SHUTTING_DOWN, true);
    let errors = [
        Error::Eval(EvalFailure::Restricted),
        Error::Eval(EvalFailure::Crash("boom".into())),
        Error::Transport("connection reset".into()),
        Error::Wire(AWKWARD.into()),
        Error::Session("unknown session id".into()),
        Error::Spec("unknown benchmark \"x\"".into()),
        Error::Io("disk full".into()),
    ];
    for (i, (error, pin)) in errors.into_iter().zip(PIN_ERRORS).enumerate() {
        check_response(
            Response::Error(ErrorResponse {
                session: (i % 2 == 0).then_some(i as u64),
                error,
            }),
            pin,
            true,
        );
    }
}

#[test]
fn a_pretty_cache_store_with_a_nested_record_has_pinned_bytes() {
    let mut store = CacheStore::new();
    store.cells.push(cell());
    let record = Value::Object(vec![
        ("tuner".to_string(), Value::String(AWKWARD.to_string())),
        ("rep".to_string(), Value::UInt(0)),
        ("delta".to_string(), Value::Int(i64::MIN)),
        ("big".to_string(), Value::UInt(u64::MAX)),
        (
            "curve".to_string(),
            Value::Array(vec![
                Value::Object(vec![
                    ("evals".to_string(), Value::UInt(1)),
                    ("best_ms".to_string(), Value::Float(-0.0)),
                ]),
                Value::Object(vec![
                    ("evals".to_string(), Value::UInt(2)),
                    ("best_ms".to_string(), Value::Float(5e-324)),
                ]),
            ]),
        ),
        ("empty_list".to_string(), Value::Array(vec![])),
        ("empty_map".to_string(), Value::Object(vec![])),
        (
            "nested".to_string(),
            Value::Array(vec![Value::Array(vec![
                Value::Null,
                Value::Bool(true),
                Value::Bool(false),
                Value::Float(1e16),
            ])]),
        ),
    ]);
    store.insert_trial(CachedTrial {
        fingerprint: "bench=gemm;rep=0".into(),
        benchmark: "gemm".into(),
        architecture: "RTX 3090".into(),
        record,
    });
    let json = store.to_json();
    assert_eq!(json, PIN_CACHE_STORE);
    let back = CacheStore::from_json(&json).unwrap();
    assert_eq!(back, store);
    assert_eq!(back.to_json(), json);
}

const PIN_OPEN_DEFAULT: &str = r##"{"v":"bat/wire/v1","req":{"open":{"benchmark":"nbody","architecture":"A100","runs":5,"sigma":0.01,"noise_seed":0,"batch":1}}}"##;
const PIN_OPEN_FULL: &str = r##"{"v":"bat/wire/v1","req":{"open":{"benchmark":"gemm","architecture":"RTX 3090","runs":3,"sigma":1e-7,"noise_seed":18446744073709551615,"batch":8,"budget":40,"energy":true,"scalarization":{"chebyshev":{"time_weight":0.7,"time_scale_ms":1e16,"energy_scale_mj":-0.0}},"faults":{"transient_rate":0.1,"timeout_rate":0.0,"deadline_ms":5e-324,"outlier_rate":0.25,"outlier_factor":1.7976931348623157e308,"crash_rate":1.0,"fault_seed":0,"max_retries":2,"backoff_evals":1,"quarantine_after":4294967295}}}}"##;
const PIN_OPEN_NAN: &str = r##"{"v":"bat/wire/v1","req":{"open":{"benchmark":"gemm","architecture":"RTX 3090","runs":3,"sigma":1e-7,"noise_seed":18446744073709551615,"batch":8,"budget":40,"energy":true,"scalarization":{"weighted":{"time_weight":null,"time_scale_ms":1.0,"energy_scale_mj":2.5}}}}}"##;
const PIN_OPEN_EDP: &str = r##"{"v":"bat/wire/v1","req":{"open":{"benchmark":"gemm","architecture":"RTX 3090","runs":3,"sigma":1e-7,"noise_seed":18446744073709551615,"batch":8,"energy":true,"scalarization":"edp"}}}"##;
const PIN_EVAL: &str =
    r##"{"v":"bat/wire/v1","req":{"eval":{"session":3,"indices":[0,7,18446744073709551615]}}}"##;
const PIN_EVAL_EMPTY: &str = r##"{"v":"bat/wire/v1","req":{"eval":{"session":0,"indices":[]}}}"##;
const PIN_CLOSE: &str = r##"{"v":"bat/wire/v1","req":{"close":{"session":18446744073709551615}}}"##;
const PIN_CACHE_LOOKUP: &str = r##"{"v":"bat/wire/v1","req":{"cache_lookup":{"benchmark":"gemm","architecture":"q\"b\\s/n\nr\rt\tb\u0008f\u000cx\u0001y\u001f-é∑🦀","scenario":"objective=time;budget=40;runs=3;sigma=0.01;noise_seed=0;batch=1"}}}"##;
const PIN_PING: &str = r##"{"v":"bat/wire/v1","req":"ping"}"##;
const PIN_METRICS_REQ: &str = r##"{"v":"bat/wire/v1","req":"metrics"}"##;
const PIN_SHUTDOWN: &str = r##"{"v":"bat/wire/v1","req":"shutdown"}"##;
const PIN_OPENED: &str = r##"{"v":"bat/wire/v1","resp":{"opened":{"session":1,"problem":"gemm+energy","platform":"q\"b\\s/n\nr\rt\tb\u0008f\u000cx\u0001y\u001f-é∑🦀","budget_left":18446744073709551615}}}"##;
const PIN_OPENED_UNLIMITED: &str = r##"{"v":"bat/wire/v1","resp":{"opened":{"session":2,"problem":"gemm","platform":"RTX 3090"}}}"##;
const PIN_EVALUATED: &str = r##"{"v":"bat/wire/v1","resp":{"evaluated":{"session":4,"outcomes":[{"Ok":{"time_ms":1.5,"samples":[1.5,1.25,2.0]}},{"Ok":{"time_ms":-0.0,"samples":[1e-7,1e16,5e-324,1.7976931348623157e308,0.1,-2.5],"energy_mj":1e-300,"energy_samples":[3.0,0.3333333333333333]}},{"Err":"Restricted"},{"Err":{"Launch":"q\"b\\s/n\nr\rt\tb\u0008f\u000cx\u0001y\u001f-é∑🦀"}},{"Err":{"Transient":"driver flake"}},{"Err":"Timeout"},{"Err":{"Crash":""}}],"stats":{"evals":18446744073709551615,"distinct":0,"retries":7,"quarantined":1},"budget_left":0}}}"##;
const PIN_EVALUATED_NAN: &str = r##"{"v":"bat/wire/v1","resp":{"evaluated":{"session":5,"outcomes":[{"Ok":{"time_ms":null,"samples":[null,null,null]}}],"stats":{"evals":0,"distinct":0,"retries":0,"quarantined":0}}}}"##;
const PIN_CLOSED: &str = r##"{"v":"bat/wire/v1","resp":{"closed":{"session":4,"stats":{"evals":18446744073709551615,"distinct":0,"retries":7,"quarantined":1}}}}"##;
const PIN_CACHE_HIT: &str = r##"{"v":"bat/wire/v1","resp":{"cache_result":{"cell":{"benchmark":"gemm","architecture":"q\"b\\s/n\nr\rt\tb\u0008f\u000cx\u0001y\u001f-é∑🦀","scenario":"objective=time;budget=40","evals":3,"top":[{"config":{"a":-1},"ms":1e-7},{"config":{"a":-9223372036854775808,"b":9223372036854775807},"ms":1.5,"energy_mj":2.0}],"sketch":{"count":2,"min_ms":1e-7,"max_ms":1.5,"bins":[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}}}}}"##;
const PIN_CACHE_MISS: &str = r##"{"v":"bat/wire/v1","resp":{"cache_result":{}}}"##;
const PIN_PONG: &str = r##"{"v":"bat/wire/v1","resp":"pong"}"##;
const PIN_METRICS: &str = r##"{"v":"bat/wire/v1","resp":{"metrics":{"text":"# TYPE bat_x counter\nbat_x 3\nq\"b\\s/n\nr\rt\tb\u0008f\u000cx\u0001y\u001f-é∑🦀\n"}}}"##;
const PIN_SHUTTING_DOWN: &str = r##"{"v":"bat/wire/v1","resp":"shutting_down"}"##;
const PIN_ERRORS: [&str; 7] = [
    r##"{"v":"bat/wire/v1","resp":{"error":{"session":0,"error":{"eval":"Restricted"}}}}"##,
    r##"{"v":"bat/wire/v1","resp":{"error":{"error":{"eval":{"Crash":"boom"}}}}}"##,
    r##"{"v":"bat/wire/v1","resp":{"error":{"session":2,"error":{"transport":"connection reset"}}}}"##,
    r##"{"v":"bat/wire/v1","resp":{"error":{"error":{"wire":"q\"b\\s/n\nr\rt\tb\u0008f\u000cx\u0001y\u001f-é∑🦀"}}}}"##,
    r##"{"v":"bat/wire/v1","resp":{"error":{"session":4,"error":{"session":"unknown session id"}}}}"##,
    r##"{"v":"bat/wire/v1","resp":{"error":{"error":{"spec":"unknown benchmark \"x\""}}}}"##,
    r##"{"v":"bat/wire/v1","resp":{"error":{"session":6,"error":{"io":"disk full"}}}}"##,
];
const PIN_CACHE_STORE: &str = r##"{
  "schema": "bat/cache/v1",
  "cells": [
    {
      "benchmark": "gemm",
      "architecture": "q\"b\\s/n\nr\rt\tb\u0008f\u000cx\u0001y\u001f-é∑🦀",
      "scenario": "objective=time;budget=40",
      "evals": 3,
      "top": [
        {
          "config": {
            "a": -1
          },
          "ms": 1e-7
        },
        {
          "config": {
            "a": -9223372036854775808,
            "b": 9223372036854775807
          },
          "ms": 1.5,
          "energy_mj": 2.0
        }
      ],
      "sketch": {
        "count": 2,
        "min_ms": 1e-7,
        "max_ms": 1.5,
        "bins": [
          1,
          0,
          0,
          0,
          0,
          0,
          0,
          0,
          0,
          0,
          0,
          0,
          0,
          0,
          0,
          0,
          0,
          0,
          0,
          0,
          1,
          0,
          0,
          0,
          0,
          0,
          0,
          0,
          0,
          0,
          0,
          0,
          0,
          0,
          0,
          0,
          0,
          0,
          0,
          0
        ]
      }
    }
  ],
  "trials": [
    {
      "fingerprint": "bench=gemm;rep=0",
      "benchmark": "gemm",
      "architecture": "RTX 3090",
      "record": {
        "tuner": "q\"b\\s/n\nr\rt\tb\u0008f\u000cx\u0001y\u001f-é∑🦀",
        "rep": 0,
        "delta": -9223372036854775808,
        "big": 18446744073709551615,
        "curve": [
          {
            "evals": 1,
            "best_ms": -0.0
          },
          {
            "evals": 2,
            "best_ms": 5e-324
          }
        ],
        "empty_list": [],
        "empty_map": {},
        "nested": [
          [
            null,
            true,
            false,
            1e16
          ]
        ]
      }
    }
  ]
}"##;
