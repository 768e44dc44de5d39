//! The `served` client: a closed loop of tuning sessions against a
//! `bat serve` daemon over TCP, one connection per session, each session
//! opening with a `cache_lookup` for its cell — the way
//! `bat campaign --connect HOST:PORT` runs its trials, plus the lookup.

use std::io::Write as _;
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use bat_cache::CacheStore;
use bat_core::{EvalBackend, EvalStats};
use bat_harness::{scenario_of, tuner_by_name, CampaignResult, CompiledTrial, ExperimentSpec};
use bat_harness::{RecordLevel, TrialRecord, RESULT_SCHEMA};
use bat_server::codec;
use bat_server::wire::{
    CacheLookup, CacheResult, CloseSession, Closed, EvalBatch, Evaluated, OpenSession, Opened,
    Request, Response,
};
use bat_server::RemoteBackend;

use crate::campaign::{self, Counters};
use crate::trace::{Tracer, REPLAY};

/// Client options.
pub struct Args<'a> {
    pub addr: &'a str,
    pub dir: &'a Path,
    pub seconds: f64,
    pub trace: bool,
    pub ready_only: bool,
}

/// One pass over every session of the spec.
struct Loop {
    wall_s: f64,
    requests: u64,
    failed: u64,
}

/// The wire session a compiled time-objective trial opens, as the
/// harness describes it to a daemon.
fn open_session(ct: &CompiledTrial) -> OpenSession {
    let mut open = OpenSession::new(&ct.key.benchmark, &ct.key.architecture, ct.protocol);
    open.budget = Some(ct.budget);
    open
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    Ok(stream)
}

fn request(stream: &mut TcpStream, req: Request) -> Result<Response, String> {
    codec::write_request(stream, req).map_err(|e| e.to_string())?;
    codec::read_response(stream).map_err(|e| e.to_string())
}

/// Ping until the daemon answers: it serves only once its cache loaded.
fn wait_ready(addr: &str) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(150);
    loop {
        let answer = connect(addr).and_then(|mut s| request(&mut s, Request::Ping));
        match answer {
            Ok(Response::Pong) => return Ok(()),
            Ok(other) => return Err(format!("expected pong, got {other:?}")),
            Err(e) if Instant::now() > deadline => return Err(format!("daemon not ready: {e}")),
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn shutdown(addr: &str) -> Result<(), String> {
    match request(&mut connect(addr)?, Request::Shutdown)? {
        Response::ShuttingDown => Ok(()),
        other => Err(format!("expected shutting_down, got {other:?}")),
    }
}

/// What one session produced.
struct Session {
    record: TrialRecord,
    rtts_us: Vec<f64>,
    requests: u64,
    hit: bool,
}

/// Run one trial as a served session.
fn session(
    tr: &mut Tracer,
    c: &mut Counters,
    addr: &str,
    scenario: &str,
    ct: &CompiledTrial,
    replay: bool,
) -> Result<Session, String> {
    let id = tr.open("session");
    let t = Instant::now();
    let mut stream = tr.span("server.open", || connect(addr))?;
    let connect_us = t.elapsed().as_secs_f64() * 1e6;
    let lookup = CacheLookup {
        benchmark: ct.key.benchmark.clone(),
        architecture: ct.key.architecture.clone(),
        scenario: scenario.to_string(),
    };
    let t = Instant::now();
    let cell = match tr.span("cache.lookup", || {
        request(&mut stream, Request::CacheLookup(lookup.clone()))
    })? {
        Response::CacheResult(r) => r.cell,
        other => return Err(format!("expected cache_result, got {other:?}")),
    };
    let mut rtts_us = vec![t.elapsed().as_secs_f64() * 1e6];
    let open = open_session(ct);
    let t = Instant::now();
    let backend = tr
        .span("server.open", || RemoteBackend::open(stream, open.clone()))
        .map_err(|e| e.to_string())?;
    // The open round trip includes the connection it rides on.
    rtts_us.push(connect_us + t.elapsed().as_secs_f64() * 1e6);
    let tuner =
        tuner_by_name(&ct.key.tuner).ok_or_else(|| format!("unknown tuner {:?}", ct.key.tuner))?;
    let names = backend.space().names().to_vec();
    let (run, sizes, gaps_us) = campaign::drive(tr, tuner.as_ref(), &backend, ct.seed)?;
    rtts_us.extend(gaps_us);
    let stats = EvalBackend::stats(&backend);
    let keep_history = ct.record == RecordLevel::Full;
    let record = tr.span("harness.trial_record", || {
        TrialRecord::from_run(&ct.key, ct.seed, &run, &names, stats, keep_history)
    });
    let session_id = backend.session();
    let (problem_name, platform) = (
        backend.problem_name().to_string(),
        backend.platform().to_string(),
    );
    let t = Instant::now();
    tr.span("server.close", || backend.close())
        .map_err(|e| e.to_string())?;
    rtts_us.push(t.elapsed().as_secs_f64() * 1e6);
    tr.close(id);
    let requests = rtts_us.len() as u64;

    if replay {
        let rp = tr.open(REPLAY);
        let arch = bat_gpusim::GpuArch::by_name(&ct.key.architecture)
            .ok_or_else(|| format!("unknown GPU {:?}", ct.key.architecture))?;
        let problem = bat_kernels::benchmark(&ct.key.benchmark, arch)
            .ok_or_else(|| format!("unknown benchmark {:?}", ct.key.benchmark))?;
        campaign::replay_eval(c, &problem, ct, &run, &sizes);
        let mut requests = vec![Request::CacheLookup(lookup), Request::Open(open)];
        let mut responses = vec![
            Response::CacheResult(CacheResult { cell: cell.clone() }),
            Response::Opened(Opened {
                session: session_id,
                problem: problem_name,
                platform,
                budget_left: Some(ct.budget),
            }),
        ];
        let mut at = 0;
        let mut evals = 0;
        for &n in &sizes {
            let end = (at + n).min(run.trials.len());
            let batch = &run.trials[at..end];
            evals += batch.len() as u64;
            requests.push(Request::Eval(EvalBatch {
                session: session_id,
                indices: batch.iter().map(|t| t.index).collect(),
            }));
            responses.push(Response::Evaluated(Evaluated {
                session: session_id,
                outcomes: batch.iter().map(|t| t.outcome.clone()).collect(),
                stats: EvalStats { evals, ..stats },
                budget_left: Some(ct.budget - evals),
            }));
            at = end;
        }
        requests.push(Request::Close(CloseSession {
            session: session_id,
        }));
        responses.push(Response::Closed(Closed {
            session: session_id,
            stats,
        }));
        replay_codec(c, requests, responses)?;
        tr.close(rp);
    }
    Ok(Session {
        record,
        rtts_us,
        requests,
        hit: cell.is_some(),
    })
}

/// Encode every frame of a session through the codec into memory, then
/// decode them back, timing each direction.
fn replay_codec(
    c: &mut Counters,
    requests: Vec<Request>,
    responses: Vec<Response>,
) -> Result<(), String> {
    let (nreq, nresp) = (requests.len(), responses.len());
    let (mut req_buf, mut resp_buf) = (Vec::new(), Vec::new());
    let t = Instant::now();
    for r in requests {
        codec::write_request(&mut req_buf, r).map_err(|e| e.to_string())?;
    }
    for r in responses {
        codec::write_response(&mut resp_buf, r).map_err(|e| e.to_string())?;
    }
    c.wire_encode_s += t.elapsed().as_secs_f64();
    c.frame_bytes += (req_buf.len() + resp_buf.len()) as u64;
    let t = Instant::now();
    let mut cur = std::io::Cursor::new(&req_buf);
    for _ in 0..nreq {
        codec::read_request(&mut cur).map_err(|e| e.to_string())?;
    }
    let mut cur = std::io::Cursor::new(&resp_buf);
    for _ in 0..nresp {
        codec::read_response(&mut cur).map_err(|e| e.to_string())?;
    }
    c.wire_decode_s += t.elapsed().as_secs_f64();
    Ok(())
}

/// Everything a loop needs besides the tracer.
struct Client<'a> {
    args: &'a Args<'a>,
    spec: ExperimentSpec,
    compiled: Vec<CompiledTrial>,
    scenario: String,
    reference: String,
}

impl Client<'_> {
    /// One closed-loop pass over every session, checked against the
    /// in-process artifact.
    fn pass(
        &self,
        tr: &mut Tracer,
        c: &mut Counters,
        rtts: &mut Vec<f64>,
        replay: bool,
    ) -> Result<Loop, String> {
        let t = Instant::now();
        let root = tr.open("campaign");
        let mut records = Vec::with_capacity(self.compiled.len());
        let mut requests = 0;
        for ct in &self.compiled {
            let s = session(tr, c, self.args.addr, &self.scenario, ct, replay)?;
            requests += s.requests;
            c.cache_lookups += 1;
            c.cache_hits += u64::from(s.hit);
            rtts.extend(s.rtts_us);
            records.push(s.record);
        }
        tr.close(root);
        let wall_s = t.elapsed().as_secs_f64();
        let artifact = CampaignResult {
            schema: RESULT_SCHEMA.to_string(),
            spec: self.spec.clone(),
            trials: records,
        }
        .to_json();
        let failed = if artifact == self.reference {
            0
        } else {
            eprintln!("served: the served artifact differs from the in-process one");
            requests
        };
        Ok(Loop {
            wall_s,
            requests,
            failed,
        })
    }
}

fn loop_json(l: &Loop) -> String {
    format!(
        "{{\"wall_s\":{},\"requests\":{},\"failed\":{}}}",
        l.wall_s, l.requests, l.failed
    )
}

/// Print a line on which the driver script samples the CPU clocks of
/// this client and of the daemon: one before the first pass, one after
/// every pass, and one more before the traced pass.
fn mark() {
    println!("mark");
    let _ = std::io::stdout().flush();
}

/// Run the client: set up, report readiness on stdout, warm up with one
/// session, loop for `seconds` (at least one pass), and print one JSON
/// line of results.
pub fn main(args: &Args<'_>) -> Result<(), String> {
    let mut setup = Tracer::new();
    let mut c = Counters::default();
    let (spec, compiled) =
        campaign::load_spec(&mut setup, &mut c, &args.dir.join("served.json"), None)?;
    let reference = std::fs::read_to_string(args.dir.join("served-ref.json"))
        .map_err(|e| format!("reading the in-process artifact: {e}"))?;
    wait_ready(args.addr)?;
    println!("ready");
    let _ = std::io::stdout().flush();
    if args.ready_only {
        return shutdown(args.addr);
    }
    let client = Client {
        args,
        scenario: scenario_of(&spec),
        spec,
        compiled,
        reference,
    };

    // Untimed warm-up: the first session once.
    let first = &client.compiled[0];
    session(
        &mut Tracer::new(),
        &mut c,
        args.addr,
        &client.scenario,
        first,
        false,
    )?;

    let mut rtts = Vec::new();
    let mut loops = Vec::new();
    let start = Instant::now();
    mark();
    loop {
        loops.push(client.pass(
            &mut Tracer::new(),
            &mut Counters::default(),
            &mut rtts,
            false,
        )?);
        mark();
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let mut traced = String::new();
    if args.trace {
        // The daemon's cache load, replayed here: set-up work of `served`.
        let text = setup
            .span("cache.load", || {
                std::fs::read_to_string(args.dir.join("fix.json"))
            })
            .map_err(|e| format!("reading the fixture: {e}"))?;
        c.cache_bytes += text.len() as u64;
        campaign::parse(&mut setup, &mut c, &text, CacheStore::from_json)?;
        let mut tr = Tracer::new();
        let mut tc = Counters::default();
        mark();
        let l = client.pass(&mut tr, &mut tc, &mut Vec::new(), true)?;
        mark();
        tr.write_jsonl(&args.dir.join("spans-served.jsonl"))
            .map_err(|e| format!("writing spans: {e}"))?;
        let mut layers = crate::layers(&tr, &tc);
        let set_up = crate::layers(&setup, &c);
        for name in [
            "harness.compile_s",
            "serde_json.parse_s",
            "serde_json.parse_bytes",
            "cache.load_s",
            "cache.bytes",
        ] {
            let v = set_up
                .iter()
                .find(|(k, _)| k == name)
                .map_or(0.0, |(_, v)| *v);
            layers.retain(|(k, _)| k != name);
            layers.push((name.to_string(), v));
        }
        layers.push(("server.requests".into(), l.requests as f64));
        layers.push(("server.frame_bytes".into(), tc.frame_bytes as f64));
        layers.push(("server.encode_s".into(), tc.wire_encode_s));
        layers.push(("server.decode_s".into(), tc.wire_decode_s));
        traced = format!(
            ",\"traced\":{},\"layers\":{}",
            loop_json(&l),
            crate::json_object(&layers)
        );
    }
    let rtt_list: Vec<String> = rtts.iter().map(|r| format!("{r:.3}")).collect();
    println!(
        "{{\"loops\":[{}],\"rtt_us\":[{}]{traced}}}",
        loops.iter().map(loop_json).collect::<Vec<_>>().join(","),
        rtt_list.join(","),
    );
    shutdown(args.addr)
}
