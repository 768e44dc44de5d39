//! # bat-server
//!
//! Tuning-as-a-service for the suite: a long-running daemon that hosts
//! many concurrent tuning sessions behind the `bat/wire/v1` protocol —
//! length-prefixed JSON frames carrying session open/close, evaluation
//! batches and budget/statistics accounting — plus the client-side
//! [`RemoteBackend`] implementing [`bat_core::EvalBackend`] over that
//! wire.
//!
//! Three deployment shapes share one contract:
//!
//! * **in-process** — `bat_core::Evaluator` used directly (no server);
//! * **loopback** — [`Daemon::connect_loopback`]: client and server in one
//!   process over the real codec (an in-memory [`duplex`] stream);
//! * **remote** — [`RemoteBackend::connect`] over TCP to a
//!   [`Daemon::serve`] instance.
//!
//! Because every shape runs the same shared ask/tell driver against the
//! same evaluator semantics (single-claim budgets, memoization, retry and
//! quarantine), campaign artifacts are byte-identical across all three —
//! which CI verifies.

#![warn(missing_docs)]

mod client;
pub mod codec;
mod daemon;
mod duplex;
mod metrics_http;
mod scheduler;
pub mod wire;

pub use client::RemoteBackend;
pub use daemon::{Daemon, ServerConfig};
pub use duplex::{duplex, DuplexStream};
pub use metrics_http::spawn_metrics_endpoint;
pub use scheduler::FairScheduler;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{EvalBatch, OpenSession, Request, Response};
    use bat_core::{EvalBackend, Evaluator, Protocol, TuningProblem};
    use bat_gpusim::GpuArch;
    use bat_tuners::Tuner;

    fn open_spec(budget: u64) -> OpenSession {
        let mut open = OpenSession::new("gemm", "RTX 3090", Protocol::default());
        open.budget = Some(budget);
        open
    }

    #[test]
    fn loopback_session_matches_in_process_byte_for_byte() {
        let daemon = Daemon::new(ServerConfig::default());
        let backend = RemoteBackend::open(daemon.connect_loopback(), open_spec(10)).unwrap();

        let problem = bat_kernels::benchmark("gemm", GpuArch::rtx_3090()).unwrap();
        let native = Evaluator::builder(&problem).budget(10).build().unwrap();

        assert_eq!(backend.problem_name(), problem.name());
        assert_eq!(backend.platform(), problem.platform());
        assert_eq!(backend.space().cardinality(), problem.space().cardinality());

        let indices = [0u64, 17, 17, 4242, 9];
        let remote = backend.evaluate_batch(&indices).unwrap();
        let local = Evaluator::evaluate_batch(&native, &indices);
        assert_eq!(remote, local);
        // Serialized forms agree byte for byte (the artifact argument).
        for (r, l) in remote.iter().zip(&local) {
            assert_eq!(
                serde_json::to_string(r).unwrap(),
                serde_json::to_string(l).unwrap()
            );
        }
        assert_eq!(backend.stats(), EvalBackend::stats(&native));
        assert_eq!(backend.budget_left(), native.budget_left());

        let stats = backend.close().unwrap();
        assert_eq!(stats.evals, 5);
    }

    #[test]
    fn budget_truncates_mid_batch_like_in_process() {
        let daemon = Daemon::new(ServerConfig::default());
        let backend = RemoteBackend::open(daemon.connect_loopback(), open_spec(3)).unwrap();
        let out = backend.evaluate_batch(&[1, 2, 3, 4, 5]).unwrap();
        assert_eq!(out.len(), 3, "budget of 3 affords exactly 3 of 5");
        assert!(!backend.has_budget());
        assert_eq!(backend.budget_left(), Some(0));
        let out = backend.evaluate_batch(&[6]).unwrap();
        assert!(out.is_empty(), "exhausted budget evaluates nothing");
    }

    #[test]
    fn tuner_over_loopback_matches_in_process_run() {
        let daemon = Daemon::new(ServerConfig::default());
        let mut open = OpenSession::new("pnpoly", "RTX 3090", Protocol::default().with_batch(4));
        open.budget = Some(24);
        let backend = RemoteBackend::open(daemon.connect_loopback(), open).unwrap();

        let tuner = bat_tuners::RandomSearch;
        let remote_run = tuner.try_tune(&backend, 7).unwrap();

        let problem = bat_kernels::benchmark("pnpoly", GpuArch::rtx_3090()).unwrap();
        let eval = Evaluator::builder(&problem)
            .protocol(Protocol::default().with_batch(4))
            .budget(24)
            .build()
            .unwrap();
        let local_run = tuner.tune(&eval, 7);

        assert_eq!(
            serde_json::to_string(&remote_run).unwrap(),
            serde_json::to_string(&local_run).unwrap()
        );
    }

    #[test]
    fn concurrent_sessions_respect_their_own_budgets() {
        let daemon = Daemon::new(ServerConfig {
            max_concurrent_batches: 2,
            max_inflight_per_session: 2,
            heartbeat_secs: 0,
        });
        let budgets = [5u64, 9, 13, 17, 21];
        let threads: Vec<_> = budgets
            .into_iter()
            .map(|budget| {
                let conn = daemon.connect_loopback();
                std::thread::spawn(move || {
                    let backend = RemoteBackend::open(conn, open_spec(budget)).unwrap();
                    let mut total = 0u64;
                    while backend.has_budget() {
                        total += backend.evaluate_batch(&[total, total + 1]).unwrap().len() as u64;
                    }
                    let stats = backend.close().unwrap();
                    (budget, total, stats.evals)
                })
            })
            .collect();
        for t in threads {
            let (budget, evaluated, reported) = t.join().unwrap();
            assert_eq!(evaluated, budget, "session spent exactly its budget");
            assert_eq!(reported, budget);
        }
    }

    #[test]
    fn overfull_pipeline_hits_backpressure() {
        let daemon = Daemon::new(ServerConfig {
            max_concurrent_batches: 1,
            max_inflight_per_session: 1,
            heartbeat_secs: 0,
        });
        let mut conn = daemon.connect_loopback();
        codec::write_request(&mut conn, Request::Open(open_spec(1_000))).unwrap();
        let Response::Opened(opened) = codec::read_response(&mut conn).unwrap() else {
            panic!("expected opened");
        };
        // Flood without reading responses: at least one eval must be
        // refused with a session (backpressure) error once the bounded
        // queue is full.
        let big: Vec<u64> = (0..64).collect();
        for _ in 0..12 {
            codec::write_request(
                &mut conn,
                Request::Eval(EvalBatch {
                    session: opened.session,
                    indices: big.clone(),
                }),
            )
            .unwrap();
        }
        let mut refused = 0;
        let mut served = 0;
        for _ in 0..12 {
            match codec::read_response(&mut conn).unwrap() {
                Response::Evaluated(_) => served += 1,
                Response::Error(e) => {
                    assert!(
                        matches!(e.error, bat_core::Error::Session(_)),
                        "{:?}",
                        e.error
                    );
                    assert!(e.error.to_string().contains("backpressure"), "{}", e.error);
                    refused += 1;
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert!(refused > 0, "bounded queue never refused a batch");
        assert!(served > 0, "some batches must still be served");
    }

    #[test]
    fn unknown_session_and_benchmark_are_typed_errors() {
        let daemon = Daemon::new(ServerConfig::default());
        let mut conn = daemon.connect_loopback();
        codec::write_request(
            &mut conn,
            Request::Eval(EvalBatch {
                session: 999,
                indices: vec![0],
            }),
        )
        .unwrap();
        let Response::Error(e) = codec::read_response(&mut conn).unwrap() else {
            panic!("expected error");
        };
        assert!(matches!(e.error, bat_core::Error::Session(_)));

        let mut open = open_spec(1);
        open.benchmark = "no-such-kernel".into();
        codec::write_request(&mut conn, Request::Open(open)).unwrap();
        let Response::Error(e) = codec::read_response(&mut conn).unwrap() else {
            panic!("expected error");
        };
        assert!(matches!(e.error, bat_core::Error::Spec(_)));
    }

    #[test]
    fn cache_lookup_serves_loaded_cells_and_misses_cleanly() {
        let scenario = "objective=time;budget=40;runs=3;sigma=0.01;noise_seed=0;batch=1";
        let mut store = bat_cache::CacheStore::new();
        store.observe(
            "gemm",
            "RTX 3090",
            scenario,
            &std::collections::BTreeMap::from([("block_size_x".to_string(), 128)]),
            0.75,
            None,
        );
        let daemon = Daemon::with_cache(ServerConfig::default(), std::sync::Arc::new(store));
        let mut conn = daemon.connect_loopback();

        let lookup = |conn: &mut DuplexStream, benchmark: &str| {
            codec::write_request(
                conn,
                Request::CacheLookup(wire::CacheLookup {
                    benchmark: benchmark.into(),
                    architecture: "RTX 3090".into(),
                    scenario: scenario.into(),
                }),
            )
            .unwrap();
            let Response::CacheResult(res) = codec::read_response(conn).unwrap() else {
                panic!("expected cache_result");
            };
            res.cell
        };

        let hit = lookup(&mut conn, "gemm").expect("loaded cell must hit");
        assert_eq!(hit.best().unwrap().ms, 0.75);
        assert_eq!(hit.best().unwrap().config["block_size_x"], 128);
        assert!(lookup(&mut conn, "nbody").is_none(), "unknown key misses");

        // A daemon without a cache answers every lookup with a miss.
        let bare = Daemon::new(ServerConfig::default());
        let mut conn = bare.connect_loopback();
        assert!(lookup(&mut conn, "gemm").is_none());
    }

    #[test]
    fn hostile_frames_leave_the_daemon_serving() {
        use std::io::Write as _;
        let daemon = Daemon::new(ServerConfig::default());
        let frame = |payload: &[u8], len: usize| {
            let mut out = (len as u32).to_be_bytes().to_vec();
            out.extend_from_slice(payload);
            out
        };
        let bomb = vec![b'['; 200_000];
        let mut envelope_bomb =
            br#"{"v":"bat/wire/v1","req":{"eval":{"session":1,"indices":"#.to_vec();
        envelope_bomb.extend_from_slice(&bomb);
        for hostile in [
            frame(&bomb, bomb.len()),
            frame(&envelope_bomb, envelope_bomb.len()),
            frame(b"[", codec::MAX_FRAME + 1),
        ] {
            let mut conn = daemon.connect_loopback();
            conn.write_all(&hostile).unwrap();
            // The daemon answers a bad frame with a wire error, and an
            // oversized one by hanging up; either way the connection ends.
            match codec::read_response(&mut conn) {
                Ok(Response::Error(e)) => {
                    assert!(matches!(e.error, bat_core::Error::Wire(_)), "{:?}", e.error);
                    assert!(e.error.to_string().contains("at byte"), "{}", e.error);
                }
                Err(e) => assert!(e.to_string().contains("connection closed"), "{e}"),
                Ok(other) => panic!("unexpected response {other:?}"),
            }
        }
        // A new connection still runs a whole session.
        let backend = RemoteBackend::open(daemon.connect_loopback(), open_spec(4)).unwrap();
        assert_eq!(backend.evaluate_batch(&[0, 1, 2, 3]).unwrap().len(), 4);
        assert_eq!(backend.close().unwrap().evals, 4);
    }

    #[test]
    fn ping_and_shutdown_round_trip() {
        let daemon = Daemon::new(ServerConfig::default());
        let mut conn = daemon.connect_loopback();
        codec::write_request(&mut conn, Request::Ping).unwrap();
        assert_eq!(codec::read_response(&mut conn).unwrap(), Response::Pong);
        assert!(!daemon.shutting_down());
        codec::write_request(&mut conn, Request::Shutdown).unwrap();
        assert_eq!(
            codec::read_response(&mut conn).unwrap(),
            Response::ShuttingDown
        );
        assert!(daemon.shutting_down());
    }

    /// A daemon serving TCP on `bind` from a thread of its own.
    struct Serving {
        daemon: std::sync::Arc<Daemon>,
        /// Where clients connect: loopback, at the listener's port.
        addr: std::net::SocketAddr,
        returned: std::sync::mpsc::Receiver<Result<(), bat_core::Error>>,
        thread: std::thread::JoinHandle<()>,
    }

    impl Serving {
        fn start(bind: &str) -> Serving {
            let daemon = std::sync::Arc::new(Daemon::new(ServerConfig::default()));
            let listener = std::net::TcpListener::bind(bind).unwrap();
            let addr = ([127, 0, 0, 1], listener.local_addr().unwrap().port()).into();
            let (tx, returned) = std::sync::mpsc::channel();
            let thread = {
                let daemon = std::sync::Arc::clone(&daemon);
                std::thread::spawn(move || {
                    let _ = tx.send(daemon.serve(listener));
                })
            };
            Serving {
                daemon,
                addr,
                returned,
                thread,
            }
        }

        /// Require `serve` to return `Ok` within 5 s, then join its thread.
        fn stopped(self) {
            let served = self
                .returned
                .recv_timeout(std::time::Duration::from_secs(5))
                .expect("serve returns within 5 s of shutdown");
            served.unwrap();
            self.thread.join().unwrap();
        }
    }

    /// Send `shutdown` over a loopback connection.
    fn shut_down(daemon: &Daemon) {
        let mut conn = daemon.connect_loopback();
        codec::write_request(&mut conn, Request::Shutdown).unwrap();
        assert_eq!(
            codec::read_response(&mut conn).unwrap(),
            Response::ShuttingDown
        );
    }

    /// A TCP connection set up as `RemoteBackend::connect` sets it up.
    fn tcp_connect(addr: std::net::SocketAddr) -> std::net::TcpStream {
        let conn = std::net::TcpStream::connect(addr).unwrap();
        conn.set_nodelay(true).unwrap();
        conn
    }

    #[test]
    fn tcp_session_matches_loopback() {
        let serving = Serving::start("127.0.0.1:0");
        let tcp = RemoteBackend::connect(&serving.addr.to_string(), open_spec(6)).unwrap();
        let loopback =
            RemoteBackend::open(serving.daemon.connect_loopback(), open_spec(6)).unwrap();
        let indices = [3u64, 1, 4, 1, 5, 9];
        assert_eq!(
            tcp.evaluate_batch(&indices).unwrap(),
            loopback.evaluate_batch(&indices).unwrap()
        );
        assert_eq!(tcp.close().unwrap(), loopback.close().unwrap());
        shut_down(&serving.daemon);
        serving.stopped();
    }

    #[test]
    fn shutdown_over_loopback_wakes_a_blocked_accept() {
        // A listener on an unspecified IP is woken through loopback.
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let serving = Serving::start(bind);
            // Once a TCP ping is answered, the loop is past its first
            // accept and blocks in the next one.
            let mut conn = tcp_connect(serving.addr);
            codec::write_request(&mut conn, Request::Ping).unwrap();
            assert_eq!(codec::read_response(&mut conn).unwrap(), Response::Pong);
            drop(conn);
            shut_down(&serving.daemon);
            serving.stopped();
        }
    }

    /// Run `exchange` on a TCP connection to a serving daemon, then shut
    /// the daemon down over that connection. Returns the exchange's wall
    /// time.
    fn time_tcp_exchange(exchange: impl FnOnce(&mut std::net::TcpStream)) -> std::time::Duration {
        let serving = Serving::start("127.0.0.1:0");
        let mut conn = tcp_connect(serving.addr);
        let started = std::time::Instant::now();
        exchange(&mut conn);
        let elapsed = started.elapsed();
        codec::write_request(&mut conn, Request::Shutdown).unwrap();
        assert_eq!(
            codec::read_response(&mut conn).unwrap(),
            Response::ShuttingDown
        );
        serving.stopped();
        elapsed
    }

    #[test]
    fn tcp_sequential_round_trips_do_not_wait_for_delayed_acks() {
        // A frame written in two pieces leaves its payload behind the
        // daemon's Nagle buffer until the client ACKs the prefix (~40 ms).
        let elapsed = time_tcp_exchange(|conn| {
            for _ in 0..100 {
                codec::write_request(conn, Request::Ping).unwrap();
                assert_eq!(codec::read_response(conn).unwrap(), Response::Pong);
            }
        });
        assert!(elapsed.as_secs_f64() < 1.0, "100 pings took {elapsed:?}");
    }

    #[test]
    fn tcp_fresh_connections_do_not_wait_for_an_accept_poll() {
        // An accept loop that sleeps 10 ms whenever no connection is
        // waiting makes each new connection wait for the end of a sleep.
        let serving = Serving::start("127.0.0.1:0");
        let started = std::time::Instant::now();
        for _ in 0..50 {
            let mut conn = tcp_connect(serving.addr);
            codec::write_request(&mut conn, Request::Ping).unwrap();
            assert_eq!(codec::read_response(&mut conn).unwrap(), Response::Pong);
        }
        let elapsed = started.elapsed();
        shut_down(&serving.daemon);
        serving.stopped();
        assert!(
            elapsed.as_secs_f64() < 0.25,
            "50 fresh connections took {elapsed:?}"
        );
    }

    #[test]
    fn tcp_pipelined_round_trips_do_not_wait_for_delayed_acks() {
        // With Nagle on the daemon's socket, the second response waits for
        // the client's delayed ACK of the first.
        let elapsed = time_tcp_exchange(|conn| {
            for _ in 0..50 {
                codec::write_request(conn, Request::Ping).unwrap();
                codec::write_request(conn, Request::Ping).unwrap();
                assert_eq!(codec::read_response(conn).unwrap(), Response::Pong);
                assert_eq!(codec::read_response(conn).unwrap(), Response::Pong);
            }
        });
        assert!(
            elapsed.as_secs_f64() < 1.0,
            "50 pipelined pairs took {elapsed:?}"
        );
    }
}
