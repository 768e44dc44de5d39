//! The `bat serve` daemon: many concurrent tuning sessions, one machine.
//!
//! ## Lifecycle
//!
//! A [`Daemon`] owns the process-wide evaluation resources: the fair
//! scheduler gating how many batches measure at once, the session id
//! source and the shutdown flag. Connections arrive either over TCP
//! ([`Daemon::serve`]) or in-process over the loopback transport
//! ([`Daemon::connect_loopback`]); each connection gets a reader thread,
//! and each session opened on a connection gets a dedicated worker thread
//! that owns that session's problem and [`Evaluator`]. Sessions are the
//! daemon's parallelism: a worker measures each of its batches in order
//! on its own thread.
//!
//! The TCP accept loop blocks in `accept`, so a new connection is read
//! as soon as it arrives. A `shutdown` request, over TCP or loopback,
//! sets the flag, answers, and then opens one throwaway connection to
//! every listening address to wake the blocked `accept`; the loop checks
//! the flag after every accept and returns. A connection the daemon
//! cannot set up (typically for want of file descriptors) is dropped and
//! counted in `bat_serve_accept_errors_total`; the loop waits a short
//! back-off and accepts again, so only that connection is lost.
//!
//! ## Session model
//!
//! Sessions are connection-scoped: `open` allocates a daemon-unique id,
//! `eval` requests are forwarded to the session's worker over a *bounded*
//! queue, `close` returns the final statistics. When a connection drops,
//! its sessions are torn down with it — resumability lives a layer up, in
//! the campaign checkpoint artifacts, which a reconnecting client replays
//! to skip already-completed trials.
//!
//! ## Backpressure and fairness
//!
//! Two mechanisms keep one client from monopolizing the daemon:
//!
//! * **per-session in-flight bound** — each session buffers at most
//!   [`ServerConfig::max_inflight_per_session`] unprocessed batches;
//!   further `eval` requests are refused with a `session` error instead of
//!   queueing without limit.
//! * **fair scheduling** — at most
//!   [`ServerConfig::max_concurrent_batches`] batches evaluate at once,
//!   granted in round-robin arrival order across sessions
//!   (see [`FairScheduler`]).

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bat_cache::CacheStore;
use bat_core::{Error, EvalBackend, Evaluator};

use crate::codec;
use crate::duplex::{duplex, DuplexStream};
use crate::scheduler::FairScheduler;
use crate::wire::{
    CacheResult, Closed, ErrorResponse, EvalBatch, Evaluated, OpenSession, Opened, Request,
    Response, SessionStats,
};

/// Tunable limits of one daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Batches evaluating concurrently across all sessions (fair
    /// round-robin beyond that).
    pub max_concurrent_batches: usize,
    /// Unprocessed batches one session may buffer before further `eval`
    /// requests are refused (backpressure).
    pub max_inflight_per_session: usize,
    /// Seconds between heartbeat lines on stderr (sessions open, evals/s,
    /// backpressure since the last beat). `0` disables the heartbeat —
    /// the default, so embedded daemons (tests, loopback) stay silent.
    pub heartbeat_secs: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_concurrent_batches: 4,
            max_inflight_per_session: 2,
            heartbeat_secs: 0,
        }
    }
}

/// Observability handles for the daemon. Telemetry only — refusal and
/// scheduling behaviour are driven by the config, never by these.
struct ServeMetrics {
    sessions_open: &'static bat_obs::metrics::Gauge,
    sessions_total: &'static bat_obs::metrics::Counter,
    requests: &'static bat_obs::metrics::Counter,
    backpressure: &'static bat_obs::metrics::Counter,
    inflight: &'static bat_obs::metrics::Gauge,
    accept_errors: &'static bat_obs::metrics::Counter,
}

fn obs() -> &'static ServeMetrics {
    use bat_obs::metrics::{counter, gauge};
    static M: std::sync::OnceLock<ServeMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| ServeMetrics {
        sessions_open: gauge("bat_serve_sessions_open", "Sessions currently open."),
        sessions_total: counter("bat_serve_sessions_total", "Sessions opened since start."),
        requests: counter("bat_serve_requests_total", "Wire requests decoded."),
        backpressure: counter(
            "bat_serve_backpressure_total",
            "Eval requests refused because a session's in-flight bound was full.",
        ),
        inflight: gauge(
            "bat_serve_inflight",
            "Eval batches accepted but not yet picked up by a session worker.",
        ),
        accept_errors: counter(
            "bat_serve_accept_errors_total",
            "TCP connections dropped because accepting or setting them up failed.",
        ),
    })
}

/// How long the accept loop waits after a connection it could not set
/// up. Out of file descriptors, `accept` fails at once and leaves the
/// connection queued, so retrying without a pause would spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Daemon-wide shared state.
struct Shared {
    scheduler: FairScheduler,
    next_session: AtomicU64,
    shutdown: AtomicBool,
    /// Addresses [`Daemon::serve`] listens on, an unspecified IP mapped
    /// to loopback: `shutdown` connects to each to wake its `accept`.
    listening: Mutex<Vec<SocketAddr>>,
    /// Loaded `bat/cache/v1` store answering `cache_lookup` requests.
    /// Every connection thread shares one immutable store, so lookups
    /// never contend with evaluation.
    cache: Option<Arc<CacheStore>>,
}

/// A tuning daemon hosting concurrent evaluation sessions.
pub struct Daemon {
    config: ServerConfig,
    shared: Arc<Shared>,
}

impl Daemon {
    /// A daemon with the given limits. A nonzero
    /// [`ServerConfig::heartbeat_secs`] starts the heartbeat thread, which
    /// lives until the daemon is dropped or shut down.
    pub fn new(config: ServerConfig) -> Daemon {
        Daemon::build(config, None)
    }

    /// A daemon that additionally serves `cache_lookup` requests from the
    /// given store (a cache loaded at startup by `bat serve --cache`).
    /// Without one, lookups answer a miss.
    pub fn with_cache(config: ServerConfig, cache: Arc<CacheStore>) -> Daemon {
        Daemon::build(config, Some(cache))
    }

    fn build(config: ServerConfig, cache: Option<Arc<CacheStore>>) -> Daemon {
        let daemon = Daemon {
            config,
            shared: Arc::new(Shared {
                scheduler: FairScheduler::new(config.max_concurrent_batches),
                next_session: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
                listening: Mutex::new(Vec::new()),
                cache,
            }),
        };
        if config.heartbeat_secs > 0 {
            let weak = Arc::downgrade(&daemon.shared);
            let period = std::time::Duration::from_secs(config.heartbeat_secs);
            std::thread::spawn(move || heartbeat_loop(weak, period));
        }
        daemon
    }

    /// True once a client sent `shutdown`.
    pub fn shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Open an in-process (loopback) connection to this daemon: the
    /// returned stream speaks the real `bat/wire/v1` codec to a handler
    /// thread, exercising every serialization boundary of the remote path
    /// without a socket.
    pub fn connect_loopback(&self) -> DuplexStream {
        let (client, server) = duplex();
        let shared = Arc::clone(&self.shared);
        let config = self.config;
        let reader = server.clone();
        std::thread::spawn(move || {
            handle_connection(shared, config, reader, Arc::new(Mutex::new(server)));
        });
        client
    }

    /// Accept TCP connections until a client sends `shutdown`.
    ///
    /// The listener is put in blocking mode and the loop blocks in
    /// `accept`, so each connection is served as it arrives. `shutdown`
    /// (on any connection, loopback included) wakes the loop with a
    /// throwaway connection to the listening address (`127.0.0.1` or
    /// `::1` when the listener is bound to an unspecified IP), and `serve`
    /// returns `Ok`. A connection that fails to be accepted or set up is
    /// dropped and counted in `bat_serve_accept_errors_total`, and the
    /// loop waits 10 ms before accepting again; the daemon keeps serving.
    /// Errors only if the listener cannot be switched to blocking mode or
    /// report its address.
    pub fn serve(&self, listener: TcpListener) -> Result<(), Error> {
        listener.set_nonblocking(false).map_err(Error::io)?;
        let mut addr = listener.local_addr().map_err(Error::io)?;
        match addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(Ipv4Addr::LOCALHOST.into()),
            IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(Ipv6Addr::LOCALHOST.into()),
            _ => {}
        }
        // Registered before the first flag check, so a `shutdown` that
        // lands in between still finds this listener to wake.
        self.shared
            .listening
            .lock()
            .expect("listener list poisoned")
            .push(addr);
        while !self.shutting_down() {
            let accepted = listener.accept().and_then(|(stream, _peer)| {
                // Responses go out as soon as they are written; with
                // Nagle on, a response queued behind an unacknowledged
                // one waits for the client's delayed ACK.
                stream.set_nodelay(true)?;
                Ok((stream.try_clone()?, stream))
            });
            match accepted {
                Ok(_) if self.shutting_down() => break,
                Ok((reader, stream)) => {
                    let shared = Arc::clone(&self.shared);
                    let config = self.config;
                    std::thread::spawn(move || {
                        handle_connection(shared, config, reader, Arc::new(Mutex::new(stream)));
                    });
                }
                Err(_) => {
                    obs().accept_errors.inc();
                    std::thread::sleep(ACCEPT_BACKOFF);
                }
            }
        }
        Ok(())
    }
}

/// Commands a connection reader forwards to a session worker.
enum SessionCmd {
    Eval(Vec<u64>),
    Close,
}

/// One heartbeat line from the current registry readings and the previous
/// beat's totals. Factored out of the thread so the format is testable.
fn heartbeat_line(prev_evals: u64, prev_bp: u64, secs: f64) -> (String, u64, u64) {
    let sessions = bat_obs::metrics::gauge_value("bat_serve_sessions_open").unwrap_or(0);
    let evals = bat_obs::metrics::counter_value("bat_eval_evals_total").unwrap_or(0);
    let bp = bat_obs::metrics::counter_value("bat_serve_backpressure_total").unwrap_or(0);
    let rate = if secs > 0.0 {
        (evals.saturating_sub(prev_evals)) as f64 / secs
    } else {
        0.0
    };
    let line = format!(
        "bat serve: heartbeat sessions={} evals/s={:.1} backpressure=+{}",
        sessions,
        rate,
        bp.saturating_sub(prev_bp)
    );
    (line, evals, bp)
}

/// Heartbeat thread body: one line per period on stderr, exiting when the
/// daemon is dropped or shut down. Sleeps in short steps so exit latency
/// stays bounded regardless of the period.
fn heartbeat_loop(shared: std::sync::Weak<Shared>, period: std::time::Duration) {
    let step = std::time::Duration::from_millis(200);
    let mut prev_evals = bat_obs::metrics::counter_value("bat_eval_evals_total").unwrap_or(0);
    let mut prev_bp = 0u64;
    loop {
        let beat_started = std::time::Instant::now();
        while beat_started.elapsed() < period {
            std::thread::sleep(step.min(period));
            match shared.upgrade() {
                None => return,
                Some(s) if s.shutdown.load(Ordering::SeqCst) => return,
                Some(_) => {}
            }
        }
        let (line, evals, bp) =
            heartbeat_line(prev_evals, prev_bp, beat_started.elapsed().as_secs_f64());
        eprintln!("{line}");
        prev_evals = evals;
        prev_bp = bp;
    }
}

/// Serialize one response onto the connection's shared writer. Write
/// failures mean the client hung up; the reader thread will notice on its
/// next read, so they are ignored here.
fn respond<W: Write>(writer: &Mutex<W>, resp: Response) {
    let mut w = writer.lock().expect("connection writer poisoned");
    let _ = codec::write_response(&mut *w, resp);
}

fn session_error(session: Option<u64>, error: Error) -> Response {
    Response::Error(ErrorResponse { session, error })
}

/// One connection's read-dispatch loop: decode requests, route them to
/// session workers, answer protocol-level requests inline.
fn handle_connection<R: Read, W: Write + Send + 'static>(
    shared: Arc<Shared>,
    config: ServerConfig,
    mut reader: R,
    writer: Arc<Mutex<W>>,
) {
    let mut sessions: HashMap<u64, SyncSender<SessionCmd>> = HashMap::new();
    loop {
        let req = match codec::read_request(&mut reader) {
            Ok(req) => req,
            // Disconnect or an undecodable frame: report what we can and
            // stop; dropping the senders tears the session workers down.
            Err(Error::Transport(_)) => break,
            Err(e) => {
                respond(&writer, session_error(None, e));
                break;
            }
        };
        obs().requests.inc();
        match req {
            Request::Ping => respond(&writer, Response::Pong),
            Request::Metrics => respond(
                &writer,
                Response::Metrics(crate::wire::MetricsReport {
                    text: bat_obs::metrics::render_prometheus(),
                }),
            ),
            Request::CacheLookup(q) => {
                // A daemon without a cache still records the (necessarily
                // missed) lookup so hit rates stay honest.
                let cell = shared
                    .cache
                    .as_ref()
                    .and_then(|store| store.cell(&q.benchmark, &q.architecture, &q.scenario))
                    .cloned();
                bat_cache::record_lookup(cell.is_some());
                respond(&writer, Response::CacheResult(CacheResult { cell }));
            }
            Request::Shutdown => {
                shared.shutdown.store(true, Ordering::SeqCst);
                respond(&writer, Response::ShuttingDown);
                // Answer first: `bat serve` exits once `serve` returns.
                // Then wake every blocked accept, whose loop sees the
                // flag; if a connect fails (say, out of file descriptors),
                // that loop returns after its next accept instead.
                let listening = shared
                    .listening
                    .lock()
                    .expect("listener list poisoned")
                    .clone();
                for addr in listening {
                    let _ = TcpStream::connect(addr);
                }
            }
            Request::Open(open) => {
                let id = shared.next_session.fetch_add(1, Ordering::SeqCst) + 1;
                let (tx, rx) = std::sync::mpsc::sync_channel::<SessionCmd>(
                    config.max_inflight_per_session.max(1),
                );
                let shared = Arc::clone(&shared);
                let writer = Arc::clone(&writer);
                std::thread::spawn(move || session_worker(shared, writer, id, open, rx));
                sessions.insert(id, tx);
            }
            Request::Eval(EvalBatch { session, indices }) => match sessions.get(&session) {
                None => respond(
                    &writer,
                    session_error(Some(session), Error::session("unknown session id")),
                ),
                Some(tx) => match tx.try_send(SessionCmd::Eval(indices)) {
                    Ok(()) => obs().inflight.add(1),
                    Err(TrySendError::Full(_)) => {
                        obs().backpressure.inc();
                        respond(
                            &writer,
                            session_error(
                                Some(session),
                                Error::session(format!(
                                "backpressure: session {session} already has {} in-flight batches",
                                config.max_inflight_per_session.max(1)
                            )),
                            ),
                        )
                    }
                    Err(TrySendError::Disconnected(_)) => respond(
                        &writer,
                        session_error(Some(session), Error::session("session terminated")),
                    ),
                },
            },
            Request::Close(close) => match sessions.remove(&close.session) {
                None => respond(
                    &writer,
                    session_error(Some(close.session), Error::session("unknown session id")),
                ),
                // Blocking send: queued batches finish first, then the
                // worker answers `closed` and exits. A dead worker already
                // reported its error.
                Some(tx) => {
                    let _ = tx.send(SessionCmd::Close);
                }
            },
        }
    }
}

/// The statistics snapshot of one evaluator — the shared
/// [`EvalBackend::stats`] reading, so wire responses report exactly the
/// tallies the evaluator counted.
fn stats_of(eval: &Evaluator<'_>) -> SessionStats {
    EvalBackend::stats(eval)
}

/// A session worker: builds the session's problem and evaluator with
/// [`OpenSession::problem`] and [`OpenSession::evaluator`], as in-process
/// campaign trials do, then serves eval/close commands until the
/// connection goes away.
fn session_worker<W: Write>(
    shared: Arc<Shared>,
    writer: Arc<Mutex<W>>,
    id: u64,
    open: OpenSession,
    rx: Receiver<SessionCmd>,
) {
    let writer = &*writer;
    let problem = match open.problem() {
        Ok(problem) => problem,
        Err(e) => {
            respond(writer, session_error(Some(id), e));
            return;
        }
    };
    let eval = match open.evaluator(&*problem) {
        Ok(eval) => eval,
        Err(e) => {
            respond(writer, session_error(Some(id), e));
            return;
        }
    };
    // Open-session gauge, decremented however the worker exits (close,
    // connection drop, panic unwind).
    struct OpenGuard;
    impl Drop for OpenGuard {
        fn drop(&mut self) {
            obs().sessions_open.sub(1);
        }
    }
    obs().sessions_open.add(1);
    obs().sessions_total.inc();
    let _open = OpenGuard;
    respond(
        writer,
        Response::Opened(Opened {
            session: id,
            problem: problem.name().to_string(),
            platform: problem.platform().to_string(),
            budget_left: eval.budget_left(),
        }),
    );
    while let Ok(cmd) = rx.recv() {
        match cmd {
            SessionCmd::Eval(indices) => {
                obs().inflight.sub(1);
                // The fair scheduler grants this batch its turn; the
                // budget itself is charged inside `evaluate_batch`'s
                // single CAS claim, so per-session budgets hold exactly
                // no matter how turns interleave.
                let outcomes = shared.scheduler.run(|| eval.evaluate_batch(&indices));
                respond(
                    writer,
                    Response::Evaluated(Evaluated {
                        session: id,
                        outcomes,
                        stats: stats_of(&eval),
                        budget_left: eval.budget_left(),
                    }),
                );
            }
            SessionCmd::Close => {
                respond(
                    writer,
                    Response::Closed(Closed {
                        session: id,
                        stats: stats_of(&eval),
                    }),
                );
                return;
            }
        }
    }
    // Connection dropped without a close: tear down silently.
}
