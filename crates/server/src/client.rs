//! The remote evaluation backend: an [`EvalBackend`] over a wire
//! connection.
//!
//! [`RemoteBackend`] is the client half of the tuning service. It opens one
//! session on a daemon, keeps a client-side copy of the configuration
//! space (tuners decode candidates locally; only indices and outcomes
//! cross the wire), and mirrors the session's budget and statistics from
//! every response, so `has_budget`/`budget_left` answer synchronously —
//! the shared ask/tell driver runs against it exactly as it runs against
//! the in-process [`Evaluator`](bat_core::Evaluator).

use std::cell::{Cell, RefCell};
use std::io::{Read, Write};
use std::net::TcpStream;

use bat_core::{Error, EvalBackend, EvalOutcome, Protocol};
use bat_space::ConfigSpace;

use crate::codec;
use crate::wire::{CloseSession, EvalBatch, OpenSession, Request, Response, SessionStats};

/// One open tuning session over a wire connection (loopback or TCP).
///
/// The backend is strictly request/response: each `evaluate_batch` sends
/// one `eval` frame and blocks for its answer. Concurrency across sessions
/// comes from opening more connections (the daemon schedules them fairly);
/// the per-session in-flight bound exists for clients that pipeline by
/// hand on a raw connection.
pub struct RemoteBackend<S: Read + Write> {
    conn: RefCell<S>,
    session: u64,
    space: ConfigSpace,
    problem_name: String,
    platform: String,
    protocol: Protocol,
    budget_left: Cell<Option<u64>>,
    stats: Cell<SessionStats>,
}

impl RemoteBackend<TcpStream> {
    /// Connect to a daemon at `addr` (e.g. `"127.0.0.1:4780"`) and open a
    /// session there.
    pub fn connect(addr: &str, open: OpenSession) -> Result<Self, Error> {
        let conn = TcpStream::connect(addr)
            .map_err(|e| Error::transport(format!("connect {addr}: {e}")))?;
        conn.set_nodelay(true).map_err(Error::transport)?;
        RemoteBackend::open(conn, open)
    }
}

impl<S: Read + Write> RemoteBackend<S> {
    /// Open a session described by `open` over an established connection.
    ///
    /// The configuration space is reconstructed client-side from the
    /// kernel registry (it is a pure function of benchmark × architecture,
    /// so both sides agree by construction); the session's problem name
    /// and platform come back from the daemon, so scalarized sessions
    /// report their blended names exactly as in-process runs do.
    pub fn open(conn: S, open: OpenSession) -> Result<Self, Error> {
        let space = open.problem()?.space().clone();
        let protocol = open.protocol();
        let mut conn = conn;
        codec::write_request(&mut conn, Request::Open(open))?;
        match codec::read_response(&mut conn)? {
            Response::Opened(opened) => Ok(RemoteBackend {
                conn: RefCell::new(conn),
                session: opened.session,
                space,
                problem_name: opened.problem,
                platform: opened.platform,
                protocol,
                budget_left: Cell::new(opened.budget_left),
                stats: Cell::new(SessionStats::default()),
            }),
            Response::Error(e) => Err(e.error),
            other => Err(Error::wire(format!(
                "expected opened/error after open, got {other:?}"
            ))),
        }
    }

    /// The daemon-assigned session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Close the session, returning its final statistics.
    pub fn close(self) -> Result<SessionStats, Error> {
        let mut conn = self.conn.into_inner();
        codec::write_request(
            &mut conn,
            Request::Close(CloseSession {
                session: self.session,
            }),
        )?;
        match codec::read_response(&mut conn)? {
            Response::Closed(closed) => Ok(closed.stats),
            Response::Error(e) => Err(e.error),
            other => Err(Error::wire(format!(
                "expected closed/error after close, got {other:?}"
            ))),
        }
    }
}

impl<S: Read + Write> EvalBackend for RemoteBackend<S> {
    fn space(&self) -> &ConfigSpace {
        &self.space
    }

    fn problem_name(&self) -> &str {
        &self.problem_name
    }

    fn platform(&self) -> &str {
        &self.platform
    }

    fn protocol(&self) -> Protocol {
        self.protocol
    }

    fn evaluate_batch(&self, indices: &[u64]) -> Result<Vec<EvalOutcome>, Error> {
        let mut conn = self.conn.borrow_mut();
        codec::write_request(
            &mut *conn,
            Request::Eval(EvalBatch {
                session: self.session,
                indices: indices.to_vec(),
            }),
        )?;
        match codec::read_response(&mut *conn)? {
            Response::Evaluated(ev) => {
                if ev.session != self.session {
                    return Err(Error::wire(format!(
                        "response for session {}, expected {}",
                        ev.session, self.session
                    )));
                }
                self.stats.set(ev.stats);
                self.budget_left.set(ev.budget_left);
                Ok(ev.outcomes)
            }
            Response::Error(e) => Err(e.error),
            other => Err(Error::wire(format!(
                "expected evaluated/error after eval, got {other:?}"
            ))),
        }
    }

    fn budget_left(&self) -> Option<u64> {
        self.budget_left.get()
    }

    fn stats(&self) -> SessionStats {
        self.stats.get()
    }
}
