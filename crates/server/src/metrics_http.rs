//! The `bat serve --metrics ADDR` exposition endpoint.
//!
//! A deliberately tiny HTTP/1.1 responder: any request — whatever the
//! method or path — is answered with the full metrics registry rendered as
//! Prometheus text exposition (`text/plain; version=0.0.4`). That is the
//! whole protocol surface Prometheus, `curl` and CI scrapes need, and it
//! keeps the endpoint dependency-free like the rest of the stack.
//!
//! The listener runs on its own detached thread and lives for the process
//! (the daemon's lifetime); per-connection errors are ignored — a scraper
//! that hangs up early is not the daemon's problem.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

/// Answer one scrape connection: consume the request head, send the
/// exposition. Returns any I/O error for the caller to ignore.
fn serve_one(stream: TcpStream) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    // Read the request line and headers up to the blank line; the body (if
    // any) is irrelevant to a scrape.
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    let body = bat_obs::metrics::render_prometheus();
    let mut stream = stream;
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Serve Prometheus text exposition on `listener` from a detached thread,
/// forever. Returns the thread handle (callers usually drop it — the
/// endpoint lives for the process).
pub fn spawn_metrics_endpoint(listener: TcpListener) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            // Scrapes are tiny; handle inline rather than per-connection
            // threads.
            let _ = serve_one(stream);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn endpoint_answers_a_plain_get_with_exposition() {
        // Touch a counter so the exposition is non-empty under default
        // features.
        bat_obs::metrics::counter("bat_http_test_total", "test").inc();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _endpoint = spawn_metrics_endpoint(listener);
        let mut conn = TcpStream::connect(addr).unwrap();
        write!(conn, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut resp = String::new();
        conn.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        assert!(resp.contains("Content-Type: text/plain"), "{resp}");
        assert!(resp.contains("bat_http_test_total 1"), "{resp}");
    }
}
