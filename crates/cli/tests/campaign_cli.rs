//! End-to-end checks of the `bat` binary.
//!
//! Every route `bat campaign` offers to the ci-smoke artifact — plain,
//! flag overrides, a pool size from the flag or from `BAT_THREADS`, shard
//! merge, resume, cold and warm cache — must write the artifact and
//! metadata bytes that the committed golden table
//! `tests/golden_digests.txt` holds for `ci-smoke/threads-1`. The table is
//! only read here, never rewritten. Bad input must exit 1 with an `error:`
//! line naming the file involved, never with a panic. `bat compare` must
//! list its tuners by numeric median, the ones that found nothing last.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BAT: &str = env!("CARGO_BIN_EXE_bat");
const SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/ci-smoke.json");

/// A fresh per-process scratch directory.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Run `bat ARGS…` in `dir` with `env` added to the environment.
fn bat(dir: &Path, args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(BAT)
        .args(args)
        .envs(env.iter().copied())
        .current_dir(dir)
        .output()
        .expect("bat starts")
}

/// Run `bat campaign --spec ci-smoke.json --out OUT EXTRA…`, requiring
/// success.
fn campaign(dir: &Path, out: &str, extra: &[&str]) -> Output {
    campaign_with(dir, out, extra, &[])
}

/// [`campaign`] with `env` added to the environment.
fn campaign_with(dir: &Path, out: &str, extra: &[&str], env: &[(&str, &str)]) -> Output {
    let mut args = vec!["campaign", "--spec", SPEC, "--out", out];
    args.extend(extra);
    let output = bat(dir, &args, env);
    assert!(
        output.status.success(),
        "bat {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod golden {
    use super::*;

    /// FNV-1a, 64-bit (the digest of `tests/golden.rs`).
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    fn committed(key: &str) -> u64 {
        let table = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden_digests.txt"
        ))
        .expect("committed golden table");
        let hex = table
            .lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no {key} in the golden table"));
        u64::from_str_radix(hex, 16).expect("hex digest")
    }

    fn digests(dir: &Path, out: &str) -> (u64, u64) {
        let read =
            |name: String| std::fs::read(dir.join(&name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        (
            fnv1a(&read(out.to_string())),
            fnv1a(&read(format!("{out}.meta.json"))),
        )
    }

    #[test]
    fn every_campaign_route_writes_the_golden_ci_smoke_bytes() {
        let want = (
            committed("artifact/ci-smoke/threads-1"),
            committed("meta/ci-smoke/threads-1"),
        );
        let dir = scratch("campaign-cli");
        // (output, extra flags, extra environment)
        type Route<'a> = (&'a str, &'a [&'a str], &'a [(&'a str, &'a str)]);
        let routes: [Route; 6] = [
            ("plain.json", &[], &[]),
            ("batch-1.json", &["--batch", "1"], &[]),
            ("fault-0.json", &["--fault-rate", "0"], &[]),
            ("threads-1.json", &["--threads", "1"], &[]),
            ("threads-4.json", &["--threads", "4"], &[]),
            ("env-threads-4.json", &[], &[("BAT_THREADS", "4")]),
        ];
        for (out, extra, env) in routes {
            let output = campaign_with(&dir, out, extra, env);
            assert_eq!(
                String::from_utf8_lossy(&output.stdout),
                format!("wrote {out}\n")
            );
            assert_eq!(digests(&dir, out), want, "{out} ({extra:?}, {env:?})");
        }

        campaign(&dir, "shard-0.json", &["--shard", "0/2"]);
        campaign(&dir, "shard-1.json", &["--shard", "1/2"]);
        let merge = [
            "campaign",
            "merge",
            "--spec",
            SPEC,
            "--inputs",
            "shard-0.json,shard-1.json",
            "--out",
            "merged.json",
        ];
        assert!(bat(&dir, &merge, &[]).status.success());
        assert_eq!(digests(&dir, "merged.json"), want, "merged shards");

        let resumed = campaign(&dir, "plain.json", &["--resume"]);
        assert!(String::from_utf8_lossy(&resumed.stderr).contains("(0 executed, 18 reused)"));
        assert_eq!(digests(&dir, "plain.json"), want, "resumed");

        campaign(&dir, "cold.json", &["--cache", "cache.json"]);
        assert_eq!(digests(&dir, "cold.json"), want, "cold cache");
        let warm = campaign(&dir, "warm.json", &["--cache", "cache.json"]);
        assert!(String::from_utf8_lossy(&warm.stderr).contains("(0 executed, 18 reused)"));
        assert_eq!(digests(&dir, "warm.json"), want, "warm cache");
        // A fully warm run leaves the cache file alone.
        let cache = std::fs::read(dir.join("cache.json")).unwrap();
        campaign(&dir, "warm-2.json", &["--cache", "cache.json"]);
        assert_eq!(std::fs::read(dir.join("cache.json")).unwrap(), cache);

        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn compare_lists_tuners_by_median_with_failures_last() {
    let dir = scratch("compare-cli");
    let args = [
        "compare",
        "--bench",
        "expdist",
        "--budget",
        "10",
        "--repeats",
        "2",
        "--samples",
        "300",
    ];
    let output = bat(&dir, &args, &[]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "bat {args:?}: {stdout}");
    // The median column of the table rows, `-` read as `None`.
    let medians: Vec<Option<f64>> = stdout
        .lines()
        .skip_while(|l| !l.trim_start().starts_with("---"))
        .skip(1)
        .take_while(|l| !l.trim().is_empty())
        .map(|l| l.split_whitespace().nth(1).and_then(|m| m.parse().ok()))
        .collect();
    assert_eq!(medians.len(), 13, "{stdout}");
    // At 10 evaluations most tuners find no valid expdist configuration,
    // so the table mixes both kinds of row.
    let found = medians.iter().take_while(|m| m.is_some()).count();
    assert!(found >= 2 && found < medians.len(), "{stdout}");
    assert!(medians[found..].iter().all(Option::is_none), "{stdout}");
    assert!(
        medians[..found].windows(2).all(|w| w[0] <= w[1]),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_input_exits_1_with_an_error_naming_the_file() {
    let dir = scratch("campaign-cli-errors");
    std::fs::write(
        dir.join("truncated.json"),
        r#"{"schema": "bat/cache/v1", "cells": [{"benchmark": "gem"#,
    )
    .unwrap();
    let cases: [(&[&str], Option<&str>); 6] = [
        (&["tune", "--budget", "abc"], None),
        (&["tune", "--bench", "nosuch"], None),
        (&["tune", "--tuner", "nosuch"], None),
        (
            &[
                "campaign",
                "--spec",
                SPEC,
                "--out",
                "x.json",
                "--cache",
                "truncated.json",
            ],
            Some("truncated.json"),
        ),
        (
            &[
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--cache",
                "truncated.json",
            ],
            Some("truncated.json"),
        ),
        (
            &["cache", "inspect", "--input", "truncated.json"],
            Some("truncated.json"),
        ),
    ];
    for (args, file) in cases {
        let output = bat(&dir, args, &[]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "bat {args:?}: {stderr}");
        assert!(stderr.contains("error:"), "bat {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "bat {args:?}: {stderr}");
        if let Some(file) = file {
            assert!(stderr.contains(file), "bat {args:?}: {stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A daemon out of file descriptors loses only the connections it cannot
/// take: once they are released, it answers again, counts the failed
/// accepts and exits 0 on `shutdown`.
#[cfg(target_os = "linux")]
#[test]
fn a_daemon_out_of_file_descriptors_keeps_serving() {
    use bat_server::codec;
    use bat_server::wire::{Request, Response};
    use std::io::{BufRead as _, ErrorKind, Read as _};
    use std::net::TcpStream;
    use std::process::{Child, Stdio};
    use std::time::{Duration, Instant};

    /// Kills the daemon if the test fails before it exits.
    struct Daemon(Child);
    impl Drop for Daemon {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }

    fn request(conn: &mut TcpStream, req: Request) -> Response {
        codec::write_request(conn, req).unwrap();
        codec::read_response(conn).unwrap()
    }

    /// Ping over `conn`: true once answered, false if the daemon has not
    /// taken the connection within a second.
    fn answers_ping(mut conn: &TcpStream) -> bool {
        conn.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
        codec::write_request(&mut conn, Request::Ping).unwrap();
        match conn.peek(&mut [0u8]) {
            Ok(1) => {
                assert_eq!(codec::read_response(&mut conn).unwrap(), Response::Pong);
                true
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => false,
            other => panic!("the daemon hung up: {other:?}"),
        }
    }

    let mut daemon = Daemon(
        Command::new("sh")
            .args([
                "-c",
                r#"ulimit -n 24; exec "$0" serve --addr 127.0.0.1:0 --heartbeat 0"#,
            ])
            .arg(BAT)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("sh starts"),
    );
    let mut line = String::new();
    std::io::BufReader::new(daemon.0.stdout.take().unwrap())
        .read_line(&mut line)
        .unwrap();
    let addr = line
        .trim()
        .strip_prefix("bat serve: listening on ")
        .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
        .to_string();

    // Each connection costs the daemon two descriptors, so it takes the
    // held connections in order until it runs out; the first it cannot
    // take goes unanswered.
    let held: Vec<TcpStream> = (0..24)
        .map(|_| TcpStream::connect(&addr).unwrap())
        .collect();
    let served = held.iter().take_while(|c| answers_ping(c)).count();
    assert!((1..24).contains(&served), "served {served} of 24");
    drop(held);

    let mut conn = TcpStream::connect(&addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert_eq!(request(&mut conn, Request::Ping), Response::Pong);
    let Response::Metrics(report) = request(&mut conn, Request::Metrics) else {
        panic!("expected metrics");
    };
    let errors: u64 = report
        .text
        .lines()
        .find_map(|l| l.strip_prefix("bat_serve_accept_errors_total "))
        .expect("accept error counter")
        .parse()
        .unwrap();
    assert!(errors >= 1, "{errors} accept errors");
    assert_eq!(
        request(&mut conn, Request::Shutdown),
        Response::ShuttingDown
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = daemon.0.try_wait().unwrap() {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "bat serve still running 10 s after shutdown"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut stderr = String::new();
    daemon
        .0
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(status.success(), "bat serve exited with {status}: {stderr}");
}
