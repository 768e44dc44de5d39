//! End-to-end checks of the `bat` binary.
//!
//! Every route `bat campaign` offers to the ci-smoke artifact — plain,
//! serial, flag overrides, shard merge, resume, cold and warm cache —
//! must write the artifact and metadata bytes that the committed golden
//! table `tests/golden_digests.txt` holds for `ci-smoke/threads-1`. The
//! table is only read here, never rewritten. Bad input must exit 1 with
//! an `error:` line naming the file involved, never with a panic.

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

fn bat(dir: &Path, args: &[&str]) -> Output {
    Command::new(BAT)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("bat starts")
}

/// Run `bat campaign --spec ci-smoke.json --out OUT EXTRA…`, requiring
/// success.
fn campaign(dir: &Path, out: &str, extra: &[&str]) -> Output {
    let mut args = vec!["campaign", "--spec", SPEC, "--out", out];
    args.extend(extra);
    let output = bat(dir, &args);
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
        let routes: [(&str, &[&str]); 5] = [
            ("plain.json", &[]),
            ("serial.json", &["--serial"]),
            ("batch-1.json", &["--batch", "1"]),
            ("fault-0.json", &["--fault-rate", "0"]),
            ("threads-1.json", &["--threads", "1"]),
        ];
        for (out, extra) in routes {
            let output = campaign(&dir, out, extra);
            assert_eq!(
                String::from_utf8_lossy(&output.stdout),
                format!("wrote {out}\n")
            );
            assert_eq!(digests(&dir, out), want, "{out} ({extra:?})");
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
        assert!(bat(&dir, &merge).status.success());
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
        let output = bat(&dir, args);
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
