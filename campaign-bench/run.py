#!/usr/bin/env python3
"""Campaign benchmark for BAT-rs: whole tuning campaigns, timed from outside.

    python3 campaign-bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The script builds `bat` and this package's
`campaign-probe` with cargo (into $CARGO_TARGET_DIR, default
`.bench_build`), writes the workload's specs from the seed into a fresh
directory under `.bench_runs/`, builds fixtures with `bat` itself, runs
an untimed warm-up and then measures for S seconds, one worker thread
everywhere. Outputs are checked; a failed check counts the affected ops
as failed. The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced in-process run with
`--trace 1`. A readable table and a 64-bit digest of every artifact go
to stderr.

Workloads:
  paper-ranking  specs/paper-ranking.json at 1 repetition (364 trials)
  eval-sweep     6 tuners x 7 kernels x 4 GPUs, budget 10000, batch 1 and 256
  served         2 tuners x 7 kernels on RTX 3090 over TCP to `bat serve`
  cache-replay   warm `--cache` replay of paper-ranking, then a read-back
"""

import argparse
import hashlib
import json
import os
import queue
import re
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("paper-ranking", "eval-sweep", "served", "cache-replay")

# Set-up repetitions per run; setup_s is their median.
SETUP_PROBES = 15
SERVED_SETUPS = 3
# Upper bound on any one child process, in seconds.
CHILD_TIMEOUT = 170

TUNERS = (
    "random-search", "mls-first-improvement", "mls-best-improvement",
    "greedy-ils", "simulated-annealing", "basin-hopping", "genetic-algorithm",
    "particle-swarm", "differential-evolution", "gbdt-surrogate", "gp-bo-ei",
    "tpe", "smac-forest",
)
SWEEP_TUNERS = (
    "random-search", "genetic-algorithm", "particle-swarm",
    "differential-evolution", "simulated-annealing", "greedy-ils",
)

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def per_layer_units():
    """Name and unit of every per-layer metric, in print order."""
    units = []
    for t in TUNERS:
        units += [(f"tuners.{t}.ask_s", "s"), (f"tuners.{t}.tell_s", "s"),
                  (f"tuners.{t}.steps", "count")]
    units += [
        ("core.eval_s", "s"), ("core.evals", "count"), ("core.batches", "count"),
        ("core.memo_hit_frac", "ratio"), ("core.invalid_frac", "ratio"),
        ("space.decode_s", "s"), ("space.valid_s", "s"), ("kernels.model_s", "s"),
        ("tuners.driver_s", "s"), ("kernels.build_s", "s"), ("kernels.builds", "count"),
        ("harness.compile_s", "s"), ("harness.trial_record_s", "s"),
        ("harness.checkpoint_s", "s"), ("harness.checkpoint_bytes", "B"),
        ("harness.summary_s", "s"), ("serde_json.parse_s", "s"),
        ("serde_json.parse_bytes", "B"), ("cache.load_s", "s"), ("cache.bytes", "B"),
        ("harness.replay_s", "s"), ("cache.hit_frac", "ratio"), ("cache.lookup_us", "us"),
        ("cache.fold_s", "s"), ("cache.save_s", "s"), ("server.open_s", "s"),
        ("server.close_s", "s"), ("server.requests", "count"), ("server.frame_bytes", "B"),
        ("server.encode_s", "s"), ("server.decode_s", "s"), ("server.wait_s", "s"),
        ("server.rtt_p50_us", "us"), ("server.rtt_p95_us", "us"),
        ("host.steal_frac", "ratio"), ("host.probe_ms", "ms"),
        ("trace.wall_s", "s"), ("trace.coverage", "ratio"), ("trace.overhead_s", "s"),
    ]
    return units


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark cannot produce a result (build or set-up failed)."""


# ---------------------------------------------------------------- inputs

def spec(name, seed, tuners, benchmarks, architectures, budget, **extra):
    doc = {
        "schema": "bat/campaign-spec/v1",
        "name": name,
        "seed": seed,
        "tuners": tuners,
        "benchmarks": benchmarks,
        "architectures": architectures,
        "budget": budget,
        "repetitions": 1,
        "record": "curve",
    }
    doc.update(extra)
    return doc


def campaign_seed(seed, i):
    """Spec seed of a workload's i-th repetition. With the sequential seed
    policy of paper-ranking, repetition i is repetition i of the committed
    spec run with campaign seed 1000 x seed."""
    return seed * 1000 + i


def write_specs(d, seed, i=0, names=None):
    """The specs of repetition `i` as `<name>.json` (`<name>-<i>.json` for
    i > 0), each with that repetition's campaign seed."""
    s = campaign_seed(seed, i)
    specs = {
        # specs/paper-ranking.json, one repetition per campaign.
        "pr": spec("paper-ranking", s, "all", "all", "all", 150, seed_policy="sequential"),
        "sweep": spec("eval-sweep", s, list(SWEEP_TUNERS), "all", "all", 10000),
        "served": spec("served", s, ["random-search", "genetic-algorithm"], "all",
                       ["RTX 3090"], 2048,
                       protocol={"runs": 5, "sigma": 0.01, "noise_seed": 0, "batch": 64}),
        "warmup": spec("warmup", s, ["random-search"], ["pnpoly"], ["RTX 3090"], 150),
    }
    for name in names or specs:
        file = f"{name}.json" if i == 0 else f"{name}-{i}.json"
        (d / file).write_text(json.dumps(specs[name], indent=2) + "\n")


# ------------------------------------------------------------- processes

def cpu_clock(pid):
    """CPU seconds process `pid` has used so far, all threads included
    (the per-process CPU-time clock `clock_getcpuclockid` names)."""
    return time.clock_gettime(((~pid) << 3) | 2)


# Children not yet reaped; `main` stops any left when a run fails.
LIVE = set()


class Proc:
    """A child process with its stdout lines queued as they arrive.

    On every `mark` line the reader samples the CPU clocks of the child
    and of the `watch` processes, so CPU use between marks is exact."""

    def __init__(self, args, d, tag, watch=()):
        self.t0 = time.perf_counter()
        self.err_path = d / f"{tag}.stderr"
        self.err = open(self.err_path, "wb")
        self.p = subprocess.Popen([str(a) for a in args], stdout=subprocess.PIPE,
                                  stderr=self.err, cwd=d)
        self.watch = (self.p.pid, *watch)
        self.marks = []
        self.lines = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        LIVE.add(self)

    def _read(self):
        for raw in self.p.stdout:
            line = raw.decode(errors="replace").rstrip("\n")
            if line == "mark":
                self.marks.append(sum(cpu_clock(pid) for pid in self.watch))
                continue
            self.lines.put((time.perf_counter(), line))
        self.lines.put((time.perf_counter(), None))

    def line(self, timeout=CHILD_TIMEOUT):
        """Next stdout line and its arrival time; None at end of output."""
        try:
            return self.lines.get(timeout=timeout)
        except queue.Empty:
            raise BenchError(f"{self.p.args[:2]} printed nothing for {timeout} s")

    def wait(self, timeout=CHILD_TIMEOUT):
        """Reap the child; returns (exit code, wall s, cpu s, peak rss MiB)."""
        timer = threading.Timer(timeout, self.p.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(self.p.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - self.t0
        self.p.returncode = os.waitstatus_to_exitcode(status)
        LIVE.discard(self)
        self.reader.join()
        self.p.stdout.close()
        self.err.close()
        return self.p.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0

    def stderr(self):
        return self.err_path.read_text(errors="replace")

    def stop(self):
        if self.p.returncode is None:
            self.p.kill()
            self.wait()


def run(args, d, tag):
    """Run a child to completion: (exit code, wall, cpu, rss, stdout lines)."""
    proc = Proc(args, d, tag)
    rc, wall, cpu, rss = proc.wait()
    out = []
    while True:
        _, line = proc.lines.get()
        if line is None:
            break
        out.append(line)
    if rc != 0:
        log(f"{tag}: exit {rc}\n{proc.stderr()[-2000:]}")
    return rc, wall, cpu, rss, out, proc


def build():
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = ROOT / target
    for manifest, extra in ((ROOT / "Cargo.toml", ["-p", "bat-cli"]),
                            (BENCH / "Cargo.toml", [])):
        if not manifest.is_file():
            raise BenchError(f"missing {manifest}: run from a full checkout")
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path",
               str(manifest)] + extra
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                          cwd=ROOT).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return target / "release" / "bat", target / "release" / "campaign-probe"


# ----------------------------------------------------------- measurement

def cpu_ticks():
    """(steal, total) jiffies of the whole host, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def digest(path):
    return hashlib.blake2b(Path(path).read_bytes(), digest_size=8).hexdigest()


def same_bytes(a, b):
    return Path(a).is_file() and Path(b).is_file() and Path(a).read_bytes() == Path(b).read_bytes()


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def trial_count(path):
    return len(json.loads(Path(path).read_text())["trials"])


class Run:
    """One benchmark run: its directory, binaries and tallies."""

    def __init__(self, workload, seed, seconds, trace, bat, probe, d):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.bat, self.probe, self.d = bat, probe, d
        self.attempted = 0
        self.failed = 0
        self.digests = {}

    def check(self, ok, ops, what):
        """Count `ops` as attempted, and as failed unless `ok`."""
        self.attempted += ops
        if not ok:
            self.failed += ops
            log(f"check failed: {what}")

    def note_digest(self, name, path):
        if Path(path).is_file():
            self.digests[name] = digest(path)

    def campaign(self, tag, spec_name, out, *flags):
        return run([self.bat, "campaign", "--spec", spec_name, "--out", out, "--threads", "1",
                    *flags], self.d, tag)

    def setup_probe(self, spec_name):
        """Seconds from spawning `bat campaign` until its first trial opens
        a session on a socket this script listens on."""
        srv = socket.socket()
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)
        srv.settimeout(60)
        port = srv.getsockname()[1]
        proc = Proc([self.bat, "campaign", "--spec", spec_name, "--out", "probe.json",
                     "--threads", "1", "--connect", f"127.0.0.1:{port}"], self.d, "probe")
        try:
            conn, _ = srv.accept()
            took = time.perf_counter() - proc.t0
            conn.close()
        except socket.timeout:
            took = None
        # Refuse the later trials' connections so the campaign fails fast.
        srv.close()
        proc.wait()
        if took is None:
            raise BenchError(f"set-up probe: no trial started\n{proc.stderr()[-2000:]}")
        return took

    def host_probe(self):
        rc, _, _, _, out, _ = run([self.probe, "host-probe"], self.d, "host-probe")
        if rc != 0 or not out:
            raise BenchError("host probe failed")
        return float(out[-1])

    def traced(self, workload=None):
        workload = workload or self.workload
        rc, _, _, _, out, _ = run([self.probe, "trace", "--workload", workload, "--dir",
                                   self.d], self.d, f"trace-{workload}")
        if rc != 0 or not out:
            raise BenchError("traced run failed")
        return json.loads(out[-1])


# -------------------------------------------------------------- workloads

def iterate(r, once, deadline_s):
    """Call `once` until `deadline_s` seconds have passed (at least once)."""
    samples = []
    start = time.perf_counter()
    while True:
        samples.append(once(len(samples)))
        if r.trace or time.perf_counter() - start >= deadline_s:
            return samples


def in_process(r, commands, expected_trials):
    """A workload of plain `bat campaign` runs: `commands` lists
    (tag, spec name, flags). Repetition i runs each once on its own seed;
    repetition 0's artifacts are kept as `<tag>-ref.json`."""

    def once(i):
        wall = cpu = rss = 0.0
        for tag, name, flags in commands:
            if i > 0:
                write_specs(r.d, r.seed, i, [name])
            spec_file = f"{name}.json" if i == 0 else f"{name}-{i}.json"
            out = f"{tag}-ref.json" if i == 0 else f"{tag}-out.json"
            rc, w, c, m, _, _ = r.campaign(f"{tag}-{i}", spec_file, out, *flags)
            wall, cpu, rss = wall + w, cpu + c, max(rss, m)
            r.check(rc == 0 and trial_count(r.d / out) == expected_trials, expected_trials,
                    f"{tag} repetition {i}: artifact")
            if i == 0:
                r.note_digest(out, r.d / out)
        return wall, cpu, rss

    return once


def measure(r, once, spec_name):
    """Set-up probes, warm-up, then the timed iterations."""
    setups = []
    if not r.trace:
        setups = [r.setup_probe(spec_name) for _ in range(SETUP_PROBES)]
    rc, *_ = r.campaign("warmup", "warmup.json", "warmup-out.json")
    if rc != 0:
        raise BenchError("warm-up campaign failed")
    probe_ms = r.host_probe()
    steal0 = cpu_ticks()
    samples = iterate(r, once, r.seconds)
    steal1 = cpu_ticks()
    steal = (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1])
    return setups, samples, {"host.steal_frac": steal, "host.probe_ms": probe_ms}


def end_to_end(samples, setups):
    log(f"{len(samples)} repetitions, wall s: " + " ".join(f"{s[0]:.4f}" for s in samples))
    log(f"{len(setups)} set-ups, s: " + " ".join(f"{s:.6f}" for s in setups))
    return {
        "wall_s": statistics.median(s[0] for s in samples),
        "cpu_s": statistics.median(s[1] for s in samples),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(s[2] for s in samples),
    }


def traced_layers(r, untraced_wall, pairs):
    """Run the traced flow, check its artifacts against the untraced ones
    (`pairs` of traced, untraced file names), and return its layers."""
    t = r.traced()
    for traced_name, plain in pairs:
        r.check(same_bytes(r.d / traced_name, r.d / plain), 1,
                f"traced {traced_name} differs from {plain}")
        r.note_digest(traced_name, r.d / traced_name)
    r.check(t["replay_mismatches"] == 0, 1, "replayed evaluations differ from the run's")
    layers = t["layers"]
    log(f"untraced wall {untraced_wall:.4f} s, traced wall {layers['trace.wall_s']:.4f} s")
    layers["trace.overhead_s"] = layers["trace.wall_s"] - untraced_wall
    return t, layers


def paper_ranking(r):
    once = in_process(r, [("pr", "pr", [])], 364)
    setups, samples, host = measure(r, once, "pr.json")
    if not r.trace:
        return end_to_end(samples, setups), host
    _, layers = traced_layers(r, samples[0][0], [("traced.json", "pr-ref.json")])
    return {**layers, **host}, host


def eval_sweep(r):
    once = in_process(r, [("b1", "sweep", []), ("b256", "sweep", ["--batch", "256"])], 168)
    setups, samples, host = measure(r, once, "sweep.json")
    if not r.trace:
        return end_to_end(samples, setups), host
    _, layers = traced_layers(r, samples[0][0], [("traced-b1.json", "b1-ref.json"),
                                                 ("traced-b256.json", "b256-ref.json")])
    return {**layers, **host}, host


def build_fixture(r, spec_name, out):
    """`bat campaign --cache fix.json`: the program writes the fixture."""
    rc, *_ = r.campaign(f"fixture-{spec_name}", spec_name, out, "--cache", "fix.json")
    if rc != 0 or not (r.d / "fix.json").is_file():
        raise BenchError(f"building the cache fixture from {spec_name} failed")
    r.note_digest(out, r.d / out)


def cache_replay(r):
    build_fixture(r, "pr.json", "cold.json")
    r.note_digest("fix.json", r.d / "fix.json")
    fixture = (r.d / "fix.json").read_bytes()

    def once(i):
        rc, w1, c1, m1, _, warm = r.campaign(f"warm-{i}", "pr.json", "warm.json",
                                             "--cache", "fix.json")
        report = re.search(r"\((\d+) executed, (\d+) reused\)", warm.stderr())
        executed_none = report is None or report.group(1) == "0"
        ok = (rc == 0 and executed_none and same_bytes(r.d / "warm.json", r.d / "cold.json")
              and (r.d / "fix.json").read_bytes() == fixture)
        r.check(ok, 364, f"warm replay {i}")
        rc, w2, c2, m2, _, _ = r.campaign(f"readback-{i}", "pr.json", "warm.json", "--resume")
        r.check(rc == 0 and same_bytes(r.d / "warm.json", r.d / "cold.json"), 364,
                f"read-back {i}")
        return w1 + w2, c1 + c2, max(m1, m2)

    setups, samples, host = measure(r, once, "pr.json")
    if not r.trace:
        return end_to_end(samples, setups), host
    setup = r.traced("cache-replay-setup")
    r.check(setup["executed"] == [364] and setup["replay_mismatches"] == 0, 1,
            "traced fixture build")
    t, layers = traced_layers(r, samples[0][0], [("traced-warm.json", "cold.json"),
                                                 ("traced-cold.json", "cold.json"),
                                                 ("traced-fix.json", "fix.json")])
    r.check(t["executed"] == [0, 0], 1, f"traced replay executed {t['executed']} trials")
    # Fold and save happen while set-up builds the fixture.
    for name in ("cache.fold_s", "cache.save_s"):
        layers[name] = setup["layers"][name]
    return {**layers, **host}, host


def start_daemon(r, tag):
    """Spawn `bat serve` on an ephemeral port; returns (proc, address)."""
    daemon = Proc([r.bat, "serve", "--addr", "127.0.0.1:0", "--cache", "fix.json",
                   "--threads", "1", "--heartbeat", "0"], r.d, tag)
    while True:
        _, line = daemon.line()
        if line is None:
            daemon.wait()
            raise BenchError(f"bat serve exited early\n{daemon.stderr()[-2000:]}")
        found = re.search(r"listening on (\S+)", line)
        if found:
            return daemon, found.group(1)


def served_setup(r, tag, client_flags):
    """One daemon start plus client; returns (daemon, client, ready s)."""
    daemon, addr = start_daemon(r, f"daemon-{tag}")
    client = Proc([r.probe, "served", "--addr", addr, "--dir", r.d, *client_flags],
                  r.d, f"client-{tag}", watch=(daemon.p.pid,))
    at, line = client.line()
    if line != "ready":
        client.stop()
        daemon.stop()
        raise BenchError(f"served client not ready\n{client.stderr()[-2000:]}")
    return daemon, client, at - daemon.t0


def served(r):
    build_fixture(r, "served.json", "served-ref.json")
    build_fixture(r, "pr.json", "cold.json")
    r.note_digest("fix.json", r.d / "fix.json")
    setups = []
    if not r.trace:
        for i in range(SERVED_SETUPS - 1):
            daemon, client, ready = served_setup(r, f"setup{i}", ["--seconds", "0",
                                                                  "--ready-only"])
            setups.append(ready)
            rc_c = client.wait()[0]
            rc_d = daemon.wait()[0]
            if rc_c != 0 or rc_d != 0:
                raise BenchError("served set-up probe failed")
    probe_ms = r.host_probe()
    flags = ["--seconds", 0 if r.trace else r.seconds] + (["--trace"] if r.trace else [])
    daemon, client, ready = served_setup(r, "main", flags)
    setups.append(ready)
    steal0 = cpu_ticks()
    try:
        lines = []
        while True:
            _, line = client.line()
            if line is None:
                break
            lines.append(line)
        rc_c = client.wait()[0]
        rc_d, _, _, daemon_rss = daemon.wait()
    finally:
        client.stop()
        daemon.stop()
    steal1 = cpu_ticks()
    host = {"host.steal_frac": (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1]),
            "host.probe_ms": probe_ms}
    if rc_c != 0 or rc_d != 0 or not lines:
        raise BenchError(f"served client failed\n{client.stderr()[-2000:]}")
    result = json.loads(lines[-1])
    # Marks bracket every pass; the traced pass has a mark of its own
    # before it, since replayed set-up work runs between the two.
    loops, marks = result["loops"], client.marks
    spans = list(zip(marks, marks[1:len(loops) + 1]))
    passes = loops
    if "traced" in result:
        passes = loops + [result["traced"]]
        spans.append((marks[-2], marks[-1]))
    if len(marks) != len(passes) + 1 + ("traced" in result):
        raise BenchError(f"{len(marks)} CPU marks for {len(passes)} passes")
    for i, (lp, (before, after)) in enumerate(zip(passes, spans)):
        lp["cpu_s"] = after - before
        r.check(lp["failed"] == 0, lp["requests"], f"served pass {i}")
    rtts = result["rtt_us"]
    rtt = {"server.rtt_p50_us": percentile(rtts, 50), "server.rtt_p95_us": percentile(rtts, 95)}
    log(f"served: {len(rtts)} requests, rtt p50 {rtt['server.rtt_p50_us']:.0f} us, "
        f"p95 {rtt['server.rtt_p95_us']:.0f} us")
    if not r.trace:
        metrics = {
            "wall_s": statistics.median(lp["wall_s"] for lp in loops),
            "cpu_s": statistics.median(lp["cpu_s"] for lp in loops),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": daemon_rss,
        }
        return metrics, {**host, **rtt}
    setup = r.traced("served-setup")
    r.check(setup["executed"] == [14, 364] and setup["replay_mismatches"] == 0, 1,
            "traced fixture build")
    for traced_name, plain in (("traced-fix.json", "fix.json"),
                               ("traced-served-ref.json", "served-ref.json"),
                               ("traced-cold.json", "cold.json")):
        r.check(same_bytes(r.d / traced_name, r.d / plain), 1,
                f"traced {traced_name} differs from {plain}")
    layers = result["layers"]
    # Cache fold, save and prior synthesis happen while set-up builds the
    # fixture; the lookups are the traced pass's own.
    for name in ("cache.fold_s", "cache.save_s", "harness.replay_s"):
        layers[name] = setup["layers"][name]
    traced = result["traced"]
    layers["server.wait_s"] = max(0.0, traced["wall_s"] - traced["cpu_s"])
    layers["trace.overhead_s"] = layers["trace.wall_s"] - loops[0]["wall_s"]
    return {**layers, **host, **rtt}, host


RUNNERS = {
    "paper-ranking": paper_ranking,
    "eval-sweep": eval_sweep,
    "served": served,
    "cache-replay": cache_replay,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    try:
        bat, probe = build()
        runs = ROOT / ".bench_runs"
        d = runs / f"{a.workload}-{os.getpid()}-{time.time_ns()}"
        d.mkdir(parents=True)
        try:
            write_specs(d, a.seed)
            r = Run(a.workload, a.seed, a.seconds, a.trace == 1, bat, probe, d)
            metrics, extra = RUNNERS[a.workload](r)
        finally:
            for proc in list(LIVE):
                proc.stop()
            shutil.rmtree(d, ignore_errors=True)
            if runs.is_dir() and not any(runs.iterdir()):
                runs.rmdir()
    except (BenchError, OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        log(f"campaign-bench: {e}")
        return 1

    units = dict(END_TO_END) if not r.trace else dict(per_layer_units())
    out = {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
           for name, unit in units.items()}
    log(f"\n{a.workload} (seed {a.seed}, {'traced' if r.trace else 'untraced'}):")
    for name, v in out.items():
        log(f"  {name:32} {v['value']:16.6f} {v['unit']}")
    for name, v in extra.items():
        log(f"  {name:32} {v:16.6f}")
    log(f"  {'ops':32} {r.attempted:16d} count")
    log(f"  {'ops_failed':32} {r.failed:16d} count")
    for name, h in sorted(r.digests.items()):
        log(f"  digest {name:25} {h}")
    print(json.dumps({"correct": r.failed == 0 and r.attempted > 0,
                      "attempted": max(1, r.attempted), "failed": r.failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
