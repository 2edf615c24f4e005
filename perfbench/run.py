#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer performance of the ChipVQA stack.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid_chaos --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists; BENCHMARK.json
lists grid_warm and grid_chaos, the other two run by hand):

    grid_cold   table2 --scale 10 --workers 1: streamed grid, no cache or store
    grid_warm   the same grid restarted from an AnswerStore filled in set-up
    grid_chaos  the same grid under a seeded fault supervisor (--chaos 0.05)
    serve_open  a seeded open loop of sessions against EvalService

Every repetition runs in a fresh process, because the solver memo is
process-global and peak RSS is per process. The benchmark builds the
program from source first (CARGO_TARGET_DIR, default .bench_build), byte-
checks every output against its reference, and prints as its last stdout
line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 it runs each
workload once more with tracing and prints the per-layer ones.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")
# Span dumps of traced runs, one per workload and seed; they outlive the
# run's work directory.
TRACES = os.path.join(WORK, "traces")

SCALE = "10"
WORKERS = "1"
CHAOS_RATE = "0.05"
# 12 zoo models x 2 columns x 1,420 questions per column at scale 10.
EVALS_PER_GRID = 12 * 2 * 142 * 10
# FNV-1a 64 of `table2 --scale 10 --report-json` (tests/dataset_integrity.rs).
FROZEN_REPORT_HASH = 0x24A58E347DF841CF
# Set-up repetitions, spread over the timed phase by `Run.timed` and
# reported as their median: warm-ups of the timed command at WARMUP_SCALE
# (grid_cold, grid_chaos), and store fills, each a whole scale-10 grid
# (grid_warm).
WARMUPS = 3
FILLS = 3
# Any scale above 1 streams, so warm-ups take the timed path. Process
# start-up weighs less at scale 5 than at 2: three warm-ups spread about
# 10 % instead of 16 % from run to run on a 2-vCPU VM.
WARMUP_SCALE = "5"
# serve_open: the latency limit of goodput, fixed once from the p95
# measured on the seed code (~0.7 s).
LATENCY_LIMIT_MS = 2000.0
# No child may outlive this; a run must end within 180 s.
CHILD_LIMIT_S = 150.0

GRID_LAYERS = [
    "gen.busy_s", "gen.questions", "gen.memo_hit_ratio",
    "models.infer_calls", "models.infer_busy_s", "judge.calls", "judge.busy_s",
    "executor.producer_wait_s", "executor.worker_idle_s", "executor.peak_in_flight",
    "cache.hit_ratio", "store.open_s", "store.hits", "store.appends", "store.flush_s",
    "store.bytes", "supervisor.faults_injected", "supervisor.retries",
    "supervisor.breaker_shed", "supervisor.panics_caught", "supervisor.breaker_s",
]
SHED_REASONS = ["queue_full", "tenant_saturated", "tenant_breaker_open", "shutting_down"]


class BenchError(Exception):
    """The run cannot produce a result; nothing is printed on stdout."""


class TooFewSamples(BenchError):
    pass


def fnv1a64(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def percentile(samples, q):
    """Nearest-rank q-th percentile. Refuses unless at least ten samples
    lie beyond it (p50 needs 20 samples, p95 needs 200). Returns the value
    and the sample count."""
    n = len(samples)
    rank = math.ceil(q / 100.0 * n)
    if n == 0 or n - rank < 10:
        need = next(m for m in range(1, 10**7) if m - math.ceil(q / 100.0 * m) >= 10)
        raise TooFewSamples(f"p{q:g} needs at least {need} samples, got {n}")
    return sorted(samples)[max(rank, 1) - 1], n


def outcome_diffs(report, reference):
    """(model, question) outcomes of a Table II report that differ from the
    reference's. Unparsable or truncated reports fail every missing one."""
    try:
        rows = json.loads(report)["rows"]
    except (ValueError, KeyError, TypeError):
        rows = []
    failed = 0
    for m, ref_row in enumerate(json.loads(reference)["rows"]):
        row = rows[m] if m < len(rows) and isinstance(rows[m], dict) else {}
        for column in ("standard", "challenge"):
            ref_col = ref_row[column]
            col = row.get(column) or {}
            outcomes = col.get("outcomes") or []
            if col.get("model") != ref_col["model"]:
                failed += len(ref_col["outcomes"])
                continue
            for q, ref_outcome in enumerate(ref_col["outcomes"]):
                if q >= len(outcomes) or outcomes[q] != ref_outcome:
                    failed += 1
    return failed


class Proc:
    def __init__(self, wall, cpu, rss_mb, stdout):
        self.wall, self.cpu, self.rss_mb, self.stdout = wall, cpu, rss_mb, stdout


class Run:
    """One benchmark run: its work directory, binaries and the processes
    it starts."""

    def __init__(self, args, bins):
        self.args = args
        self.table2_bin, self.harness_bin = bins
        self.dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.attempted = 0
        self.failed = 0
        # report bytes already shown to hash to the frozen golden
        self._hash_verified = None
        self._reference = None

    def path(self, name):
        return os.path.join(self.dir, name)

    def spawn(self, argv, name, ok=(0,)):
        """Runs one child to completion; returns its wall, CPU, peak RSS."""
        log = self.path(name + ".out")
        started = time.perf_counter()
        with open(log, "wb") as out:
            child = subprocess.Popen(argv, stdout=out, stderr=sys.stderr, cwd=self.dir)
        watchdog = threading.Timer(CHILD_LIMIT_S, child.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
        # reaped by wait4: record it so Popen does not think it still runs
        child.returncode = rc = os.waitstatus_to_exitcode(status)
        if rc not in ok:
            raise BenchError(f"{name}: {' '.join(argv)} exited {rc}")
        with open(log, encoding="utf-8", errors="replace") as f:
            stdout = f.read()
        return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, stdout)

    def table2(self, flags, name, ok=(0,)):
        return self.spawn([self.table2_bin, *flags], name, ok)

    def harness(self, command, flags, name):
        out = self.path(name + ".json")
        proc = self.spawn([self.harness_bin, command, *flags, "--out", out], name)
        with open(out, encoding="utf-8") as f:
            return proc, json.load(f)

    def timed(self, once, setup, setups):
        """Repeats `once` (each a fresh process) until its repetitions have
        taken --seconds; in a traced run, once: it is only the untraced
        baseline. `setup(i)`, unless None, runs `setups` times and returns
        its wall seconds: before the first repetition, then each time the
        repetitions pass a further 1/`setups` of --seconds. A shared VM's
        speed drifts over minutes, so spreading both over the whole run
        lets their medians average more of that drift. Returns the
        repetitions and the set-up times."""
        setup_s = [setup(0)] if setup else []
        reps, timed_s = [], 0.0
        while not reps or (not self.args.trace and timed_s < self.args.seconds):
            reps.append(once(len(reps)))
            timed_s += reps[-1].wall
            while setup and len(setup_s) < setups and timed_s >= len(setup_s) * self.args.seconds / setups:
                setup_s.append(setup(len(setup_s)))
        return reps, setup_s

    def check_grid(self, report_name, reference):
        """Counts a grid report's operations and its failed ones: none when
        it matches `reference` (bytes, or a frozen hash), else each differing
        (model, question) outcome."""
        self.attempted += EVALS_PER_GRID
        with open(self.path(report_name), "rb") as f:
            data = f.read()
        if isinstance(reference, int):
            if data == self._hash_verified:
                return
            if fnv1a64(data) == reference:
                self._hash_verified = data
                return
            reference = self.reference_grid()
        elif data == reference:
            return
        self.failed += max(1, outcome_diffs(data, reference))

    def save_trace(self):
        """Moves the traced run's span dump (`traced.json`) out of the work
        directory, which is removed when the run ends; returns its path."""
        os.makedirs(TRACES, exist_ok=True)
        kept = os.path.join(TRACES, f"{self.args.workload}-{self.args.seed}.json")
        os.replace(self.path("traced.json"), kept)
        return kept

    def reference_grid(self):
        """The sequential reference grid's bytes, computed on first need."""
        if self._reference is None:
            self.spawn([self.harness_bin, "reference-grid", "--out", "reference.json"], "reference")
            with open(self.path("reference.json"), "rb") as f:
                self._reference = f.read()
        return self._reference


def e2e(reps, setup):
    print("  repetitions: wall " + " ".join(f"{p.wall:.3f}" for p in reps)
          + " s; set-up " + " ".join(f"{s:.3f}" for s in setup) + " s", file=sys.stderr)
    return {
        "evals_per_s": (statistics.median(EVALS_PER_GRID / p.wall for p in reps), "1/s"),
        "cpu_s": (statistics.median(p.cpu for p in reps), "s"),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in reps), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def grid_layers(traced, untraced, layers):
    out = {name: (layers[name], layer_unit(name)) for name in GRID_LAYERS}
    out["telemetry.overhead"] = (traced.cpu / untraced.cpu - 1.0, "ratio")
    return out


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "bytes" if name == "store.bytes" else "count"


GRID = ["--scale", SCALE, "--workers", WORKERS]


def warm_up(run, flags=(), ok=(0,)):
    """Set-up of grid_cold and grid_chaos, for `Run.timed`: one run of the
    workload's own `table2` command at WARMUP_SCALE, so the timed
    processes find the binary and its path warm (none in a traced run)."""
    if run.args.trace:
        return None
    argv = ["--scale", WARMUP_SCALE, "--workers", WORKERS, *flags]
    return lambda i: run.table2(argv, f"warmup{i}", ok).wall


def grid_cold(run):
    reps, setup = run.timed(
        lambda i: run.table2(GRID + ["--report-json", f"rep{i}.json"], f"rep{i}"),
        warm_up(run), WARMUPS,
    )
    for i in range(len(reps)):
        run.check_grid(f"rep{i}.json", FROZEN_REPORT_HASH)
    if not run.args.trace:
        return e2e(reps, setup)
    traced, doc = run.harness(
        "trace-grid",
        ["--workload", "grid_cold", "--seed", str(run.args.seed), "--report-json", "traced_report.json"],
        "traced",
    )
    run.check_grid("traced_report.json", FROZEN_REPORT_HASH)
    return grid_layers(traced, reps[0], doc["layers"])


WARM_LINE = "warm hit-rate "


def disk_hits(proc):
    """Disk hits from table2's store line: `warm hit-rate R (H disk hits / L lookups)`."""
    for line in proc.stdout.splitlines():
        if WARM_LINE in line:
            return int(line.split("(", 1)[1].split(" disk hits", 1)[0])
    return 0


def grid_warm(run):
    store = run.path("store")
    warm = GRID + ["--store", store]
    fill = None
    if run.args.trace:
        _, filled = run.harness(
            "trace-grid",
            ["--workload", "grid_warm_populate", "--seed", "0", "--store", store,
             "--report-json", "populate.json"],
            "populate",
        )
    else:
        def fill(i):
            # each fill starts from an empty directory; the restarts after
            # it read the store it leaves
            shutil.rmtree(store, ignore_errors=True)
            return run.table2(warm, f"populate{i}").wall
    reps, setup = run.timed(
        lambda i: run.table2(warm + ["--report-json", f"rep{i}.json"], f"rep{i}"), fill, FILLS)
    for i, rep in enumerate(reps):
        run.check_grid(f"rep{i}.json", FROZEN_REPORT_HASH)
        # a warm restart must serve every lookup from disk: no inference
        run.failed += max(0, EVALS_PER_GRID - disk_hits(rep))
    if not run.args.trace:
        return e2e(reps, setup)
    traced, doc = run.harness(
        "trace-grid",
        ["--workload", "grid_warm", "--seed", "0", "--store", store, "--report-json", "traced_report.json"],
        "traced",
    )
    run.check_grid("traced_report.json", FROZEN_REPORT_HASH)
    layers = dict(doc["layers"])
    run.failed += int(layers["models.infer_calls"])
    for name in ("store.appends", "store.flush_s", "store.bytes"):
        layers[name] = filled["layers"][name]
    return grid_layers(traced, reps[0], layers)


def grid_chaos(run):
    chaos = ["--chaos", CHAOS_RATE, "--chaos-seed", str(run.args.seed)]
    degraded = (0, 3)
    reps, setup = run.timed(
        lambda i: run.table2(GRID + chaos + ["--report-json", f"rep{i}.json"], f"rep{i}", degraded),
        warm_up(run, chaos, degraded), WARMUPS,
    )
    traced = None
    if run.args.trace:
        traced, doc = run.harness(
            "trace-grid",
            ["--workload", "grid_chaos", "--seed", str(run.args.seed), "--report-json", "traced_report.json"],
            "traced",
        )
    # checker: the batch-supervised reference for the same fault seed
    # (the stream-chaos CI contract), computed after every timed run
    run.table2(
        ["--scale", SCALE, "--workers", "2", "--batch", "--report-json", "reference.json"] + chaos,
        "reference",
        degraded,
    )
    with open(run.path("reference.json"), "rb") as f:
        reference = f.read()
    for i in range(len(reps)):
        run.check_grid(f"rep{i}.json", reference)
    if traced is None:
        return e2e(reps, setup)
    run.check_grid("traced_report.json", reference)
    return grid_layers(traced, reps[0], doc["layers"])


def serve_accounting(sessions, reference_hashes, limit_ms):
    """Splits offered sessions into good ones (Done, byte-matching its
    reference) and failed ones (shed, lost, any other end state, or a
    mismatching report). Returns the counts and the good sessions'
    latencies, and how many of those met `limit_ms`."""
    counts = {"done_match": 0, "mismatch": 0, "shed": 0, "lost": 0, "other": 0}
    latencies = []
    for session, ref in zip(sessions, reference_hashes, strict=True):
        outcome = session["outcome"]
        if outcome == "done":
            if session.get("hash") == ref:
                counts["done_match"] += 1
                latencies.append(session["latency_ms"])
            else:
                counts["mismatch"] += 1
        elif outcome.startswith("shed:"):
            counts["shed"] += 1
        elif outcome == "lost":
            counts["lost"] += 1
        else:
            counts["other"] += 1
    attempted = len(sessions)
    failed = attempted - counts["done_match"]
    on_time = sum(1 for ms in latencies if ms <= limit_ms)
    return attempted, failed, counts, latencies, on_time


def serve_open(run):
    plan = ["--seed", str(run.args.seed), "--seconds", str(run.args.seconds)]
    _, doc = run.harness("serve", plan, "serve")
    traced = None
    if run.args.trace:
        traced = run.harness("serve", plan + ["--trace"], "traced")[1]
    _, ref = run.harness("serve-ref", plan, "serve_ref")
    sessions = doc["sessions"]
    attempted, failed, counts, latencies, on_time = serve_accounting(
        sessions, ref["hashes"], LATENCY_LIMIT_MS)
    run.attempted += attempted
    run.failed += failed
    print(f"serve_open: {attempted} offered, {counts}", file=sys.stderr)
    if traced is None:
        p50, n = percentile(latencies, 50)
        p95, _ = percentile(latencies, 95)
        return {
            "cpu_s": (doc["cpu_s"], "s"),
            "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
            "setup_s": (statistics.median(doc["setup_s"]), "s"),
            "session_p50_ms": (p50, "ms"),
            "session_p95_ms": (p95, "ms"),
            "session_samples": (n, "count"),
            "goodput_sps": (on_time / doc["elapsed_s"], "1/s"),
        }
    t_sessions = traced["sessions"]
    t_attempted, t_failed, t_counts, _, _ = serve_accounting(t_sessions, ref["hashes"], LATENCY_LIMIT_MS)
    run.attempted += t_attempted
    run.failed += t_failed
    waits = [s["queue_wait_ms"] for s in t_sessions if "queue_wait_ms" in s]
    runs = [s["run_ms"] for s in t_sessions if "run_ms" in s]
    sheds = [s["outcome"][5:] for s in t_sessions if s["outcome"].startswith("shed:")]
    done = t_counts["done_match"] + t_counts["mismatch"]
    out = {
        "serve.queue_wait_ms.p50": (percentile(waits, 50)[0], "ms"),
        "serve.queue_wait_ms.p95": (percentile(waits, 95)[0], "ms"),
        "serve.run_ms.p50": (percentile(runs, 50)[0], "ms"),
        "serve.run_ms.p95": (percentile(runs, 95)[0], "ms"),
        "serve.shed_share": (len(sheds) / t_attempted, "ratio"),
        "serve.mismatch_share": (t_counts["mismatch"] / max(done, 1), "ratio"),
        "serve.cache_hit_ratio": (traced["cache_hit_ratio"], "ratio"),
        "cache.hit_ratio": (traced["cache_hit_ratio"], "ratio"),
        "gen.memo_hit_ratio": (traced["memo_hit_ratio"], "ratio"),
        "load.late_ms.max": (max(s["late_ms"] for s in t_sessions), "ms"),
        "telemetry.overhead": (traced["cpu_s"] / doc["cpu_s"] - 1.0, "ratio"),
    }
    for reason in SHED_REASONS:
        out[f"load.shed.{reason}"] = (sheds.count(reason), "count")
    return out


WORKLOADS = {
    "grid_cold": grid_cold,
    "grid_warm": grid_warm,
    "grid_chaos": grid_chaos,
    "serve_open": serve_open,
}


def build():
    """Builds table2 and the harness from source; returns their paths."""
    for needed in ("Cargo.toml", os.path.join("crates", "bench", "src", "bin", "table2.rs")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError(f"{needed} not found under {ROOT}: run from a full checkout")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for extra in (["-p", "chipvqa-bench", "--bin", "table2"],
                  ["--manifest-path", os.path.join("perfbench", "harness", "Cargo.toml")]):
        try:
            built = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", *extra],
                                   cwd=ROOT, env=env, stdout=sys.stderr, check=False)
        except OSError as e:
            raise BenchError(f"cannot run cargo: {e}") from e
        if built.returncode != 0:
            raise BenchError(f"cargo build {' '.join(extra)} failed ({built.returncode})")
    release = os.path.join(target, "release")
    return os.path.join(release, "table2"), os.path.join(release, "perfbench-harness")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run = Run(args, build())
        try:
            metrics = WORKLOADS[args.workload](run)
            if args.trace:
                print(f"  span dump: {run.save_trace()}", file=sys.stderr)
        finally:
            shutil.rmtree(run.dir, ignore_errors=True)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}", file=sys.stderr)
    print(f"  attempted {run.attempted}, failed {run.failed}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
