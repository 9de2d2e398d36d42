#!/usr/bin/env python3
"""The repository benchmark (see README.md next to this file).

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds experiments, experimentd and
rbench under .bench_build, runs one workload, checks its outputs, and
prints one JSON object as the last line of stdout:

    {"metrics": {..}, "attempted": .., "failed": .., "correct": ..}

--trace 0 reports the end-to-end metrics, measured with tracing off;
--trace 1 reports the per-layer metrics of a separate traced run.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import benchlib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("cold_full", "warm_full")

# Variables that change what the programs compute or where they
# store it; cleared for this process and every child.
CLEARED_ENV = (
    "RODINIA_SIM_THREADS", "RODINIA_SIM_SERIAL", "RODINIA_TRACE_ORACLE",
    "RODINIA_TRACE_SPILL_CHUNKS", "RODINIA_FAULTS", "RODINIA_CACHE_DIR",
    "RODINIA_STRICT",
)

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))

PER_LAYER = (
    ("gpusim.record.s", "s"), ("gpusim.record.calls", "count"),
    ("gpusim.record.launches", "count"), ("gpusim.record.blocks", "count"),
    ("gpusim.record.thread_insts", "count"),
    ("gpusim.record.minst_per_s", "Minst/s"),
    ("gpusim.hash.s", "s"), ("gpusim.hash.calls", "count"),
    ("gpusim.hash.minst_per_s", "Minst/s"),
    ("gpusim.replay.s", "s"), ("gpusim.replay.warp_insts", "count"),
    ("gpusim.replay.mwinst_per_s", "Mwinst/s"),
    ("gpusim.timing.sims", "count"), ("gpusim.timing.cycles", "count"),
    ("gpusim.timing.s", "s"), ("gpusim.timing.mcycles_per_s", "Mcycle/s"),
    ("gpusim.timing.s_lanes1", "s"), ("gpusim.timing.s_lanesN", "s"),
    ("gpusim.timing.lane_speedup", "ratio"),
    ("workloads.cpu.s", "s"), ("workloads.cpu.mem_events", "count"),
    ("workloads.cpu.mevents_per_s", "Mevent/s"),
    ("cachesim.sweep.s", "s"), ("cachesim.sweep.line_accesses", "count"),
    ("cachesim.sweep.maccess_per_s", "Maccess/s"),
    ("driver.store.loads", "count"), ("driver.store.hits", "count"),
    ("driver.store.load_s", "s"), ("driver.store.publishes", "count"),
    ("driver.store.publish_s", "s"),
    ("driver.store.publish_failures", "count"),
    ("driver.memo.sims_run", "count"), ("driver.memo.store_served", "count"),
    ("driver.memo.dup_sims", "count"),
    ("driver.executor.busy_s", "s"), ("driver.executor.queue_wait_s", "s"),
    ("driver.executor.utilization", "ratio"),
    ("service.ping_us", "us"), ("service.warm_sim_us", "us"),
    ("service.queue_wait_us", "us"), ("service.coalesced", "count"),
    ("service.rejected", "count"), ("service.dup_sims", "count"),
    ("service.rt_p50_ms", "ms"), ("service.rt_p99_ms", "ms"),
    ("service.req_per_s", "1/s"),
    ("tracing.overhead_s", "s"),
)

# Start-up probes per run; setup_s is their median.
SETUP_REPEATS = 25
CHILD_TIMEOUT_S = 170


def child_env():
    return {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}


def nproc():
    return os.cpu_count() or 1


def run_timed(cmd, out, cwd=None, timeout=CHILD_TIMEOUT_S):
    """Run cmd to completion with stdout in file `out` (stderr beside
    it): (wall seconds, peak RSS MiB, exit code). A child that
    outlives the timeout is killed and reaped."""
    with open(out, "wb") as fo, open(str(out) + ".err", "wb") as fe:
        t0 = time.perf_counter()
        p = subprocess.Popen([str(c) for c in cmd], stdout=fo, stderr=fe,
                             cwd=cwd, env=child_env())
        timer = threading.Timer(timeout, p.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, p.returncode


def relay_stderr(out, limit=2000):
    """Copy the tail of a child's stderr (kept beside `out`) to ours."""
    err = Path(str(out) + ".err")
    if err.exists():
        sys.stderr.write(err.read_text(errors="replace")[-limit:])


def last_json(path):
    """The JSON object on the last line of a file, or None."""
    lines = Path(path).read_text().strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def build(bdir):
    """Configure (once) and build the three programs; exit 1 with the
    log tail on stderr if either step fails."""
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    steps = []
    if not (bdir / "Makefile").exists():
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--parallel", str(nproc()),
                  "--target", "experiments", "experimentd", "rbench"])
    with open(log, "wb") as f:
        for step in steps:
            rc = subprocess.call([str(s) for s in step], stdout=f,
                                 stderr=subprocess.STDOUT, env=child_env())
            if rc != 0:
                f.flush()
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                print("benchmark: build failed", file=sys.stderr)
                sys.exit(1)


def host_info(bdir):
    cache = {}
    for line in (bdir / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    return {"nproc": nproc(), "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
            "revision": revision()}


def revision():
    """The git commit when there is one, else a digest of the
    sources the benchmark builds."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha1()
    for top in ("CMakeLists.txt", "src", "tools", "benchmark"):
        base = ROOT / top
        for f in sorted([base] if base.is_file() else base.rglob("*")):
            if f.is_file():
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return "tree-" + h.hexdigest()[:12]


class Bench:
    """One benchmark run: programs, scratch directory, checks."""

    def __init__(self, bdir, tmp, traces, seed, seconds):
        self.experiments = bdir / "rodinia" / "tools" / "experiments"
        self.experimentd = bdir / "rodinia" / "tools" / "experimentd"
        self.rbench = bdir / "rbench"
        self.tmp = tmp
        self.traces = traces
        self.seed = seed
        self.seconds = seconds
        self.jobs = nproc()
        self.outcomes = []
        self.checks = []  # failed attribution/consistency checks
        self.detail = {}
        self._serial = 0

    def path(self, name):
        self._serial += 1
        return self.tmp / f"{self._serial:03d}-{name}"

    def trace_file(self, name):
        """Where a traced run keeps one Chrome trace; traces outlive
        the run's scratch directory."""
        self.traces.mkdir(parents=True, exist_ok=True)
        return (self.traces / name).resolve()

    def check(self, ok, what):
        if not ok:
            self.checks.append(what)
            print(f"benchmark: check failed: {what}", file=sys.stderr)

    # -- experiments CLI ------------------------------------------

    def load_golden(self):
        out = self.path("list")
        run_timed([self.experiments, "--list"], out)
        self.titles = benchlib.parse_figure_list(out.read_text())
        self.golden = {p.stem: p.read_text()
                       for p in (ROOT / "tests" / "golden").glob("*.txt")}

    def figures(self, store, traced=False):
        """One `experiments --figure all` run, its figures checked
        against the golden corpus and its jobs counted as operations.
        Returns (wall s, peak RSS MiB, metrics registry dump)."""
        out = self.path("figures.out")
        metrics = Path(str(out) + ".metrics.json")
        cmd = [self.experiments, "--figure", "all", "--jobs", self.jobs,
               "--cache-dir", store, "--no-summary", "--quiet",
               "--metrics", metrics]
        if traced:
            cmd += ["--trace", self.trace_file("experiments.json")]
        wall, rss, rc = run_timed(cmd, out)
        doc = json.loads(metrics.read_text()) if metrics.exists() else {}
        done = benchlib.metric_total(doc, "executor.jobs_done")
        lost = (benchlib.metric_total(doc, "executor.jobs_failed") +
                benchlib.metric_total(doc, "executor.jobs_skipped"))
        bad = benchlib.figure_mismatches(out.read_text(), self.titles,
                                         self.golden)
        if rc != 0 or done == 0:
            self.outcomes += [False] * max(1, done + lost)
        else:
            wrong = min(len(bad), done)
            self.outcomes += ([True] * (done - wrong) + [False] * wrong +
                              [False] * lost)
        if bad:
            print(f"benchmark: figures differ from tests/golden: {bad}",
                  file=sys.stderr)
        if rc != 0 or lost:
            print(f"benchmark: experiments exited {rc} with {lost} jobs "
                  f"lost", file=sys.stderr)
            relay_stderr(out)
        return wall, rss, doc

    def repeat(self, fn):
        """Call fn() until the run's seconds are spent (at least once);
        returns the list of its results."""
        results = []
        start = time.perf_counter()
        while not results or time.perf_counter() - start < self.seconds:
            results.append(fn())
        return results


# ---------------------------------------------------------------------
# End-to-end metric assembly.
# ---------------------------------------------------------------------

def e2e_metrics(walls, setups, rss):
    """The end-to-end metrics: medians of a run's samples."""
    return {
        "wall_s": benchlib.median(walls),
        "setup_s": benchlib.median(setups),
        "peak_rss_mib": benchlib.median(rss),
    }


def rate(count, seconds, scale=1e6):
    return count / seconds / scale if seconds > 0 else 0.0


def cli_layers(doc, wall, jobs):
    """Per-layer metrics read from an `experiments --metrics` dump."""
    total = benchlib.metric_total
    sims = total(doc, "gpusim.sims_run")
    sim_s = total(doc, "gpusim.sim.wall_us") / 1e6
    cycles = total(doc, "gpusim.cycles")
    _, load_us = benchlib.histogram_totals(doc, "store.load_us")
    _, publish_us = benchlib.histogram_totals(doc, "store.publish_us")
    _, busy_us = benchlib.histogram_totals(doc, "executor.attempt_wall_us")
    _, wait_us = benchlib.histogram_totals(doc, "executor.queue_wait_us")
    return {
        "gpusim.timing.sims": sims,
        "gpusim.timing.cycles": cycles,
        "gpusim.timing.s": sim_s,
        "gpusim.timing.mcycles_per_s": rate(cycles, sim_s),
        "cachesim.sweep.line_accesses":
            total(doc, "cachesim.sweep.line_accesses"),
        "driver.store.loads":
            total(doc, "store.hits") + total(doc, "store.misses"),
        "driver.store.hits": total(doc, "store.hits"),
        "driver.store.load_s": load_us / 1e6,
        "driver.store.publishes": total(doc, "store.publishes"),
        "driver.store.publish_s": publish_us / 1e6,
        "driver.store.publish_failures":
            total(doc, "store.publish_failures"),
        "driver.memo.sims_run": sims,
        "driver.memo.store_served": total(doc, "gpusim.store_served"),
        "driver.memo.dup_sims": sims - benchlib.metric_labels(
            doc, "gpusim.sim.cycles"),
        "driver.executor.busy_s": busy_us / 1e6,
        "driver.executor.queue_wait_s": wait_us / 1e6,
        "driver.executor.utilization": busy_us / 1e6 / (wall * jobs),
    }


def inprocess_layers(res):
    """Per-layer metrics from an rbench pass's spans and counts."""
    layers, counts = res.get("layers", {}), res.get("counts", {})

    def busy(name):
        return layers.get(name, {}).get("s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    m = {
        "gpusim.record.s": busy("gpusim.record"),
        "gpusim.record.calls": calls("gpusim.record"),
        "gpusim.hash.s": busy("gpusim.hash"),
        "gpusim.hash.calls": calls("gpusim.hash"),
        "gpusim.replay.s": busy("gpusim.replay"),
        "workloads.cpu.s": busy("workloads.cpu"),
        "cachesim.sweep.s": busy("cachesim.sweep"),
        "gpusim.timing.s_lanes1": busy("gpusim.timing.lanes1"),
        "gpusim.timing.s_lanesN": busy("gpusim.timing.lanesN"),
    }
    for name in ("gpusim.record.launches", "gpusim.record.blocks",
                 "gpusim.record.thread_insts", "gpusim.replay.warp_insts",
                 "workloads.cpu.mem_events"):
        m[name] = counts.get(name, 0)
    return m


def derive_rates(m):
    m["gpusim.record.minst_per_s"] = rate(
        m.get("gpusim.record.thread_insts", 0), m.get("gpusim.record.s", 0))
    m["gpusim.hash.minst_per_s"] = rate(
        m.get("gpusim.record.thread_insts", 0), m.get("gpusim.hash.s", 0))
    m["gpusim.replay.mwinst_per_s"] = rate(
        m.get("gpusim.replay.warp_insts", 0), m.get("gpusim.replay.s", 0))
    m["gpusim.timing.mcycles_per_s"] = rate(
        m.get("gpusim.timing.cycles", 0), m.get("gpusim.timing.s", 0))
    m["workloads.cpu.mevents_per_s"] = rate(
        m.get("workloads.cpu.mem_events", 0), m.get("workloads.cpu.s", 0))
    m["cachesim.sweep.maccess_per_s"] = rate(
        m.get("cachesim.sweep.line_accesses", 0), m.get("cachesim.sweep.s", 0))
    lanes_n = m.get("gpusim.timing.s_lanesN", 0)
    m["gpusim.timing.lane_speedup"] = (
        m.get("gpusim.timing.s_lanes1", 0) / lanes_n if lanes_n else 0.0)
    return m


# ---------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------

def figure_workload(b, traced, warm):
    """cold_full and warm_full: `experiments --figure all --jobs
    nproc`, cold into a fresh store each time, or warm against the
    store its set-up filled."""
    b.load_golden()
    store = b.path("store")
    if warm:
        fill_wall, _, _ = b.figures(store)
        setups = [fill_wall]
    else:
        setups = []
        for _ in range(SETUP_REPEATS):
            wall, _, _ = run_timed(
                [b.experiments, "--figure", "table1", "--no-cache",
                 "--jobs", b.jobs, "--quiet", "--no-summary"],
                b.path("startup.out"))
            setups.append(wall)

    def once(trace=False):
        s = store if warm else b.path("store")
        wall, rss, doc = b.figures(s, traced=trace)
        if not warm:
            shutil.rmtree(s, ignore_errors=True)
        return wall, rss, doc

    if not traced:
        runs = b.repeat(once)
        walls = [r[0] for r in runs]
        b.detail = {"walls_s": walls, "setups_s": setups}
        return e2e_metrics(walls, setups, [r[1] for r in runs])

    # Untraced/traced pairs until the run's seconds are spent; the
    # tracing overhead is the median of the pairs' differences, and
    # the layers come from the last traced run.
    pairs = b.repeat(lambda: (once()[0], once(trace=True)))
    wall, _, doc = pairs[-1][1]
    m = cli_layers(doc, wall, b.jobs)
    cpu = benchlib.metric_total(doc, "cachesim.chars_computed") > 0
    sims = m["gpusim.timing.sims"] > 0
    out = b.path("layers.out")
    _, _, rc = run_timed([b.rbench, "layers", "--cpu", int(cpu),
                          "--sims", int(sims),
                          "--trace", b.trace_file("rbench-layers.json")], out)
    res = last_json(out) or {}
    relay_stderr(out)
    b.check(rc == 0 and res, "rbench layers pass completed")
    b.check(res.get("mismatches", 1) == 0,
            "timing sims agree at one lane and at nproc lanes")
    if cpu:
        b.check(res.get("counts", {}).get("cachesim.sweep.line_accesses") ==
                m["cachesim.sweep.line_accesses"],
                "in-process sweep replays the CLI's line accesses")
    m.update(inprocess_layers(res))
    m["tracing.overhead_s"] = benchlib.median(
        [traced[0] - untraced for untraced, traced in pairs])
    b.detail["tracing_pairs"] = len(pairs)
    if warm:
        for name in ("gpusim.timing.sims", "workloads.cpu.mem_events",
                     "cachesim.sweep.line_accesses", "driver.store.publishes"):
            b.check(m.get(name, 0) == 0, f"warm_full: {name} is 0")
        m.update(service_layers(b))
    b.check(m["driver.memo.dup_sims"] == 0, "no timing sim ran twice")
    return derive_rates(m)


def service_session(b):
    """Start experimentd (traced) on a fresh store, run the rbench
    clients against it, stop it; the clients' result, or None."""
    d = b.path("service")
    d.mkdir()
    cmd = [b.experimentd, "--socket", "d.sock", "--cache-dir", "store",
           "--jobs", b.jobs, "--trace", b.trace_file("experimentd.json")]
    with open(d / "daemon.out", "wb") as fo, open(d / "daemon.err", "wb") as fe:
        daemon = subprocess.Popen([str(c) for c in cmd], cwd=d, stdout=fo,
                                  stderr=fe, env=child_env())
    try:
        out = d / "clients.out"
        _, _, rc = run_timed(
            [b.rbench, "service", "--socket", "d.sock", "--seed", b.seed,
             "--trace", b.trace_file("rbench-service.json")], out, cwd=d)
        if rc != 0:
            relay_stderr(out)
            return None
        return last_json(out)
    finally:
        daemon.send_signal(signal.SIGINT)
        timer = threading.Timer(30, daemon.kill)
        timer.start()
        try:
            _, status, _ = os.wait4(daemon.pid, 0)
        finally:
            timer.cancel()
        daemon.returncode = os.waitstatus_to_exitcode(status)


def service_layers(b):
    """The daemon round-trip layer: closed-loop sim clients against a
    fresh experimentd, pre-warmed, each request checked against the
    in-process payload for its point."""
    res = service_session(b)
    b.check(res is not None, "experimentd session completed")
    if res is None:
        return {}
    b.outcomes += [False] * res["prewarm_failed"] + res["status"]
    # The daemon's stats op nests its metrics registry dump.
    before = json.loads(res["stats_before"]).get("metrics", {})
    after = json.loads(res["stats_after"]).get("metrics", {})

    def delta(name):
        return (benchlib.metric_total(after, name) -
                benchlib.metric_total(before, name))

    waits, wait_us = (a - z for a, z in zip(
        benchlib.histogram_totals(after, "service.queue_wait_us"),
        benchlib.histogram_totals(before, "service.queue_wait_us")))
    lat_ms = [ns / 1e6 for ns in res["lat_ns"]]
    warm_us = [ms * 1e3 for ms, cold in zip(lat_ms, res["cold"]) if not cold]
    pct, p99, n = benchlib.tail_percentile(lat_ms)
    b.detail["service_tail"] = {"percentile": pct, "samples": n}
    m = {
        "service.ping_us": benchlib.median(res["ping_us"]),
        "service.warm_sim_us": benchlib.median(warm_us),
        "service.queue_wait_us": wait_us / waits if waits else 0.0,
        "service.coalesced": res["coalesced"],
        "service.rejected": delta("service.rejected"),
        "service.dup_sims": delta("gpusim.sims_run") - res["distinct_cold"],
        "service.rt_p50_ms": benchlib.median(lat_ms),
        "service.rt_p99_ms": p99,
        "service.req_per_s": len(lat_ms) / sum(res["round_walls_s"]),
    }
    b.check(m["service.dup_sims"] == 0, "service: no cold sim ran twice")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for name in CLEARED_ENV:
        os.environ.pop(name, None)

    bdir = ROOT / ".bench_build"
    build(bdir)
    tmp = bdir / "tmp" / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    traces = bdir / "traces" / f"{args.workload}-seed{args.seed}"
    b = Bench(bdir, tmp, traces, args.seed, args.seconds)
    traced = bool(args.trace)
    try:
        values = figure_workload(b, traced, warm=args.workload == "warm_full")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed = benchlib.count_failures(b.outcomes)
    table = PER_LAYER if traced else END_TO_END
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "host": host_info(bdir),
                      "detail": b.detail, "failed_checks": b.checks}))
    # The verdict goes last and the line is compact, so a tail of the
    # line still shows it.
    print(json.dumps({
        "metrics": {name: {"value": values.get(name, 0), "unit": unit}
                    for name, unit in table},
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "correct": failed == 0 and not b.checks and bool(values),
    }, separators=(",", ":")))


if __name__ == "__main__":
    main()
