#!/usr/bin/env python3
"""amcast_bench: end-to-end and per-layer benchmark of MRP-Store clusters.

Boots real amcast_noded clusters on 127.0.0.1 and drives each with
mrp_loadgen, one single-threaded process that sends open-loop Poisson load
over one connection per server process and checks every result. Prints one
`workload metric value unit` line per metric, then one JSON result line.

  python3 mrpbench/amcast_bench.py [--workload NAME|all] [--seed N]
      [--seconds S] [--trace 0|1] [--repeat N] [--out FILE]

--trace 0 measures the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (an untraced and a traced rerun of the workload plus the
layer micro-benchmarks). --repeat N runs each workload N times, on seeds
SEED..SEED+N-1, and prints each metric's median, min, max and spread; it
exits 1 when an end-to-end metric other than setup_s spreads wider than its
bound.
Run it from the repository root. The first run builds the daemon, the load
generator and the micro-benchmarks with CMake into $CARGO_TARGET_DIR
(default .bench_build); data directories and logs go to .bench_run.
See mrpbench/README.md for the workloads and the metric definitions.
"""

import argparse
import json
import math
import os
import queue
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
RUN = ROOT / ".bench_run"
HOST = "127.0.0.1"

# Common settings of every workload. mrp_loadgen fixes the rest: 50,000
# keys of 128 B values, 100-key scans and a 15 s request timeout.
# An end-to-end run measures this many fresh clusters one after another.
# Latency holds steady within a cluster but its level differs from one
# cluster to the next by about 10% (durable_1ring, 20 s each: p50 0.38 to
# 0.49 ms), so runs of one cluster each disagreed.
CLUSTERS = 5
WARMUP_S = 1.0
TRACE_SAMPLE = 16
TRACEZ_POLL_S = 0.04  # the daemons keep 128 spans; poll before they wrap
RING_OPTIONS = {
    "m": 1, "delta_ms": 5, "lambda": 20000, "lambda_cap": False,
    "instance_timeout_ms": 2000, "proposal_timeout_ms": 4000,
    "gap_repair_timeout_ms": 1000, "gap_repair_probe": True,
    "batch_values": 8, "batch_bytes": 262144, "batch_delay_ms": 0,
    "checkpoint_interval_ms": 0, "trim_interval_ms": 0,
}


# name -> partitions, storage, extra options, mix, key distribution, nominal
# rate, the steps that follow the nominal phase on a run's last cluster, and
# the phase goodput is taken on. BENCHMARK.json lists the workloads the
# benchmark gates; failover_1ring is a diagnostic run (see README.md).
WORKLOADS = {
    # The overload step is followed by nominal load: a ring whose proposals
    # stop while it still holds a backlog drains it one coordinator window
    # per instance_timeout (README.md, findings), which would stretch every
    # run. 5 s keeps the backlog's queueing below proposal_timeout_ms.
    "durable_1ring": dict(
        partitions=1, storage="sync_disk", options={}, get=0.5, scan=0.0,
        dist="uniform", rate=8000, stress="overload",
        tail=[("overload", 64000, 5.0), ("recover", 8000, 3.0)]),
    "memory_1ring": dict(
        partitions=1, storage="memory", options={}, get=0.5, scan=0.0,
        dist="uniform", rate=20000, stress="nominal", tail=[]),
    "scan_2ring": dict(
        partitions=2, storage="memory", options={}, get=0.45, scan=0.10,
        dist="zipfian", rate=6000, stress="nominal", tail=[]),
    # r2 is SIGKILLed when "settle" starts and restarted when "recovery"
    # starts; "outage" is the window the outage goodput is measured on.
    "failover_1ring": dict(
        partitions=1, storage="sync_disk",
        options={"checkpoint_interval_ms": 2000, "trim_interval_ms": 2000},
        get=0.5, scan=0.0, dist="uniform", rate=8000, stress="outage",
        tail=[("settle", 8000, 1.0), ("outage", 8000, 5.0),
              ("recovery", 8000, 8.0)]),
}
KILLED = "r2"  # last member of the partition ring's order

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
LAYER = {m["name"]: m for m in SPEC["per_layer"]}

CHILDREN = []  # every process started, so all are stopped on any exit
CPUS = sorted(os.sched_getaffinity(0))
TASKSET = shutil.which("taskset")


class BenchError(Exception):
    pass


def spawn(args, cpu=None, **kw):
    """Starts a child process, pinned to `cpu` when the host has one CPU
    per server process plus one for the load generator."""
    if cpu is not None and len(CPUS) >= 4 and TASKSET:
        args = [TASKSET, "-c", CPUS[cpu]] + args
    p = subprocess.Popen([str(a) for a in args], **kw)
    CHILDREN.append(p)
    return p


def stop_children():
    for p in CHILDREN:
        if p.poll() is None:
            p.kill()
    for p in CHILDREN:
        p.wait()
    CHILDREN.clear()


def build():
    RUN.mkdir(parents=True, exist_ok=True)
    (RUN / "tmp").mkdir(exist_ok=True)
    log = RUN / "build.log"
    env = dict(os.environ, TMPDIR=str(RUN / "tmp"))  # the compiler's temporary files
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "amcast_noded", "mrp_loadgen", "mrp_micro"])
    with open(log, "w") as out:
        for step in steps:
            rc = subprocess.run([str(a) for a in step], stdout=out,
                                stderr=subprocess.STDOUT, env=env).returncode
            if rc != 0:
                out.flush()
                tail = log.read_text().splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    bins = {"noded": BUILD / "amcast" / "src" / "runtime" / "amcast_noded",
            "loadgen": BUILD / "mrp_loadgen", "micro": BUILD / "mrp_micro"}
    rc = subprocess.run([bins["loadgen"], "--self-test"],
                        capture_output=True, text=True)
    if rc.returncode != 0:
        raise BenchError("load generator self-test failed: " + rc.stderr)
    return bins


def free_ports(n):
    socks = [socket.socket() for _ in range(n)]
    for s in socks:
        s.bind((HOST, 0))
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


# --- /proc and /metrics sampling ---------------------------------------------

def proc_counters(pid):
    """CPU ns and context switches summed over threads, plus write I/O."""
    cpu = ctx = 0
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            try:
                cpu += int(Path(f"/proc/{pid}/task/{tid}/schedstat")
                           .read_text().split()[0])
                for line in Path(f"/proc/{pid}/task/{tid}/status").read_text().splitlines():
                    if "ctxt_switches:" in line:  # voluntary and not
                        ctx += int(line.split()[1])
            except (FileNotFoundError, ProcessLookupError):
                pass
        io = dict(line.split(": ") for line in
                  Path(f"/proc/{pid}/io").read_text().splitlines())
    except (FileNotFoundError, ProcessLookupError):
        return None
    return {"cpu_ns": cpu, "ctx": ctx, "syscw": int(io["syscw"]),
            "write_bytes": int(io["write_bytes"])}


def host_cpu():
    f = [int(x) for x in Path("/proc/stat").read_text().split("\n")[0].split()[1:]]
    return {"iowait": f[4], "total": sum(f)}


def http_get(port, path):
    with urllib.request.urlopen(f"http://{HOST}:{port}{path}", timeout=2) as r:
        return r.read().decode()


def scrape(port):
    out = {}
    for line in http_get(port, "/metrics").splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            out[name] = float(value)
    return out


class TracezPoller(threading.Thread):
    """Polls every daemon's /tracez and keeps each complete span (submit to
    apply seen on one node) once, stamped with the time it was first seen."""

    def __init__(self, ports):
        super().__init__(daemon=True)
        self.ports = ports
        self.spans = {}  # (port, id) -> (first seen, stages)
        self.stop_event = threading.Event()

    def run(self):
        while not self.stop_event.wait(TRACEZ_POLL_S):
            for port in self.ports:
                try:
                    traces = json.loads(http_get(port, "/tracez"))["traces"]
                except (OSError, ValueError):
                    continue
                seen = time.monotonic()
                for t in traces:
                    st = t["stages"]
                    if "submit" in st and "apply" in st:
                        self.spans.setdefault((port, t["id"]), (seen, st))

    def stop(self):
        self.stop_event.set()
        self.join()


# --- clusters ------------------------------------------------------------------

class Cluster:
    """Three amcast_noded processes; with P partitions, daemon d hosts the
    replicas d, d+3, ... (one per partition) and coordinates one ring."""

    def __init__(self, bins, wl, run_dir, traced):
        self.bins, self.wl, self.dir = bins, wl, run_dir
        self.traced = traced
        P = wl["partitions"]
        ports = free_ports(4 + (3 if traced else 0))
        procs = []
        for i in range(3 * P):
            p = {"id": i, "name": f"r{i}", "host": HOST, "port": ports[i % 3],
                 "role": "replica", "partition": i // 3}
            if traced and i < 3:
                p["metrics_port"] = ports[4 + i]
            procs.append(p)
        procs.append({"id": 3 * P, "name": "client", "host": HOST,
                      "port": ports[3], "role": "client"})
        rings = [{"kind": "partition", "partition": p,
                  "members": [3 * p + (p + j) % 3 for j in range(3)],
                  "acceptors": [3 * p + j for j in range(3)],
                  "coordinator": 3 * p + p % 3} for p in range(P)]
        if P > 1:
            members = [d + 3 * p for d in (2, 0, 1) for p in range(P)]
            rings.append({"kind": "global", "members": members,
                          "acceptors": [2, 0, 1], "coordinator": 2})
        options = dict(RING_OPTIONS, storage=wl["storage"], **wl["options"])
        self.config = run_dir / "cluster.json"
        self.config.write_text(json.dumps(
            {"cluster": "mrpbench", "service": "kv", "processes": procs,
             "rings": rings, "options": options}, indent=1))
        self.hosted = [[f"r{d + 3 * p}" for p in range(P)] for d in range(3)]
        self.partition_of = {f"r{i}": i // 3 for i in range(3 * P)}
        self.metrics_ports = ports[4:7] if traced else []
        self.procs = [None] * 3
        self.logs = [None] * 3
        self.restarted = set()

    def daemon_of(self, name):
        return next(d for d, names in enumerate(self.hosted) if name in names)

    def start_daemon(self, d):
        incarnation = sum(1 for _ in self.dir.glob(f"d{d}.*.log"))
        self.logs[d] = self.dir / f"d{d}.{incarnation}.log"
        args = [self.bins["noded"], "--config", self.config,
                "--process", ",".join(self.hosted[d]),
                "--data-dir", self.dir / f"data{d}", "--status-interval-ms", "0"]
        if self.traced:
            args += ["--trace-sample", TRACE_SAMPLE]
        with open(self.logs[d], "w") as log:
            self.procs[d] = spawn(args, cpu=d, stdout=log,
                                  stderr=subprocess.STDOUT, cwd=self.dir)

    def start(self):
        for d in range(3):
            self.start_daemon(d)
        deadline = time.monotonic() + 15
        for d in range(3):
            while self.logs[d].read_text().count("READY ") < len(self.hosted[d]):
                if time.monotonic() > deadline or self.procs[d].poll() is not None:
                    raise BenchError(f"daemon {d} did not start: "
                                     + self.logs[d].read_text()[-500:])
                time.sleep(0.002)

    def kill(self, name):
        d = self.daemon_of(name)
        self.procs[d].kill()
        self.procs[d].wait()

    def restart(self, name):
        d = self.daemon_of(name)
        self.restarted.update(self.hosted[d])
        self.start_daemon(d)

    def pids(self):
        return [p.pid for p in self.procs]

    def stop(self):
        """SIGTERM every daemon and return the FINAL line fields by node."""
        for p in self.procs:
            if p.poll() is None:
                p.send_signal(signal.SIGTERM)
        for p in self.procs:
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        final = {}
        for log in self.logs:
            for m in re.finditer(r"^FINAL node=(\d+) applied=\d+ duplicates=\d+ "
                                 r"order_hash=(\w+) store_hash=(\w+)",
                                 log.read_text(), re.M):
                final[f"r{m.group(1)}"] = (m.group(2), m.group(3))
        return final

    def replicas_agree(self, final):
        """Every replica of a partition holds the same store; those that
        never restarted also applied the same commands in the same order."""
        for p in range(self.wl["partitions"]):
            names = [n for n, q in self.partition_of.items() if q == p]
            if any(n not in final for n in names):
                return False
            if len({final[n][1] for n in names}) != 1:
                return False
            if len({final[n][0] for n in names if n not in self.restarted}) != 1:
                return False
        return True


# --- one measured cluster run ---------------------------------------------------

class Loadgen:
    def __init__(self, bins, cluster, seed, phases, out):
        wl = cluster.wl
        args = [bins["loadgen"], "--config", cluster.config,
                "--get-ratio", wl["get"], "--scan-ratio", wl["scan"],
                "--dist", wl["dist"], "--seed", seed,
                "--out", out, "--timeline", out.with_suffix(".timeline")]
        for name, rate, secs in phases:
            args += ["--phase", f"{name}:{rate}:{secs:.3f}"]
        self.proc = spawn(args, cpu=3, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, cwd=cluster.dir)
        self.lines = queue.Queue()
        self.tail = []
        threading.Thread(target=self._read, daemon=True).start()

    def _read(self):
        for line in self.proc.stdout:
            self.tail = (self.tail + [line])[-20:]
            self.lines.put(line.strip())
        self.lines.put(None)

    def next_line(self, timeout):
        try:
            line = self.lines.get(timeout=timeout)
        except queue.Empty:
            return ""
        if line is None:
            raise BenchError("load generator exited: " + "".join(self.tail))
        return line

    def wait_for(self, marker, limit):
        deadline = time.monotonic() + limit
        while time.monotonic() < deadline:
            if self.next_line(0.05) == marker:
                return
        raise BenchError(f"load generator never printed {marker}")


def run_cluster(bins, wl, run_dir, seed, phases, traced):
    """Boots and preloads a fresh cluster, runs the phase plan and tears
    down. Returns the load generator's result (with the replica check, the
    recovery time and the spans added), the /proc and /metrics samples by
    phase name, and the set-up time: seconds from daemon launch until every
    replica answered a barrier read behind the preload."""
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    out = run_dir.parent / f"{run_dir.name}.result.json"
    out.unlink(missing_ok=True)  # the previous cluster's
    t0 = time.monotonic()
    cluster = Cluster(bins, wl, run_dir, traced)
    cluster.start()
    lg = Loadgen(bins, cluster, seed, phases, out)
    lg.wait_for("PRELOADED", 90)
    setup_s = time.monotonic() - t0
    poller = TracezPoller(cluster.metrics_ports) if traced else None
    if poller:
        poller.start()
    edges, restart_at, recovered_at = {}, None, None
    r2_restart_log = None
    try:
        while True:
            line = lg.next_line(0.01)
            if restart_at is not None and recovered_at is None and \
                    "RECOVERED " in r2_restart_log.read_text():
                recovered_at = time.monotonic()
            if not line.startswith("PHASE "):
                continue
            name = line.split()[1]
            # "PHASE end" starts the load generator's drain phase.
            edges["drain" if name == "end" else name] = sample(cluster, lg)
            if name == "settle":
                cluster.kill(KILLED)
            elif name == "recovery":
                cluster.restart(KILLED)
                restart_at = time.monotonic()
                r2_restart_log = cluster.logs[cluster.daemon_of(KILLED)]
            elif name == "end":
                break
        while restart_at is not None and recovered_at is None:
            if time.monotonic() - restart_at > 60:
                raise BenchError(f"{KILLED} never finished recovery")
            if "RECOVERED " in r2_restart_log.read_text():
                recovered_at = time.monotonic()
            time.sleep(0.01)
        rc = lg.proc.wait(timeout=90)  # drain + barrier: within 15 s + 30 s
    finally:
        if poller:
            poller.stop()
    final = cluster.stop()
    if rc not in (0, 3, 4):
        raise BenchError(f"load generator failed ({rc}): " + "".join(lg.tail))
    result = json.loads(out.read_text())
    result["replicas_agree"] = cluster.replicas_agree(final)
    result["recovery_s"] = (recovered_at - restart_at) if restart_at else None
    result["spans"] = poller.spans if poller else {}
    return result, edges, setup_s


def sample(cluster, lg):
    s = {"t": time.monotonic(), "host": host_cpu(),
         "daemons": [proc_counters(pid) for pid in cluster.pids()],
         "loadgen": proc_counters(lg.proc.pid)}
    if cluster.traced:
        s["metrics"] = []
        for port in cluster.metrics_ports:
            try:
                s["metrics"].append(scrape(port))
            except OSError:
                s["metrics"].append({})
    return s


def phase_after(result, name):
    names = [p["name"] for p in result["phases"]]
    return names[names.index(name) + 1]


def window(result, edges, name):
    """(phase row, start sample, end sample) of one phase."""
    row = next(p for p in result["phases"] if p["name"] == name)
    return row, edges[name], edges[phase_after(result, name)]


def daemon_delta(a, b, key, d):
    if a["daemons"][d] is None or b["daemons"][d] is None:
        return 0
    return b["daemons"][d][key] - a["daemons"][d][key]


def server_cpu_us_per_op(runs):
    """Daemon CPU time over the nominal phases of `runs`, (result, edges)
    pairs, divided by the requests completed in them."""
    cpu_ns = done = 0
    for result, edges in runs:
        row, a, b = window(result, edges, "nominal")
        cpu_ns += sum(daemon_delta(a, b, "cpu_ns", d) for d in range(3))
        done += row["completed"]
    return cpu_ns / max(done, 1) / 1e3


def plan(wl, nominal_s, last):
    """One cluster's phases: warm-up, nominal load and, on a run's last
    cluster, the workload's tail."""
    phases = [("warmup", wl["rate"], WARMUP_S), ("nominal", wl["rate"], nominal_s)]
    return phases + wl["tail"] if last else phases


def nominal_seconds(wl, seconds, clusters):
    """The tail runs once per run and the nominal phase on every cluster;
    together they measure `seconds`."""
    return max((seconds - sum(s for _, _, s in wl["tail"])) / clusters, 1.0)


def rows_of(result):
    return {p["name"]: p for p in result["phases"]}


# --- metrics -----------------------------------------------------------------

def e2e_run(bins, name, seed, seconds):
    wl = WORKLOADS[name]
    n = nominal_seconds(wl, seconds, CLUSTERS)
    runs = [run_cluster(bins, wl, RUN / name, seed,
                        plan(wl, n, k == CLUSTERS - 1), False)
            for k in range(CLUSTERS)]
    results = [r for r, _, _ in runs]
    nominal = [rows_of(r)["nominal"] for r in results]
    stress = [rows_of(r)[wl["stress"]] for r in results
              if wl["stress"] in rows_of(r)]
    rows = rows_of(results[-1])
    # A cluster's latency is the median over its whole seconds of each
    # second's p50: a disk stall of a few seconds moves a phase's pooled
    # p50, not the typical second's. A second whose requests all timed out
    # has no latency (0); they count in `failed` instead.
    metrics = {
        "p50_ms": statistics.fmean(
            statistics.median(v for v in row["second_p50_ms"] if v > 0)
            for row in nominal),
        "server_cpu_us_per_op": server_cpu_us_per_op([(r, e) for r, e, _ in runs]),
        "goodput_ops_s": statistics.median(
            [v for row in stress for v in row["second_completed"]]),
        "setup_s": statistics.median([s for _, _, s in runs]),
    }
    counted = [p for r in results for p in r["phases"] if p["name"] != "overload"]
    diag = {
        "fail_frac": (sum(p["timeouts"] + p["wrong"] for p in counted)
                      / max(sum(p["issued"] for p in counted), 1), "ratio"),
        "wrong_results": (sum(r["wrong"] for r in results), "count"),
        "client.p99_ms": (statistics.median(row["p99_ms"] for row in nominal), "ms"),
        "client.samples": (sum(row["samples"] for row in nominal), "count"),
        "client.gen_lag_p99_ms": (max(row["gen_lag_p99_ms"] for row in nominal), "ms"),
    }
    if wl["scan"] > 0:
        diag["scan_p50_ms"] = (
            statistics.median(row["scan_p50_ms"] for row in nominal), "ms")
    if "overload" in rows:
        diag["peak_goodput_ops_s"] = (metrics["goodput_ops_s"], "1/s")
        diag["client.overload_timeouts"] = (rows["overload"]["timeouts"], "count")
    if results[-1]["recovery_s"] is not None:
        diag["outage_goodput_frac"] = (
            rows["outage"]["completed"] / rows["outage"]["seconds"] / wl["rate"],
            "ratio")
        diag["max_stall_s"] = (max(rows[n]["max_gap_s"] for n in
                                   ("settle", "outage", "recovery")), "s")
        diag["recovery_s"] = (results[-1]["recovery_s"], "s")
    if diag["client.gen_lag_p99_ms"][0] > 1.0:
        print(f"{name}: generator lag p99 above 1 ms: the nominal point is "
              f"invalid", file=sys.stderr)
    return metrics, diag, results


def percentile(values, q):
    """Exact nearest-rank percentile, as mrp_loadgen computes it."""
    if not values:
        return 0.0
    v = sorted(values)
    return v[max(0, min(len(v) - 1, math.ceil(q * len(v)) - 1))]


def stage_metrics(result, edges):
    """Stage distributions from the spans first seen inside the nominal
    window; the /metrics summaries are cumulative since boot."""
    _, a, b = window(result, edges, "nominal")
    inside = [st for seen, st in result["spans"].values()
              if a["t"] < seen <= b["t"]]
    pairs = {"ringpaxos.stage_queue": ("submit", "phase2"),
             "ringpaxos.stage_ring": ("phase2", "decide"),
             "core.stage_merge": ("decide", "deliver"),
             "kvstore.stage_apply": ("deliver", "apply"),
             "obs.stage_total": ("submit", "apply")}
    out = {}
    for name, (x, y) in pairs.items():
        d = [(st[y] - st[x]) / 1e6 for st in inside if x in st and y in st]
        for q, suffix in ((0.5, "_p50_ms"), (0.99, "_p99_ms")):
            if name + suffix in LAYER:
                out[name + suffix] = percentile(d, q)
    traced = sum(m.get("obs_stage_total_ms_count", 0) for m in b["metrics"]) - \
        sum(m.get("obs_stage_total_ms_count", 0) for m in a["metrics"])
    out["obs.spans"] = len(inside)
    out["obs.missed_spans"] = max(0, traced - len(inside))
    return out


def trace_run(bins, name, seed, seconds):
    wl = WORKLOADS[name]
    micro_dir = RUN / "micro"
    micro = json.loads(subprocess.run(
        [bins["micro"], "--dir", micro_dir], capture_output=True, text=True,
        check=True).stdout)
    # A: one cluster running the workload's plan at half length, untraced.
    ra, ea, _ = run_cluster(
        bins, wl, RUN / f"{name}.untraced", seed,
        plan(wl, nominal_seconds(wl, seconds / 2, 1), True), False)
    # B: its nominal phase at half length, traced.
    rb, eb, _ = run_cluster(bins, wl, RUN / f"{name}.traced", seed,
                            plan(wl, seconds / 2, False), True)
    row, a, b = window(ra, ea, "nominal")
    wall = b["t"] - a["t"]
    done = max(row["completed"], 1)
    srow, sa, sb = window(ra, ea, wl["stress"])
    m = dict(micro)
    m["client.p99_ms"] = row["p99_ms"]
    m["client.p999_ms"] = row["p999_ms"]
    m["client.samples"] = row["samples"]
    # The generator spins between arrivals, so its CPU time says nothing;
    # its lag in the stress phase shows whether it kept the schedule.
    m["client.gen_lag_p99_ms"] = srow["gen_lag_p99_ms"]
    m["runtime.coord_cpu_util"] = daemon_delta(a, b, "cpu_ns", 0) / 1e9 / wall
    m["runtime.follower_cpu_util"] = sum(
        daemon_delta(a, b, "cpu_ns", d) for d in (1, 2)) / 2e9 / wall
    m["runtime.ctx_switches_per_op"] = sum(
        daemon_delta(a, b, "ctx", d) for d in range(3)) / done
    m["runtime.write_syscalls_per_op"] = sum(
        daemon_delta(a, b, "syscw", d) for d in range(3)) / done
    m["runtime.journal_bytes_per_op"] = sum(
        daemon_delta(a, b, "write_bytes", d) for d in range(3)) / done
    m["runtime.host_iowait_frac"] = (
        (sb["host"]["iowait"] - sa["host"]["iowait"])
        / max(sb["host"]["total"] - sa["host"]["total"], 1))
    m["core.replica_lag_ops"] = row["lag_ops"]

    trow, ta, tb = window(rb, eb, "nominal")
    tdone = max(trow["completed"], 1)
    for counter, metric in (("transport_frames_sent", "net.frames_per_op"),
                            ("transport_bytes_sent", "net.bytes_per_op")):
        m[metric] = sum(y.get(counter, 0) - x.get(counter, 0) for x, y in
                        zip(ta["metrics"], tb["metrics"])) / tdone
    m.update(stage_metrics(rb, eb))
    m["obs.unattributed_p50_ms"] = trow["p50_ms"] - m["obs.stage_total_p50_ms"]
    m["obs.trace_overhead_p50_pct"] = (trow["p50_ms"] / row["p50_ms"] - 1) * 100
    m["obs.trace_overhead_cpu_pct"] = (
        server_cpu_us_per_op([(rb, eb)]) / server_cpu_us_per_op([(ra, ea)]) - 1) * 100
    unknown = set(m) ^ set(LAYER)
    if unknown:
        raise BenchError(f"per-layer metrics out of step with BENCHMARK.json: "
                         f"{sorted(unknown)}")
    return m, ra, rb


def run_once(bins, name, seed, seconds, trace):
    """Returns (metrics, diagnostics, attempted, failed, correct)."""
    if trace:
        metrics, ra, rb = trace_run(bins, name, seed, seconds)
        results, diag = [ra, rb], {}
    else:
        metrics, diag, results = e2e_run(bins, name, seed, seconds)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["timeouts"] + r["wrong"] for r in results)
    correct = all(r["wrong"] == 0 and r["barrier_ok"] and r["replicas_agree"]
                  for r in results)
    return metrics, diag, attempted, failed, correct


def spread(values):
    """Distance between the first and third quartile, over the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=["all"] + list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    spec = LAYER if args.trace else E2E

    bins = build()
    runs = {n: [] for n in names}
    attempted = failed = 0
    correct = True
    for n in names:
        for r in range(args.repeat):
            metrics, diag, att, fail, ok = run_once(
                bins, n, args.seed + r, args.seconds, args.trace)
            attempted, failed, correct = attempted + att, failed + fail, correct and ok
            runs[n].append(metrics)
            for k, v in metrics.items():
                print(f"{n} {k} {v:.6g} {spec[k]['unit']}")
            for k, (v, unit) in diag.items():
                print(f"{n} {k} {v:.6g} {unit}")
            print(f"{n} correct {int(ok)} bool", flush=True)

    medians, too_wide = {}, []
    for n in names:
        for k in spec:
            values = [m[k] for m in runs[n]]
            medians[(n, k)] = statistics.median(values)
            if args.repeat > 1:
                s = spread(values)
                print(f"{n} {k} median={medians[(n, k)]:.6g} min={min(values):.6g} "
                      f"max={max(values):.6g} spread={s:.3f}")
                if not args.trace and k != "setup_s" and s > spec[k]["bound"]:
                    too_wide.append(f"{n}/{k}")
    if args.out:
        args.out.write_text(json.dumps({n: runs[n] for n in names}, indent=1))
    key = (lambda n, k: k) if len(names) == 1 else (lambda n, k: f"{n}.{k}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {key(n, k): {"value": v, "unit": spec[k]["unit"]}
                    for (n, k), v in medians.items()}}))
    if too_wide:
        print("spread wider than the bound: " + ", ".join(too_wide),
              file=sys.stderr)
    return 0 if correct and not too_wide else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except (BenchError, subprocess.CalledProcessError) as e:
        print(f"amcast_bench: {e}", file=sys.stderr)
        sys.exit(2)
    finally:
        stop_children()
