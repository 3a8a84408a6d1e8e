"""The ``service_mix`` workload: ``repro serve`` over a Unix socket.

Set-up starts ``repro serve --socket ... --cache-dir <fresh> --jobs 2``
through :mod:`serve_launcher` and waits until it answers.  One benchmark
process then drives a closed loop over two connections (each sends its
next request only after the previous reply), in two phases:

* **cold** -- every distinct netlist exactly once, so every request is a
  cache miss that runs the flow in a forked scheduler worker and stores
  the artifact;
* **warm** -- seeded, skewed repeats of the same netlists, so every
  request is a cache hit.

The netlists are fixed registry circuits plus ``random_logic`` netlists
made from the fixed :data:`NETLIST_SEED`; the workload seed orders the
cold phase and draws the warm one.  The netlists and the request counts
depend only on ``--seconds``, so the quality sums and the cache counters
repeat exactly.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from benchlib import ROOT, WORK, check_and_score, percentile, program_env

#: Fixed registry part of the cold set (small and medium circuits).
REGISTRY = ["rl_cm85", "rl_cm151", "rl_mux", "rl_pcle", "rl_cc", "rl_frg1",
            "parity8", "parity16", "parity32", "add4", "add8", "add16",
            "cmp8", "alu4", "rnd4_1", "bshift4", "bshift8", "bshift16",
            "m2x2", "m4x4", "dec3", "dec4", "prio8", "gray8", "cla8",
            "cla16", "rot", "dalu", "vda", "C880", "C1908", "C3540"]

#: (inputs, gates, outputs) of each random netlist.
RANDOM_SHAPE = (24, 64, 24)
#: Seed of the random netlists.  It is fixed, so the netlists (and the
#: quality of their optimized replies) do not depend on the workload seed.
NETLIST_SEED = 20001
#: Random netlists per second of ``--seconds``.
RANDOM_PER_SECOND = 8
#: Warm requests per cold request, and the Zipf exponent of the warm
#: phase's popularity skew.  Both are assumptions, not measured traffic;
#: no gated metric depends on them (``latency_p90_ms`` is taken over the
#: cold requests only).
WARM_PER_COLD = 4
SKEW = 1.0
CONNECTIONS = 2
JOBS = 2
_CLK_TCK = os.sysconf("SC_CLK_TCK")


@dataclass
class Server:
    proc: subprocess.Popen
    socket_path: str
    workdir: Path
    cpu_log: Path
    #: RUSAGE_CHILDREN CPU before the server started.
    children_cpu0: float
    #: CPU the server tree used to start, read when it first answered.
    startup_cpu: float


@dataclass
class ServiceSetup:
    seed: int
    names: List[str]
    blif: List[str]
    warm: List[int]
    server: Optional[Server] = None
    injections: Tuple[Tuple[str, float], ...] = ()


@dataclass
class LoadResult:
    cold_ms: List[float] = field(default_factory=list)
    warm_ms: List[float] = field(default_factory=list)
    cold_replies: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    elapsed_s: List[float] = field(default_factory=list)
    wait_ms: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    attempted: int = 0
    backpressure: int = 0
    spans: List[Dict[str, Any]] = field(default_factory=list)


def _children_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def _tree_cpu(pid: int) -> float:
    """utime + stime + reaped children of ``pid``, from ``/proc``."""
    with open("/proc/%d/stat" % pid) as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # Fields 14-17 of stat(5); fields[0] here is field 3 (state).
    return sum(int(v) for v in fields[11:15]) / _CLK_TCK


def make_inputs(seed: int, seconds: float) -> Tuple[List[str], List[str],
                                                    List[int]]:
    """Names and BLIF texts of the cold set, and the warm sequence."""
    from repro.circuits import build_circuit
    from repro.circuits.randlogic import random_logic
    from repro.network.blif import write_blif

    names = list(REGISTRY)
    blif = [write_blif(build_circuit(name)) for name in REGISTRY]
    netlist_rng = random.Random(NETLIST_SEED)
    n_in, gates, n_out = RANDOM_SHAPE
    for i in range(max(8, int(RANDOM_PER_SECOND * seconds))):
        name = "rand%d" % i
        net = random_logic(n_in, gates, n_out,
                           seed=netlist_rng.randrange(2 ** 31), name=name)
        names.append(name)
        blif.append(write_blif(net))
    weights = [1.0 / (rank + 1) ** SKEW for rank in range(len(names))]
    warm = random.Random(seed).choices(range(len(names)), weights=weights,
                                       k=WARM_PER_COLD * len(names))
    return names, blif, warm


def start_server(injections: Tuple[Tuple[str, float], ...] = ()) -> Server:
    """Launch the server in a fresh directory and wait until it answers."""
    from repro.service.client import ServiceClient

    WORK.mkdir(exist_ok=True)
    workdir = Path(WORK / ("srv-%d-%d" % (os.getpid(), time.monotonic_ns())))
    workdir.mkdir()
    # Relative to the checkout root (the cwd of both processes): an
    # AF_UNIX path must stay short, however deep the checkout is.
    socket_path = os.path.relpath(workdir / "s.sock", ROOT)
    cpu_log = workdir / "flow_cpu.log"
    cmd = [sys.executable, str(Path(__file__).with_name("serve_launcher.py")),
           "--flow-cpu-log", str(cpu_log)]
    for point, cost in injections:
        cmd += ["--inject", "%s:%r" % (point, cost)]
    cmd += ["--", "serve", "--socket", socket_path, "--cache-dir",
            str(workdir / "cache"), "--jobs", str(JOBS)]
    children_cpu0 = _children_cpu()
    proc = subprocess.Popen(cmd, cwd=str(ROOT), env=program_env(),
                            stdin=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        client = ServiceClient(socket_path=socket_path, retries=40,
                               backoff_base=0.01, backoff_cap=0.1,
                               timeout=30.0)
        with client:
            if client.stats().get("status") != "ok":
                raise RuntimeError("server answered stats with an error")
        startup = _tree_cpu(proc.pid)
    except BaseException:
        stop_server(Server(proc, socket_path, workdir, cpu_log, 0.0, 0.0))
        raise
    return Server(proc, socket_path, workdir, cpu_log, children_cpu0, startup)


def stop_server(server: Server) -> Tuple[float, List[float]]:
    """SIGTERM-drain and reap the server.

    Returns the CPU its process tree used after start-up (read from
    RUSAGE_CHILDREN, so every job worker the server reaped counts) and
    the CPU of each ``bds_optimize`` call its workers logged.
    """
    try:
        server.proc.send_signal(signal.SIGTERM)
        server.proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        server.proc.kill()
        server.proc.wait()
    cpu = _children_cpu() - server.children_cpu0 - server.startup_cpu
    flow_cpu = [float(v) for v in server.cpu_log.read_text().split()] \
        if server.cpu_log.exists() else []
    shutil.rmtree(server.workdir, ignore_errors=True)
    return cpu, flow_cpu


def setup(seed: int, seconds: float,
          injections: Tuple[Tuple[str, float], ...] = ()) -> ServiceSetup:
    from repro.bds import bds_optimize
    from repro.network.blif import parse_blif

    names, blif, warm = make_inputs(seed, seconds)
    bds_optimize(parse_blif(blif[0]))
    st = ServiceSetup(seed, names, blif, warm,
                      injections=injections)
    st.server = start_server(injections)
    return st


def _drive(st: ServiceSetup, server: Server, order: List[int], kind: str,
           out: LoadResult, trace: bool) -> None:
    """Closed loop over :data:`CONNECTIONS` connections until ``order``
    is used up."""
    from repro.service.client import ServiceClient

    lock = threading.Lock()
    position = [0]

    def worker(conn: int) -> None:
        client = ServiceClient(socket_path=server.socket_path, timeout=60.0)
        try:
            while True:
                with lock:
                    if position[0] >= len(order):
                        return
                    slot = position[0]
                    position[0] += 1
                index = order[slot]
                t0 = time.perf_counter()
                try:
                    reply = client.request(st.blif[index])
                except Exception as exc:  # failed operation, counted
                    with lock:
                        out.attempted += 1
                        out.failures.append("%s %s: %s: %s" % (
                            kind, st.names[index], type(exc).__name__, exc))
                    continue
                t1 = time.perf_counter()
                with lock:
                    out.attempted += 1
                    _account(st, kind, index, reply, (t1 - t0) * 1000.0, out)
                    if trace:
                        out.spans.append({
                            "name": "request." + kind, "key": st.names[index],
                            "conn": conn, "slot": slot, "start": t0,
                            "end": t1, "status": reply.get("status"),
                            "cached": reply.get("cached"),
                            "server_elapsed": reply.get("elapsed")})
        finally:
            with lock:
                out.backpressure += client.backpressure_seen
            client.close()

    threads = [threading.Thread(target=worker, args=(c,))
               for c in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def _account(st: ServiceSetup, kind: str, index: int, reply: Dict[str, Any],
             latency_ms: float, out: LoadResult) -> None:
    name = st.names[index]
    if reply.get("status") != "ok":
        out.failures.append("%s %s: status %s: %s" % (
            kind, name, reply.get("status"), reply.get("error")))
        return
    if kind == "cold":
        if reply.get("cached"):
            out.failures.append("cold %s: answered from cache" % name)
        out.cold_ms.append(latency_ms)
        out.cold_replies[index] = reply
        elapsed = float(reply.get("elapsed", 0.0))
        out.elapsed_s.append(elapsed)
        out.wait_ms.append(latency_ms - elapsed * 1000.0)
        return
    out.warm_ms.append(latency_ms)
    cold = out.cold_replies.get(index)
    if not reply.get("cached"):
        out.failures.append("warm %s: not a cache hit" % name)
    elif cold is None or reply.get("blif") != cold.get("blif"):
        out.failures.append("warm %s: hit differs from the cold reply" % name)


def run_load(st: ServiceSetup, server: Server, trace: bool) -> Dict[str, Any]:
    """Both phases against ``server``, then stats; always stops the
    server."""
    from repro.service.client import ServiceClient

    out = LoadResult()
    cold_order = list(range(len(st.names)))
    # A different stream from the warm draws of make_inputs.
    random.Random(st.seed + 1).shuffle(cold_order)
    try:
        _drive(st, server, cold_order, "cold", out, trace)
        _drive(st, server, st.warm, "warm", out, trace)
        with ServiceClient(socket_path=server.socket_path) as client:
            stats = client.stats()
    finally:
        service_cpu, flow_cpu = stop_server(server)
    return {"load": out, "stats": stats, "service_cpu_s": service_cpu,
            "flow_cpu": flow_cpu}


def _check_replies(st: ServiceSetup, out: LoadResult) -> Dict[str, float]:
    """Independent check of every distinct reply, plus reply quality."""
    from repro.mapping import mcnc_library

    library = mcnc_library()
    quality = {"bds_literals": 0, "bds_area": 0.0, "bds_delay": 0.0,
               "mapping.gates": 0}
    for index in sorted(out.cold_replies):
        verdicts, score = check_and_score(
            st.blif[index], out.cold_replies[index].get("blif") or "",
            library, st.seed)
        out.failures.extend("reply %s: %s" % (st.names[index], verdict)
                            for verdict in verdicts)
        for key, value in score.items():
            quality[key] += value
    return quality


def _layer(raw: Dict[str, Any], out: LoadResult) -> Dict[str, float]:
    stats = raw["stats"]
    cache = stats.get("cache", {})
    jobs = stats.get("scheduler", {}).get("jobs_total", {})
    hits = float(cache.get("artifact_cache_hits", 0))
    misses = float(cache.get("artifact_cache_misses", 0))
    return {
        "service.cache_hits": hits,
        "service.cache_misses": misses,
        "service.cache_stores": float(cache.get("artifact_cache_stores", 0)),
        "service.cache_hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "service.job_s": sum(out.elapsed_s),
        "service.miss_wait_ms_p50": percentile(out.wait_ms, 50)
        if out.wait_ms else 0.0,
        "service.backpressure_retries": float(out.backpressure),
        "service.jobs_failed": float(sum(v for k, v in jobs.items()
                                         if k != "ok")),
    }


def _e2e(raw: Dict[str, Any], out: LoadResult) -> Dict[str, float]:
    return {
        "bds_cpu_s": sum(raw["flow_cpu"]),
        # Over the misses only, as on the flow workloads (every flow call
        # computes a netlist), so the warm mix does not enter it.
        "latency_p90_ms": percentile(out.cold_ms, 90),
        "miss_latency_p50_ms": percentile(out.cold_ms, 50),
        "miss_latency_p75_ms": percentile(out.cold_ms, 75),
        "hit_latency_p50_ms": percentile(out.warm_ms, 50),
        "hit_latency_p95_ms": percentile(out.warm_ms, 95),
        "service_cpu_s": raw["service_cpu_s"],
    }


def measure(st: ServiceSetup, trace: bool,
            trace_path: Optional[str] = None) -> Dict[str, Any]:
    """Untraced load on the set-up server; with ``trace`` a second,
    traced load on a fresh server gives the per-layer numbers."""
    assert st.server is not None
    server, st.server = st.server, None
    raw = run_load(st, server, trace=False)
    out = raw["load"]
    metrics = _e2e(raw, out)
    metrics.update(_layer(raw, out))
    quality = _check_replies(st, out)
    metrics.update(quality)
    metrics["bds_delay"] = round(metrics["bds_delay"], 6)
    info: Dict[str, Any] = {"cold": len(st.names), "warm": len(st.warm)}
    attempted, failures = out.attempted, list(out.failures)
    if trace:
        traced = run_load(st, start_server(st.injections), trace=True)
        tout = traced["load"]
        attempted += tout.attempted
        failures += tout.failures
        # The flow is deterministic: the second server's replies must be
        # the ones the independent check already passed.
        for index, reply in tout.cold_replies.items():
            first = out.cold_replies.get(index, {}).get("blif")
            if reply.get("blif") != first:
                failures.append("traced cold %s: reply differs from the "
                                "untraced one" % st.names[index])
        layer = _layer(traced, tout)
        layer["obs.trace_overhead_share"] = \
            sum(traced["flow_cpu"]) / metrics["bds_cpu_s"] - 1 \
            if metrics["bds_cpu_s"] else 0.0
        if not any(s["name"] == "request.cold" for s in tout.spans) or \
                not any(s["name"] == "request.warm" for s in tout.spans):
            raise RuntimeError("traced service_mix run recorded no cold or "
                               "no warm request spans")
        metrics.update(layer)
        if trace_path:
            with open(trace_path, "w") as fh:
                json.dump({"workload": "service_mix", "seed": st.seed,
                           "spans": tout.spans}, fh)
    failed = len(failures)
    metrics["failed_share"] = failed / attempted if attempted else 1.0
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "failures": failures, "info": info}


def teardown(st: ServiceSetup) -> None:
    if st.server is not None:
        stop_server(st.server)
        st.server = None

