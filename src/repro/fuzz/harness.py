"""The differential fuzzing loop: generate, optimize, cross-check, shrink.

One iteration draws a random netlist (:mod:`repro.fuzz.generator`) and one
point of the flow's option matrix (:mod:`repro.fuzz.options`), runs the
full BDS flow (plus an optional technology-mapping stage) and cross-checks
the result against the input network with the strongest verifier
available (``verify_networks(mode="full")``).  Every generated case has
at most 16 inputs, within the exhaustive limit of 20, so the check
compares full truth tables: a proof that shares no code with the BDD
kernel the flow runs on (BDD CEC with a simulation cross-check would
take over above the limit).  Any disagreement or
flow exception is a *failure*; the failing input is then delta-debugged
(:mod:`repro.fuzz.shrink`) down to a minimal netlist that still fails
under the same options, and saved to the corpus
(:mod:`repro.fuzz.corpus`) for permanent replay.

``run_fuzz`` is deterministic for a given ``seed`` (including with
``jobs > 1``: cases are sampled in the parent and fanned out in waves).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bdd.manager import BddBudgetExceeded
from repro.bds.flow import BDSOptions, bds_optimize
from repro.check import CheckError
from repro.fuzz.corpus import CorpusEntry, save_entry
from repro.fuzz.generator import sample_spec, spec_from_dict
from repro.fuzz.options import sample_options
from repro.fuzz.shrink import shrink_network
from repro.network.blif import write_blif
from repro.network.network import Network
from repro.verify import VerifyError, verify_networks

#: Default BDD cap for the differential cross-check of a netlist above
#: the exhaustive limit (no generated case has one) -- far above anything
#: a tier-sized random circuit produces, so "unknown" effectively never
#: happens and every iteration is a real verdict.
CROSS_CHECK_CAP = 50000


@dataclass
class Failure:
    """What went wrong on one fuzz case."""

    kind: str                                   # "mismatch" | "crash"
    stage: str                                  # "flow" | "map"
    detail: str
    failing_output: Optional[str] = None
    counterexample: Optional[Dict[str, bool]] = None


@dataclass
class FailureRecord:
    """One corpus-worthy find, as reported by :func:`run_fuzz`."""

    failure: Failure
    spec: Dict[str, Any]
    options: Dict[str, Any]
    map_mode: Optional[str]
    original_nodes: int
    shrunk_nodes: int
    blif: str
    corpus_path: Optional[str] = None


@dataclass
class FuzzReport:
    """Summary of one fuzzing run."""

    seed: int
    budget_seconds: float
    jobs: int
    iterations: int = 0
    elapsed: float = 0.0
    failures: List[FailureRecord] = field(default_factory=list)

    def summary(self) -> str:
        return ("fuzz: seed=%d iterations=%d failures=%d elapsed=%.1fs"
                % (self.seed, self.iterations, len(self.failures),
                   self.elapsed))


def run_case(net: Network, options: BDSOptions,
             map_mode: Optional[str] = None,
             size_cap: int = CROSS_CHECK_CAP,
             seed: int = 1355, check_cache: bool = False) -> Optional[Failure]:
    """Run the flow (and optional mapping) on ``net``; None when clean.

    ``check_cache`` additionally sends the case through the service twice
    over a throwaway artifact cache (cold miss, then warm hit) and
    requires both replies to agree byte-for-byte with the in-process run
    -- the differential guard for the ``repro.service`` path.
    """
    try:
        result = bds_optimize(net, options)
    except (CheckError, VerifyError) as exc:
        # Invariant violations and in-flow verification mismatches are
        # first-class finds, not generic crashes to be summarized away.
        return Failure("crash", "flow",
                       "%s: %s" % (type(exc).__name__, exc))
    except BddBudgetExceeded:
        # A resource verdict, not a bug: the harness never arms budgets
        # itself, so one here belongs to the caller (scheduler timeout).
        raise
    except Exception as exc:
        return Failure("crash", "flow",
                       "%s: %s" % (type(exc).__name__, exc))
    failure = _cross_check(net, result.network, "flow", size_cap, seed)
    if failure is None and check_cache:
        failure = _cache_differential(net, options, write_blif(result.network))
    if failure is not None or not map_mode:
        return failure
    try:
        mapped = _map_stage(result.network, map_mode)
    except (CheckError, VerifyError) as exc:
        return Failure("crash", "map",
                       "%s: %s" % (type(exc).__name__, exc))
    except BddBudgetExceeded:
        raise
    except Exception as exc:
        return Failure("crash", "map",
                       "%s: %s" % (type(exc).__name__, exc))
    return _cross_check(net, mapped, "map", size_cap, seed)


def shrink_failure(net: Network, options: BDSOptions,
                   map_mode: Optional[str], failure: Failure,
                   max_checks: int = 300,
                   deadline: Optional[float] = None) -> Network:
    """Delta-debug ``net`` to a minimal input still failing the same way."""
    check_cache = failure.stage == "cache"

    def fails(candidate: Network) -> bool:
        got = run_case(candidate, options, map_mode,
                       check_cache=check_cache)
        return (got is not None and got.kind == failure.kind
                and got.stage == failure.stage)

    return shrink_network(net, fails, max_checks=max_checks,
                          deadline=deadline)


def replay_entry(entry: CorpusEntry) -> Optional[Failure]:
    """Re-run one corpus entry; None means the old failure stays fixed."""
    return run_case(entry.network, entry.options, entry.map_mode)


def run_fuzz(budget_seconds: float = 60.0, seed: int = 0, jobs: int = 1,
             corpus_dir: Optional[str] = None, max_failures: int = 10,
             shrink_checks: int = 300, shrink_seconds: float = 120.0,
             log: Optional[Callable[[str], None]] = None) -> FuzzReport:
    """Fuzz until the time budget or failure cap is hit.

    New failures are shrunk and (when ``corpus_dir`` is given) written to
    the corpus.  ``jobs > 1`` fans whole cases -- including their shrink
    phase -- out over a process pool in deterministic waves.
    """
    import random

    rng = random.Random(seed)
    report = FuzzReport(seed=seed, budget_seconds=budget_seconds, jobs=jobs)
    start = time.monotonic()
    deadline = start + budget_seconds

    def emit(msg: str) -> None:
        if log is not None:
            log(msg)

    def absorb(raw: Optional[Dict[str, Any]]) -> None:
        report.iterations += 1
        if raw is None:
            return
        record = _record_from_raw(raw)
        if corpus_dir is not None:
            record.corpus_path = save_entry(
                corpus_dir, record.blif,
                _corpus_meta(record, seed))
        report.failures.append(record)
        emit("FAILURE #%d: %s/%s %s (%d -> %d nodes)%s"
             % (len(report.failures), record.failure.kind,
                record.failure.stage, record.failure.detail,
                record.original_nodes, record.shrunk_nodes,
                " -> %s" % record.corpus_path if record.corpus_path else ""))

    emit("fuzz: seed=%d budget=%.0fs jobs=%d" % (seed, budget_seconds, jobs))
    if jobs <= 1:
        while (time.monotonic() < deadline
               and len(report.failures) < max_failures):
            absorb(_fuzz_one(_sample_payload(rng, shrink_checks,
                                             shrink_seconds)))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            while (time.monotonic() < deadline
                   and len(report.failures) < max_failures):
                wave = [_sample_payload(rng, shrink_checks, shrink_seconds)
                        for _ in range(jobs)]
                for raw in pool.map(_fuzz_one, wave):
                    absorb(raw)
    report.elapsed = time.monotonic() - start
    emit(report.summary())
    return report


# ----------------------------------------------------------------------
# Internals (module-level so the process pool can pickle them)
# ----------------------------------------------------------------------


def _sample_payload(rng: "Any", shrink_checks: int,
                    shrink_seconds: float) -> Tuple[Dict[str, Any],
                                                    Dict[str, Any],
                                                    Optional[str], int, float,
                                                    bool]:
    spec = sample_spec(rng)
    options, map_mode = sample_options(rng)
    # ~1 in 8 cases also cross the artifact-cache path (cold vs warm).
    check_cache = rng.random() < 0.125
    return (spec.as_dict(), options.to_dict(), map_mode,
            shrink_checks, shrink_seconds, check_cache)


def _fuzz_one(payload: Tuple[Dict[str, Any], Dict[str, Any], Optional[str],
                             int, float, bool]) -> Optional[Dict[str, Any]]:
    """One full iteration: build, run, and on failure shrink + serialize."""
    spec_d, opts_d, map_mode, shrink_checks, shrink_seconds, check_cache = \
        payload
    spec = spec_from_dict(spec_d)
    options = BDSOptions.from_dict(opts_d)
    net = spec.build()
    failure = run_case(net, options, map_mode, check_cache=check_cache)
    if failure is None:
        return None
    shrunk = shrink_failure(net, options, map_mode, failure,
                            max_checks=shrink_checks,
                            deadline=time.monotonic() + shrink_seconds)
    # Re-derive the failure facts on the minimized netlist (the failing
    # output / counterexample usually change as the circuit shrinks).
    final = run_case(shrunk, options, map_mode,
                     check_cache=check_cache) or failure
    return {
        "spec": spec_d, "options": opts_d, "map_mode": map_mode,
        "kind": final.kind, "stage": final.stage, "detail": final.detail,
        "failing_output": final.failing_output,
        "counterexample": final.counterexample,
        "original_nodes": net.node_count(),
        "shrunk_nodes": shrunk.node_count(),
        "blif": write_blif(shrunk),
    }


def _record_from_raw(raw: Dict[str, Any]) -> FailureRecord:
    failure = Failure(raw["kind"], raw["stage"], raw["detail"],
                      raw.get("failing_output"), raw.get("counterexample"))
    return FailureRecord(failure=failure, spec=raw["spec"],
                         options=raw["options"], map_mode=raw["map_mode"],
                         original_nodes=raw["original_nodes"],
                         shrunk_nodes=raw["shrunk_nodes"], blif=raw["blif"])


def _corpus_meta(record: FailureRecord, seed: int) -> Dict[str, Any]:
    return {
        "kind": record.failure.kind,
        "stage": record.failure.stage,
        "detail": record.failure.detail,
        "failing_output": record.failure.failing_output,
        "counterexample": record.failure.counterexample,
        "seed": seed,
        "spec": record.spec,
        "options": record.options,
        "map_mode": record.map_mode,
    }


def _cache_differential(net: Network, options: BDSOptions,
                        expected_blif: str) -> Optional[Failure]:
    """Send the case through the service twice over a throwaway cache:
    the cold reply must equal the in-process BLIF and the warm hit must
    equal the cold reply."""
    import tempfile

    from repro.service import (ArtifactCache, OptimizationService,
                               ServiceRequest)

    request = ServiceRequest(blif=write_blif(net), options=options)
    with tempfile.TemporaryDirectory() as td:
        service = OptimizationService(cache=ArtifactCache(td))
        cold = service.optimize_one(request)
        warm = service.optimize_one(request)
    for reply in (cold, warm):
        if not reply.ok:
            return Failure("crash", "cache", "service %s: %s"
                           % (reply.status, reply.error))
    if cold.blif != expected_blif:
        return Failure("mismatch", "cache",
                       "service network differs from the in-process run")
    if not warm.cached:
        return Failure("mismatch", "cache", "warm request missed the cache")
    if warm.blif != cold.blif:
        return Failure("mismatch", "cache",
                       "cached network differs from cold run")
    return None


def _cross_check(spec: Network, impl: Network, stage: str, size_cap: int,
                 seed: int) -> Optional[Failure]:
    try:
        outcome = verify_networks(spec, impl, mode="full",
                                  size_cap=size_cap, seed=seed)
    except ValueError as exc:
        # Input/output sets changed: a structural miscompile.
        return Failure("mismatch", stage, "interface: %s" % exc)
    if outcome.equivalent:
        return None
    return Failure("mismatch", stage,
                   "output %r differs" % outcome.failing_output,
                   outcome.failing_output, outcome.counterexample)


def _map_stage(net: Network, map_mode: str) -> Network:
    if map_mode.startswith("lut"):
        from repro.mapping.lut import map_luts

        return map_luts(net, k=int(map_mode[3:])).network
    from repro.mapping import map_network

    return map_network(net, mode=map_mode).network
