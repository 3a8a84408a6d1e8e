"""One verification entry point shared by the flow, the CLI and the fuzzer.

``verify_networks`` compares an implementation against its specification.
Up to :data:`repro.verify.simulate.EXHAUSTIVE_LIMIT` inputs every mode
compares the full truth tables: a proof (or a counterexample) in at most
16 bit-parallel passes per network, before any BDD manager exists, and
independent of ``size_cap``, the deadline and the host's speed.  Above
the limit the mode picks the strength:

``"sim"``
    Seeded random simulation patterns: "not refuted", never a proof.
``"cec"``
    BDD-based equivalence checking (Section V); outputs whose global BDD
    exceeds ``size_cap`` or the deadline are reported in
    ``unknown_outputs`` rather than silently passing.
``"full"``
    CEC first, then a random-simulation cross-check whenever the cap left
    any output unknown -- the paper's own C6288 fallback.

``require_equivalent`` wraps the same comparison and raises
:class:`VerifyError` (carrying the counterexample assignment) on mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.network.network import Network
from repro.perf import PerfSink
from repro.verify.cec import DEFAULT_SIZE_CAP, check_equivalence
from repro.verify.simulate import EXHAUSTIVE_LIMIT, simulate_equivalence

#: Recognized verification modes, in increasing strength order.
VERIFY_MODES = ("off", "sim", "cec", "full")


class VerifyError(Exception):
    """An optimized network disagrees with its specification.

    Carries the verification ``mode``, the ``failing_output`` name and the
    ``counterexample`` input assignment that distinguishes the networks,
    plus the checked/unknown bookkeeping gathered before the mismatch.
    """

    def __init__(self, message: str, mode: str,
                 failing_output: Optional[str] = None,
                 counterexample: Optional[Dict[str, bool]] = None,
                 outputs_checked: int = 0,
                 unknown_outputs: Optional[List[str]] = None) -> None:
        self.mode = mode
        self.failing_output = failing_output
        self.counterexample = dict(counterexample or {})
        self.outputs_checked = outputs_checked
        self.unknown_outputs = list(unknown_outputs or [])
        super().__init__(message)


@dataclass
class VerifyOutcome:
    """Result of one specification-vs-implementation comparison."""

    mode: str
    equivalent: bool                   # no mismatch found
    proven: bool                       # every output proven equal
    outputs_checked: int               # outputs proven (CEC) or simulated
    unknown_outputs: List[str] = field(default_factory=list)
    failing_output: Optional[str] = None
    counterexample: Optional[Dict[str, bool]] = None

    def describe(self) -> str:
        if not self.equivalent:
            return ("NOT equivalent (%s): output %r differs under %r"
                    % (self.mode, self.failing_output, self.counterexample))
        if self.unknown_outputs:
            return ("inconclusive (%s): %d output(s) exceeded the BDD cap: %s"
                    % (self.mode, len(self.unknown_outputs),
                       ", ".join(self.unknown_outputs)))
        return ("equivalent (%s): %d output(s) checked"
                % (self.mode, self.outputs_checked))


def verify_networks(spec: Network, impl: Network, mode: str = "cec",
                    size_cap: int = DEFAULT_SIZE_CAP, seed: int = 1355,
                    rounds: int = 16, width: int = 256,
                    deadline: Optional[float] = None,
                    perf_sink: Optional[PerfSink] = None) -> VerifyOutcome:
    """Compare ``impl`` against ``spec``; never raises on mismatch.

    ``size_cap`` and ``deadline`` (a ``time.monotonic()`` instant) bound
    the BDD proof attempt above the exhaustive limit; outputs not proven
    within them land in ``unknown_outputs`` (and get simulated in mode
    "full").  ``perf_sink`` receives the BDD checker's counters, if it
    ran.
    """
    if mode not in VERIFY_MODES or mode == "off":
        raise ValueError("verify mode must be one of %r, got %r"
                         % (VERIFY_MODES[1:], mode))
    if mode == "sim" or len(spec.inputs) <= EXHAUSTIVE_LIMIT:
        return _simulate_outcome(spec, impl, mode, seed, rounds, width)

    res = check_equivalence(spec, impl, size_cap=size_cap, deadline=deadline,
                            perf_sink=perf_sink)
    if res.counterexample is not None:
        return VerifyOutcome(mode, equivalent=False, proven=False,
                             outputs_checked=len(res.checked_outputs),
                             unknown_outputs=list(res.unknown_outputs),
                             failing_output=res.failing_output,
                             counterexample=res.counterexample)
    if mode == "full" and res.unknown_outputs:
        sim = _simulate_outcome(spec, impl, "full", seed, rounds, width)
        if not sim.equivalent:
            sim.outputs_checked = len(res.checked_outputs)
            sim.unknown_outputs = list(res.unknown_outputs)
            return sim
    return VerifyOutcome(mode, equivalent=True,
                         proven=not res.unknown_outputs,
                         outputs_checked=len(res.checked_outputs),
                         unknown_outputs=list(res.unknown_outputs))


def require_equivalent(spec: Network, impl: Network, mode: str = "cec",
                       size_cap: int = DEFAULT_SIZE_CAP, seed: int = 1355,
                       rounds: int = 16, width: int = 256,
                       deadline: Optional[float] = None,
                       subject: str = "optimized network",
                       perf_sink: Optional[PerfSink] = None) -> VerifyOutcome:
    """Like :func:`verify_networks` but raises :class:`VerifyError` on
    mismatch; inconclusive (capped) outputs do *not* raise -- callers see
    them in ``unknown_outputs`` and decide."""
    outcome = verify_networks(spec, impl, mode=mode, size_cap=size_cap,
                              seed=seed, rounds=rounds, width=width,
                              deadline=deadline, perf_sink=perf_sink)
    if not outcome.equivalent:
        raise VerifyError(
            "%s fails verification (%s): %s" % (subject, mode,
                                                outcome.describe()),
            mode=mode, failing_output=outcome.failing_output,
            counterexample=outcome.counterexample,
            outputs_checked=outcome.outputs_checked,
            unknown_outputs=outcome.unknown_outputs)
    return outcome


def _simulate_outcome(spec: Network, impl: Network, mode: str, seed: int,
                      rounds: int, width: int) -> VerifyOutcome:
    agree, cex = simulate_equivalence(spec, impl, rounds=rounds, width=width,
                                      seed=seed)
    if agree:
        return VerifyOutcome(mode, equivalent=True,
                             proven=len(spec.inputs) <= EXHAUSTIVE_LIMIT,
                             outputs_checked=len(spec.outputs))
    assert cex is not None
    failing = _failing_output(spec, impl, cex)
    return VerifyOutcome(mode, equivalent=False, proven=False,
                         outputs_checked=0, failing_output=failing,
                         counterexample=cex)


def _failing_output(spec: Network, impl: Network,
                    cex: Dict[str, bool]) -> Optional[str]:
    """Name one output the counterexample actually distinguishes."""
    got_spec = spec.eval(cex)
    got_impl = impl.eval(cex)
    for name in spec.outputs:
        if got_spec[name] != got_impl[name]:
            return name
    return None
