"""BDD-based combinational equivalence checking.

Builds global BDDs (one manager, oriented FORCE order) for both
networks output-by-output and compares canonical refs -- exactly how both
BDS and SIS verify synthesis results (Section V).  A node-count cap guards
against blowup; capped outputs are reported as ``unknown`` and should be
cross-checked by simulation.  :func:`repro.verify.runner.verify_networks`
calls it only above the exhaustive-simulation limit, where a full truth
table is no longer the cheaper proof.
"""

from __future__ import annotations

import time
from typing import Dict, List, NamedTuple, Optional

from repro.bdd import BDD
from repro.bdd.traverse import pick_assignment
from repro.network.cones import global_bdd, initial_order
from repro.network.network import Network
from repro.perf import PerfSink


class EquivalenceResult(NamedTuple):
    equivalent: bool
    checked_outputs: List[str]
    unknown_outputs: List[str]        # blew the size cap
    counterexample: Optional[Dict[str, bool]]
    failing_output: Optional[str]


#: Default per-output work budget (fresh node allocations).  Sized so every
#: proof the test suite relies on completes (the worst, C432 optimized vs.
#: original, needs ~600k) while still cutting off exponential blowups.
DEFAULT_SIZE_CAP = 2_000_000


def check_equivalence(a: Network, b: Network, size_cap: int = DEFAULT_SIZE_CAP,
                      deadline: Optional[float] = None,
                      perf_sink: Optional[PerfSink] = None
                      ) -> EquivalenceResult:
    """Check that two networks implement the same functions.

    Requires identical input and output name sets.  Returns a result whose
    ``equivalent`` is True only when *every* output was proven equal.
    ``size_cap`` bounds the *work* per output: once building an output's
    global BDD has allocated that many fresh nodes the output is abandoned
    to ``unknown_outputs`` (to be cross-checked by simulation).  Capping
    work rather than final size matters in practice -- an output can grow
    millions of intermediate nodes and still collapse to a small BDD.
    ``deadline`` (a ``time.monotonic()`` instant) bounds the whole call the
    same way: outputs not proven by then are reported unknown.
    ``perf_sink``, when given, receives the checker manager's counters
    when the check ends.
    """
    if set(a.inputs) != set(b.inputs):
        raise ValueError("input sets differ: %r vs %r"
                         % (sorted(a.inputs), sorted(b.inputs)))
    if sorted(a.outputs) != sorted(b.outputs):
        raise ValueError("output sets differ")

    mgr = BDD()
    order = initial_order(a)
    var_of: Dict[str, int] = {}
    for name in order:
        var_of[name] = mgr.new_var(name)

    cache_a: Dict[str, Optional[int]] = {}
    cache_b: Dict[str, Optional[int]] = {}
    checked: List[str] = []
    unknown: List[str] = []
    for out in a.outputs:
        if deadline is not None and time.monotonic() > deadline:
            unknown.append(out)
            continue
        ref_a = global_bdd(mgr, a, out, var_of, cache_a, size_cap, deadline)
        ref_b = global_bdd(mgr, b, out, var_of, cache_b, size_cap, deadline)
        if ref_a is None or ref_b is None:
            unknown.append(out)
            continue
        if ref_a != ref_b:
            diff = mgr.xor_(ref_a, ref_b)
            partial = pick_assignment(mgr, diff)
            cex = {name: partial.get(var_of[name], False) for name in a.inputs}
            result = EquivalenceResult(False, checked, unknown, cex, out)
            break
        checked.append(out)
    else:
        result = EquivalenceResult(len(unknown) == 0, checked, unknown,
                                   None, None)
    if perf_sink is not None:
        perf_sink(mgr.perf_snapshot())
    return result
