"""The SIS baseline flow: a ``script.rugged`` stand-in (Fig. 12, left).

The real script is::

    sweep; eliminate -1
    simplify -m nocomp
    eliminate -1
    sweep; eliminate 5
    simplify -m nocomp
    resub -a
    fx
    resub -a; sweep
    eliminate -1; sweep
    full_simplify -m nocomp

We reproduce the same phase structure in the cube domain (our
``full_simplify`` is a second simplify pass -- satisfiability don't-cares
are exactly what the paper says *neither* system it compares fully
exploits).  All costs are literal counts, all node functions are SOP
covers, matching the algebraic methodology BDS is benchmarked against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.network import Network, eliminate_literal, sweep
from repro.sis.fx import fast_extract
from repro.sis.resub import resubstitute_all
from repro.sop.minimize import simplify_cover


@dataclass
class SISOptions:
    eliminate_threshold_final: int = -1
    eliminate_threshold_mid: int = 5
    fx_rounds: int = 200
    resub_rounds: int = 2
    simplify_max_cubes: int = 120
    sweep_merge_equivalent: bool = False  # plain SIS sweep is structural


@dataclass
class SISResult:
    network: Network
    timings: Dict[str, float]
    fx_extracted: int
    resubstitutions: int

    def summary(self) -> str:
        s = self.network.stats()
        return ("nodes=%d literals=%d depth=%d | %s"
                % (s["nodes"], s["literals"], s["depth"],
                   " ".join("%s=%.3fs" % kv for kv in sorted(self.timings.items()))))


def script_rugged(net: Network, options: Optional[SISOptions] = None) -> SISResult:
    """Run the algebraic optimization script on a copy of ``net``."""
    opts = options or SISOptions()
    timings: Dict[str, float] = {}
    work = net.copy()

    def timed(label, fn):
        t0 = time.perf_counter()
        out = fn()
        timings[label] = timings.get(label, 0.0) + time.perf_counter() - t0
        return out

    def simplify() -> None:
        _simplify_all(work, opts.simplify_max_cubes)

    timed("sweep", lambda: sweep(work, merge_equivalent=opts.sweep_merge_equivalent))
    timed("eliminate", lambda: eliminate_literal(work, opts.eliminate_threshold_final))
    timed("simplify", simplify)
    timed("eliminate", lambda: eliminate_literal(work, opts.eliminate_threshold_final))
    timed("sweep", lambda: sweep(work, merge_equivalent=False))
    timed("eliminate", lambda: eliminate_literal(work, opts.eliminate_threshold_mid))
    timed("simplify", simplify)
    resubs = timed("resub", lambda: resubstitute_all(work, opts.resub_rounds))
    extracted = timed("fx", lambda: fast_extract(work, opts.fx_rounds))
    resubs += timed("resub", lambda: resubstitute_all(work, opts.resub_rounds))
    timed("sweep", lambda: sweep(work, merge_equivalent=False))
    timed("eliminate", lambda: eliminate_literal(work, opts.eliminate_threshold_final))
    timed("sweep", lambda: sweep(work, merge_equivalent=False))
    timed("simplify", simplify)
    work.remove_dangling()
    work.check()
    return SISResult(work, timings, extracted, resubs)


def _simplify_all(net: Network, max_cubes: int) -> None:
    """Per-node two-level minimization (the ``simplify`` command)."""
    for node in net.nodes.values():
        if len(node.cover) > max_cubes:
            continue  # espresso-lite would be too slow; SIS also bails
        node.cover = simplify_cover(node.cover)
        node.normalize()
