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

from dataclasses import dataclass
from typing import Dict

from repro.network import Network, eliminate_literal, sweep
from repro.obs.trace import Span, Tracer
from repro.sis.fx import fast_extract
from repro.sis.resub import resubstitute_all
from repro.sop.minimize import simplify_cover

#: ``eliminate -1`` and ``eliminate 5``: the literal-saving thresholds.
ELIMINATE_FINAL = -1
ELIMINATE_MID = 5
#: Extraction and resubstitution rounds per ``fx`` / ``resub -a``.
FX_ROUNDS = 200
RESUB_ROUNDS = 2
#: ``simplify`` skips covers with more cubes (SIS also bails on them).
SIMPLIFY_MAX_CUBES = 120


@dataclass
class SISResult:
    network: Network
    fx_extracted: int
    resubstitutions: int
    # Root span of the script's trace ("sis", one child span per command
    # run, named "sis.<command>"), as on BDSResult.
    trace: Span

    @property
    def timings(self) -> Dict[str, float]:
        """Seconds per command, summed over its runs, read off the spans."""
        out: Dict[str, float] = {}
        for span in self.trace.children:
            command = span.name.partition(".")[2]
            out[command] = out.get(command, 0.0) + span.duration
        return out

    def summary(self) -> str:
        s = self.network.stats()
        return ("nodes=%d literals=%d depth=%d | %s"
                % (s["nodes"], s["literals"], s["depth"],
                   " ".join("%s=%.3fs" % kv for kv in sorted(self.timings.items()))))


def script_rugged(net: Network) -> SISResult:
    """Run the algebraic optimization script on a copy of ``net``.

    Every sweep is structural (``merge_equivalent=False``), as SIS's is.
    """
    tr = Tracer()
    work = net.copy()
    with tr.span("sis", circuit=net.name) as root:
        with tr.span("sis.sweep"):
            sweep(work, merge_equivalent=False)
        with tr.span("sis.eliminate"):
            eliminate_literal(work, ELIMINATE_FINAL)
        with tr.span("sis.simplify"):
            _simplify_all(work)
        with tr.span("sis.eliminate"):
            eliminate_literal(work, ELIMINATE_FINAL)
        with tr.span("sis.sweep"):
            sweep(work, merge_equivalent=False)
        with tr.span("sis.eliminate"):
            eliminate_literal(work, ELIMINATE_MID)
        with tr.span("sis.simplify"):
            _simplify_all(work)
        with tr.span("sis.resub"):
            resubs = resubstitute_all(work, RESUB_ROUNDS)
        with tr.span("sis.fx"):
            extracted = fast_extract(work, FX_ROUNDS)
        with tr.span("sis.resub"):
            resubs += resubstitute_all(work, RESUB_ROUNDS)
        with tr.span("sis.sweep"):
            sweep(work, merge_equivalent=False)
        with tr.span("sis.eliminate"):
            eliminate_literal(work, ELIMINATE_FINAL)
        with tr.span("sis.sweep"):
            sweep(work, merge_equivalent=False)
        with tr.span("sis.simplify"):
            _simplify_all(work)
    work.remove_dangling()
    work.check()
    return SISResult(work, extracted, resubs, trace=root)


def _simplify_all(net: Network) -> None:
    """Per-node two-level minimization (the ``simplify`` command)."""
    for node in net.nodes.values():
        if len(node.cover) > SIMPLIFY_MAX_CUBES:
            continue  # espresso-lite would be too slow; SIS also bails
        node.cover = simplify_cover(node.cover)
        node.normalize()
