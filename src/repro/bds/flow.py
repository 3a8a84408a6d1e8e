"""The top-level BDS optimization flow (Section IV).

Mirrors Fig. 12's right-hand column:

1. *Sweep* -- constant propagation, removal of single-input and
   functionally equivalent nodes (Section IV-A).
2. *Eliminate* -- partial collapsing into supernodes with the BDD-node-count
   value function and periodic BDD mapping (Section IV-B).
3. Per supernode: *variable reordering* (sifting) as initial logic
   simplification, then *recursive BDD decomposition* into a factoring
   tree (Section IV-C).
4. *Sharing extraction* across all factoring trees via BDD canonicity.
5. Lowering to a 2-input gate network (AND/OR/XOR/XNOR/NOT/MUX),
   followed by a final structural sweep.

The returned :class:`BDSResult` carries the optimized network plus the
statistics the experiments report (decomposition mix, phase timings,
supernode count, BDD-mapping invocations).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.bdd import BDD, structure_key, transfer_many
from repro.bdd.reorder import sift
from repro.bds.dontcare import minimize_with_sdc
from repro.check import Checker, sanitize_bdd
from repro.decomp import FTree, extract_sharing, trees_to_network
from repro.decomp.balance import balance_forest
from repro.decomp.engine import DecompOptions, DecompStats, decompose
from repro.network import Network, sweep
from repro.network.eliminate import PartitionedNetwork
from repro.obs.trace import CounterSource, Span, Tracer
from repro.perf import merge_snapshots
from repro.verify import VERIFY_MODES, require_equivalent

#: Sifting leaves a supernode's order as it is when its BDD starts out
#: larger than this many nodes.
SIFT_SIZE_LIMIT = 20_000


@dataclass
class BDSOptions:
    """The settings callers vary; every other step of the flow is fixed.

    The flow always sweeps with functional merge, eliminates with
    :meth:`PartitionedNetwork.eliminate`'s defaults, sifts every
    non-constant supernode (up to :data:`SIFT_SIZE_LIMIT` nodes),
    decomposes it under ``decomp``, extracts sharing and sweeps the
    lowered network once more.
    """

    decomp: DecompOptions = field(default_factory=DecompOptions)
    # Section VI item 3 (future work in the paper, implemented here):
    # depth-balance the factoring trees before sharing extraction.
    balance_trees: bool = False
    # Section VI item 1 (future work in the paper, implemented here):
    # minimize supernodes against satisfiability don't-cares.
    use_sdc: bool = False
    # Invariant sanitizer level ("off" / "cheap" / "full"): runs the
    # repro.check audits at the flow's GC safe points (sweep boundaries,
    # network construction, the eliminate loop, decomposition merge) and
    # raises repro.check.CheckError on the first violated invariant.
    check_level: str = "off"
    # First-class result verification (Section V): compare the optimized
    # network against the input inside the flow.  Up to 20 inputs every
    # mode compares full truth tables, a proof; above that "sim" simulates
    # random patterns, "cec" builds global BDDs capped at
    # repro.verify.DEFAULT_SIZE_CAP nodes, "full" is CEC plus a
    # simulation cross-check of capped outputs.
    # A mismatch raises repro.verify.VerifyError with the counterexample;
    # capped outputs land in BDSResult.verify_unknown_outputs and the
    # verify_outputs_checked / verify_unknown counters in BDSResult.perf.
    verify: str = "off"
    # Wall-clock budget (seconds) for the BDD proof attempt above 20
    # inputs.  None means "as long as the flow itself took" --
    # verification then never dominates the run, and outputs not proven
    # in time are cross-checked by simulation in mode "full".  Use
    # float("inf") for an unbounded proof attempt.
    verify_budget: Optional[float] = None

    #: Fields that never change the optimized network or its verdict:
    #: ``check_level`` runs (or skips) internal audits.  They are excluded
    #: from :meth:`cache_key` so e.g. a ``check_level="full"`` run can
    #: reuse artifacts produced by an unchecked run.
    NON_SEMANTIC_FIELDS = ("check_level",)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able snapshot (nested :class:`DecompOptions` inline)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BDSOptions":
        """Rebuild options from :meth:`to_dict` output.

        Unknown keys are ignored and missing keys take their defaults, so
        snapshots recorded by an older or newer revision still load.
        Options arrive here off the wire, so ``data`` and its ``decomp``
        entry must be objects; anything else raises ``TypeError``.
        """
        if not isinstance(data, dict):
            raise TypeError("options must be an object, not %s"
                            % type(data).__name__)
        decomp_data = data.get("decomp") or {}
        if not isinstance(decomp_data, dict):
            raise TypeError("options.decomp must be an object, not %s"
                            % type(decomp_data).__name__)
        decomp_fields = {f.name for f in fields(DecompOptions)}
        decomp = DecompOptions(**{k: v for k, v in decomp_data.items()
                                  if k in decomp_fields})
        opt_fields = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in data.items()
                  if k in opt_fields and k != "decomp"}
        return cls(decomp=decomp, **kwargs)

    def cache_key(self) -> str:
        """Stable content hash of every *semantic* option field.

        Two option objects with the same key produce the same optimized
        network and verify verdict, so artifacts may be shared between
        them; any semantic field change changes the key.  The key is
        independent of field declaration/insertion order (the snapshot is
        serialized with sorted keys) and of :data:`NON_SEMANTIC_FIELDS`.
        """
        snap = self.to_dict()
        for name in self.NON_SEMANTIC_FIELDS:
            snap.pop(name, None)
        # None and inf survive JSON poorly (inf is not valid JSON); repr
        # through default=str keeps the encoding total and deterministic.
        text = json.dumps(snap, sort_keys=True, default=str,
                          allow_nan=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class BDSResult:
    network: Network
    decomp_stats: DecompStats
    supernodes: int
    mapping_count: int
    # Root span of the flow's trace ("flow", one child span per phase; see
    # repro.obs.trace and docs/OBSERVABILITY.md).  Under a caller's tracer
    # the phase spans' count deltas partition the ``perf`` totals.
    trace: Span
    # Aggregated kernel perf counters (cache hit rate, GC sweeps, peak live
    # nodes, ...) from every manager the flow touched; see repro.perf.
    perf: Dict[str, float] = field(default_factory=dict)
    # Outputs the size-capped verifier could not prove (verify="cec"/"full").
    verify_unknown_outputs: List[str] = field(default_factory=list)

    @property
    def timings(self) -> Dict[str, float]:
        """Seconds per flow phase, read off the phase spans."""
        return {span.name.partition(".")[2]: span.duration
                for span in self.trace.children}

    def summary(self) -> str:
        s = self.network.stats()
        return ("nodes=%d literals=%d depth=%d supernodes=%d | %s"
                % (s["nodes"], s["literals"], s["depth"], self.supernodes,
                   " ".join("%s=%.3fs" % kv for kv in sorted(self.timings.items()))))


class _Counters:
    """The flow's counter accumulator: ``retired`` merges the snapshots
    of the counter sources the flow is done with, ``live`` lists the
    sources still counting.  :meth:`retire` moves a source from one to
    the other in a single step, so the count deltas of the sequential
    phase spans sum to the final totals."""

    def __init__(self) -> None:
        self.retired: Dict[str, float] = {}
        self.live: List[CounterSource] = []

    def add(self, snapshot: Dict[str, float]) -> None:
        self.retired = merge_snapshots([self.retired, snapshot])

    def retire(self, source: CounterSource) -> None:
        self.live.remove(source)
        self.add(source())

    def snapshot(self) -> Dict[str, float]:
        return merge_snapshots([self.retired] + [src() for src in self.live])


def bds_optimize(net: Network, options: Optional[BDSOptions] = None,
                 tracer: Optional[Tracer] = None) -> BDSResult:
    """Run the full BDS flow on a copy of ``net``.

    Every phase, supernode and kernel safe point runs inside a span of
    ``tracer`` (a private :class:`repro.obs.trace.Tracer` when None); the
    finished root span lands on ``BDSResult.trace``.  Only a caller's
    tracer samples counter deltas at span boundaries.  Tracing never
    changes the optimized network.
    """
    opts = options or BDSOptions()
    if opts.verify not in VERIFY_MODES:
        raise ValueError("verify must be one of %r, got %r"
                         % (VERIFY_MODES, opts.verify))
    checker = Checker(opts.check_level)
    counters = _Counters()
    counters.live.append(checker.snapshot)
    tr = tracer if tracer is not None else Tracer()
    if tracer is not None:
        # Sampling at every span boundary costs ~5% of flow time; spans
        # alone cost ~0.3%, so untraced runs skip it.
        tr.counter_source = counters.snapshot
    work = net.copy()

    with tr.span("flow", circuit=net.name, verify=opts.verify) as root:
        with tr.span("flow.sweep"):
            sweep(work, perf_sink=counters.add)
            checker.check_network(work, "network after initial sweep")

        with tr.span("flow.eliminate") as span:
            part = PartitionedNetwork.from_network(work)
            part.mgr.tracer = tr
            counters.live.append(part.perf_snapshot)
            checker.check_partition(part, "partition after construction")
            span.attrs.update(part.eliminate(checker=checker))
            checker.check_partition(part, "partition after eliminate")

        with tr.span("flow.sdc"):
            if opts.use_sdc:
                minimize_with_sdc(part)

        with tr.span("flow.decompose"):
            trees, stats = _decompose_supernodes(part, opts, counters, tr)

        with tr.span("flow.balance"):
            if opts.balance_trees:
                trees = balance_forest(trees)

        with tr.span("flow.sharing"):
            trees = extract_sharing(trees, perf_sink=counters.add)

        with tr.span("flow.lower"):
            gate_net = trees_to_network(trees, inputs=work.inputs,
                                        outputs=work.outputs, name=net.name)
            # SDC minimization (and in principle any decomposition) can
            # drop a supernode's dependence on another supernode,
            # stranding that tree; reachability pruning is a
            # well-formedness requirement of the output (the lint below
            # enforces it).
            gate_net.remove_dangling()
            sweep(gate_net, merge_equivalent=False)
            checker.check_network(gate_net, "network after lowering")

        verify_unknown: List[str] = []
        if opts.verify != "off":
            with tr.span("flow.verify", mode=opts.verify):
                budget = opts.verify_budget
                if budget is None:
                    # The finished phase spans: as long as the flow took.
                    budget = max(0.05, 0.8 * sum(
                        span.duration for span in root.children))
                deadline = (None if budget == float("inf")
                            else time.monotonic() + budget)
                outcome = require_equivalent(
                    net, gate_net, mode=opts.verify, deadline=deadline,
                    subject="BDS result for %r" % net.name,
                    perf_sink=counters.add)
                verify_unknown = outcome.unknown_outputs
                counters.add({
                    "verify_outputs_checked": float(outcome.outputs_checked),
                    "verify_unknown": float(len(outcome.unknown_outputs)),
                })
        perf = counters.snapshot()
    return BDSResult(gate_net, stats, supernodes=len(trees),
                     mapping_count=part.mapping_count, trace=root, perf=perf,
                     verify_unknown_outputs=verify_unknown)


def _decompose_supernodes(part: PartitionedNetwork, opts: BDSOptions,
                          counters: _Counters, tracer: Tracer
                          ) -> Tuple[Dict[str, FTree], DecompStats]:
    """Factoring trees over signal names for every supernode of ``part``,
    and their summed step counts.

    Supernodes whose transfers would build the same manager up to
    variable names are sifted and decomposed once: a later one renames
    the first one's tree and adds its counts again (docs/THEORY.md, "Why
    reusing a supernode's decomposition is exact").
    """
    stats = DecompStats()
    trees: Dict[str, FTree] = {}
    # key -> (first supernode, tree over its manager's variable ids,
    # its step counts)
    done: Dict[Tuple[int, ...], Tuple[str, FTree, DecompStats]] = {}
    for name in sorted(part.refs):
        ref = part.refs[name]
        key, order = structure_key(part.mgr, ref)
        first = done.get(key)
        with tracer.span("decompose.supernode", supernode=name) as span:
            if first is None:
                tree, counts = _decompose_supernode(
                    part.mgr, ref, name, opts, counters, tracer)
                first = done[key] = (name, tree, counts)
            else:
                span.attrs["reuses"] = first[0]
            names = [part.mgr.var_name(var) for var in order]
            trees[name] = first[1].map_vars(names.__getitem__)
        stats.add(first[2])
    return trees, stats


def _decompose_supernode(src: BDD, ref: int, name: str, opts: BDSOptions,
                         counters: _Counters,
                         tracer: Tracer) -> Tuple[FTree, DecompStats]:
    """Transfer one supernode BDD into a fresh manager, then reorder,
    decompose and sanitize it there; returns the factoring tree over the
    fresh manager's variable ids and the decomposition's step counts."""
    moved = transfer_many(src, [ref])
    mgr, root = moved.manager, moved.refs[0]
    counters.live.append(mgr.perf_snapshot)
    mgr.tracer = tracer
    if not mgr.is_const(root):
        sift(mgr, [root], size_limit=SIFT_SIZE_LIMIT)
    stats = DecompStats()
    tree = decompose(mgr, root, options=opts.decomp, stats=stats)
    if opts.check_level != "off":
        # Decomposition-merge safe point: the supernode's private
        # manager must still be canonical after reorder + decompose.
        sanitize_bdd(mgr, level=opts.check_level,
                     subject="supernode %r manager after decompose" % name)
    counters.retire(mgr.perf_snapshot)
    return tree, stats
