"""Partial collapsing ("eliminate"): network partitioning into supernodes.

Two variants, mirroring Fig. 12:

* :func:`eliminate_literal` -- the SIS-style eliminate working on cube
  covers with the literal-count value function.
* :class:`PartitionedNetwork` -- the BDS-style
  eliminate of Section IV-B: every node holds a *local BDD* over its fanin
  signals (each Boolean node owns an intermediate BDD variable), the value
  function is the BDD node count, and the manager is periodically compacted
  by transferring all live BDDs into a fresh manager holding only used
  variables (the paper's *BDD mapping*, reported ~85x faster than
  reordering a polluted manager).
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.bdd import BDD, transfer_many
from repro.bdd.isop import isop
from repro.bdd.traverse import node_count, support_and_size
from repro.network.cones import cover_bdd
from repro.network.network import Network, Node
from repro.perf import merge_snapshots
from repro.sop.cover import Cover, complement, remove_contained
from repro.sop.cube import cube_and, lit

if TYPE_CHECKING:  # pragma: no cover - typing-only (avoids import cycle)
    from repro.check import Checker

# ----------------------------------------------------------------------
# SIS-style (cube domain)
# ----------------------------------------------------------------------


def eliminate_literal(net: Network, threshold: int = 0,
                      max_node_literals: int = 200,
                      max_passes: int = 10) -> Network:
    """Collapse nodes whose SIS *value* is at most ``threshold``.

    value(n) = (occurrences of n's literal in fanout covers - 1) *
               (literal count of n - 1) - 1
    -- the net literal increase caused by duplicating n at each use.
    """
    for _ in range(max_passes):
        changed = False
        fanouts = net.fanouts()
        for node in list(net.nodes.values()):
            if node.name not in net.nodes or node.name in net.outputs:
                continue
            consumers = [net.nodes[f] for f in fanouts.get(node.name, ())
                         if f in net.nodes]
            if not consumers:
                continue
            lits = node.literal_count()
            if lits > max_node_literals:
                continue
            uses = sum(
                sum(1 for cube in c.cover for l in cube
                    if c.fanins[l >> 1] == node.name)
                for c in consumers
            )
            value = (uses - 1) * (lits - 1) - 1
            if value > threshold:
                continue
            ok = True
            for consumer in consumers:
                if not collapse_node_into(consumer, node):
                    ok = False
            if ok:
                del net.nodes[node.name]
                changed = True
                fanouts = net.fanouts()
        if not changed:
            break
    net.remove_dangling()
    net.check()
    return net


def collapse_node_into(consumer: Node, node: Node,
                       max_cubes: int = 5000) -> bool:
    """Substitute ``node``'s cover for its literal inside ``consumer``.

    Returns False (leaving the consumer untouched) if the result would
    exceed ``max_cubes`` cubes.
    """
    if node.name not in consumer.fanins:
        return True
    # Extend the consumer's fanins with the node's fanins.
    fanins = list(consumer.fanins)
    pos_of: Dict[str, int] = {s: i for i, s in enumerate(fanins)}
    for s in node.fanins:
        if s not in pos_of:
            pos_of[s] = len(fanins)
            fanins.append(s)
    idx = consumer.fanins.index(node.name)

    def remap(cover: Cover) -> Cover:
        return [
            frozenset(lit(pos_of[node.fanins[l >> 1]], not (l & 1)) for l in cube)
            for cube in cover
        ]

    from repro.sop.cover import ComplementTooLarge

    try:
        node_offset = complement(node.cover, limit=max_cubes)
    except ComplementTooLarge:
        return False
    onset = remap(node.cover)
    offset = remap(node_offset)
    new_cover: List[frozenset] = []
    for cube in consumer.cover:
        positive = lit(idx, True) in cube
        negative = lit(idx, False) in cube
        if not positive and not negative:
            new_cover.append(cube)
            continue
        rest = cube - {lit(idx, True), lit(idx, False)}
        source = onset if positive else offset
        for scube in source:
            prod = cube_and(rest, scube)
            if prod is not None:
                new_cover.append(prod)
        if len(new_cover) > max_cubes:
            return False
    consumer.fanins = fanins
    consumer.cover = remove_contained(new_cover)
    consumer.normalize()
    # The collapsed literal's position disappears via normalize(); if the
    # node also fed other literals (it cannot -- one position per signal),
    # nothing else remains.
    return True


# ----------------------------------------------------------------------
# BDS-style (local-BDD domain)
# ----------------------------------------------------------------------


class PartitionedNetwork:
    """A Boolean network whose nodes are local BDDs over signal variables.

    Every primary input and every surviving Boolean node owns one manager
    variable; a node's local BDD mentions only the variables of its fanin
    signals.  This is the representation on which BDS runs eliminate and,
    later, per-supernode decomposition.
    """

    def __init__(self, mgr: BDD, inputs: List[str], outputs: List[str]):
        self.mgr = mgr
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        self.sig_var: Dict[str, int] = {}
        self.refs: Dict[str, int] = {}
        self.mapping_count = 0  # how many BDD-mapping compactions ran
        # Kernel counters of the managers compact() retired, merged into
        # one snapshot; perf_snapshot() adds the live manager's.
        self._retired_perf: Dict[str, float] = {}
        # Signal-graph index, kept current by set_ref()/_drop(): each
        # node's support as signal names, and each read signal's consumers
        # in ``refs`` order.  Eliminate asks for a node's fanouts and the
        # manager's pollution after every collapse; the index answers both
        # without retraversing every live BDD.  Only signals with at least
        # one reader are keys, so len(_fanouts) is the used-signal count.
        # _sizes holds each node's BDD size from the same walk, in the
        # manager's current variable order.
        self._supports: Dict[str, Set[str]] = {}
        self._sizes: Dict[str, int] = {}
        self._fanouts: Dict[str, List[str]] = {}
        self._rank: Dict[str, int] = {}  # position in refs, for ordering
        self._ranks = count()

    # -- construction ---------------------------------------------------

    @classmethod
    def from_network(cls, net: Network) -> "PartitionedNetwork":
        mgr = BDD()
        part = cls(mgr, net.inputs, net.outputs)
        for name in net.inputs:
            part.sig_var[name] = mgr.new_var(name)
        for node in net.topological():
            part.sig_var.setdefault(node.name, mgr.new_var(node.name))
        for node in net.topological():
            fanin_refs = [mgr.var_ref(part.sig_var[f]) for f in node.fanins]
            part.set_ref(node.name, cover_bdd(mgr, node.cover, fanin_refs))
            # Safe GC point: every ref still needed is in part.refs (fanin
            # literal nodes are recreated on demand by var_ref).
            mgr.maybe_collect(part.refs.values())
        return part

    # -- updates ----------------------------------------------------------

    def set_ref(self, name: str, ref: int) -> None:
        """Install ``ref`` as node ``name``'s local BDD.

        Every write to ``refs`` goes through here (or :meth:`_drop`), so
        the support and size caches and the fanout index stay exact: only
        the signals whose readership changed are touched.
        """
        if name not in self.refs:
            self._rank[name] = next(self._ranks)
        old = self._supports.get(name, set())
        supp, self._sizes[name] = support_and_size(self.mgr, ref)
        new = {self.mgr.var_name(v) for v in supp}
        self.refs[name] = ref
        self._supports[name] = new
        for sig in old - new:
            self._unread(sig, name)
        rank = self._rank[name]
        for sig in new - old:
            readers = self._fanouts.setdefault(sig, [])
            i = len(readers)
            while i and self._rank[readers[i - 1]] > rank:
                i -= 1
            readers.insert(i, name)

    def _drop(self, name: str) -> None:
        """Delete node ``name`` and its entries in the index."""
        del self.refs[name]
        del self._sizes[name]
        for sig in self._supports.pop(name):
            self._unread(sig, name)

    def _unread(self, sig: str, name: str) -> None:
        readers = self._fanouts[sig]
        readers.remove(name)
        if not readers:
            del self._fanouts[sig]

    # -- queries ----------------------------------------------------------

    def fanin_signals(self, name: str) -> List[str]:
        return sorted(self._supports[name])

    def fanouts(self) -> Dict[str, List[str]]:
        """Signal -> consumer nodes, in ``refs`` order (a copy)."""
        return {sig: list(readers) for sig, readers in self._fanouts.items()}

    def perf_snapshot(self) -> Dict[str, float]:
        """Kernel counters of every manager this partition has owned."""
        return merge_snapshots([self._retired_perf, self.mgr.perf_snapshot()])

    def remove_dangling(self) -> int:
        dead = [n for n in self.refs
                if n not in self._fanouts and n not in self.outputs]
        for n in dead:
            self._drop(n)
        return len(dead)

    # -- the eliminate loop ----------------------------------------------

    def eliminate(self, threshold: int = 0, size_cap: int = 1000,
                  use_mapping: bool = True, mapping_trigger: float = 0.5,
                  max_passes: int = 20,
                  checker: Optional["Checker"] = None) -> Dict[str, int]:
        """Iteratively collapse low-value nodes into their fanouts.

        A node is eliminated when the change in total BDD node count is at
        most ``threshold`` and no merged fanout BDD exceeds ``size_cap``
        (the paper's collapse threshold keeping supernodes tractable).

        ``checker`` (a :class:`repro.check.Checker`) runs the BDD
        sanitizer at the loop's GC safe points: a quick per-collapse audit
        right after ``maybe_collect`` and a full partition lint at every
        pass boundary and after each BDD-mapping compaction.

        Returns the loop's decision counts: ``trials`` (collapses tried),
        ``collapsed``, ``rejected``, and ``stopped_early`` (rejections
        made before a trial composition finished).
        """
        counts = dict.fromkeys(
            ("trials", "collapsed", "rejected", "stopped_early"), 0)
        for _ in range(max_passes):
            changed = False
            for name in list(self.refs):
                if name in self.outputs or name not in self.refs:
                    continue
                consumers = list(self._fanouts.get(name, ()))
                if not consumers:
                    self._drop(name)
                    changed = True
                    continue
                counts["trials"] += 1
                merged = self._trial_collapse(name, consumers, threshold,
                                              size_cap, counts)
                if merged is None:
                    counts["rejected"] += 1
                    # The trial compositions are garbage now; reap them if
                    # the manager has grown past the trigger.
                    self.mgr.maybe_collect(self.refs.values())
                    continue
                counts["collapsed"] += 1
                for c, ref in merged.items():
                    self.set_ref(c, ref)
                self._drop(name)
                changed = True
                # Dead-node sweep at a safe point: the collapse is merged,
                # so self.refs is the complete live root set.
                self.mgr.maybe_collect(self.refs.values())
                if checker is not None:
                    checker.check_partition(self, "eliminate collapse",
                                            quick=True)
                if use_mapping and self._pollution() > mapping_trigger:
                    self.compact()
                    if checker is not None:
                        checker.check_partition(self, "after BDD mapping",
                                                quick=True)
            if checker is not None:
                checker.check_partition(self, "eliminate pass boundary")
            if not changed:
                break
        self.remove_dangling()
        if use_mapping:
            self.compact()
        return counts

    def _trial_collapse(self, name: str, consumers: List[str],
                        threshold: int, size_cap: int,
                        counts: Dict[str, int]) -> Optional[Dict[str, int]]:
        """Node ``name`` composed into each of its ``consumers``, or None
        when eliminate rejects the collapse.

        The collapse is accepted iff every merged BDD has at most
        ``size_cap`` nodes and their sizes sum to at most the *slack*
        ``threshold + |name| + sum of |consumer|`` -- the node count then
        grows by at most ``threshold``.  Sizes are never negative, so
        each consumer's ITE may allocate at most the slack left (and at
        most ``size_cap``) fresh nodes; a composition that reaches that
        bound rejects the collapse before the remaining consumers are
        composed (``docs/THEORY.md``, "Why stopping a trial collapse
        early is exact").
        """
        mgr = self.mgr
        var = self.sig_var[name]
        node_ref = self.refs[name]
        sizes = self._sizes
        slack = threshold + sizes[name] + sum(sizes[c] for c in consumers)
        if slack < 0:
            return None
        merged: Dict[str, int] = {}
        for c in consumers:
            ref = mgr.compose(self.refs[c], var, node_ref,
                              bound=min(slack, size_cap))
            if ref is None:
                counts["stopped_early"] += 1
                return None
            size = node_count(mgr, ref)
            if size > size_cap or size > slack:
                return None
            slack -= size
            merged[c] = ref
        return merged

    def _pollution(self) -> float:
        """Fraction of manager variables that no live BDD uses."""
        total = self.mgr.num_vars
        if not total:
            return 0.0
        return 1.0 - len(self._fanouts) / total

    def compact(self) -> None:
        """BDD mapping (Section IV-B): rebuild all live BDDs in a fresh
        manager containing only the variables still in use."""
        names = list(self.refs)
        self._retired_perf = self.perf_snapshot()
        result = transfer_many(self.mgr, [self.refs[n] for n in names])
        # transfer_many drops variables with no nodes; re-add missing node
        # variables (a node whose BDD is constant may still be referenced).
        new_mgr = result.manager
        # The retired manager's counters just moved into _retired_perf;
        # the tracer follows to the fresh manager, so GC safe points keep
        # opening spans after a BDD mapping.
        new_mgr.tracer = self.mgr.tracer
        self.refs = dict(zip(names, result.refs))
        self.sig_var = {}
        for sig in [*self.inputs, *names]:
            try:
                self.sig_var[sig] = new_mgr.var_by_name(sig)
            except KeyError:
                self.sig_var[sig] = new_mgr.new_var(sig)
        self.mgr = new_mgr
        self.mapping_count += 1
        # The index is keyed by signal name, which the transfer keeps.

    # -- conversion back to a cube network --------------------------------

    def to_network(self, name: str = "partitioned") -> Network:
        net = Network(name)
        for i in self.inputs:
            net.add_input(i)
        for o in self.outputs:
            net.add_output(o)
        for node_name, ref in self.refs.items():
            sig_fanins = self.fanin_signals(node_name)
            pos = {self.sig_var[s]: i for i, s in enumerate(sig_fanins)}
            cover = [
                frozenset(lit(pos[v], val) for v, val in cube.items())
                for cube in isop(self.mgr, ref)
            ]
            net.add_node(node_name, sig_fanins, cover)
        net.check()
        return net
