"""Network cone analysis: transitive fanin cones, MFFCs, cone extraction,
global BDDs and full collapsing.

These are the standard structural queries of a logic-synthesis network
package: the BDS paper's eliminate reasons about supernode granularity,
and any downstream user of this library (mappers, verifiers, partitioners)
needs cones and maximum fanout-free cones (MFFCs).

The global-BDD helpers are shared by the equivalence checker, sweep's
functional merge and :func:`collapse_to_two_level`: :func:`initial_order`
is their one variable order and :func:`global_bdd` their one builder of a
network's global BDDs from its covers.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.bdd import BDD, BddBudgetExceeded, ONE, ZERO, force_order
from repro.bdd.isop import isop
from repro.bdd.traverse import node_count
from repro.network.network import Network
from repro.sop.cover import Cover
from repro.sop.cube import lit


def transitive_fanin(net: Network, signal: str) -> Set[str]:
    """All signals (nodes and PIs) in the cone of ``signal``, inclusive."""
    seen: Set[str] = set()
    stack = [signal]
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        node = net.nodes.get(name)
        if node is not None:
            stack.extend(node.fanins)
    return seen


def transitive_fanout(net: Network, signal: str) -> Set[str]:
    """All node names whose cone contains ``signal`` (exclusive)."""
    fanouts = net.fanouts()
    seen: Set[str] = set()
    stack = list(fanouts.get(signal, ()))
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        stack.extend(fanouts.get(name, ()))
    return seen


def mffc(net: Network, root: str) -> Set[str]:
    """Maximum fanout-free cone of node ``root``: the nodes whose every
    path to an output passes through ``root`` (so collapsing/removing the
    root frees them all)."""
    if root not in net.nodes:
        return set()
    fanouts = net.fanouts()
    cone: Set[str] = {root}
    changed = True
    while changed:
        changed = False
        for name in list(cone):
            for fanin in net.nodes[name].fanins:
                if fanin in cone or fanin not in net.nodes:
                    continue
                if fanin in net.outputs:
                    continue
                if all(consumer in cone for consumer in fanouts.get(fanin, ())):
                    cone.add(fanin)
                    changed = True
    return cone


def extract_cone(net: Network, outputs: Sequence[str],
                 name: str = "cone") -> Network:
    """A standalone network computing ``outputs``; cone PIs become inputs."""
    keep: Set[str] = set()
    for o in outputs:
        keep |= transitive_fanin(net, o)
    out = Network(name)
    for i in net.inputs:
        if i in keep:
            out.add_input(i)
    for node in net.topological():
        if node.name in keep:
            out.add_node(node.name, list(node.fanins), list(node.cover))
    for o in outputs:
        out.add_output(o)
    out.check()
    return out


def initial_order(net: Network) -> List[str]:
    """FORCE ordering over output supports, oriented for building.

    FORCE decides which inputs sit next to each other, not which end of
    the order is on top.  The build reads inputs in topological order, and
    an AND/OR with an input that sits *above* the operand BDD only adds
    nodes on top of it, while one below recurses through all of it.  So
    the inputs the topological build reaches last go on top: the order is
    reversed when its top half was first used earlier, on average, than
    its bottom half (on a tie FORCE's direction stays).  On a ripple adder
    this makes each carry O(1) to build instead of O(width).
    """
    names = list(net.inputs)
    index = {n: i for i, n in enumerate(names)}
    groups = []
    topo = net.topological()
    # Hyperedges: the transitive input support of each output.  Supports
    # are bitmasks over input positions (bit i is names[i]), so each node
    # costs one OR per fanin instead of a copy of its fanins' sets.
    pi_support: Dict[str, int] = {n: 1 << i for i, n in enumerate(names)}
    first_use: Dict[str, int] = {}
    for pos, node in enumerate(topo):
        supp = 0
        for f in node.fanins:
            supp |= pi_support.get(f, 0)
            if f in index:
                first_use.setdefault(f, pos)
        pi_support[node.name] = supp
    for out in net.outputs:
        supp = pi_support.get(out, 0)
        group = []
        while supp:
            low = supp & -supp
            group.append(low.bit_length() - 1)
            supp ^= low
        if group:
            groups.append(group)
    order = [names[i] for i in force_order(groups, len(names))]
    # Inputs no node reads count as used after every node.
    half = len(order) // 2
    top = sum(first_use.get(n, len(topo)) for n in order[:half])
    bottom = sum(first_use.get(n, len(topo)) for n in order[len(order) - half:])
    if top < bottom:
        order.reverse()
    return order


#: Allocation granularity of the abort check: the kernel interrupts the
#: build every this-many fresh nodes so a single deep operator call cannot
#: blow past the work cap or the deadline unchecked.
_BUDGET_CHUNK = 4096


def global_bdd(mgr: BDD, net: Network, signal: str, var_of: Dict[str, int],
               cache: Dict[str, Optional[int]], size_cap: int,
               deadline: Optional[float] = None,
               node_cap: Optional[int] = None) -> Optional[int]:
    """Global BDD of ``signal`` over the inputs; None past a bound.

    ``var_of`` maps each input to its variable in ``mgr``; ``cache`` maps
    each node built so far to its global BDD and is shared across calls.

    The walk is depth first, fanins left to right, on an explicit stack
    (no Python frame per netlist level): a node's cover is evaluated once
    all its fanins are built.  With ``node_cap`` set, a node whose global
    BDD has more than ``node_cap`` nodes is cached as None, and so is a
    node whose fanin is None: it stops at its first None fanin and builds
    none of the later ones.  That order is part of the contract -- sweep
    rewires consumers between calls, so which nodes a None reaches first
    decides what it later merges.

    ``size_cap`` bounds the work of one call in fresh node allocations,
    and ``deadline`` (a ``time.monotonic()`` instant) its time; past
    either the call returns None, and the nodes it completed stay cached.
    The kernel enforces both: the manager's allocation limit is advanced
    in :data:`_BUDGET_CHUNK` steps, and at every
    :class:`BddBudgetExceeded` interrupt we either give up or extend the
    window and resume.  Resuming is cheap -- completed nodes sit in
    ``cache`` and the operator caches replay the partial work.
    """
    budget_start = mgr.perf.nodes_allocated
    try:
        while True:
            mgr.set_alloc_limit(min(budget_start + size_cap,
                                    mgr.perf.nodes_allocated + _BUDGET_CHUNK))
            try:
                return _build_global(mgr, net, signal, var_of, cache,
                                     node_cap)
            except BddBudgetExceeded:
                if mgr.perf.nodes_allocated - budget_start >= size_cap:
                    return None
                if deadline is not None and time.monotonic() > deadline:
                    return None
    finally:
        mgr.set_alloc_limit(None)


def _build_global(mgr: BDD, net: Network, signal: str,
                  var_of: Dict[str, int], cache: Dict[str, Optional[int]],
                  node_cap: Optional[int]) -> Optional[int]:
    """The walk under :func:`global_bdd`, which bounds its work.

    Each stack frame is a node and the refs of the fanins built so far;
    the top frame descends into its next fanin that is not built yet.
    """
    if signal not in net.nodes:
        return mgr.var_ref(var_of[signal])
    if signal in cache:
        return cache[signal]
    stack: List[Tuple[str, List[int]]] = [(signal, [])]
    while True:
        name, refs = stack[-1]
        node = net.nodes[name]
        fanins = node.fanins
        while len(refs) < len(fanins):
            fanin = fanins[len(refs)]
            if fanin not in net.nodes:
                refs.append(mgr.var_ref(var_of[fanin]))
                continue
            ref = cache.get(fanin)
            if ref is None:
                break
            refs.append(ref)
        if len(refs) < len(fanins) and fanins[len(refs)] not in cache:
            if len(stack) >= len(net.nodes):
                raise ValueError("combinational cycle through %r" % name)
            stack.append((fanins[len(refs)], []))
            continue
        built: Optional[int] = None
        if len(refs) == len(fanins):
            built = cover_bdd(mgr, node.cover, refs)
            if node_cap is not None and node_count(mgr, built) > node_cap:
                built = None
        cache[name] = built
        stack.pop()
        if not stack:
            return built


def cover_bdd(mgr: BDD, cover: Cover, refs: List[int]) -> int:
    """The BDD of a cube cover whose literal ``i`` reads ``refs[i]``."""
    acc = ZERO
    for cube in cover:
        term = ONE
        for l in cube:
            term = mgr.and_(term, refs[l >> 1] ^ (l & 1))
            if term == ZERO:
                break
        acc = mgr.or_(acc, term)
    return acc


def collapse_to_two_level(net: Network, max_cubes: int = 100000
                          ) -> Optional[Network]:
    """Fully collapse the network: one SOP node per output over the PIs.

    Returns None when any output's cover would exceed ``max_cubes`` (the
    classic two-level blowup).  Uses the BDD bridge (global BDD -> ISOP)
    rather than cube substitution, which keeps the covers irredundant.
    """
    mgr = BDD()
    var_of = {name: mgr.new_var(name) for name in initial_order(net)}
    out = Network(net.name + "_2lvl")
    for i in net.inputs:
        out.add_input(i)
    cache: Dict[str, Optional[int]] = {}
    for o in net.outputs:
        ref = global_bdd(mgr, net, o, var_of, cache, size_cap=max_cubes)
        if ref is None:
            return None
        if o in net.inputs:
            out.add_output(o)
            continue
        cover_vars = isop(mgr, ref)
        if len(cover_vars) > max_cubes:
            return None
        supp = sorted({v for cube in cover_vars for v in cube},
                      key=mgr.level_of_var)
        pos = {v: i for i, v in enumerate(supp)}
        cover = [frozenset(lit(pos[v], val) for v, val in cube.items())
                 for cube in cover_vars]
        out.add_node(o, [mgr.var_name(v) for v in supp], cover)
        out.add_output(o)
    out.check()
    return out
