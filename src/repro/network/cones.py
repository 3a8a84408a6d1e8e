"""Network cone analysis: transitive fanin cones, MFFCs, cone extraction,
global BDDs and full collapsing.

These are the standard structural queries of a logic-synthesis network
package: the BDS paper's eliminate reasons about supernode granularity,
and any downstream user of this library (mappers, verifiers, partitioners)
needs cones and maximum fanout-free cones (MFFCs).  The global-BDD helpers
(:func:`initial_order`, :func:`global_bdd`) are shared by the equivalence
checker, sweep's functional merge and :func:`collapse_to_two_level`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set

from repro.bdd import BDD, BddBudgetExceeded, ONE, ZERO, force_order
from repro.bdd.isop import isop
from repro.network.network import Network
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
    # Hyperedges: transitive input support of each node, approximated by
    # direct PI fanins per node cone frontier (cheap but effective).
    pi_support: Dict[str, set] = {i: {i} for i in net.inputs}
    first_use: Dict[str, int] = {}
    for pos, node in enumerate(topo):
        supp = set()
        for f in node.fanins:
            supp |= pi_support.get(f, set())
            if f in index:
                first_use.setdefault(f, pos)
        pi_support[node.name] = supp
    for out in net.outputs:
        supp = pi_support.get(out, {out} if out in net.inputs else set())
        if supp:
            groups.append([index[s] for s in supp])
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


def global_bdd(mgr: BDD, net: Network, output: str, var_of: Dict[str, int],
               cache: Dict[str, Optional[int]], size_cap: int,
               deadline: Optional[float] = None) -> Optional[int]:
    """Global BDD of one output; None when the work budget runs out.

    The work cap is enforced by the kernel itself: the manager's
    allocation limit is advanced in :data:`_BUDGET_CHUNK` steps, and at
    every :class:`BddBudgetExceeded` interrupt we either give up (cap or
    deadline exhausted) or extend the window and resume.  Resuming is
    cheap -- completed nodes sit in ``cache`` and the operator caches
    replay the partial work.
    """
    budget_start = mgr.perf.nodes_allocated
    try:
        while True:
            mgr.set_alloc_limit(min(budget_start + size_cap,
                                    mgr.perf.nodes_allocated + _BUDGET_CHUNK))
            try:
                return _build_global(mgr, net, output, var_of, cache)
            except BddBudgetExceeded:
                if mgr.perf.nodes_allocated - budget_start >= size_cap:
                    return None
                if deadline is not None and time.monotonic() > deadline:
                    return None
    finally:
        mgr.set_alloc_limit(None)


def _build_global(mgr: BDD, net: Network, name: str, var_of: Dict[str, int],
                  cache: Dict[str, Optional[int]]) -> int:
    """The recursion under :func:`global_bdd`, which bounds its work
    through the manager's allocation limit.

    A plain function, not a closure: a recursive closure reaches itself
    through its cell, and that cycle would keep ``mgr`` alive until the
    cyclic GC runs.
    """
    if name in var_of and name not in net.nodes:
        return mgr.var_ref(var_of[name])
    ref = cache.get(name)
    if ref is not None:
        return ref
    node = net.nodes[name]
    fanin_refs = [_build_global(mgr, net, f, var_of, cache)
                  for f in node.fanins]
    acc = ZERO
    for cube in node.cover:
        term = ONE
        for l in cube:
            term = mgr.and_(term, fanin_refs[l >> 1] ^ (l & 1))
            if term == ZERO:
                break
        acc = mgr.or_(acc, term)
    cache[name] = acc
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
