"""Traversal utilities: support, size, evaluation, phased vertices.

The dominator definitions (Definitions 2-4, 9-10) are stated on the
*expanded* view of a complement-edge BDD in which every vertex is a phased
ref (see :meth:`repro.bdd.manager.BDD.children`); :func:`phased_vertices`
walks that view for the cut and XOR-dominator analyses in
:mod:`repro.decomp`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.bdd.manager import BDD, ONE, ZERO


def support(mgr: BDD, ref: int) -> Set[int]:
    """Set of variables the function depends on."""
    return support_and_size(mgr, ref)[0]


def support_and_size(mgr: BDD, ref: int) -> Tuple[Set[int], int]:
    """The support of ``ref`` and its node count (excluding the terminal,
    as :func:`node_count`), from one walk."""
    seen: Set[int] = set()
    out: Set[int] = set()
    stack = [ref >> 1]
    while stack:
        idx = stack.pop()
        if idx == 0 or idx in seen:
            continue
        seen.add(idx)
        out.add(mgr._var[idx])
        stack.append(mgr._lo[idx] >> 1)
        stack.append(mgr._hi[idx] >> 1)
    return out, len(seen)


def support_many(mgr: BDD, refs: Iterable[int]) -> Set[int]:
    out: Set[int] = set()
    for ref in refs:
        out |= support(mgr, ref)
    return out


def node_count(mgr: BDD, ref: int) -> int:
    """Number of BDD nodes reachable from ``ref`` (excluding the terminal)."""
    return shared_node_count(mgr, [ref])


def shared_node_count(mgr: BDD, refs: Sequence[int]) -> int:
    """Nodes in the shared DAG of several functions (excluding the terminal).

    This is the paper's cost function for *eliminate* (Section IV-B): the
    size of a set of local BDDs counted with sharing.
    """
    seen: Set[int] = set()
    stack = [r >> 1 for r in refs]
    while stack:
        idx = stack.pop()
        if idx == 0 or idx in seen:
            continue
        seen.add(idx)
        stack.append(mgr._lo[idx] >> 1)
        stack.append(mgr._hi[idx] >> 1)
    return len(seen)


def live_nodes(mgr: BDD, refs: Sequence[int]) -> Set[int]:
    """Node indices reachable from ``refs`` (including the terminal).

    A full mark traversal -- O(reachable nodes).  Counted in
    ``mgr.perf.live_traversals`` so tests can assert that hot loops (the
    sifting inner loop in particular) never fall back to it.
    """
    mgr.perf.live_traversals += 1
    seen: Set[int] = {0}
    stack = [r >> 1 for r in refs]
    while stack:
        idx = stack.pop()
        if idx in seen:
            continue
        seen.add(idx)
        stack.append(mgr._lo[idx] >> 1)
        stack.append(mgr._hi[idx] >> 1)
    return seen


def live_node_count(mgr: BDD, refs: Sequence[int]) -> int:
    """Live node count of ``refs`` (excluding the terminal), recorded into
    the manager's ``peak_live_nodes`` perf gauge."""
    n = len(live_nodes(mgr, refs)) - 1
    mgr.perf.observe_live(n)
    return n


def evaluate(mgr: BDD, ref: int, assignment: Dict[int, bool]) -> bool:
    """Evaluate the function under a (complete for its support) assignment."""
    while not mgr.is_const(ref):
        lo, hi = mgr.children(ref)
        ref = hi if assignment[mgr.var_of(ref)] else lo
    return ref == ONE


def pick_assignment(mgr: BDD, ref: int) -> Dict[int, bool]:
    """Return one satisfying assignment (partial, over decided vars).

    Raises ``ValueError`` on the constant-false function.
    """
    if ref == ZERO:
        raise ValueError("function is unsatisfiable")
    out: Dict[int, bool] = {}
    while ref != ONE:
        lo, hi = mgr.children(ref)
        var = mgr.var_of(ref)
        if hi != ZERO:
            out[var] = True
            ref = hi
        else:
            out[var] = False
            ref = lo
    return out


# ----------------------------------------------------------------------
# Phased-vertex (expanded graph) machinery for the decomposition engine
# ----------------------------------------------------------------------


def phased_vertices(mgr: BDD, root: int) -> List[int]:
    """All phased refs reachable from ``root``, in reverse topological order.

    Terminals (``ONE``/``ZERO``) are included when reachable.  The order
    guarantees children precede parents.
    """
    order: List[int] = []
    seen: Set[int] = set()
    stack: List[Tuple[int, bool]] = [(root, False)]
    while stack:
        ref, expanded = stack.pop()
        if expanded:
            order.append(ref)
            continue
        if ref in seen:
            continue
        seen.add(ref)
        stack.append((ref, True))
        if not mgr.is_const(ref):
            lo, hi = mgr.children(ref)
            stack.append((lo, False))
            stack.append((hi, False))
    return order
