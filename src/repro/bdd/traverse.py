"""Traversal utilities: support, size, evaluation, path counting.

Path statistics are central to the paper's structural decompositions: the
dominator definitions (Definitions 2-4, 9-10) are stated on the *expanded*
view of a complement-edge BDD in which every vertex is a phased ref (see
:meth:`repro.bdd.manager.BDD.children`).  All functions here operate on that
view, so "node" below means a phased ref unless stated otherwise.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

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


def support_masks(mgr: BDD, refs: Sequence[int]) -> Dict[int, int]:
    """Per-node support bitmasks (bit ``v`` set iff var ``v`` occurs in the
    node's subgraph) for every node reachable from ``refs``.

    One post-order pass over the shared DAG; masks are Python ints used as
    bitsets, so unioning supports is O(num_vars / machine word).
    """
    masks: Dict[int, int] = {0: 0}
    var_arr, lo_arr, hi_arr = mgr._var, mgr._lo, mgr._hi
    stack: List[Tuple[int, bool]] = [(r >> 1, False) for r in refs]
    while stack:
        idx, expanded = stack.pop()
        if idx in masks and not expanded:
            continue
        if expanded:
            masks[idx] = ((1 << var_arr[idx])
                          | masks[lo_arr[idx] >> 1]
                          | masks[hi_arr[idx] >> 1])
            continue
        stack.append((idx, True))
        stack.append((lo_arr[idx] >> 1, False))
        stack.append((hi_arr[idx] >> 1, False))
    return masks


def interaction_masks(mgr: BDD, refs: Sequence[int]) -> List[int]:
    """The variable interaction matrix of a root set, as bitmasks.

    Variables ``x`` and ``y`` *interact* when both occur in the support of
    one of the ``refs``.  The result maps each var to the bitmask of vars
    it interacts with (symmetric; a support var always interacts with
    itself).  When every reachable node is reachable from ``refs`` (the
    reorderer's session invariant), non-interacting variables at adjacent
    levels can be swapped as a pure level-map transposition: no node
    labelled ``x`` can then have ``y`` in its subgraph, because any such
    node lies in some root cone whose support would contain both.
    """
    masks = support_masks(mgr, refs)
    out = [0] * mgr.num_vars
    for ref in refs:
        supp = masks[ref >> 1]
        rest = supp
        while rest:
            low = rest & -rest
            out[low.bit_length() - 1] |= supp
            rest ^= low
    return out


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


def count_paths_to_terminals(mgr: BDD, root: int) -> Tuple[Dict[int, int], Dict[int, int]]:
    """For every reachable phased vertex, the number of 1-paths and 0-paths
    from that vertex down to the terminals.

    Returns ``(one_paths, zero_paths)`` dicts keyed by phased ref.
    """
    one: Dict[int, int] = {ONE: 1, ZERO: 0}
    zero: Dict[int, int] = {ONE: 0, ZERO: 1}
    for ref in phased_vertices(mgr, root):
        if mgr.is_const(ref):
            continue
        lo, hi = mgr.children(ref)
        one[ref] = one[lo] + one[hi]
        zero[ref] = zero[lo] + zero[hi]
    return one, zero


def count_paths_from_root(mgr: BDD, root: int) -> Dict[int, int]:
    """For every reachable phased vertex, the number of edge-paths from the
    root down to that vertex (the root maps to 1)."""
    incoming: Dict[int, int] = {root: 1}
    for ref in reversed(phased_vertices(mgr, root)):
        if mgr.is_const(ref):
            continue
        n = incoming.get(ref, 0)
        if n == 0:
            continue
        lo, hi = mgr.children(ref)
        incoming[lo] = incoming.get(lo, 0) + n
        incoming[hi] = incoming.get(hi, 0) + n
    return incoming


def leaf_edge_stats(mgr: BDD, root: int) -> Tuple[int, int, int]:
    """Count (edges_to_one, edges_to_zero, complement_edges) of the BDD.

    The first two count Definition 2's leaf edges (edges into the 1 and
    the 0 terminal) on the phased view; the third counts stored
    complement edges.  The flow does not call this: the decomposition
    engine scores every family it finds on the cuts instead
    (``repro.decomp.engine._try_structural``).
    """
    to_one = to_zero = comp = 0
    if root & 1:
        comp += 1
    for ref in phased_vertices(mgr, root):
        if mgr.is_const(ref):
            continue
        lo, hi = mgr.children(ref)
        for child in (lo, hi):
            if child == ONE:
                to_one += 1
            elif child == ZERO:
                to_zero += 1
        # A stored complement edge exists where the raw lo pointer carries
        # the complement bit (stored hi edges are never complemented).
        _, raw_lo, _ = mgr.node(ref)
        if raw_lo & 1:
            comp += 1
    return to_one, to_zero, comp


def iter_paths(mgr: BDD, root: int, limit: int = 100000) -> Iterator[Tuple[Dict[int, bool], bool]]:
    """Enumerate (cube, terminal_value) for every path of the BDD.

    Intended for tests on small functions; raises if more than ``limit``
    paths would be produced.
    """
    produced = 0

    def rec(ref: int, cube: Dict[int, bool],
            ) -> Iterator[Tuple[Dict[int, bool], bool]]:
        nonlocal produced
        if mgr.is_const(ref):
            produced += 1
            if produced > limit:
                raise RuntimeError("too many paths")
            yield dict(cube), ref == ONE
            return
        var = mgr.var_of(ref)
        lo, hi = mgr.children(ref)
        cube[var] = False
        yield from rec(lo, cube)
        cube[var] = True
        yield from rec(hi, cube)
        del cube[var]

    yield from rec(root, {})
