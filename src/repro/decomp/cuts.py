"""Horizontal cuts on a BDD: enumeration, target analysis, classification.

A *horizontal cut* at level ``l`` separates the vertices above ``l`` from
those at or below it (Definition 4).  All the paper's decompositions are
driven by the multiset of *crossing targets* of a cut -- the phased refs an
edge from above the cut points at:

* targets = {u, ZERO}            -> 1-dominator (algebraic AND)
* targets = {u, ONE}             -> 0-dominator (algebraic OR)
* targets = {u, ~u}              -> x-dominator (algebraic XNOR, Thm. 5)
* targets = {u, v}               -> functional MUX pair (Thm. 7)
* ZERO in targets, |targets| > 2 -> conjunctive generalized dominator
* ONE  in targets, |targets| > 2 -> disjunctive generalized dominator

Section III-C: only *valid* cuts (containing a leaf edge) yield nontrivial
Boolean divisors, and 0-/1-equivalent cuts yield identical divisors
(Theorem 4); :func:`cut_signatures` exposes the equivalence classes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.bdd.manager import BDD, ONE, TERMINAL, ZERO
from repro.bdd.traverse import phased_vertices


class Cut(NamedTuple):
    """One horizontal cut.

    ``level``: vertices with level >= ``level`` are below the cut.
    ``targets``: phased refs crossed into from above, ordered by the
    canonical (structural) traversal of the root -- so downstream
    tie-breaks are independent of node-index layout, which reordering
    is free to permute.
    ``zero_edges`` / ``one_edges``: leaf edges in the cut, identified as
    (parent_ref, slot) pairs -- the ingredients of 0-/1-equivalence.
    """

    level: int
    targets: Tuple[int, ...]
    zero_edges: FrozenSet[Tuple[int, int]]
    one_edges: FrozenSet[Tuple[int, int]]

    @property
    def is_valid(self) -> bool:
        """A valid cut contains at least one leaf edge (Section III-C)."""
        return ONE in self.targets or ZERO in self.targets

    def nonterminal_targets(self) -> List[int]:
        """Non-leaf targets, preserving the canonical target order."""
        return [t for t in self.targets if t > 1]


def enumerate_cuts(mgr: BDD, root: int) -> List[Cut]:
    """All distinct horizontal cuts of the BDD of ``root``, top to bottom.

    Cut positions between two adjacent *used* levels are identical, so one
    cut per used-level boundary is produced (excluding the trivial cut above
    the root).
    """
    if mgr.is_const(root):
        return []
    order = phased_vertices(mgr, root)
    rank = {v: i for i, v in enumerate(order)}
    vertices = [v for v in order if not mgr.is_const(v)]
    used_levels = sorted({mgr.level(v) for v in vertices})
    boundaries = used_levels[1:] + [TERMINAL]
    # Edge list: (parent_level, child_level, child_ref, parent_ref, slot).
    edges = []
    for v in vertices:
        lo, hi = mgr.children(v)
        lv = mgr.level(v)
        edges.append((lv, mgr.level(lo), lo, v, 0))
        edges.append((lv, mgr.level(hi), hi, v, 1))
    cuts: List[Cut] = []
    for level in boundaries:
        targets: Set[int] = set()
        zero_edges: Set[Tuple[int, int]] = set()
        one_edges: Set[Tuple[int, int]] = set()
        for lp, lc, child, parent, slot in edges:
            if lp < level <= lc:
                targets.add(child)
                if child == ZERO:
                    zero_edges.add((parent, slot))
                elif child == ONE:
                    one_edges.add((parent, slot))
        cuts.append(Cut(level, tuple(sorted(targets, key=rank.__getitem__)),
                        frozenset(zero_edges), frozenset(one_edges)))
    return cuts


def cut_signatures(cuts: List[Cut]) -> Tuple[Dict[FrozenSet, List[Cut]],
                                             Dict[FrozenSet, List[Cut]]]:
    """Group cuts into 0-equivalence and 1-equivalence classes (Thm. 4).

    Returns ``(zero_classes, one_classes)``: cuts with the same zero-edge
    (one-edge) set produce identical conjunctive (disjunctive) divisors, so
    only one representative per class needs to be explored.
    """
    zero_classes: Dict[FrozenSet, List[Cut]] = {}
    one_classes: Dict[FrozenSet, List[Cut]] = {}
    for cut in cuts:
        zero_classes.setdefault(cut.zero_edges, []).append(cut)
        one_classes.setdefault(cut.one_edges, []).append(cut)
    return zero_classes, one_classes


def rebuild_above_cut(mgr: BDD, root: int, level: int,
                      substitution: Dict[int, int],
                      free_value: Optional[int] = None) -> int:
    """Rebuild the BDD portion above ``level`` with crossing edges replaced.

    Every crossing edge into a phased ref ``r`` (level(r) >= level) becomes
    ``substitution[r]`` when present, otherwise ``free_value``; terminal
    targets are kept unless explicitly substituted.  This single primitive
    realizes the generalized dominator of Definition 7 (free edges to a
    constant) as well as the h-functions of Theorems 5 and 7 (specific
    vertices to specific constants).
    """
    return _rebuild(mgr, root, substitution, level, free_value, {})


def substitute_vertices(mgr: BDD, root: int, substitution: Dict[int, int]) -> int:
    """Replace specific phased vertices by functions throughout the BDD.

    Unlike :func:`rebuild_above_cut` this walks the whole DAG: it is the
    same rebuild with no cut level.  It is the node-to-constant
    substitution used to derive candidate ``G`` functions from
    generalized x-dominators (Definition 10) and the 'redirect node v to
    terminal' constructions of Theorems 5 and 7 when the kept vertices do
    not align with a single horizontal cut.

    Substitution values must be constants or functions over variables
    strictly below every substituted vertex's parents for the rebuild to
    stay ordered; constants are always safe.
    """
    return _rebuild(mgr, root, substitution, None, None, {})


def _rebuild(mgr: BDD, r: int, substitution: Dict[int, int],
             level: Optional[int], free_value: Optional[int],
             memo: Dict[int, int]) -> int:
    """The rebuild behind both: ``level`` None walks the whole DAG.

    A plain function, not a closure: a recursive closure reaches itself
    through its cell, and that cycle would keep ``mgr`` alive until the
    cyclic GC runs.
    """
    if r in memo:
        return memo[r]
    if r in substitution:
        out = substitution[r]
    elif mgr.is_const(r):
        out = r
    elif level is not None and mgr.level(r) >= level:
        if free_value is None:
            raise ValueError("crossing edge to %d has no substitution" % r)
        out = free_value
    else:
        lo, hi = mgr.children(r)
        out = mgr.mk(mgr.var_of(r),
                     _rebuild(mgr, lo, substitution, level, free_value, memo),
                     _rebuild(mgr, hi, substitution, level, free_value, memo))
    memo[r] = out
    return out
