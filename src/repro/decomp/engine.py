"""The iterative BDD decomposition engine (Section IV-C).

"The BDD dominators ... are empirically ordered in terms of the resulting
decomposition efficiency as follows: 1) simple dominators (1-, 0- and
x-dominator); 2) functional MUX; 3) generalized dominator; and 4)
generalized x-dominator.  If all searches fail, the BDD is decomposed using
a simple cofactor (simple MUX) w.r.t. a top variable in the BDD."

The engine recursively applies the highest-priority decomposition that
makes progress (every extracted part strictly smaller than the function),
memoizing sub-results per BDD ref so that equal subfunctions share one
factoring-tree object -- the first layer of sharing extraction.

No garbage collection or reordering runs inside :func:`decompose`, so a
node count taken once stays true for the whole call: one :class:`_Sizes`
memo per call takes every count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.bdd.manager import BDD, ONE, ZERO
from repro.bdd.traverse import live_node_count, node_count, support
from repro.decomp.cuts import enumerate_cuts
from repro.decomp.dominators import find_simple_decompositions
from repro.decomp.ftree import CONST0, CONST1, FTree, mux, negate, op2, var_leaf
from repro.decomp.generalized import (
    Bound,
    conjunctive_candidates,
    disjunctive_candidates,
)
from repro.decomp.xordec import boolean_xnor_candidates


#: Boolean XNOR and the functional MUX may grow the total node count by
#: this many nodes: the parts routinely expose further dominators
#: (Example 6).
XNOR_SLACK = 2


@dataclass
class DecompOptions:
    """Which decomposition families the engine searches (for ablations).

    Every level's factoring tree is checked against its BDD with ITE
    before it is used.
    """

    enable_simple: bool = True          # 1-/0-/x-dominators
    enable_x_dominator: bool = True     # the XNOR member of the simple set
    enable_mux: bool = True             # functional MUX (Theorem 7)
    enable_generalized: bool = True     # Boolean AND/OR (Lemmas 1-2)
    enable_bool_xnor: bool = True       # Boolean XNOR (Theorem 6)


@dataclass
class DecompStats:
    """Counts of decomposition steps by kind (for ablation benchmarks)."""

    simple_and: int = 0
    simple_or: int = 0
    simple_xnor: int = 0
    functional_mux: int = 0
    boolean_and: int = 0
    boolean_or: int = 0
    boolean_xnor: int = 0
    shannon: int = 0

    def total(self) -> int:
        return (self.simple_and + self.simple_or + self.simple_xnor
                + self.functional_mux + self.boolean_and + self.boolean_or
                + self.boolean_xnor + self.shannon)

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)

    def add(self, other: "DecompStats") -> None:
        """Add ``other``'s counts to these."""
        for kind, count in other.as_dict().items():
            setattr(self, kind, getattr(self, kind) + count)


class _Sizes:
    """Node counts of the refs one :func:`decompose` call measures.

    A ref and its complement share their nodes, so counts are kept per
    node index.
    """

    __slots__ = ("mgr", "counts")

    def __init__(self, mgr: BDD) -> None:
        self.mgr = mgr
        self.counts: Dict[int, int] = {}

    def __call__(self, ref: int) -> int:
        count = self.counts.get(ref >> 1)
        if count is None:
            count = self.counts[ref >> 1] = node_count(self.mgr, ref)
        return count


def decompose(mgr: BDD, root: int, options: Optional[DecompOptions] = None,
              stats: Optional[DecompStats] = None) -> FTree:
    """Decompose the function ``root`` into a factoring tree.

    The result's leaves are the manager's variable ids; use
    ``FTree.map_vars`` to translate them to network signal names.
    """
    options = options or DecompOptions()
    stats = stats if stats is not None else DecompStats()
    live_node_count(mgr, [root])  # record peak-live gauge before we expand
    memo: Dict[int, FTree] = {}
    return _decompose(mgr, root, options, stats, memo, _Sizes(mgr), {})


def _decompose(mgr: BDD, f: int, opts: DecompOptions, stats: DecompStats,
               memo: Dict[int, FTree], sizes: _Sizes,
               checked: Dict[int, int]) -> FTree:
    if f == ONE:
        return CONST1
    if f == ZERO:
        return CONST0
    if f in memo:
        return memo[f]
    if (f ^ 1) in memo:
        tree = negate(memo[f ^ 1])
        memo[f] = tree
        return tree
    if mgr.is_var(f):
        lo, _ = mgr.children(f)
        tree = var_leaf(mgr.var_of(f))
        if lo == ONE:  # negative literal
            tree = negate(tree)
        memo[f] = tree
        return tree

    size = sizes(f)
    cuts = enumerate_cuts(mgr, f)
    tree = None

    if opts.enable_simple or opts.enable_mux or opts.enable_generalized:
        tree = _try_structural(mgr, f, size, cuts, opts, stats, memo,
                               sizes, checked)
    if tree is None and opts.enable_bool_xnor:
        tree = _try_boolean_xnor(mgr, f, size, opts, stats, memo, sizes,
                                 checked)
    if tree is None:
        tree = _shannon(mgr, f, opts, stats, memo, sizes, checked)

    # ``checked`` maps the id() of every tree already verified (and kept
    # alive by ``memo``) to its ref, so only this level's new operators
    # are rebuilt: by induction the whole tree denotes f.
    assert tree.to_bdd(mgr, known=checked) == f, \
        "decomposition verification failed"
    checked[id(tree)] = f
    memo[f] = tree
    return tree


def _try_structural(mgr, f, size, cuts, opts, stats, memo, sizes,
                    checked) -> Optional[FTree]:
    """Search priorities 1-3 together: simple dominators, functional MUX,
    generalized (Boolean) dominators.

    Candidates from every enabled family compete on (largest part, total
    size); the paper's empirical family order breaks ties, and within a
    family the earlier candidate wins.  Pure priority ordering would let a
    lopsided simple dominator pre-empt the balanced conjunctive split of
    e.g. the and4 example (Fig. 4).  The generalized searches start from
    the best simple or MUX score and skip every divisor that cannot beat
    the best so far (:class:`repro.decomp.generalized.Bound`).
    """
    scored = []
    simple = find_simple_decompositions(mgr, f, cuts)
    allowed = ("and", "or", "xnor") if opts.enable_x_dominator else ("and", "or")
    if opts.enable_simple:
        for d in simple:
            if d.kind not in allowed:
                continue
            parts = [sizes(p) for p in (d.upper,) + d.parts]
            if any(s >= size for s in parts):
                continue
            scored.append(((max(parts), sum(parts), 0), ("simple", d)))
    if opts.enable_mux:
        for d in simple:
            # A MUX whose select is a bare literal is just the Shannon
            # fallback; only *functional* MUXes (Theorem 7) are searched.
            if d.kind != "mux" or mgr.is_var(d.upper):
                continue
            parts = [sizes(p) for p in (d.upper,) + d.parts]
            if any(s >= size for s in parts):
                continue
            if sum(parts) > size + XNOR_SLACK:
                continue
            scored.append(((max(parts), sum(parts), 1), ("mux", d)))
    if opts.enable_generalized:
        bound = Bound(mgr, min((score for score, _ in scored), default=None),
                      size, support(mgr, f), sizes)
        for c in (conjunctive_candidates(mgr, f, cuts, bound)
                  + disjunctive_candidates(mgr, f, cuts, bound)):
            score = bound.score(sizes(c.divisor), sizes(c.quotient))
            if score is not None:
                scored.append((score, ("bool", c)))
    if not scored:
        return None
    _, (kind, best) = min(scored, key=lambda item: item[0])
    if kind == "mux":
        stats.functional_mux += 1
        sel = _decompose(mgr, best.upper, opts, stats, memo, sizes,
                         checked)
        hi = _decompose(mgr, best.parts[0], opts, stats, memo, sizes,
                        checked)
        lo = _decompose(mgr, best.parts[1], opts, stats, memo, sizes,
                        checked)
        return mux(sel, hi, lo)
    if kind == "simple":
        if best.kind == "and":
            stats.simple_and += 1
        elif best.kind == "or":
            stats.simple_or += 1
        else:
            stats.simple_xnor += 1
        a = _decompose(mgr, best.upper, opts, stats, memo, sizes, checked)
        b = _decompose(mgr, best.parts[0], opts, stats, memo, sizes,
                       checked)
        return op2(best.kind, a, b)
    # The searches check no candidate's identity; the winner's is checked
    # before it is used.
    if best.kind == "and":
        assert mgr.and_(best.divisor, best.quotient) == f, \
            "Boolean AND decomposition failed its identity"
        stats.boolean_and += 1
    else:
        assert mgr.or_(best.divisor, best.quotient) == f, \
            "Boolean OR decomposition failed its identity"
        stats.boolean_or += 1
    a = _decompose(mgr, best.divisor, opts, stats, memo, sizes, checked)
    b = _decompose(mgr, best.quotient, opts, stats, memo, sizes,
                   checked)
    return op2(best.kind, a, b)


def _try_boolean_xnor(mgr, f, size, opts, stats, memo, sizes,
                      checked) -> Optional[FTree]:
    best = None
    best_score = None
    for c in boolean_xnor_candidates(mgr, f):
        sg = sizes(c.g)
        sh = sizes(c.h)
        if sg >= size or sh >= size:
            continue
        if sg + sh > size + XNOR_SLACK:
            continue
        score = (max(sg, sh), sg + sh)
        if best is None or score < best_score:
            best, best_score = c, score
    if best is None:
        return None
    stats.boolean_xnor += 1
    a = _decompose(mgr, best.g, opts, stats, memo, sizes, checked)
    b = _decompose(mgr, best.h, opts, stats, memo, sizes, checked)
    return op2("xnor", a, b)


def _shannon(mgr, f, opts, stats, memo, sizes, checked) -> FTree:
    stats.shannon += 1
    var = mgr.var_of(f)
    lo, hi = mgr.children(f)
    sel = var_leaf(var)
    hi_t = _decompose(mgr, hi, opts, stats, memo, sizes, checked)
    lo_t = _decompose(mgr, lo, opts, stats, memo, sizes, checked)
    return mux(sel, hi_t, lo_t)
