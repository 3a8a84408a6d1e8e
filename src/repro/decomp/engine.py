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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.bdd.manager import BDD, ONE, ZERO
from repro.bdd.traverse import live_node_count, node_count
from repro.decomp.cuts import enumerate_cuts
from repro.decomp.dominators import find_simple_decompositions
from repro.decomp.ftree import CONST0, CONST1, FTree, mux, negate, op2, var_leaf
from repro.decomp.generalized import (
    conjunctive_candidates,
    disjunctive_candidates,
)
from repro.decomp.xordec import boolean_xnor_candidates


@dataclass
class DecompOptions:
    """Feature switches and tuning knobs for the decomposition engine."""

    enable_simple: bool = True          # 1-/0-/x-dominators
    enable_x_dominator: bool = True     # the XNOR member of the simple set
    enable_mux: bool = True             # functional MUX (Theorem 7)
    enable_generalized: bool = True     # Boolean AND/OR (Lemmas 1-2)
    enable_bool_xnor: bool = True       # Boolean XNOR (Theorem 6)
    verify: bool = True                 # re-check every identity with ITE
    max_xnor_candidates: int = 8
    # A generalized decomposition is accepted only when it shrinks the
    # total node count by this factor (1.0 = any strict improvement).
    min_gain: float = 1.0
    # Boolean XNOR is allowed to grow the total node count by this many
    # nodes: the parts routinely expose further dominators (Example 6).
    xnor_slack: int = 2


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
    return _decompose(mgr, root, options, stats, memo)


def _decompose(mgr: BDD, f: int, opts: DecompOptions, stats: DecompStats,
               memo: Dict[int, FTree]) -> FTree:
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

    size = node_count(mgr, f)
    cuts = enumerate_cuts(mgr, f)
    tree = None

    if opts.enable_simple or opts.enable_mux or opts.enable_generalized:
        tree = _try_structural(mgr, f, size, cuts, opts, stats, memo)
    if tree is None and opts.enable_bool_xnor:
        tree = _try_boolean_xnor(mgr, f, size, opts, stats, memo)
    if tree is None:
        tree = _shannon(mgr, f, opts, stats, memo)

    if opts.verify:
        assert tree.to_bdd(mgr) == f, "decomposition verification failed"
    memo[f] = tree
    return tree


def _try_structural(mgr, f, size, cuts, opts, stats, memo) -> Optional[FTree]:
    """Search priorities 1-3 together: simple dominators, functional MUX,
    generalized (Boolean) dominators.

    Candidates from every enabled family compete on (largest part, total
    size); the paper's empirical family order breaks ties.  Pure priority
    ordering would let a lopsided simple dominator pre-empt the balanced
    conjunctive split of e.g. the and4 example (Fig. 4).
    """
    scored = []
    simple = find_simple_decompositions(mgr, f, cuts)
    allowed = ("and", "or", "xnor") if opts.enable_x_dominator else ("and", "or")
    if opts.enable_simple:
        for d in simple:
            if d.kind not in allowed:
                continue
            sizes = [node_count(mgr, p) for p in (d.upper,) + d.parts]
            if any(s >= size for s in sizes):
                continue
            scored.append(((max(sizes), sum(sizes), 0), ("simple", d)))
    if opts.enable_mux:
        for d in simple:
            # A MUX whose select is a bare literal is just the Shannon
            # fallback; only *functional* MUXes (Theorem 7) are searched.
            if d.kind != "mux" or mgr.is_var(d.upper):
                continue
            sizes = [node_count(mgr, p) for p in (d.upper,) + d.parts]
            if any(s >= size for s in sizes):
                continue
            if sum(sizes) > size + opts.xnor_slack:
                continue
            scored.append(((max(sizes), sum(sizes), 1), ("mux", d)))
    if opts.enable_generalized:
        for c in (conjunctive_candidates(mgr, f, cuts)
                  + disjunctive_candidates(mgr, f, cuts)):
            sd = node_count(mgr, c.divisor)
            sq = node_count(mgr, c.quotient)
            if sd >= size or sq >= size:
                continue
            if (sd + sq) * opts.min_gain >= size + 1:
                continue
            scored.append(((max(sd, sq), sd + sq, 2), ("bool", c)))
    if not scored:
        return None
    _, (kind, best) = min(scored, key=lambda item: item[0])
    if kind == "mux":
        stats.functional_mux += 1
        sel = _decompose(mgr, best.upper, opts, stats, memo)
        hi = _decompose(mgr, best.parts[0], opts, stats, memo)
        lo = _decompose(mgr, best.parts[1], opts, stats, memo)
        return mux(sel, hi, lo)
    if kind == "simple":
        if best.kind == "and":
            stats.simple_and += 1
        elif best.kind == "or":
            stats.simple_or += 1
        else:
            stats.simple_xnor += 1
        a = _decompose(mgr, best.upper, opts, stats, memo)
        b = _decompose(mgr, best.parts[0], opts, stats, memo)
        return op2(best.kind, a, b)
    if best.kind == "and":
        stats.boolean_and += 1
    else:
        stats.boolean_or += 1
    a = _decompose(mgr, best.divisor, opts, stats, memo)
    b = _decompose(mgr, best.quotient, opts, stats, memo)
    return op2(best.kind, a, b)


def _try_boolean_xnor(mgr, f, size, opts, stats, memo) -> Optional[FTree]:
    best = None
    best_score = None
    for c in boolean_xnor_candidates(mgr, f, opts.max_xnor_candidates):
        sg = node_count(mgr, c.g)
        sh = node_count(mgr, c.h)
        if sg >= size or sh >= size:
            continue
        if sg + sh > size + opts.xnor_slack:
            continue
        score = (max(sg, sh), sg + sh)
        if best is None or score < best_score:
            best, best_score = c, score
    if best is None:
        return None
    stats.boolean_xnor += 1
    a = _decompose(mgr, best.g, opts, stats, memo)
    b = _decompose(mgr, best.h, opts, stats, memo)
    return op2("xnor", a, b)


def _shannon(mgr, f, opts, stats, memo) -> FTree:
    stats.shannon += 1
    var = mgr.var_of(f)
    lo, hi = mgr.children(f)
    sel = var_leaf(var)
    hi_t = _decompose(mgr, hi, opts, stats, memo)
    lo_t = _decompose(mgr, lo, opts, stats, memo)
    return mux(sel, hi_t, lo_t)
