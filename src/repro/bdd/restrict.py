"""Don't-care minimization: the Coudert-Madre RESTRICT and CONSTRAIN operators.

The paper's Boolean AND/OR decompositions (Lemmas 1 and 2) obtain the
quotient ``Q`` by minimizing ``F`` against a care set derived from the
divisor; Section III-B states explicitly that the heuristic used is "the
RESTRICT operator of Coudert and Madre [25]".  Both operators guarantee

    ``restrict(f, c) & c == f & c``          (equality on the care set)

and tend to produce a BDD no larger than ``f``'s.  ``constrain`` (also known
as generalized cofactor) additionally satisfies useful algebraic identities
but may introduce variables outside ``supp(f)``; ``restrict`` quantifies
away such "sibling-substitution" variables and is the safer minimizer.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from repro.bdd.manager import BDD, ONE, ZERO

_RESTRICT = 5
_CONSTRAIN = 6


def restrict(mgr: BDD, f: int, care: int) -> int:
    """Minimize ``f`` using ``~care`` as don't-care set (Coudert-Madre)."""
    if care == ZERO:
        # Everything is a don't care; any function works, pick a constant.
        return ZERO
    return _restrict(mgr, f, care)


def _restrict(mgr: BDD, f: int, c: int) -> int:
    if c == ONE or mgr.is_const(f):
        return f
    if f == c:
        return ONE
    if f == c ^ 1:
        return ZERO
    key = (_RESTRICT, f, c)
    cached = mgr._cache.lookup(key)
    if cached is not None:
        return cached
    lf, lc = mgr.level(f), mgr.level(c)
    if lc < lf:
        # The care-set's top variable does not appear (yet) in f: quantify
        # it out of the care set rather than re-introducing it into f.
        c0, c1 = mgr.children(c)
        if c0 == ZERO:
            r = _restrict(mgr, f, c1)
        elif c1 == ZERO:
            r = _restrict(mgr, f, c0)
        else:
            r = _restrict(mgr, f, mgr.or_(c0, c1))
    else:
        f0, f1 = mgr.children(f)
        if lf == lc:
            c0, c1 = mgr.children(c)
        else:
            c0, c1 = c, c
        if c0 == ZERO:
            r = _restrict(mgr, f1, c1)
        elif c1 == ZERO:
            r = _restrict(mgr, f0, c0)
        else:
            r = mgr.mk(mgr.var_of(f), _restrict(mgr, f0, c0), _restrict(mgr, f1, c1))
    mgr._cache.insert(key, r)
    return r


def constrain(mgr: BDD, f: int, c: int) -> int:
    """Generalized cofactor of ``f`` by ``c`` (Coudert-Madre constrain)."""
    if c == ZERO:
        return ZERO
    return _constrain(mgr, f, c)


def _constrain(mgr: BDD, f: int, c: int) -> int:
    if c == ONE or mgr.is_const(f):
        return f
    if f == c:
        return ONE
    if f == c ^ 1:
        return ZERO
    key = (_CONSTRAIN, f, c)
    cached = mgr._cache.lookup(key)
    if cached is not None:
        return cached
    lf, lc = mgr.level(f), mgr.level(c)
    top = min(lf, lc)
    var = mgr.var_at_level(top)
    f0, f1 = mgr.children(f) if lf == top else (f, f)
    c0, c1 = mgr.children(c) if lc == top else (c, c)
    if c0 == ZERO:
        r = _constrain(mgr, f1, c1)
    elif c1 == ZERO:
        r = _constrain(mgr, f0, c0)
    else:
        r = mgr.mk(var, _constrain(mgr, f0, c0), _constrain(mgr, f1, c1))
    mgr._cache.insert(key, r)
    return r


def minimize_with_dc(mgr: BDD, onset: int, dc: int,
                     size: Optional[Callable[[int], int]] = None) -> int:
    """Pick a small cover of the incompletely specified function (onset, dc).

    Returns a function ``g`` with ``onset <= g <= onset | dc`` (Theorem 2's
    interval), chosen heuristically to have a small BDD.  Tries ``restrict``
    of both polarities and the two interval endpoints, keeps the smallest
    result that satisfies the containment -- ``restrict`` itself always
    does, the check is a safety net.  ``size`` counts a ref's nodes
    (``node_count`` by default; a caller with a memo of counts passes it).
    """
    from repro.bdd.traverse import node_count

    if size is None:
        size = partial(node_count, mgr)
    if dc == ZERO:
        return onset
    care = dc ^ 1
    upper = mgr.or_(onset, dc)
    candidates = [restrict(mgr, onset, care), restrict(mgr, upper, care),
                  onset, upper]
    best: Optional[int] = None
    best_size = 0
    for cand in candidates:
        if not mgr.leq(onset, cand):
            continue
        if not mgr.leq(cand, upper):
            continue
        cand_size = size(cand)
        if best is None or cand_size < best_size:
            best, best_size = cand, cand_size
    assert best is not None
    return best
