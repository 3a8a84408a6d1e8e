"""Higher-order BDD operators built over the manager core.

``and_exists`` is the classic relational product (conjunction fused with
existential quantification, avoiding the intermediate conjunction blowup);
it accelerates the image computations of the satisfiability don't-care
pass.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable

from repro.bdd.manager import BDD, ONE, ZERO

_AND_EXISTS = 7


def and_exists(mgr: BDD, f: int, g: int, variables: Iterable[int]) -> int:
    """Compute ``exists variables . f & g`` without building ``f & g``."""
    levels = frozenset(mgr.level_of_var(v) for v in variables)
    if not levels:
        return mgr.and_(f, g)
    return _and_exists(mgr, f, g, levels, max(levels))


def _and_exists(mgr: BDD, f: int, g: int, levels: FrozenSet[int],
                max_level: int) -> int:
    if f == ZERO or g == ZERO:
        return ZERO
    if f == ONE and g == ONE:
        return ONE
    if f == ONE:
        return mgr._exists(g, levels, max_level)
    if g == ONE:
        return mgr._exists(f, levels, max_level)
    if f == g:
        return mgr._exists(f, levels, max_level)
    if f == (g ^ 1):
        return ZERO
    if min(mgr.level(f), mgr.level(g)) > max_level:
        return mgr.and_(f, g)
    if g < f:
        f, g = g, f
    key = (_AND_EXISTS, f, g, levels)
    cached = mgr._cache.lookup(key)
    if cached is not None:
        return cached
    lf, lg = mgr.level(f), mgr.level(g)
    top = min(lf, lg)
    var = mgr.var_at_level(top)
    f0, f1 = mgr.children(f) if lf == top else (f, f)
    g0, g1 = mgr.children(g) if lg == top else (g, g)
    r0 = _and_exists(mgr, f0, g0, levels, max_level)
    if top in levels:
        if r0 == ONE:
            r = ONE
        else:
            r1 = _and_exists(mgr, f1, g1, levels, max_level)
            r = mgr.or_(r0, r1)
    else:
        r1 = _and_exists(mgr, f1, g1, levels, max_level)
        r = mgr.mk(var, r0, r1)
    mgr._cache.insert(key, r)
    return r
