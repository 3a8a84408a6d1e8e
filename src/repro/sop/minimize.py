"""Two-level minimization: an espresso-style simplify pass.

The SIS baseline's per-node ``simplify`` needs a cube-domain minimizer (the
real SIS calls espresso).  We implement one EXPAND -> IRREDUNDANT pass,
without espresso's REDUCE iterations (which is what ``simplify`` in
``script.rugged`` effectively costs), on completely specified functions,
with an optional don't-care cover.
"""

from __future__ import annotations

from typing import Optional

from repro.sop.cover import (
    ComplementTooLarge,
    Cover,
    complement,
    cover_contains_cube,
    literal_count,
    remove_contained,
)
from repro.sop.cube import Cube

__all__ = ["expand", "irredundant", "simplify_cover"]


def expand(cover: Cover, offset: Cover) -> Cover:
    """Expand each cube against the offset (make cubes prime-ish).

    A literal can be dropped from a cube if the enlarged cube still avoids
    the offset.  Greedy single-pass, biggest cubes first.
    """
    expanded: Cover = []
    for cube in sorted(cover, key=len):
        cur = set(cube)
        for literal in sorted(cube):
            trial = frozenset(cur - {literal})
            if not _intersects(trial, offset):
                cur.discard(literal)
        expanded.append(frozenset(cur))
    return remove_contained(expanded)


def _intersects(cube: Cube, offset: Cover) -> bool:
    """Does the cube contain any offset minterm?"""
    for off in offset:
        clash = False
        for l in off:
            if (l ^ 1) in cube:
                clash = True
                break
        if not clash:
            return True
    return False


def irredundant(cover: Cover, dc: Optional[Cover] = None) -> Cover:
    """Remove cubes covered by the rest of the cover (plus don't-cares)."""
    dc = dc or []
    out = list(remove_contained(cover))
    i = 0
    while i < len(out):
        rest = out[:i] + out[i + 1:] + dc
        if cover_contains_cube(rest, out[i]):
            out.pop(i)
        else:
            i += 1
    return out


def simplify_cover(cover: Cover, dc: Optional[Cover] = None) -> Cover:
    """One espresso-like pass: complement -> expand -> irredundant.

    Keeps the result only when it does not increase the literal count.
    """
    dc = dc or []
    if not cover:
        return []
    if any(not cube for cube in cover):
        return [frozenset()]
    base = remove_contained(cover)
    try:
        # Bounded offset computation: when the complement would explode
        # (espresso's classic worst case) fall back to the expansion-free
        # pass, exactly like simplify's "nocomp" mode in script.rugged.
        offset = complement(base + dc, limit=20 * len(base) + 200)
    except ComplementTooLarge:
        return irredundant(base, dc)
    improved = irredundant(expand(base, offset), dc)
    if literal_count(improved) <= literal_count(base):
        return improved
    return base
