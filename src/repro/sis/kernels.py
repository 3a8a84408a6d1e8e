"""Kernels and co-kernels of a cover (Brayton-McMullen).

A *kernel* is a cube-free quotient of the cover by a cube (its
*co-kernel*).  Kernels are the source of good algebraic divisors.
"""

from __future__ import annotations

from typing import FrozenSet, List, Set, Tuple

from repro.sis.division import divide_by_cube, largest_common_cube, make_cube_free
from repro.sop.cover import Cover
from repro.sop.cube import Cube


def all_kernels(cover: Cover, include_trivial: bool = True
                ) -> List[Tuple[Cube, Cover]]:
    """All (co-kernel, kernel) pairs of the cover.

    The cover itself (made cube-free) is the trivial level-highest kernel
    when ``include_trivial``.
    """
    out: List[Tuple[Cube, Cover]] = []
    seen: Set[FrozenSet[Cube]] = set()

    def record(cokernel: Cube, kernel: Cover) -> None:
        key = frozenset(kernel)
        if len(kernel) >= 2 and key not in seen:
            seen.add(key)
            out.append((cokernel, kernel))

    literals = sorted({l for cube in cover for l in cube})
    lit_index = {l: i for i, l in enumerate(literals)}

    def rec(cur: Cover, cokernel: Cube, min_lit_index: int) -> None:
        for i in range(min_lit_index, len(literals)):
            l = literals[i]
            count = sum(1 for cube in cur if l in cube)
            if count < 2:
                continue
            sub = divide_by_cube(cur, frozenset({l}))
            common = largest_common_cube(sub)
            if any(lit_index[x] < i for x in common):
                # Already generated from a smaller literal (pruning rule).
                continue
            kernel = make_cube_free(sub)
            new_cokernel = frozenset(cokernel | {l} | common)
            record(new_cokernel, kernel)
            rec(kernel, new_cokernel, i + 1)

    base = make_cube_free(cover)
    if include_trivial:
        record(largest_common_cube(cover), base)
    rec(base, largest_common_cube(cover), 0)
    return out

