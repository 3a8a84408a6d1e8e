"""Generalized dominators: Boolean AND/OR decomposition (Sec. III-B).

For a valid cut, the *generalized dominator* GD(F) is the above-cut graph
with its internal crossing edges dangling (Definition 7).  Lemma 1: the
Boolean divisor D is GD(F) with free edges redirected to 1; the quotient is
any function in the interval ``[F, F + ~D]`` (Theorem 2), obtained by
minimizing F with the offset of D as don't-care -- we use the Coudert-Madre
RESTRICT heuristic, as the paper does.  Lemma 2 is the dual disjunctive
construction (free edges to 0; the disjunctive term from ``[F & ~G?, ...]``
via the complement identity ``F = G + H  <=>  ~F = ~G & ~H``).

Cuts that are 0-equivalent (1-equivalent) produce identical divisors
(Theorem 4); candidates are deduplicated on the canonical divisor ref,
which is exactly that equivalence.

F <= D (and G <= F) holds by construction: redirecting free edges to 1
only adds minterms (to 0 only removes them).  With RESTRICT's interval
guarantee that makes every candidate's identity exact, so the searches
check none; the engine checks the identity of the candidate it picks.

Given a :class:`Bound`, a search skips the RESTRICT of every divisor whose
candidate could not win the engine's ranking (``docs/THEORY.md``, "Why
pruning the generalized search is exact").
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Set, Tuple

from repro.bdd.manager import BDD, ONE, ZERO
from repro.bdd.restrict import minimize_with_dc
from repro.bdd.traverse import support
from repro.decomp.cuts import Cut, enumerate_cuts, rebuild_above_cut

#: A candidate's rank in the engine: (largest part, total size, family),
#: with family 0 for simple dominators, 1 for functional MUXes and 2 for
#: generalized dominators.  The lowest score wins; of two equal scores the
#: earlier candidate wins.
Score = Tuple[int, int, int]


class BooleanDecomposition(NamedTuple):
    """``F = divisor OP quotient`` with OP in {and, or}."""

    kind: str
    divisor: int
    quotient: int
    cut_level: int


class Bound:
    """What a generalized candidate must beat to be worth a quotient.

    ``best`` is the lowest score found so far in the engine's search (None
    before the first); ``size`` and ``support`` are F's node count and
    support; ``sizes`` counts a ref's nodes.  A search sets ``best`` to
    the score of each candidate it keeps.
    """

    __slots__ = ("mgr", "best", "size", "support", "sizes")

    def __init__(self, mgr: BDD, best: Optional[Score], size: int,
                 support: Set[int], sizes: Callable[[int], int]) -> None:
        self.mgr = mgr
        self.best = best
        self.size = size
        self.support = support
        self.sizes = sizes

    def score(self, sd: int, sq: int) -> Optional[Score]:
        """The score of a candidate with parts of ``sd`` and ``sq`` nodes,
        or None when it fails the size filters."""
        if sd >= self.size or sq >= self.size:
            return None
        if sd + sq > self.size:
            return None
        return (max(sd, sq), sd + sq, 2)

    def _beating(self, sd: int, sq: int) -> Optional[Score]:
        """:meth:`score`, or None unless that beats ``best``."""
        score = self.score(sd, sq)
        if score is None or (self.best is not None and score >= self.best):
            return None
        return score

    def admits(self, divisor: int) -> bool:
        """Whether some quotient of ``divisor`` could still win.

        The quotient reads every variable that F reads and the divisor
        does not, so it has at least that many nodes, and at least one.
        Score and filters only grow with the quotient's size.
        """
        sd = self.sizes(divisor)
        if self._beating(sd, 1) is None:
            return False
        missing = len(self.support - support(self.mgr, divisor))
        return missing <= 1 or self._beating(sd, missing) is not None

    def keeps(self, divisor: int, quotient: int) -> bool:
        """Whether the finished candidate beats ``best``; if so it is the
        new best."""
        score = self._beating(self.sizes(divisor), self.sizes(quotient))
        if score is None:
            return False
        self.best = score
        return True


def conjunctive_candidates(mgr: BDD, root: int,
                           cuts: Optional[List[Cut]] = None,
                           bound: Optional[Bound] = None
                           ) -> List[BooleanDecomposition]:
    """Boolean AND decompositions F = D & Q from generalized dominators.

    Without ``bound`` every candidate is returned; with it, only those
    that beat ``bound.best`` when they were found.
    """
    if cuts is None:
        cuts = enumerate_cuts(mgr, root)
    out: List[BooleanDecomposition] = []
    seen_divisors = set()
    for cut in cuts:
        if ZERO not in cut.targets:
            # Without a leaf edge to 0 every sink of D becomes 1: trivial.
            continue
        divisor = rebuild_above_cut(mgr, root, cut.level, {}, free_value=ONE)
        if divisor in (ONE, root) or divisor in seen_divisors:
            continue
        seen_divisors.add(divisor)
        if bound is not None and not bound.admits(divisor):
            continue
        quotient = minimize_with_dc(mgr, root, divisor ^ 1,
                                    bound.sizes if bound else None)
        if bound is not None and not bound.keeps(divisor, quotient):
            continue
        out.append(BooleanDecomposition("and", divisor, quotient, cut.level))
    return out


def disjunctive_candidates(mgr: BDD, root: int,
                           cuts: Optional[List[Cut]] = None,
                           bound: Optional[Bound] = None
                           ) -> List[BooleanDecomposition]:
    """Boolean OR decompositions F = G + H (Lemma 2); ``bound`` as for
    :func:`conjunctive_candidates`."""
    if cuts is None:
        cuts = enumerate_cuts(mgr, root)
    out: List[BooleanDecomposition] = []
    seen = set()
    for cut in cuts:
        if ONE not in cut.targets:
            continue
        g = rebuild_above_cut(mgr, root, cut.level, {}, free_value=ZERO)
        if g in (ZERO, root) or g in seen:
            continue
        seen.add(g)
        # H satisfies ~F <= ~H <= ~F + G: minimize ~F with G as don't-care.
        if bound is not None and not bound.admits(g):
            continue
        h = minimize_with_dc(mgr, root ^ 1, g,
                             bound.sizes if bound else None) ^ 1
        if bound is not None and not bound.keeps(g, h):
            continue
        out.append(BooleanDecomposition("or", g, h, cut.level))
    return out
