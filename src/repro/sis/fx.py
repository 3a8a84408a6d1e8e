"""Fast-extract (``fx``): greedy extraction of shared divisors.

Rajski-Vasudevamurthy style: enumerate single-cube (two-literal) divisors
and double-cube divisors across all node covers, repeatedly extract the one
with the best total literal saving as a new network node, substituting it
algebraically everywhere it appears.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.network.network import Network, Node
from repro.sop.cover import Cover, remove_contained
from repro.sop.cube import lit


def fast_extract(net: Network, max_rounds: int = 200,
                 min_saving: int = 1) -> int:
    """Extract shared divisors until none saves at least ``min_saving``
    literals.  Returns the number of new nodes created."""
    created = 0
    for _ in range(max_rounds):
        divisor = _best_divisor(net, min_saving)
        if divisor is None:
            break
        _extract(net, divisor)
        created += 1
    return created


class _Divisor:
    """A candidate divisor: a cover over *global signal names*."""

    def __init__(self, cubes: FrozenSet[FrozenSet[Tuple[str, bool]]]):
        self.cubes = cubes
        self.saving = 0
        self.users: List[str] = []

    def signals(self) -> List[str]:
        out: Set[str] = set()
        for cube in self.cubes:
            for s, _ in cube:
                out.add(s)
        return sorted(out)


def _named_cover(node: Node) -> List[FrozenSet[Tuple[str, bool]]]:
    """Node cover expressed over (signal name, positive) literal pairs."""
    return [
        frozenset((node.fanins[l >> 1], not (l & 1)) for l in cube)
        for cube in node.cover
    ]


def _best_divisor(net: Network, min_saving: int) -> Optional[_Divisor]:
    candidates: Dict[FrozenSet, _Divisor] = {}
    for node in net.nodes.values():
        named = _named_cover(node)
        # Single-cube divisors: all 2-literal sub-cubes appearing in a cube.
        for cube in named:
            lits = sorted(cube)
            for i in range(len(lits)):
                for j in range(i + 1, len(lits)):
                    key = frozenset({frozenset({lits[i], lits[j]})})
                    d = candidates.setdefault(key, _Divisor(key))
                    d.saving += 1
                    if node.name not in d.users:
                        d.users.append(node.name)
        # Double-cube divisors: cube-free differences of cube pairs.
        for i in range(len(named)):
            for j in range(i + 1, len(named)):
                a, b = named[i], named[j]
                common = a & b
                ra, rb = a - common, b - common
                if not ra or not rb:
                    continue
                # Must be algebraic: disjoint variable sets in the two parts.
                va = {s for s, _ in ra}
                vb = {s for s, _ in rb}
                if va & vb:
                    continue
                key = frozenset({frozenset(ra), frozenset(rb)})
                d = candidates.setdefault(key, _Divisor(key))
                # Two cubes (c|ra, c|rb) collapse to one cube (c, t):
                # saves |c| + |ra| + |rb| - 1 literals per occurrence.
                d.saving += len(common) + len(ra) + len(rb) - 1
                if node.name not in d.users:
                    d.users.append(node.name)
    best = None
    for d in candidates.values():
        cost = sum(len(c) for c in d.cubes)
        net_saving = d.saving - cost
        if net_saving >= min_saving and (best is None or net_saving > best[0]):
            best = (net_saving, d)
    return best[1] if best else None


def _extract(net: Network, divisor: _Divisor) -> str:
    signals = divisor.signals()
    pos = {s: i for i, s in enumerate(signals)}
    # Sorted: iterating the frozenset would order the cubes by string hash.
    cover: Cover = [
        frozenset(lit(pos[s], p) for s, p in cube)
        for cube in sorted(divisor.cubes, key=sorted)
    ]
    name = net.fresh_name("fx")
    net.add_node(name, signals, cover)
    new_node = net.nodes[name]
    for node in list(net.nodes.values()):
        if node.name == name:
            continue
        _substitute(node, new_node)
    return name


def _substitute(node: Node, divisor_node: Node) -> None:
    """Algebraically substitute the divisor into ``node`` where it divides."""
    named = _named_cover(node)
    div_named = [
        frozenset((divisor_node.fanins[l >> 1], not (l & 1)) for l in cube)
        for cube in divisor_node.cover
    ]
    quotient, remainder = _named_divide(named, div_named)
    if quotient:
        rewrite_as_quotient(node, quotient, remainder, divisor_node.name)


def rewrite_as_quotient(node: Node, quotient: List[FrozenSet],
                        remainder: List[FrozenSet], divisor: str) -> None:
    """Set ``node`` to ``quotient * divisor + remainder`` (name covers)."""
    signals: List[str] = []
    seen: Set[str] = set()
    for cube in quotient + remainder:
        for s, _ in sorted(cube):  # not hash order: it fixes the fanin order
            if s not in seen:
                seen.add(s)
                signals.append(s)
    if divisor not in seen:
        signals.append(divisor)
    pos = {s: i for i, s in enumerate(signals)}
    div_lit = lit(pos[divisor], True)
    new_cover = [frozenset({div_lit} | {lit(pos[s], p) for s, p in cube})
                 for cube in quotient]
    new_cover += [frozenset(lit(pos[s], p) for s, p in cube)
                  for cube in remainder]
    node.fanins = signals
    node.cover = remove_contained(new_cover)
    node.normalize()


def _named_divide(f: List[FrozenSet], d: List[FrozenSet]
                  ) -> Tuple[List[FrozenSet], List[FrozenSet]]:
    """Weak division over name-literal covers."""
    quotient: Optional[Set[FrozenSet]] = None
    for dcube in d:
        partial = {cube - dcube for cube in f if dcube <= cube}
        quotient = partial if quotient is None else quotient & partial
        if not quotient:
            return [], list(f)
    # Algebraic check: quotient must not share variables with the divisor.
    dvars = {s for cube in d for s, _ in cube}
    quotient = {q for q in quotient if not ({s for s, _ in q} & dvars)}
    if not quotient:
        return [], list(f)
    q = sorted(quotient, key=sorted)
    covered = set()
    for qcube in q:
        for dcube in d:
            covered.add(frozenset(qcube | dcube))
    remainder = [c for c in f if c not in covered]
    return q, remainder
