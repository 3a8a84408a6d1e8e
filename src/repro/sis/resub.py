"""Algebraic resubstitution: re-express each node using existing nodes.

For every (node, candidate) pair where the candidate's cover algebraically
divides the node's cover with a literal saving, rewrite the node as
``quotient * candidate + remainder``.  Acyclicity is preserved by only
substituting candidates that are not in the node's transitive fanout.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.network.network import Network, Node
from repro.sis.fx import _named_cover, _named_divide, rewrite_as_quotient


def resubstitute_all(net: Network, max_rounds: int = 3) -> int:
    """Try every candidate into every node; returns substitutions made."""
    total = 0
    for _ in range(max_rounds):
        made = _one_round(net)
        total += made
        if not made:
            break
    return total


def _one_round(net: Network) -> int:
    made = 0
    reach = _transitive_fanout(net)
    for node in list(net.nodes.values()):
        if node.name not in net.nodes:
            continue
        for cand in list(net.nodes.values()):
            if cand.name == node.name:
                continue
            if node.name in reach.get(cand.name, ()):  # would create a cycle
                continue
            if cand.name in node.fanins:
                continue
            if len(cand.cover) < 1 or cand.literal_count() < 2:
                continue
            if _try_substitute(node, cand):
                made += 1
                reach = _transitive_fanout(net)
    return made


def _try_substitute(node: Node, cand: Node) -> bool:
    named = _named_cover(node)
    div_named = _named_cover(cand)
    quotient, remainder = _named_divide(named, div_named)
    if not quotient:
        return False
    # Literal accounting: replacing quotient*divisor cubes by quotient
    # cubes with one extra literal each.
    old_lits = node.literal_count()
    new_lits = (sum(len(c) + 1 for c in quotient)
                + sum(len(c) for c in remainder))
    if new_lits >= old_lits:
        return False
    rewrite_as_quotient(node, quotient, remainder, cand.name)
    return True


def _transitive_fanout(net: Network) -> Dict[str, Set[str]]:
    fanouts = net.fanouts()
    reach: Dict[str, Set[str]] = {}
    for node in reversed(net.topological()):
        out: Set[str] = set()
        for consumer in fanouts.get(node.name, ()):
            out.add(consumer)
            out |= reach.get(consumer, set())
        reach[node.name] = out
    return reach
