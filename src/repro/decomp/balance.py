"""Factoring-tree balancing (the paper's Section VI item 3).

"One of the current weaknesses of BDS is its inability to properly balance
the factoring tree, which is crucial for the delay minimization."  This
module implements that future-work item: maximal chains of one associative
operator (AND/OR/XOR/XNOR -- XNOR over >2 operands keeps one complement)
are flattened and rebuilt Huffman-style, combining the shallowest operands
first, which minimizes the depth of the chain given operand depths.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Dict, List, Tuple

from repro.decomp.ftree import FTree, negate, op2


def balance_tree(tree: FTree) -> FTree:
    """Return a depth-balanced equivalent of ``tree``."""
    memo: Dict[int, FTree] = {}
    for t in tree.iter_nodes():
        children = [memo[id(c)] for c in t.children]
        if t.op in ("and", "or", "xor", "xnor"):
            memo[id(t)] = _balance_chain(t.op, children)
        elif t.op == "not":
            memo[id(t)] = negate(children[0])
        elif t.children:
            memo[id(t)] = FTree(t.op, var=t.var, children=tuple(children))
        else:
            memo[id(t)] = t
    return memo[id(tree)]


def _balance_chain(op: str, children: List[FTree]) -> FTree:
    """Rebuild one operator node, flattening same-op chains first."""
    base_op = "xor" if op == "xnor" else op
    operands: List[FTree] = []
    inversions = 1 if op == "xnor" else 0
    # Flatten depth first, children left to right: the Huffman combine
    # below breaks ties by operand order.  The top of the stack is the
    # next tree to visit.
    stack = children[::-1]
    while stack:
        t = stack.pop()
        if t.op == base_op:
            stack.extend(t.children[::-1])
        elif base_op == "xor" and t.op in ("xnor", "not"):
            inversions += 1
            stack.extend(t.children[::-1])
        else:
            operands.append(t)
    if len(operands) == 1:
        out = operands[0]
    else:
        # Huffman-style combine: always join the two shallowest operands.
        heap: List[Tuple[int, int, FTree]] = []
        tiebreak = count()
        for operand in operands:
            heapq.heappush(heap, (operand.depth(), next(tiebreak), operand))
        while len(heap) > 1:
            d1, _, a = heapq.heappop(heap)
            d2, _, b = heapq.heappop(heap)
            joined = op2(base_op, a, b)
            heapq.heappush(heap, (max(d1, d2) + 1, next(tiebreak), joined))
        out = heap[0][2]
    if base_op == "xor" and inversions % 2 == 1:
        out = negate(out)
    return out


def balance_forest(trees: Dict[str, FTree]) -> Dict[str, FTree]:
    """Balance every tree of a factoring forest."""
    return {name: balance_tree(t) for name, t in trees.items()}
