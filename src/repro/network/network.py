"""Core Boolean-network data structure.

Nodes carry their local function as a cube cover whose literal variable ids
are *fanin positions* (0-based index into ``node.fanins``).  Primary inputs
are names listed in ``network.inputs`` and have no node.  Primary outputs
are names that must resolve to a PI or a node.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.sop.cover import (
    Cover,
    cover_eval,
    cover_support,
    literal_count as cover_literal_count,
)
from repro.sop.cube import lit


class Node:
    """An internal node of a Boolean network."""

    __slots__ = ("name", "fanins", "cover")

    def __init__(self, name: str, fanins: Sequence[str], cover: Cover):
        self.name = name
        self.fanins = list(fanins)
        self.cover = cover

    def constant_value(self) -> Optional[bool]:
        """0/1 if the node is a constant function, else None."""
        if not self.cover:
            return False
        if any(not cube for cube in self.cover):
            return True
        if not self.fanins:
            return False
        return None

    def literal_count(self) -> int:
        return cover_literal_count(self.cover)

    def eval(self, fanin_values: Sequence[bool]) -> bool:
        return cover_eval(self.cover, dict(enumerate(fanin_values)))

    def normalize(self) -> None:
        """Drop fanins whose literal never appears in the cover."""
        used = cover_support(self.cover)
        if len(used) == len(self.fanins):
            return
        keep = sorted(used)
        remap = {old: new for new, old in enumerate(keep)}
        self.fanins = [self.fanins[i] for i in keep]
        self.cover = [
            frozenset(lit(remap[l >> 1], not (l & 1)) for l in cube)
            for cube in self.cover
        ]

    def copy(self) -> "Node":
        return Node(self.name, list(self.fanins), list(self.cover))

    def __repr__(self) -> str:
        return "Node(%r, fanins=%r, %d cubes)" % (
            self.name, self.fanins, len(self.cover))


class Network:
    """A combinational multilevel Boolean network."""

    def __init__(self, name: str = "top"):
        self.name = name
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self.nodes: Dict[str, Node] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_input(self, name: str) -> str:
        if name in self.nodes or name in self.inputs:
            raise ValueError("duplicate signal %r" % name)
        self.inputs.append(name)
        return name

    def add_output(self, name: str) -> str:
        self.outputs.append(name)
        return name

    def add_node(self, name: str, fanins: Sequence[str], cover: Cover) -> Node:
        if name in self.nodes or name in self.inputs:
            raise ValueError("duplicate signal %r" % name)
        node = Node(name, fanins, cover)
        self.nodes[name] = node
        return node

    def fresh_name(self, prefix: str = "n") -> str:
        i = len(self.nodes)
        while True:
            name = "%s%d" % (prefix, i)
            if name not in self.nodes and name not in self.inputs:
                return name
            i += 1

    # Convenience gate constructors (used heavily by circuit generators).

    def add_and(self, name: str, fanins: Sequence[str]) -> str:
        cover = [frozenset(lit(i) for i in range(len(fanins)))]
        self.add_node(name, fanins, cover)
        return name

    def add_or(self, name: str, fanins: Sequence[str]) -> str:
        cover = [frozenset({lit(i)}) for i in range(len(fanins))]
        self.add_node(name, fanins, cover)
        return name

    def add_xor(self, name: str, fanins: Sequence[str]) -> str:
        cover = []
        n = len(fanins)
        for bits in itertools.product([False, True], repeat=n):
            if sum(bits) % 2 == 1:
                cover.append(frozenset(lit(i, b) for i, b in enumerate(bits)))
        self.add_node(name, fanins, cover)
        return name

    def add_not(self, name: str, fanin: str) -> str:
        self.add_node(name, [fanin], [frozenset({lit(0, False)})])
        return name

    def add_buf(self, name: str, fanin: str) -> str:
        self.add_node(name, [fanin], [frozenset({lit(0)})])
        return name

    def add_const(self, name: str, value: bool) -> str:
        self.add_node(name, [], [frozenset()] if value else [])
        return name

    def add_mux(self, name: str, sel: str, then_in: str, else_in: str) -> str:
        cover = [frozenset({lit(0), lit(1)}), frozenset({lit(0, False), lit(2)})]
        self.add_node(name, [sel, then_in, else_in], cover)
        return name

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------

    def fanouts(self) -> Dict[str, List[str]]:
        out: Dict[str, List[str]] = {name: [] for name in self.inputs}
        for name in self.nodes:
            out.setdefault(name, [])
        for node in self.nodes.values():
            for f in node.fanins:
                out.setdefault(f, []).append(node.name)
        return out

    def topological(self) -> List[Node]:
        """Internal nodes in topological (fanin-before-fanout) order."""
        order: List[Node] = []
        state: Dict[str, int] = {}
        stack: List[Tuple[str, int]] = []
        for root in list(self.outputs) + list(self.nodes):
            if state.get(root) == 2 or root in stack:
                continue
            stack.append((root, 0))
            while stack:
                name, phase = stack.pop()
                if phase == 0:
                    if state.get(name) == 2 or name not in self.nodes:
                        state[name] = 2
                        continue
                    if state.get(name) == 1:
                        raise ValueError("combinational cycle at %r" % name)
                    state[name] = 1
                    stack.append((name, 1))
                    for f in self.nodes[name].fanins:
                        if state.get(f) != 2:
                            stack.append((f, 0))
                else:
                    state[name] = 2
                    order.append(self.nodes[name])
        return order

    def depth(self) -> int:
        """Logic depth in node levels."""
        level: Dict[str, int] = {i: 0 for i in self.inputs}
        worst = 0
        for node in self.topological():
            l = 1 + max((level.get(f, 0) for f in node.fanins), default=0)
            level[node.name] = l
            worst = max(worst, l)
        return worst

    def literal_count(self) -> int:
        """Total factored-form-ish literal count (sum over node covers)."""
        return sum(node.literal_count() for node in self.nodes.values())

    def node_count(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def eval(self, assignment: Dict[str, bool]) -> Dict[str, bool]:
        """Evaluate all outputs for one input assignment."""
        values: Dict[str, bool] = dict(assignment)
        for node in self.topological():
            values[node.name] = node.eval([values[f] for f in node.fanins])
        return {o: values[o] for o in self.outputs}

    def eval_words(self, words: Dict[str, int], width: int = 64) -> Dict[str, int]:
        """Bit-parallel simulation: each signal is a ``width``-bit word.

        Returns the word of every signal: ``words`` first, then the nodes
        in topological order.
        """
        mask = (1 << width) - 1
        values: Dict[str, int] = dict(words)
        for node in self.topological():
            fanin_words = [values[f] for f in node.fanins]
            acc = 0
            for cube in node.cover:
                term = mask
                for l in cube:
                    w = fanin_words[l >> 1]
                    term &= (w ^ mask) if (l & 1) else w
                acc |= term
            values[node.name] = acc
        return values

    # ------------------------------------------------------------------
    # Editing
    # ------------------------------------------------------------------

    def remove_dangling(self) -> int:
        """Delete nodes not reachable from any output; return count removed."""
        live: Set[str] = set()
        stack = list(self.outputs)
        while stack:
            name = stack.pop()
            if name in live or name not in self.nodes:
                continue
            live.add(name)
            stack.extend(self.nodes[name].fanins)
        dead = [n for n in self.nodes if n not in live]
        for n in dead:
            del self.nodes[n]
        return len(dead)

    def replace_signal(self, old: str, new: str) -> None:
        """Redirect every reference to ``old`` (fanins and outputs) to ``new``."""
        for node in self.nodes.values():
            node.fanins = [new if f == old else f for f in node.fanins]
        self.outputs = [new if o == old else o for o in self.outputs]

    def copy(self) -> "Network":
        out = Network(self.name)
        out.inputs = list(self.inputs)
        out.outputs = list(self.outputs)
        out.nodes = {n: node.copy() for n, node in self.nodes.items()}
        return out

    def check(self) -> None:
        """Validate structural invariants; raises on corruption."""
        for node in self.nodes.values():
            for f in node.fanins:
                if f not in self.nodes and f not in self.inputs:
                    raise ValueError("node %r has undriven fanin %r" % (node.name, f))
            supp = cover_support(node.cover)
            if supp and max(supp) >= len(node.fanins):
                raise ValueError("node %r cover references missing fanin" % node.name)
            if len(set(node.fanins)) != len(node.fanins):
                raise ValueError("node %r has duplicate fanins" % node.name)
        for o in self.outputs:
            if o not in self.nodes and o not in self.inputs:
                raise ValueError("undriven output %r" % o)
        self.topological()  # raises on cycles

    def stats(self) -> Dict[str, int]:
        return {
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "nodes": len(self.nodes),
            "literals": self.literal_count(),
            "depth": self.depth(),
        }

    def __repr__(self) -> str:
        return "Network(%r, %d in, %d out, %d nodes)" % (
            self.name, len(self.inputs), len(self.outputs), len(self.nodes))
