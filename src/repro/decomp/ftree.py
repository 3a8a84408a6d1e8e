"""Factoring trees: the record of a BDD decomposition.

"Factoring trees are constructed along with the BDD decomposition as a
means to record the result of the decomposition" (Section IV-C).  A tree
node is an operator over subtrees; leaves are variables or constants.
Operators cover all decomposition types the engine can produce: AND, OR,
XOR, XNOR, NOT and (functional) MUX.
"""

from __future__ import annotations

from typing import Callable, Container, Dict, Iterator, List, Optional, Tuple

OPS = ("const0", "const1", "var", "not", "and", "or", "xor", "xnor", "mux")


class FTree:
    """An immutable factoring-tree node.

    ``mux`` children are ordered ``(select, then, else)``.
    """

    __slots__ = ("op", "var", "children", "_hash")

    def __init__(self, op: str, var: Optional[int] = None,
                 children: Tuple["FTree", ...] = ()):
        if op not in OPS:
            raise ValueError("unknown factoring-tree op %r" % op)
        arity = {"const0": 0, "const1": 0, "var": 0, "not": 1,
                 "and": 2, "or": 2, "xor": 2, "xnor": 2, "mux": 3}[op]
        if len(children) != arity:
            raise ValueError("%s expects %d children, got %d"
                             % (op, arity, len(children)))
        if op == "var" and var is None:
            raise ValueError("var leaf needs a variable id")
        self.op = op
        self.var = var
        self.children = tuple(children)
        self._hash = hash((op, var, self.children))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return (isinstance(other, FTree) and self.op == other.op
                and self.var == other.var and self.children == other.children)

    # -- structure metrics ------------------------------------------------

    def gate_count(self) -> int:
        """Number of operator nodes (NOT counted; shared subtrees counted
        once -- trees built by the engine may share sub-objects)."""
        seen = set()

        def rec(t: "FTree") -> int:
            if id(t) in seen:
                return 0
            seen.add(id(t))
            n = 0 if t.op in ("var", "const0", "const1") else 1
            return n + sum(rec(c) for c in t.children)

        return rec(self)

    def literal_count(self) -> int:
        """Number of variable-leaf occurrences (factored-form literals)."""
        if self.op == "var":
            return 1
        return sum(c.literal_count() for c in self.children)

    def depth(self) -> int:
        if not self.children:
            return 0
        inc = 0 if self.op == "not" else 1
        return inc + max(c.depth() for c in self.children)

    def support(self) -> set:
        out = set()
        stack = [self]
        while stack:
            t = stack.pop()
            if t.op == "var":
                out.add(t.var)
            stack.extend(t.children)
        return out

    def iter_nodes(self, stop: Container[int] = ()) -> Iterator["FTree"]:
        """Every node, children before parents, each object once.  A node
        whose ``id()`` is in ``stop`` is yielded without its children."""
        seen = set()
        stack: List[Tuple[FTree, bool]] = [(self, False)]
        while stack:
            t, expanded = stack.pop()
            if expanded:
                yield t
                continue
            if id(t) in seen:
                continue
            seen.add(id(t))
            stack.append((t, True))
            if id(t) not in stop:
                for c in t.children:
                    stack.append((c, False))

    # -- semantics ---------------------------------------------------------

    def to_bdd(self, mgr, var_map: Optional[Dict[int, int]] = None,
               known: Optional[Dict[int, int]] = None) -> int:
        """Build the BDD of this tree in ``mgr``.

        ``var_map`` optionally translates leaf variable ids.  ``known``
        maps the ``id()`` of subtrees whose BDD is already built to their
        refs: the walk takes those refs and does not descend into them.
        """
        known = known or {}
        memo: Dict[int, int] = {}
        for t in self.iter_nodes(stop=known):
            if id(t) in known:
                r = known[id(t)]
            elif t.op == "const0":
                r = 1
            elif t.op == "const1":
                r = 0
            elif t.op == "var":
                v = var_map[t.var] if var_map else t.var
                r = mgr.var_ref(v)
            elif t.op == "not":
                r = memo[id(t.children[0])] ^ 1
            elif t.op == "and":
                r = mgr.and_(memo[id(t.children[0])], memo[id(t.children[1])])
            elif t.op == "or":
                r = mgr.or_(memo[id(t.children[0])], memo[id(t.children[1])])
            elif t.op == "xor":
                r = mgr.xor_(memo[id(t.children[0])], memo[id(t.children[1])])
            elif t.op == "xnor":
                r = mgr.xnor_(memo[id(t.children[0])], memo[id(t.children[1])])
            else:  # mux
                s, hi, lo = (memo[id(c)] for c in t.children)
                r = mgr.ite(s, hi, lo)
            memo[id(t)] = r
        return memo[id(self)]

    def evaluate(self, assignment: Dict[int, bool]) -> bool:
        memo: Dict[int, bool] = {}
        for t in self.iter_nodes():
            c = [memo[id(ch)] for ch in t.children]
            if t.op == "const0":
                v = False
            elif t.op == "const1":
                v = True
            elif t.op == "var":
                v = assignment[t.var]
            elif t.op == "not":
                v = not c[0]
            elif t.op == "and":
                v = c[0] and c[1]
            elif t.op == "or":
                v = c[0] or c[1]
            elif t.op == "xor":
                v = c[0] != c[1]
            elif t.op == "xnor":
                v = c[0] == c[1]
            else:
                v = c[1] if c[0] else c[2]
            memo[id(t)] = v
        return memo[id(self)]

    def map_vars(self, fn: Callable[[object], object]) -> "FTree":
        """Rewrite variable leaves through ``fn`` (e.g. local var id ->
        network signal name), preserving subtree sharing."""
        memo: Dict[int, FTree] = {}
        for t in self.iter_nodes():
            if t.op == "var":
                memo[id(t)] = FTree("var", var=fn(t.var))
            else:
                memo[id(t)] = FTree(t.op, var=t.var,
                                    children=tuple(memo[id(c)] for c in t.children))
        return memo[id(self)]

    # -- display -----------------------------------------------------------

    def to_expr(self, name_of: Callable[[int], str] = str) -> str:
        """Readable infix expression (for docs, tests and examples)."""
        if self.op == "const0":
            return "0"
        if self.op == "const1":
            return "1"
        if self.op == "var":
            return name_of(self.var)
        if self.op == "not":
            return "~" + _paren(self.children[0], name_of)
        if self.op == "mux":
            s, hi, lo = self.children
            return "MUX(%s; %s, %s)" % (
                s.to_expr(name_of), hi.to_expr(name_of), lo.to_expr(name_of))
        sym = {"and": " & ", "or": " + ", "xor": " ^ ", "xnor": " @ "}[self.op]
        return sym.join(_paren(c, name_of) for c in self.children)

    def __repr__(self) -> str:
        return "FTree(%s)" % self.to_expr()


def _paren(t: FTree, name_of) -> str:
    s = t.to_expr(name_of)
    if t.op in ("var", "const0", "const1", "not", "mux"):
        return s
    return "(" + s + ")"


CONST0 = FTree("const0")
CONST1 = FTree("const1")


def var_leaf(var: int) -> FTree:
    return FTree("var", var=var)


def negate(t: FTree) -> FTree:
    """Complement a tree, cancelling double negations and using the
    self-dual XOR/XNOR pair instead of a NOT wrapper where possible."""
    if t.op == "not":
        return t.children[0]
    if t.op == "const0":
        return CONST1
    if t.op == "const1":
        return CONST0
    if t.op == "xor":
        return FTree("xnor", children=t.children)
    if t.op == "xnor":
        return FTree("xor", children=t.children)
    return FTree("not", children=(t,))


def op2(op: str, a: FTree, b: FTree) -> FTree:
    """Build a binary node with constant folding and trivial identities."""
    if op == "and":
        if a.op == "const0" or b.op == "const0":
            return CONST0
        if a.op == "const1":
            return b
        if b.op == "const1":
            return a
    elif op == "or":
        if a.op == "const1" or b.op == "const1":
            return CONST1
        if a.op == "const0":
            return b
        if b.op == "const0":
            return a
    elif op == "xor":
        if a.op == "const0":
            return b
        if b.op == "const0":
            return a
        if a.op == "const1":
            return negate(b)
        if b.op == "const1":
            return negate(a)
    elif op == "xnor":
        if a.op == "const1":
            return b
        if b.op == "const1":
            return a
        if a.op == "const0":
            return negate(b)
        if b.op == "const0":
            return negate(a)
    if a == b:
        if op in ("and", "or"):
            return a
        return CONST0 if op == "xor" else CONST1
    return FTree(op, children=(a, b))


def mux(sel: FTree, then_t: FTree, else_t: FTree) -> FTree:
    if sel.op == "const1":
        return then_t
    if sel.op == "const0":
        return else_t
    if then_t == else_t:
        return then_t
    if then_t.op == "const1" and else_t.op == "const0":
        return sel
    if then_t.op == "const0" and else_t.op == "const1":
        return negate(sel)
    if else_t.op == "const0":
        return op2("and", sel, then_t)
    if then_t.op == "const1":
        return op2("or", sel, else_t)
    if then_t.op == "const0":
        return op2("and", negate(sel), else_t)
    if else_t.op == "const1":
        return op2("or", negate(sel), then_t)
    if negate(then_t) == else_t:
        return op2("xnor", sel, then_t)
    # Select-equal branches would create duplicate gate fanins downstream.
    if then_t == sel:
        return op2("or", sel, else_t)
    if else_t == sel:
        return op2("and", sel, then_t)
    if then_t == negate(sel):
        return op2("and", negate(sel), else_t)
    if else_t == negate(sel):
        return op2("or", negate(sel), then_t)
    return FTree("mux", children=(sel, then_t, else_t))
