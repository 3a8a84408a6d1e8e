"""Sharing extraction across factoring trees (Fig. 13-14, Section IV-C).

"BDDs are constructed for all factoring trees in a bottom-up fashion, and
the canonicity property of a BDD is used to identify functionally
equivalent subtrees."  :func:`extract_sharing` rebuilds a collection of
trees so that subtrees with identical global functions become one shared
object (complements shared through an inverter), and
:func:`trees_to_network` lowers the shared forest to a gate-level
:class:`~repro.network.network.Network` of 2-input AND/OR/XOR/XNOR, NOT
and MUX nodes.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.bdd import BDD
from repro.decomp.ftree import CONST0, CONST1, FTree, negate
from repro.network.network import Network
from repro.perf import PerfSink
from repro.sop.cube import lit


def extract_sharing(trees: Dict[str, FTree], size_cap: int = 100000,
                    perf_sink: Optional[PerfSink] = None
                    ) -> Dict[str, FTree]:
    """Merge functionally equivalent subtrees across all trees.

    Tree leaves must be hashable signal identifiers; equivalence is global
    (canonical BDD over all leaf signals).  ``size_cap`` bounds the shared
    manager; if exceeded the original trees are returned unchanged.
    ``perf_sink``, when given, receives that manager's counters at the end.
    """
    mgr = BDD()
    shared = _share(mgr, trees, size_cap)
    if perf_sink is not None:
        perf_sink(mgr.perf_snapshot())
    return shared


def _share(mgr: BDD, trees: Dict[str, FTree],
           size_cap: int) -> Dict[str, FTree]:
    leaf_var: Dict[object, int] = {}
    canonical: Dict[int, FTree] = {}
    rewritten_total: Dict[str, FTree] = {}

    for name, tree in trees.items():
        ref_of: Dict[int, int] = {}
        new_of: Dict[int, FTree] = {}
        for t in tree.iter_nodes():
            children = [new_of[id(c)] for c in t.children]
            child_refs = [ref_of[id(c)] for c in t.children]
            if t.op == "const0":
                ref, new = 1, CONST0
            elif t.op == "const1":
                ref, new = 0, CONST1
            elif t.op == "var":
                if t.var not in leaf_var:
                    leaf_var[t.var] = mgr.new_var(str(t.var))
                ref = mgr.var_ref(leaf_var[t.var])
                new = FTree("var", var=t.var)
            elif t.op == "not":
                ref = child_refs[0] ^ 1
                new = negate(children[0])
            elif t.op == "mux":
                ref = mgr.ite(child_refs[0], child_refs[1], child_refs[2])
                new = FTree("mux", children=tuple(children))
            else:
                ref = getattr(mgr, t.op + "_")(child_refs[0], child_refs[1])
                new = FTree(t.op, children=tuple(children))
            if ref in canonical:
                new = canonical[ref]
            elif (ref ^ 1) in canonical:
                new = negate(canonical[ref ^ 1])
                canonical[ref] = new
            else:
                canonical[ref] = new
            ref_of[id(t)] = ref
            new_of[id(t)] = new
            if mgr.num_nodes_allocated > size_cap:
                return dict(trees)
        rewritten_total[name] = new_of[id(tree)]
    return rewritten_total


def count_shared_gates(trees: Dict[str, FTree]) -> int:
    """Operator nodes in the forest, shared objects counted once."""
    seen: Set[int] = set()
    count = 0
    for tree in trees.values():
        for t in tree.iter_nodes():
            if id(t) in seen:
                continue
            seen.add(id(t))
            if t.op not in ("var", "const0", "const1"):
                count += 1
    return count


# ----------------------------------------------------------------------
# Lowering to a gate network
# ----------------------------------------------------------------------

_GATE_COVERS = {
    "and": [frozenset({lit(0), lit(1)})],
    "or": [frozenset({lit(0)}), frozenset({lit(1)})],
    "xor": [frozenset({lit(0), lit(1, False)}),
            frozenset({lit(0, False), lit(1)})],
    "xnor": [frozenset({lit(0), lit(1)}),
             frozenset({lit(0, False), lit(1, False)})],
    "not": [frozenset({lit(0, False)})],
    "mux": [frozenset({lit(0), lit(1)}),
            frozenset({lit(0, False), lit(2)})],
}


def trees_to_network(trees: Dict[str, FTree], inputs: Sequence[str],
                     outputs: Sequence[str], name: str = "bds") -> Network:
    """Lower a (shared) forest of factoring trees to a gate-level network.

    ``trees`` maps node/output names to their factoring trees; tree leaves
    are signal names -- primary inputs or other tree names.
    """
    net = Network(name)
    for i in inputs:
        net.add_input(i)
    for o in outputs:
        net.add_output(o)

    signal_of: Dict[int, str] = {}   # id(shared subtree) -> emitted signal
    counter = [0]                    # the g_N / const_N gensym counter
    for tree_name in _order_trees(trees):
        tree = trees[tree_name]
        if id(tree) in signal_of:
            net.add_buf(tree_name, signal_of[id(tree)])
        else:
            _emit_tree(net, trees, tree, tree_name, signal_of, counter)
            signal_of.setdefault(id(tree), tree_name)
    net.check()
    return net


def _fresh(net: Network, trees: Dict[str, FTree], counter: List[int],
           prefix: str) -> str:
    """The next ``prefix_N`` that names no signal and no tree."""
    while True:
        candidate = "%s_%d" % (prefix, counter[0])
        counter[0] += 1
        if candidate not in net.nodes and candidate not in net.inputs \
                and candidate not in trees:
            return candidate


def _emit_tree(net: Network, trees: Dict[str, FTree], tree: FTree,
               target: str, signal_of: Dict[int, str],
               counter: List[int]) -> None:
    """Emit ``tree`` as the signal ``target``.

    Subtrees are emitted depth first, children left to right, on an
    explicit stack; a gate takes its gensym name once its children have
    theirs, and a subtree already emitted is read through ``signal_of``.
    That order fixes the gensym numbering, which the golden digests hold.
    """
    if tree.op == "var":
        net.add_buf(target, str(tree.var))
        return
    if tree.op in ("const0", "const1"):
        net.add_const(target, tree.op == "const1")
        return
    # Each frame: a gate subtree and the signals of its children so far.
    stack: List[Tuple[FTree, List[str]]] = [(tree, [])]
    while stack:
        t, sigs = stack[-1]
        while len(sigs) < len(t.children):
            child = t.children[len(sigs)]
            if id(child) in signal_of:
                sigs.append(signal_of[id(child)])
            elif child.op == "var":
                sigs.append(str(child.var))
            elif child.op in ("const0", "const1"):
                signal = _fresh(net, trees, counter, "const")
                net.add_const(signal, child.op == "const1")
                signal_of[id(child)] = signal
                sigs.append(signal)
            else:
                stack.append((child, []))
                break
        else:
            stack.pop()
            if not stack:
                _emit_gate(net, target, t.op, sigs)
                return
            signal = _fresh(net, trees, counter, "g")
            _emit_gate(net, signal, t.op, sigs)
            signal_of[id(t)] = signal
            stack[-1][1].append(signal)


def _emit_gate(net: Network, name: str, op: str,
               sigs: List[str]) -> None:
    """Add one gate, folding duplicate child signals.

    Sharing aliases subtree objects across trees, so two children of one
    gate can resolve to the same emitted signal (e.g. a named tree that is
    itself a leaf, or the CONST0/CONST1 singletons); a node with duplicate
    fanins is structurally invalid, so fold the gate instead.
    """
    if op in ("and", "or", "xor", "xnor") and sigs[0] == sigs[1]:
        if op == "and" or op == "or":
            net.add_buf(name, sigs[0])
        else:
            net.add_const(name, op == "xnor")
        return
    if op == "mux":
        sel, then_sig, else_sig = sigs
        if then_sig == else_sig:            # sel irrelevant
            net.add_buf(name, then_sig)
            return
        if sel == then_sig:                 # s·s + s̄·e  =  s + e
            _emit_gate(net, name, "or", [sel, else_sig])
            return
        if sel == else_sig:                 # s·t + s̄·s  =  s·t
            _emit_gate(net, name, "and", [sel, then_sig])
            return
    net.add_node(name, sigs, list(_GATE_COVERS[op]))


def _order_trees(trees: Dict[str, FTree]) -> List[str]:
    """Tree names, each after every tree whose name its leaves read.

    A depth-first post-order over the trees in ``trees`` order, with an
    explicit stack.  Dependencies are visited sorted: ``deps`` values are
    string sets, and unsorted iteration would make the emission order
    (and the g_N gensym numbering) hash-seed dependent -- caught by the
    golden-digest tests.
    """
    deps: Dict[str, List[str]] = {}
    for name, tree in trees.items():
        deps[name] = sorted({str(v) for v in tree.support()
                             if str(v) in trees})
    order: List[str] = []
    state: Dict[str, int] = {}
    for root in trees:
        if state.get(root) == 2:
            continue
        state[root] = 1
        stack: List[Tuple[str, Iterator[str]]] = [(root, iter(deps[root]))]
        while stack:
            name, pending = stack[-1]
            for dep in pending:
                if state.get(dep) == 2:
                    continue
                if state.get(dep) == 1:
                    raise ValueError(
                        "cyclic dependency among factoring trees at %r" % dep)
                state[dep] = 1
                stack.append((dep, iter(deps[dep])))
                break
            else:
                state[name] = 2
                order.append(name)
                stack.pop()
    return order
