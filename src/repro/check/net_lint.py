"""Netlist lints: structural invariants of cube networks and partitions.

The BDS flow assumes (and the paper's valid-cut/decomposition machinery of
Section III-C requires) that the network being optimized is a combinational
DAG with every fanin driven and every output resolvable.  This module
states those assumptions as checks over both network representations:

* :func:`lint_network` -- a :class:`repro.network.Network` (cube covers):
  combinational cycles, dangling fanins, duplicate output declarations,
  duplicate fanins, cover literals out of fanin range, undriven outputs
  and (at ``full`` level) internal nodes orphaned from every output.
* :func:`lint_partition` -- a ``PartitionedNetwork`` (local BDDs):
  the same signal-graph invariants restated over BDD supports, plus
  ref-ownership checks (every node's BDD ref must be a live ref of the
  partition's *own* manager -- a ref smuggled across managers indexes
  unrelated storage and silently denotes a different function) and (at
  ``full`` level) the partition's incremental fanout index: its cached
  fanins, consumer lists and used-signal count must equal a fresh
  recompute from the BDD supports, and its cached BDD sizes a fresh
  count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, List, Set, Tuple

from repro.check import CheckError, CheckReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.network.eliminate import PartitionedNetwork
    from repro.network.network import Network

# Canonical invariant names (stable identifiers; tests assert on these).
INV_CYCLE = "combinational_cycle"
INV_DANGLING_FANIN = "dangling_fanin"
INV_DUPLICATE_OUTPUT = "duplicate_output"
INV_DUPLICATE_FANIN = "duplicate_fanin"
INV_COVER_RANGE = "cover_fanin_range"
INV_UNDRIVEN_OUTPUT = "undriven_output"
INV_ORPHAN_NODE = "orphan_node"
INV_FOREIGN_REF = "foreign_bdd_ref"
INV_SIG_VAR = "signal_variable_map"
INV_FANOUT_INDEX = "fanout_index"
INV_SIZE_CACHE = "node_size_cache"

MAX_VIOLATIONS = 25


def lint_network(net: "Network", level: str = "full",
                 subject: str = "network",
                 raise_on_violation: bool = True) -> CheckReport:
    """Lint a cube network; raises :class:`CheckError` on violations."""
    if level not in ("cheap", "full"):
        raise ValueError("lint level must be 'cheap' or 'full', got %r"
                         % (level,))
    report = CheckReport(subject=subject, level=level)
    driven = set(net.inputs) | set(net.nodes)
    _check_duplicate_outputs(net.outputs, report)
    for o in net.outputs:
        if o not in driven:
            report.add(INV_UNDRIVEN_OUTPUT, "output %r is driven by no node"
                       " or input" % o, signals=(o,))
    fanin_graph: Dict[str, List[str]] = {}
    for node in net.nodes.values():
        if len(report.violations) >= MAX_VIOLATIONS:
            break
        fanin_graph[node.name] = list(node.fanins)
        for f in node.fanins:
            if f not in driven:
                report.add(INV_DANGLING_FANIN,
                           "node %r has undriven fanin %r" % (node.name, f),
                           signals=(node.name, f))
        if len(set(node.fanins)) != len(node.fanins):
            report.add(INV_DUPLICATE_FANIN,
                       "node %r lists a fanin twice: %r"
                       % (node.name, node.fanins), signals=(node.name,))
        supp = _cover_support(node.cover)
        if supp and max(supp) >= len(node.fanins):
            report.add(INV_COVER_RANGE,
                       "node %r cover references fanin position %d but only"
                       " %d fanins exist"
                       % (node.name, max(supp), len(node.fanins)),
                       signals=(node.name,))
    cycle = _find_cycle(fanin_graph)
    if cycle:
        report.add(INV_CYCLE, "combinational cycle: %s"
                   % " -> ".join(cycle + cycle[:1]), signals=tuple(cycle))
    if level == "full" and not cycle:
        _check_orphans(net, report)
    report.stats["nodes"] = len(net.nodes)
    report.stats["outputs"] = len(net.outputs)
    if report.violations and raise_on_violation:
        raise CheckError(report)
    return report


def lint_partition(part: "PartitionedNetwork", level: str = "full",
                   subject: str = "partition",
                   raise_on_violation: bool = True) -> CheckReport:
    """Lint a partitioned (local-BDD) network against its signal graph."""
    if level not in ("cheap", "full"):
        raise ValueError("lint level must be 'cheap' or 'full', got %r"
                         % (level,))
    from repro.bdd.manager import DEAD
    from repro.bdd.traverse import support_and_size

    report = CheckReport(subject=subject, level=level)
    mgr = part.mgr
    n = len(mgr._var)
    _check_duplicate_outputs(part.outputs, report)
    known = set(part.inputs) | set(part.refs)
    for o in part.outputs:
        if o not in known:
            report.add(INV_UNDRIVEN_OUTPUT,
                       "output %r has no local BDD and is not an input" % o,
                       signals=(o,))
    var_owner = {var: sig for sig, var in part.sig_var.items()}
    if len(var_owner) != len(part.sig_var):
        report.add(INV_SIG_VAR, "sig_var maps two signals to one manager"
                   " variable")
    fanin_graph: Dict[str, List[str]] = {}
    sizes: Dict[str, int] = {}
    for name, ref in part.refs.items():
        if len(report.violations) >= MAX_VIOLATIONS:
            break
        idx = ref >> 1
        if not 0 <= idx < n or (idx and mgr._var[idx] == DEAD):
            report.add(INV_FOREIGN_REF,
                       "node %r holds ref %d which is dead or not owned by"
                       " the partition's manager" % (name, ref),
                       refs=(ref,), signals=(name,))
            fanin_graph[name] = []
            continue
        if name not in part.sig_var and name not in part.inputs:
            report.add(INV_SIG_VAR,
                       "node %r has no manager variable in sig_var" % name,
                       signals=(name,))
        fanins: List[str] = []
        supp, sizes[name] = support_and_size(mgr, ref)
        for var in supp:
            sig = var_owner.get(var, mgr.var_name(var))
            fanins.append(sig)
            if sig not in known:
                report.add(INV_DANGLING_FANIN,
                           "node %r depends on signal %r which is neither an"
                           " input nor a live node" % (name, sig),
                           signals=(name, sig))
        fanin_graph[name] = fanins
    cycle = _find_cycle(fanin_graph)
    if cycle:
        report.add(INV_CYCLE, "combinational cycle through local BDDs: %s"
                   % " -> ".join(cycle + cycle[:1]), signals=tuple(cycle))
    if level == "full" and len(fanin_graph) == len(part.refs):
        _check_fanout_index(part, fanin_graph, report)
        _check_sizes(part, sizes, report)
    report.stats["nodes"] = len(part.refs)
    report.stats["outputs"] = len(part.outputs)
    if report.violations and raise_on_violation:
        raise CheckError(report)
    return report


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def _cover_support(cover: List[FrozenSet[int]]) -> Set[int]:
    out: Set[int] = set()
    for cube in cover:
        for lit in cube:
            out.add(lit >> 1)
    return out


def _check_duplicate_outputs(outputs: List[str], report: CheckReport) -> None:
    seen: Set[str] = set()
    for o in outputs:
        if o in seen:
            report.add(INV_DUPLICATE_OUTPUT,
                       "output %r declared more than once" % o, signals=(o,))
        seen.add(o)


def _find_cycle(fanin_graph: Dict[str, List[str]]) -> List[str]:
    """Return one combinational cycle (as a signal list) or ``[]``.

    Iterative three-color DFS over the fanin relation; signals outside the
    graph (primary inputs) are terminals.  A self-dependency (a node whose
    local function mentions its own variable) is a one-element cycle.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    color: Dict[str, int] = {}
    parent: Dict[str, str] = {}
    for root in fanin_graph:
        if color.get(root, WHITE) != WHITE:
            continue
        stack: List[Tuple[str, int]] = [(root, 0)]
        while stack:
            name, phase = stack.pop()
            if phase == 1:
                color[name] = BLACK
                continue
            if name not in fanin_graph:
                color[name] = BLACK
                continue
            state = color.get(name, WHITE)
            if state == BLACK:
                continue
            color[name] = GREY
            stack.append((name, 1))
            for f in fanin_graph[name]:
                fstate = color.get(f, WHITE)
                if fstate == GREY:
                    # Found a back edge: unwind the parent chain.
                    cycle = [name]
                    cur = name
                    while cur != f:
                        cur = parent.get(cur, f)
                        cycle.append(cur)
                        if len(cycle) > len(fanin_graph) + 1:
                            break
                    cycle = cycle[:-1] if cycle[-1] == f and len(cycle) > 1 \
                        else cycle
                    if f not in cycle:
                        cycle.append(f)
                    return list(reversed(cycle))
                if fstate == WHITE and f in fanin_graph:
                    parent[f] = name
                    stack.append((f, 0))
    return []


def _check_fanout_index(part: "PartitionedNetwork",
                        fanin_graph: Dict[str, List[str]],
                        report: CheckReport) -> None:
    """The partition's cached fanins and fanout index equal a fresh
    recompute from supports (``fanin_graph``, in ``refs`` order).  The
    index keys only read signals, so equal maps also mean an equal
    used-signal count."""
    fresh: Dict[str, List[str]] = {}
    for name, fanins in fanin_graph.items():
        cached = sorted(part._supports.get(name, ()))
        if cached != sorted(fanins) and len(report.violations) < MAX_VIOLATIONS:
            report.add(INV_FANOUT_INDEX,
                       "node %r: cached fanins %r but its BDD reads %r"
                       % (name, cached, sorted(fanins)), signals=(name,))
        for sig in fanins:
            fresh.setdefault(sig, []).append(name)
    index = part.fanouts()
    for sig in sorted(set(index) | set(fresh)):
        if len(report.violations) >= MAX_VIOLATIONS:
            return
        if index.get(sig) != fresh.get(sig):
            report.add(INV_FANOUT_INDEX,
                       "signal %r: fanout index lists %r but supports give"
                       " %r" % (sig, index.get(sig), fresh.get(sig)),
                       signals=(sig,))


def _check_sizes(part: "PartitionedNetwork", sizes: Dict[str, int],
                 report: CheckReport) -> None:
    """The partition's cached BDD sizes equal a fresh count (``sizes``):
    eliminate's trial bound trusts them."""
    for name, size in sizes.items():
        if len(report.violations) >= MAX_VIOLATIONS:
            return
        cached = part._sizes.get(name)
        if cached != size:
            report.add(INV_SIZE_CACHE,
                       "node %r: cached BDD size %r but its BDD has %d"
                       " nodes" % (name, cached, size), signals=(name,))


def _check_orphans(net: "Network", report: CheckReport) -> None:
    """Internal nodes unreachable from every output (full level only)."""
    live: Set[str] = set()
    stack = [o for o in net.outputs]
    while stack:
        name = stack.pop()
        if name in live or name not in net.nodes:
            continue
        live.add(name)
        stack.extend(net.nodes[name].fanins)
    for name in net.nodes:
        if len(report.violations) >= MAX_VIOLATIONS:
            return
        if name not in live:
            report.add(INV_ORPHAN_NODE,
                       "node %r is reachable from no primary output" % name,
                       signals=(name,))
