"""Network sweep: the paper's first synthesis step (Section IV-A).

"Removal of initial redundancy from the Boolean network ... in addition to
removing constant and single-variable nodes, all functionally equivalent
nodes are also identified and removed."  Functional duplicates are found by
bit-parallel random simulation signatures (:meth:`Network.eval_words`) and
confirmed exactly with global BDDs from the builder the equivalence checker
uses, :func:`repro.network.cones.global_bdd`, capped at :data:`BDD_CAP`
nodes per node; the paper credits this step with much of BDS's runtime
advantage.

Output names are part of the interface, so a node that drives an output is
never deleted; a duplicate output is kept in one normal form instead, the
*output alias*: an output that is a plain buffer of an earlier output (in
``net.outputs`` order) that is not itself a buffer.  The structural merge
creates it when a later output duplicates an earlier one, and it is final:
constant folding and buffer/inverter squeezing leave it in place, since
rewriting it would recreate the duplicate the merge just removed, and no
merge treats an output buffer as a duplicate.  With every rule agreeing on
that form the structural passes reach their fixed point in a few passes.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.network.cones import global_bdd, initial_order
from repro.network.network import Network, Node
from repro.perf import PerfSink
from repro.sop.cover import cover_cofactor
from repro.sop.cube import lit

#: Guard against a future rule conflict; the rules below converge well
#: before it.
MAX_PASSES = 50

#: The functional merge's simulation signatures: seed and word width.
SEED = 2000
SIGNATURE_WIDTH = 256
#: Largest global BDD (in nodes) the functional merge builds for a node;
#: a node past it, and every node reading it, is never merged.
BDD_CAP = 500
#: Fresh node allocations one global BDD may take.
WORK_CAP = 40 * BDD_CAP


def sweep(net: Network, merge_equivalent: bool = True,
          perf_sink: Optional[PerfSink] = None) -> Network:
    """Sweep the network in place; returns it for chaining.

    ``perf_sink``, when given, receives the counters of the functional
    merge's BDD manager (a ``BDD.perf_snapshot()``) once the merge is
    done, if the merge built one.
    """
    out_pos = _output_positions(net)
    _structural_fixpoint(net, out_pos)
    if merge_equivalent and _merge_functional(net, out_pos, perf_sink):
        # Merging can expose more constants/buffers.
        _structural_fixpoint(net, out_pos)
    net.check()
    return net


def _structural_fixpoint(net: Network, out_pos: Dict[str, int]) -> None:
    """Run the structural rules until a pass changes nothing."""
    changed = True
    passes = 0
    while changed and passes < MAX_PASSES:
        passes += 1
        changed = _propagate_constants(net, out_pos)
        changed |= _squeeze_single_input(net, out_pos)
        changed |= _merge_structural(net, out_pos)
        if net.remove_dangling():
            changed = True


# ----------------------------------------------------------------------
# Output aliases
# ----------------------------------------------------------------------


def _output_positions(net: Network) -> Dict[str, int]:
    """First position of each output name (sweep never edits the list)."""
    out_pos: Dict[str, int] = {}
    for i, name in enumerate(net.outputs):
        out_pos.setdefault(name, i)
    return out_pos


def _is_output_buffer(node: Node, out_pos: Dict[str, int]) -> bool:
    """Whether ``node`` drives an output and is a plain buffer."""
    return node.name in out_pos and _single_input_kind(node) is True


def _is_output_alias(node: Node, out_pos: Dict[str, int],
                     net: Network) -> bool:
    """Whether ``node`` is an output alias (see the module docstring)."""
    if not _is_output_buffer(node, out_pos):
        return False
    source = net.nodes.get(node.fanins[0])
    return (source is not None and source.name in out_pos
            and out_pos[source.name] < out_pos[node.name]
            and _single_input_kind(source) is not True)


# ----------------------------------------------------------------------
# Constants
# ----------------------------------------------------------------------


def _propagate_constants(net: Network, out_pos: Dict[str, int]) -> bool:
    changed = False
    fanouts = net.fanouts()
    for node in list(net.nodes.values()):
        if node.name not in net.nodes:
            continue
        value = node.constant_value()
        if value is None:
            continue
        for out_name in fanouts.get(node.name, ()):
            consumer = net.nodes.get(out_name)
            if consumer is None or _is_output_alias(consumer, out_pos, net):
                continue
            while node.name in consumer.fanins:
                idx = consumer.fanins.index(node.name)
                consumer.cover = cover_cofactor(consumer.cover, lit(idx, value))
                # Rebuild fanins without position idx.
                consumer.fanins = consumer.fanins[:idx] + consumer.fanins[idx + 1:]
                consumer.cover = [
                    frozenset((l - 2) if (l >> 1) > idx else l for l in cube)
                    for cube in consumer.cover
                ]
                changed = True
        if node.name not in out_pos and not fanouts.get(node.name):
            del net.nodes[node.name]
            changed = True
        elif node.fanins:
            # Canonical constant node.
            node.fanins = []
            node.cover = [frozenset()] if value else []
            changed = True
    return changed


# ----------------------------------------------------------------------
# Buffers and inverters
# ----------------------------------------------------------------------


def _single_input_kind(node: Node) -> Optional[bool]:
    """None if not single-input; True for buffer, False for inverter."""
    if len(node.fanins) != 1:
        return None
    if node.cover == [frozenset({lit(0, True)})]:
        return True
    if node.cover == [frozenset({lit(0, False)})]:
        return False
    return None


def substitute_fanin(node: Node, idx: int, new_signal: str, invert: bool) -> None:
    """Replace fanin position ``idx`` by ``new_signal`` (possibly inverted),
    merging duplicate fanins and dropping contradictory cubes."""
    signals = list(node.fanins)
    signals[idx] = new_signal
    unique: List[str] = []
    pos_of: Dict[str, int] = {}
    for s in signals:
        if s not in pos_of:
            pos_of[s] = len(unique)
            unique.append(s)
    new_cover = []
    for cube in node.cover:
        pairs: Dict[int, bool] = {}
        ok = True
        for l in cube:
            old_pos, positive = l >> 1, not (l & 1)
            if old_pos == idx and invert:
                positive = not positive
            new_pos = pos_of[signals[old_pos]]
            if new_pos in pairs and pairs[new_pos] != positive:
                ok = False
                break
            pairs[new_pos] = positive
        if ok:
            new_cover.append(frozenset(lit(p, v) for p, v in pairs.items()))
    node.fanins = unique
    node.cover = new_cover
    node.normalize()


def _squeeze_single_input(net: Network, out_pos: Dict[str, int]) -> bool:
    changed = False
    fanouts = net.fanouts()
    for node in list(net.nodes.values()):
        if node.name not in net.nodes:
            continue
        kind = _single_input_kind(node)
        if kind is None:
            continue
        source = node.fanins[0]
        invert = not kind
        for out_name in fanouts.get(node.name, ()):
            consumer = net.nodes.get(out_name)
            if consumer is None or _is_output_alias(consumer, out_pos, net):
                continue
            while node.name in consumer.fanins:
                substitute_fanin(consumer, consumer.fanins.index(node.name),
                                 source, invert)
                changed = True
        if node.name not in out_pos and not fanouts.get(node.name):
            # Interior buffer/inverter with no remaining consumers.
            del net.nodes[node.name]
            changed = True
        # Output-driving buffers/inverters are kept: outputs must preserve
        # their names, and an inverter carries real logic.
    return changed


def _redirect(net: Network, out_pos: Dict[str, int], old: str,
              new: str) -> None:
    """Make every consumer read ``new`` instead of node ``old``.

    Output names are part of the interface: when ``old`` drives an output
    it is downgraded to a buffer of ``new`` instead of being deleted.
    """
    for node in net.nodes.values():
        if node.name == old:
            continue
        if old in node.fanins:
            while old in node.fanins:
                substitute_fanin(node, node.fanins.index(old), new, False)
    if old in out_pos:
        buf = net.nodes[old]
        buf.fanins = [new]
        buf.cover = [frozenset({lit(0, True)})]
    else:
        del net.nodes[old]


# ----------------------------------------------------------------------
# Structural duplicate removal
# ----------------------------------------------------------------------


def _structural_key(node: Node) -> Tuple:
    order = sorted(range(len(node.fanins)), key=lambda i: node.fanins[i])
    remap = {old: new for new, old in enumerate(order)}
    cover = frozenset(
        frozenset(lit(remap[l >> 1], not (l & 1)) for l in cube)
        for cube in node.cover
    )
    return tuple(node.fanins[i] for i in order), cover


def _merge_structural(net: Network, out_pos: Dict[str, int]) -> bool:
    changed = False
    seen: Dict[Tuple, str] = {}
    for node in net.topological():
        if node.name not in net.nodes:
            continue
        if _is_output_buffer(node, out_pos):
            # It only names a signal.  Merging two buffers of one signal
            # makes one a buffer of the other, which squeezing undoes.
            continue
        key = _structural_key(node)
        keep = seen.get(key)
        if keep is None:
            seen[key] = node.name
        elif keep != node.name:
            _redirect(net, out_pos, node.name, keep)
            changed = True
    return changed


# ----------------------------------------------------------------------
# Functional duplicate removal
# ----------------------------------------------------------------------


def _merge_functional(net: Network, out_pos: Dict[str, int],
                      perf_sink: Optional[PerfSink]) -> bool:
    """Merge nodes with identical global functions (signature + BDD proof)."""
    from repro.bdd import BDD

    rng = random.Random(SEED)
    words = {i: rng.getrandbits(SIGNATURE_WIDTH) for i in net.inputs}
    groups: Dict[int, List[str]] = {}
    for name, word in net.eval_words(words, SIGNATURE_WIDTH).items():
        groups.setdefault(word, []).append(name)

    candidates = []
    for group in groups.values():
        if len(group) < 2:
            continue
        # An output buffer (its source is always in its group) is already
        # minimal; proving it equivalent would just rebuild its whole cone.
        members = [name for name in group
                   if name not in net.nodes
                   or not _is_output_buffer(net.nodes[name], out_pos)]
        if len(members) > 1:
            candidates.append(members)
    if not candidates:
        return False

    # Exact confirmation with bounded global BDDs (FORCE-ordered inputs
    # keep structured circuits like shifters from blowing the cap).
    mgr = BDD()
    var_of = {i: mgr.new_var(i) for i in initial_order(net)}
    cache: Dict[str, Optional[int]] = {}
    changed = False
    for group in candidates:
        # Safe GC point between groups: every ref still needed for
        # later cone building lives in the cache.
        mgr.maybe_collect([r for r in cache.values() if r is not None])
        keep_by_ref: Dict[int, str] = {}
        for name in group:
            ref = global_bdd(mgr, net, name, var_of, cache, WORK_CAP,
                             node_cap=BDD_CAP)
            if ref is None:
                continue
            keep = keep_by_ref.get(ref)
            if keep is None:
                keep_by_ref[ref] = name
            elif name in net.nodes:
                node = net.nodes[name]
                if (_is_output_buffer(node, out_pos)
                        and node.fanins[0] == keep):
                    continue  # already a buffer of the keeper
                _redirect(net, out_pos, name, keep)
                changed = True
    if perf_sink is not None:
        perf_sink(mgr.perf_snapshot())
    if changed:
        net.remove_dangling()
    return changed
