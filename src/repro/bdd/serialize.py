"""BDD serialization: dump/load function sets as a portable text format.

Lets users persist decomposition state or ship BDDs between processes.
The format is line-based and order-preserving::

    .bdd 1
    .vars a b c
    .nodes
    1 0 2 1          # node 1: var-index 0, lo-ref 2, hi-ref 1 (refs are
    2 1 1 0          #   node<<1|complement; node 0 is the terminal)
    .roots 4 5
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.bdd.manager import BDD, ONE
from repro.bdd.traverse import support_many


def dumps(mgr: BDD, roots: Sequence[int]) -> str:
    """Serialize the functions ``roots`` (and their shared DAG)."""
    used_vars = sorted(support_many(mgr, roots), key=mgr.level_of_var)
    var_index = {v: i for i, v in enumerate(used_vars)}
    # Children-first order.  Raw index order is NOT topological once the
    # manager's free-list has recycled node slots, so walk the DAG.
    live = _topological_live(mgr, roots)
    node_index = {0: 0}
    for i, idx in enumerate(live, start=1):
        node_index[idx] = i

    def remap(ref: int) -> int:
        return (node_index[ref >> 1] << 1) | (ref & 1)

    lines = [".bdd 1", ".vars " + " ".join(mgr.var_name(v) for v in used_vars),
             ".nodes"]
    for idx in live:
        lines.append("%d %d %d %d" % (
            node_index[idx], var_index[mgr._var[idx]],
            remap(mgr._lo[idx]), remap(mgr._hi[idx])))
    lines.append(".roots " + " ".join(str(remap(r)) for r in roots))
    return "\n".join(lines) + "\n"


def _topological_live(mgr: BDD, roots: Sequence[int]) -> List[int]:
    """Live node indices (terminal excluded), children before parents."""
    order: List[int] = []
    seen = {0}
    stack: List[Tuple[int, bool]] = [(r >> 1, False) for r in roots]
    while stack:
        idx, expanded = stack.pop()
        if expanded:
            order.append(idx)
            continue
        if idx in seen:
            continue
        seen.add(idx)
        stack.append((idx, True))
        stack.append((mgr._lo[idx] >> 1, False))
        stack.append((mgr._hi[idx] >> 1, False))
    return order


def loads(text: str, mgr: Optional[BDD] = None) -> Tuple[BDD, List[int]]:
    """Load serialized functions; returns ``(manager, roots)``.

    When ``mgr`` is given, variables are matched by name (created as
    needed) and nodes rebuilt through ITE so any variable order works;
    otherwise a fresh manager with the dumped order is created.

    Every malformed input -- wrong field counts, non-integer tokens,
    dangling child/root references, stray lines -- raises
    :class:`ValueError` (never ``KeyError``/``IndexError``), so a caller
    reading dumps from disk or from another process can treat any damage
    as "corrupt input" with one except clause.
    """
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines or not lines[0].startswith(".bdd"):
        raise ValueError("not a BDD dump")
    var_names: List[str] = []
    node_lines: List[Tuple[int, int, int, int]] = []
    roots_spec: List[int] = []
    saw_roots = False
    section: Optional[str] = None
    for line in lines[1:]:
        if line.startswith(".vars"):
            var_names = line.split()[1:]
        elif line.startswith(".nodes"):
            section = "nodes"
        elif line.startswith(".roots"):
            saw_roots = True
            roots_spec = [_int_token(t, line) for t in line.split()[1:]]
        elif section == "nodes":
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(
                    "corrupt BDD dump: expected 4 fields in node line %r"
                    % line)
            a, b, c, d = (_int_token(t, line) for t in parts)
            node_lines.append((a, b, c, d))
        else:
            raise ValueError("corrupt BDD dump: unexpected line %r" % line)
    if not saw_roots:
        # dumps always emits .roots last; its absence means truncation.
        raise ValueError("corrupt BDD dump: missing .roots section")
    if mgr is None:
        mgr = BDD()
    var_of: Dict[int, int] = {}
    for i, name in enumerate(var_names):
        try:
            var_of[i] = mgr.var_by_name(name)
        except KeyError:
            var_of[i] = mgr.new_var(name)
    built: Dict[int, int] = {0: ONE}

    def resolve(ref: int) -> int:
        return built[ref >> 1] ^ (ref & 1)

    for node_id, var_idx, lo, hi in node_lines:
        if (lo >> 1) not in built or (hi >> 1) not in built:
            raise ValueError("node %d references undumped children" % node_id)
        if var_idx not in var_of:
            raise ValueError("corrupt BDD dump: node %d uses undumped "
                             "variable index %d" % (node_id, var_idx))
        lo_ref, hi_ref = resolve(lo), resolve(hi)
        built[node_id] = mgr.ite(mgr.var_ref(var_of[var_idx]), hi_ref, lo_ref)
    for r in roots_spec:
        if (r >> 1) not in built:
            raise ValueError("corrupt BDD dump: root %d references an "
                             "undumped node" % r)
    roots = [resolve(r) for r in roots_spec]
    return mgr, roots


def _int_token(token: str, line: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError("corrupt BDD dump: non-integer token %r in line %r"
                         % (token, line)) from None
