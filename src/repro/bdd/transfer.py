"""Inter-manager BDD transfer -- the paper's "BDD mapping" (Section IV-B).

During *eliminate*, variables die as Boolean nodes are collapsed away; the
paper reports that ~63% of manager variables become unused after the first
iteration and that reordering a manager polluted with dead variables is
hopelessly slow.  BDS's fix is to initialize a **fresh manager containing
only the used variables** and transfer every live BDD into it through a
variable mapping -- making eliminate ~85x faster.  ``transfer_many`` is that
mechanism; the ablation benchmark ``bench_ablation_mapping`` measures the
speedup it buys.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.bdd.manager import BDD, ONE


def transfer(src: BDD, dst: BDD, ref: int,
             var_map: Optional[Dict[int, int]] = None,
             _memo: Optional[Dict[int, int]] = None) -> int:
    """Copy the function ``ref`` from manager ``src`` into manager ``dst``.

    ``var_map`` maps source variable ids to destination variable ids; when
    omitted, variables are matched by name (created in ``dst`` on demand).
    """
    if var_map is None:
        var_map = {}
        for var in sorted(_used_vars(src, [ref]), key=src.level_of_var):
            name = src.var_name(var)
            try:
                var_map[var] = dst.var_by_name(name)
            except KeyError:
                var_map[var] = dst.new_var(name)
    memo: Dict[int, int] = {0: ONE} if _memo is None else _memo
    order_ok = _is_order_preserving(src, dst, var_map)
    return _transfer_walk(src, dst, ref, var_map, memo, order_ok)


def transfer_many(src: BDD, refs: Sequence[int],
                  var_map: Optional[Dict[int, int]] = None,
                  order: Optional[Sequence[int]] = None) -> "TransferResult":
    """Transfer several functions into a brand-new compacted manager.

    Only variables actually used by ``refs`` are created in the new manager,
    in their current relative order (or in ``order`` if given).  Returns a
    :class:`TransferResult` with the new manager, the new refs and the
    variable mapping.
    """
    dst = BDD()
    if var_map is None:
        used = _used_vars(src, refs)
        if order is None:
            ordered = sorted(used, key=src.level_of_var)
        else:
            ordered = [v for v in order if v in used]
            ordered += sorted(used - set(ordered), key=src.level_of_var)
        var_map = {v: dst.new_var(src.var_name(v)) for v in ordered}
    else:
        for v in sorted(var_map, key=src.level_of_var):
            if var_map[v] >= dst.num_vars:
                raise ValueError("explicit var_map must target a prepared manager")
    memo: Dict[int, int] = {0: ONE}
    order_ok = _is_order_preserving(src, dst, var_map)
    new_refs = [_transfer_walk(src, dst, r, var_map, memo, order_ok)
                for r in refs]
    return TransferResult(dst, new_refs, var_map)


def structure_key(src: BDD, ref: int) -> Tuple[Tuple[int, ...], List[int]]:
    """What ``transfer_many(src, [ref])`` would build, without building it.

    Returns ``(key, order)``.  ``order`` lists the support of ``ref`` top
    level first: the fresh manager's variable ``i`` is ``order[i]``, at
    level ``i``.  ``key`` is the new root ref followed by the fresh
    manager's node arrays, one ``(var, lo, hi)`` triple per node in
    allocation order.  The walk visits nodes in :func:`_transfer_walk`'s
    order, else child before then child.  Two refs share a key exactly
    when their transfers give managers that differ only in variable
    names.
    """
    var_arr, lo_arr, hi_arr = src._var, src._lo, src._hi
    v2l = src._var2level
    new_ref: Dict[int, int] = {0: ONE}
    flat: List[int] = []
    stack = [ref >> 1]
    while stack:
        idx = stack[-1]
        if idx in new_ref:
            stack.pop()
            continue
        lo, hi = lo_arr[idx], hi_arr[idx]
        if lo >> 1 not in new_ref:
            stack.append(lo >> 1)
            continue
        if hi >> 1 not in new_ref:
            stack.append(hi >> 1)
            continue
        stack.pop()
        new_ref[idx] = (len(flat) // 3 + 1) << 1
        flat += (v2l[var_arr[idx]], new_ref[lo >> 1] ^ (lo & 1),
                 new_ref[hi >> 1])
    levels = sorted(set(flat[0::3]))
    rank = {level: i for i, level in enumerate(levels)}
    flat[0::3] = [rank[level] for level in flat[0::3]]
    key = (new_ref[ref >> 1] ^ (ref & 1),) + tuple(flat)
    return key, [src._level2var[level] for level in levels]


class TransferResult:
    """Outcome of :func:`transfer_many`."""

    def __init__(self, manager: BDD, refs: List[int],
                 var_map: Dict[int, int]) -> None:
        self.manager = manager
        self.refs = refs
        self.var_map = var_map


def _is_order_preserving(src: BDD, dst: BDD, var_map: Dict[int, int]) -> bool:
    pairs = sorted((src.level_of_var(v), dst.level_of_var(w))
                   for v, w in var_map.items())
    dst_levels = [d for _, d in pairs]
    return all(a < b for a, b in zip(dst_levels, dst_levels[1:]))


def _transfer_walk(src: BDD, dst: BDD, ref: int, var_map: Dict[int, int],
                   memo: Dict[int, int], ordered: bool) -> int:
    """Copy ``ref`` into ``dst`` on an explicit stack, so a BDD of any
    depth needs no recursion headroom.

    ``memo`` maps each source node index already copied to its ``dst``
    ref.  Nodes are built in post order, else child before then child,
    then the node itself -- the allocation order :func:`structure_key`
    reproduces -- through ``mk`` when ``ordered`` (``var_map`` keeps the
    relative order), else through ``ite``, which re-orders.
    """
    var_arr, lo_arr, hi_arr = src._var, src._lo, src._hi
    stack = [ref >> 1]
    while stack:
        idx = stack[-1]
        if idx in memo:
            stack.pop()
            continue
        lo, hi = lo_arr[idx], hi_arr[idx]
        if lo >> 1 not in memo:
            stack.append(lo >> 1)
            continue
        if hi >> 1 not in memo:
            stack.append(hi >> 1)
            continue
        stack.pop()
        new_lo = memo[lo >> 1] ^ (lo & 1)
        new_hi = memo[hi >> 1] ^ (hi & 1)
        var = var_map[var_arr[idx]]
        if ordered:
            memo[idx] = dst.mk(var, new_lo, new_hi)
        else:
            memo[idx] = dst.ite(dst.var_ref(var), new_hi, new_lo)
    return memo[ref >> 1] ^ (ref & 1)


def _used_vars(src: BDD, refs: Sequence[int]) -> Set[int]:
    from repro.bdd.traverse import support_many

    return support_many(src, refs)
