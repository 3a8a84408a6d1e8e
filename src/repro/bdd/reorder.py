"""Variable reordering: incremental Rudell sifting.

The BDS flow reorders every local BDD before decomposition ("a BDD is first
subjected to a variable reordering [30] ... a means to achieve an initial
logic simplification", Section IV-C).  We implement:

* :func:`swap_adjacent` -- the in-place adjacent-level swap primitive.
  External refs stay valid because affected nodes are mutated in place;
  the proofs that no redundant or duplicate node can arise during a swap
  are in DESIGN.md Section 6 commentary (standard Rudell argument adapted
  to complement edges: new *then* children are always regular).
* :func:`sift` -- full sifting over live size measured from a root set.
* :func:`force_order` -- the FORCE (hypergraph barycenter) heuristic for a
  good *initial* order of a multi-rooted collection, used when building
  local BDDs for a partitioned network.
* :func:`random_order` -- for tests.

Sifting runs inside a manager *reorder session*
(:meth:`repro.bdd.manager.BDD.begin_reorder`): an opening mark-and-sweep
makes every allocated node reachable from the root set, after which the
manager's incrementally maintained reference counts and per-variable node
counters keep the live size exact after every swap -- the inner loops
never re-traverse from the roots (``perf.live_traversals`` pins this in
tests).  On top of the O(1) size reads, sifting uses a *lower-bound prune*
to abandon a variable's sweep once the incremental size proves the sweep
cannot beat the best position found so far (see docs/PERFORMANCE.md §7).
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence

from repro.bdd.manager import BDD, DEAD


def swap_adjacent(mgr: BDD, level: int) -> None:
    """Swap the variables at ``level`` and ``level + 1`` in place.

    Every external ref keeps denoting the same Boolean function.  The
    manager's per-variable node counters and reference counts are updated
    in O(touched nodes).  Inside a reorder session nodes whose reference
    count drops to zero are reclaimed immediately (their slots go back on
    the free list), so the session's live-size reads stay exact; outside
    a session nothing is reclaimed (callers may hold unregistered refs)
    and only the order-dependent computed-table entries are invalidated.
    """
    x = mgr._level2var[level]
    y = mgr._level2var[level + 1]
    in_session = mgr._reorder_session is not None
    counts = mgr._var_counts
    perf = mgr.perf
    perf.reorder_swaps += 1
    if counts[x] and counts[y]:
        # One pass over the x bucket does both jobs: compact away stale
        # indices (nodes relabelled by earlier swaps) and rewrite the
        # y-dependent nodes.  Fresh x-children allocated mid-loop land on
        # the same bucket and are visited -- their children lie strictly
        # below y, so the dependence test skips them into ``keep``.
        var_arr, lo_arr, hi_arr = mgr._var, mgr._lo, mgr._hi
        ref_arr = mgr._ref
        unique = mgr._unique
        unique_get = unique.get
        free = mgr._free
        bucket = mgr._nodes_by_var[x]
        y_bucket = mgr._nodes_by_var[y]
        keep: List[int] = []
        keep_push = keep.append
        # Zero-reference nodes are collected here and reclaimed after the
        # rewrite loop: a node with no references left cannot be reached
        # by any still-unprocessed x-node, and its unique-table key (all
        # children below the old y level) can never collide with a
        # relabelled node's new key (which always has an x child).
        dead: List[int] = []
        i = 0
        while i < len(bucket):
            n = bucket[i]
            i += 1
            if var_arr[n] != x:
                continue
            f0 = lo_arr[n]
            f1 = hi_arr[n]
            i0 = f0 >> 1
            i1 = f1 >> 1
            dep0 = var_arr[i0] == y
            dep1 = var_arr[i1] == y
            if not (dep0 or dep1):
                keep_push(n)
                continue
            if dep0:
                p = f0 & 1
                f00 = lo_arr[i0] ^ p
                f01 = hi_arr[i0] ^ p
            else:
                f00 = f01 = f0
            if dep1:
                # Stored then-edges are never complemented: f1 is regular.
                f10 = lo_arr[i1]
                f11 = hi_arr[i1]
            else:
                f10 = f11 = f1
            # new_lo = mk(x, f00, f10), allocation inlined for the hot loop.
            if f00 == f10:
                new_lo = f00
            else:
                flip = f10 & 1
                if flip:
                    key = (x, f00 ^ 1, f10 ^ 1)
                else:
                    key = (x, f00, f10)
                j = unique_get(key)
                if j is None:
                    if free:
                        j = free.pop()
                        var_arr[j] = x
                        lo_arr[j] = key[1]
                        hi_arr[j] = key[2]
                        ref_arr[j] = 0
                        perf.nodes_reused += 1
                    else:
                        j = len(var_arr)
                        var_arr.append(x)
                        lo_arr.append(key[1])
                        hi_arr.append(key[2])
                        ref_arr.append(0)
                        if j + 1 > perf.peak_allocated_nodes:
                            perf.peak_allocated_nodes = j + 1
                    perf.nodes_allocated += 1
                    unique[key] = j
                    bucket.append(j)
                    ref_arr[key[1] >> 1] += 1
                    ref_arr[key[2] >> 1] += 1
                    counts[x] += 1
                new_lo = (j << 1) | flip
            # new_hi = mk(x, f01, f11): f11 is regular in both branches, so
            # no complement normalization is ever needed here.
            if f01 == f11:
                new_hi = f01
            else:
                key = (x, f01, f11)
                j = unique_get(key)
                if j is None:
                    if free:
                        j = free.pop()
                        var_arr[j] = x
                        lo_arr[j] = f01
                        hi_arr[j] = f11
                        ref_arr[j] = 0
                        perf.nodes_reused += 1
                    else:
                        j = len(var_arr)
                        var_arr.append(x)
                        lo_arr.append(f01)
                        hi_arr.append(f11)
                        ref_arr.append(0)
                        if j + 1 > perf.peak_allocated_nodes:
                            perf.peak_allocated_nodes = j + 1
                    perf.nodes_allocated += 1
                    unique[key] = j
                    bucket.append(j)
                    ref_arr[f01 >> 1] += 1
                    ref_arr[f11 >> 1] += 1
                    counts[x] += 1
                new_hi = j << 1
            # By the swap invariants new_hi is regular and (y, new_lo,
            # new_hi) collides with no existing node; mutate n in place.
            del unique[(x, f0, f1)]
            var_arr[n] = y
            lo_arr[n] = new_lo
            hi_arr[n] = new_hi
            unique[(y, new_lo, new_hi)] = n
            y_bucket.append(n)
            counts[x] -= 1
            counts[y] += 1
            # n's outgoing references moved from (f0, f1) to (new_lo, new_hi).
            ref_arr[new_lo >> 1] += 1
            ref_arr[new_hi >> 1] += 1
            ref_arr[i0] -= 1
            ref_arr[i1] -= 1
            if in_session:
                if i0 and not ref_arr[i0]:
                    dead.append(i0)
                if i1 and i1 != i0 and not ref_arr[i1]:
                    dead.append(i1)
        mgr._nodes_by_var[x] = keep
        if dead:
            # Eager in-session reclamation (with cascade): every allocated
            # node is reachable from the pinned roots, so zero references
            # really means unreachable.  Slots go back on the free list.
            while dead:
                idx = dead.pop()
                v = var_arr[idx]
                del unique[(v, lo_arr[idx], hi_arr[idx])]
                var_arr[idx] = DEAD
                counts[v] -= 1
                free.append(idx)
                c0 = lo_arr[idx] >> 1
                c1 = hi_arr[idx] >> 1
                ref_arr[c0] -= 1
                ref_arr[c1] -= 1
                if c0 and not ref_arr[c0]:
                    dead.append(c0)
                if c1 and c1 != c0 and not ref_arr[c1]:
                    dead.append(c1)
    # Nodes that kept var x remain valid; stale entries in _nodes_by_var
    # are filtered lazily.  Finally swap the level maps.
    mgr._level2var[level], mgr._level2var[level + 1] = y, x
    mgr._var2level[x], mgr._var2level[y] = level + 1, level
    if not in_session:
        # Cached operator results still denote the same functions (keys
        # and results are canonical refs, which swaps preserve); only
        # entries whose keys encode the order itself (level sets) go
        # stale.  Scoped invalidation drops exactly those.  In-session
        # swaps skip even this: the session's opening sweep already
        # invalidated the table and no operator runs mid-session.
        mgr._cache.drop_order_dependent()


def move_var_to_level(mgr: BDD, var: int, target: int,
                      roots: Optional[Sequence[int]] = None) -> None:
    """Move one variable to ``target`` level via adjacent swaps.

    Inside an active reorder session (or when ``roots`` is given, in a
    private one) the per-swap bookkeeping is fully incremental: dead
    nodes are reclaimed as swaps orphan them.  With neither a session
    nor ``roots`` the swaps run standalone and reclaim nothing (any held
    ref stays valid).
    """
    if roots is not None and not mgr.reordering:
        mgr.begin_reorder(roots)
        try:
            move_var_to_level(mgr, var, target)
        finally:
            mgr.end_reorder()
        return
    cur = mgr._var2level[var]
    while cur < target:
        swap_adjacent(mgr, cur)
        cur += 1
    while cur > target:
        swap_adjacent(mgr, cur - 1)
        cur -= 1


#: Sifting stops moving a variable away from its start level once the
#: live size passes this factor of the size the variable's sift began at.
MAX_GROWTH = 1.5


def sift(mgr: BDD, roots: Sequence[int], size_limit: int = 200000,
         prune: bool = True) -> int:
    """Rudell sifting: move each variable to its locally best level.

    ``roots`` defines liveness; size is the shared live node count of the
    root set (plus any registered roots, which stay protected).  Returns
    the final live size.  No variable moves when the live size at the
    start exceeds ``size_limit``.

    All refs not reachable from ``roots`` (or registered roots) are
    invalidated by the session's opening sweep.  ``prune`` exists for
    differential testing: disabling it changes the work done, never the
    resulting order or size.

    Every live variable labels at least one live node, so the size can
    never drop below the number of live variables.  With ``prune``,
    sifting stops once it gets there: a variable moves only on a strict
    improvement, so every later variable would return to its start
    level.  When every variable labels exactly one allocated node the
    call returns the allocated size before opening the session: without
    the sweep, nodes the roots do not reach stay allocated.
    """
    perf = mgr.perf
    perf.reorder_passes += 1
    if prune and all(count == 1 for count in mgr._var_counts):
        size = mgr.num_nodes_live
        perf.reorder_size_before += size
        perf.reorder_size_after += size
        return size
    size = mgr.begin_reorder(roots)
    perf.reorder_size_before += size
    peak = size
    try:
        if size > size_limit:
            return size
        counts = mgr._var_counts
        candidates = [v for v in range(mgr.num_vars) if counts[v] > 0]
        # The size can never drop below the number of live variables.
        floor = len(candidates) if prune else 0
        candidates.sort(key=lambda v: -counts[v])
        nlevels = mgr.num_vars
        l2v = mgr._level2var
        v2l = mgr._var2level
        var_arr = mgr._var
        free = mgr._free
        for var in candidates:
            if size == floor:
                break
            if counts[var] == 0:
                continue
            start = v2l[var]
            best_level, best_size = start, size
            limit = int(best_size * MAX_GROWTH) + 2
            cur = start
            # Sift toward the bottom first, then sweep to the top.  The
            # lower bound: levels behind `cur` are frozen for the rest of
            # this direction and `var` keeps at least one node, so no
            # future position can size below
            #   size - counts[var] - (nodes at the levels ahead) + 1.
            ahead = sum(counts[l2v[lvl]] for lvl in range(cur + 1, nlevels))
            while cur < nlevels - 1:
                if prune and size - counts[var] - ahead + 1 >= best_size:
                    break
                ahead -= counts[l2v[cur + 1]]
                swap_adjacent(mgr, cur)
                size = len(var_arr) - 1 - len(free)
                cur += 1
                if size < best_size:
                    best_size, best_level = size, cur
                if size > peak:
                    peak = size
                if size > limit:
                    break
            ahead = sum(counts[l2v[lvl]] for lvl in range(cur))
            while cur > 0:
                if prune and size - counts[var] - ahead + 1 >= best_size:
                    break
                ahead -= counts[l2v[cur - 1]]
                swap_adjacent(mgr, cur - 1)
                size = len(var_arr) - 1 - len(free)
                cur -= 1
                if size < best_size:
                    best_size, best_level = size, cur
                if size > peak:
                    peak = size
                if size > limit and cur < start:
                    break
            move_var_to_level(mgr, var, best_level)
            size = len(var_arr) - 1 - len(free)
        return size
    finally:
        perf.observe_live(peak)
        perf.reorder_size_after += mgr.num_nodes_live
        mgr.end_reorder()


def random_order(mgr: BDD, rng: random.Random) -> None:
    """Shuffle the variable order in place (testing utility).

    After the call, the variable previously at level ``levels[i]`` of the
    shuffle sits at level ``i``.  Placement is selection-sort style: when
    var ``i`` is placed, vars ``0..i-1`` already occupy the top ``i``
    levels, so the upward move never disturbs placed variables (covered
    by the round-trip property test in test_bdd_reorder_incremental).
    """
    levels = list(range(mgr.num_vars))
    rng.shuffle(levels)
    for target, var in enumerate([mgr._level2var[l] for l in levels]):
        move_var_to_level(mgr, var, target)


def force_order(var_groups: Iterable[Sequence[int]], num_vars: int,
                iterations: int = 20) -> List[int]:
    """FORCE ordering heuristic over a hypergraph of variable groups.

    ``var_groups`` are hyperedges (e.g. the supports of each output or each
    network node).  Returns a variable order (list of var ids, top first)
    that tends to keep tightly connected variables adjacent -- a cheap,
    effective initial order for multi-rooted BDD construction.

    An iteration reads only the previous ranking, so once one repeats the
    ranking before it every later one would too: the loop stops there,
    with the order ``iterations`` rounds would give.
    """
    groups = [list(g) for g in var_groups if g]
    ranked = list(range(num_vars))
    position = {v: float(i) for i, v in enumerate(ranked)}
    for _ in range(iterations):
        centers: List[float] = []
        for g in groups:
            centers.append(sum(position[v] for v in g) / len(g))
        pull: Dict[int, List[float]] = {}
        for g, c in zip(groups, centers):
            for v in g:
                pull.setdefault(v, []).append(c)
        new_pos: Dict[int, float] = {}
        for v in range(num_vars):
            if v in pull:
                new_pos[v] = sum(pull[v]) / len(pull[v])
            else:
                new_pos[v] = position[v]
        previous = ranked
        ranked = sorted(range(num_vars), key=lambda v: new_pos[v])
        if ranked == previous:
            break
        position = {v: float(i) for i, v in enumerate(ranked)}
    return ranked
