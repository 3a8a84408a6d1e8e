"""Variable reordering: incremental Rudell sifting plus cheap heuristics.

The BDS flow reorders every local BDD before decomposition ("a BDD is first
subjected to a variable reordering [30] ... a means to achieve an initial
logic simplification", Section IV-C).  We implement:

* :func:`swap_adjacent` -- the in-place adjacent-level swap primitive.
  External refs stay valid because affected nodes are mutated in place;
  the proofs that no redundant or duplicate node can arise during a swap
  are in DESIGN.md Section 6 commentary (standard Rudell argument adapted
  to complement edges: new *then* children are always regular).
* :func:`sift` -- full sifting over live size measured from a root set.
* :func:`window3` -- exhaustive window-permutation reordering.
* :func:`force_order` -- the FORCE (hypergraph barycenter) heuristic for a
  good *initial* order of a multi-rooted collection, used when building
  local BDDs for a partitioned network.
* :func:`random_order` -- for tests.

Sifting and window passes run inside a manager *reorder session*
(:meth:`repro.bdd.manager.BDD.begin_reorder`): an opening mark-and-sweep
makes every allocated node reachable from the root set, after which the
manager's incrementally maintained reference counts and per-variable node
counters keep the live size exact after every swap -- the inner loops
never re-traverse from the roots (``perf.live_traversals`` pins this in
tests).  On top of the O(1) size reads, sifting uses the session's
variable *interaction matrix* to replace swaps between independent
variables with O(1) level-map transpositions, and a *lower-bound prune*
to abandon a variable's sweep once the incremental size proves the sweep
cannot beat the best position found so far (see docs/PERFORMANCE.md §7).
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence

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


def _swap_levels_only(mgr: BDD, level: int) -> None:
    """O(1) transposition of two adjacent levels whose variables do not
    interact: no node at the upper level can reach the lower variable, so
    swapping is a pure permutation-map update."""
    x = mgr._level2var[level]
    y = mgr._level2var[level + 1]
    mgr._level2var[level], mgr._level2var[level + 1] = y, x
    mgr._var2level[x], mgr._var2level[y] = level + 1, level
    mgr.perf.reorder_swaps_skipped += 1


def _session_swap(mgr: BDD, level: int) -> None:
    """Swap two adjacent levels inside a session, skipping the node work
    when the interaction matrix proves the variables independent."""
    if mgr.vars_interact(mgr._level2var[level], mgr._level2var[level + 1]):
        swap_adjacent(mgr, level)
    else:
        _swap_levels_only(mgr, level)


def move_var_to_level(mgr: BDD, var: int, target: int,
                      roots: Optional[Sequence[int]] = None) -> None:
    """Move one variable to ``target`` level via adjacent swaps.

    Inside an active reorder session (or when ``roots`` is given, in a
    private one) the per-swap bookkeeping is fully incremental: dead
    nodes are reclaimed as swaps orphan them and non-interacting swaps
    collapse to O(1) transpositions.  With neither a session nor
    ``roots`` the swaps run standalone and reclaim nothing (any held ref
    stays valid).
    """
    if mgr.reordering:
        _move_in_session(mgr, var, target)
    elif roots is not None:
        mgr.begin_reorder(roots)
        try:
            _move_in_session(mgr, var, target)
        finally:
            mgr.end_reorder()
    else:
        cur = mgr._var2level[var]
        while cur < target:
            swap_adjacent(mgr, cur)
            cur += 1
        while cur > target:
            swap_adjacent(mgr, cur - 1)
            cur -= 1


def _move_in_session(mgr: BDD, var: int, target: int) -> None:
    cur = mgr._var2level[var]
    while cur < target:
        _session_swap(mgr, cur)
        cur += 1
    while cur > target:
        _session_swap(mgr, cur - 1)
        cur -= 1


def collect_garbage(mgr: BDD, roots: Sequence[int]) -> int:
    """Purge every node unreachable from ``roots`` (plus any roots
    registered on the manager): delegate to the manager's mark-and-sweep
    collector, which tombstones dead slots onto the free list, compacts the
    unique table and purges ``_nodes_by_var`` of stale indices.

    Returns the number of nodes purged.  All refs other than those
    reachable from the root set become invalid.
    """
    return mgr.collect_garbage(extra_roots=roots)


def _interacting_span(mgr: BDD, imask: int, levels: Iterable[int]) -> int:
    """Total live nodes at ``levels`` whose variables interact with the
    sifted variable (interaction bitmask ``imask``; -1 means "all") --
    the only nodes a continued sweep of that variable can remove."""
    counts = mgr._var_counts
    l2v = mgr._level2var
    total = 0
    for lvl in levels:
        w = l2v[lvl]
        if (imask >> w) & 1:
            total += counts[w]
    return total


def sift(mgr: BDD, roots: Sequence[int], max_vars: int = 0,
         max_growth: float = 1.5, size_limit: int = 200000,
         interactions: bool = True, prune: bool = True) -> int:
    """Rudell sifting: move each variable to its locally best level.

    ``roots`` defines liveness; size is the shared live node count of the
    root set (plus any registered roots, which stay protected).  Returns
    the final live size.  ``max_vars`` limits sifting to the N variables
    with most nodes (0 = all).

    All refs not reachable from ``roots`` (or registered roots) are
    invalidated by the session's opening sweep.  ``interactions`` and
    ``prune`` exist for differential testing: disabling them changes the
    work done, never the resulting order or size.

    Every live variable labels at least one live node, so the size can
    never drop below the number of live variables.  With ``prune``,
    sifting stops once it gets there: a variable moves only on a strict
    improvement, so every later variable would return to its start
    level.  When every variable labels exactly one allocated node the
    call returns the allocated size before opening the session: without
    the sweep, nodes the roots do not reach stay allocated.
    """
    t0 = time.perf_counter()
    perf = mgr.perf
    perf.reorder_passes += 1
    if prune and all(count == 1 for count in mgr._var_counts):
        size = mgr.num_nodes_live
        perf.reorder_size_before += size
        perf.reorder_size_after += size
        return size
    size = mgr.begin_reorder(roots, interactions=interactions)
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
        if max_vars:
            candidates = candidates[:max_vars]
        nlevels = mgr.num_vars
        masks = mgr._reorder_session[1] if mgr._reorder_session else None
        l2v = mgr._level2var
        v2l = mgr._var2level
        var_arr = mgr._var
        free = mgr._free
        for var in candidates:
            if size == floor:
                break
            if counts[var] == 0:
                continue
            # -1 is the all-ones mask: without an interaction matrix every
            # pair of variables is treated as interacting.
            imask = masks[var] if masks is not None else -1
            start = v2l[var]
            best_level, best_size = start, size
            limit = int(best_size * max_growth) + 2
            cur = start
            # Sift toward the bottom first, then sweep to the top.  The
            # lower bound: levels above `cur` are frozen for the rest of
            # this direction, non-interacting levels below never change,
            # so no future position can size below
            #   size - counts[var] - (interacting nodes ahead) + 1.
            ahead = _interacting_span(mgr, imask, range(cur + 1, nlevels))
            while cur < nlevels - 1:
                if prune and size - counts[var] - ahead + 1 >= best_size:
                    break
                w = l2v[cur + 1]
                if (imask >> w) & 1:
                    ahead -= counts[w]
                    swap_adjacent(mgr, cur)
                    size = len(var_arr) - 1 - len(free)
                else:
                    l2v[cur], l2v[cur + 1] = w, var
                    v2l[var], v2l[w] = cur + 1, cur
                    perf.reorder_swaps_skipped += 1
                cur += 1
                if size < best_size:
                    best_size, best_level = size, cur
                if size > peak:
                    peak = size
                if size > limit:
                    break
            ahead = _interacting_span(mgr, imask, range(cur))
            while cur > 0:
                if prune and size - counts[var] - ahead + 1 >= best_size:
                    break
                w = l2v[cur - 1]
                if (imask >> w) & 1:
                    ahead -= counts[w]
                    swap_adjacent(mgr, cur - 1)
                    size = len(var_arr) - 1 - len(free)
                else:
                    l2v[cur - 1], l2v[cur] = var, w
                    v2l[var], v2l[w] = cur - 1, cur
                    perf.reorder_swaps_skipped += 1
                cur -= 1
                if size < best_size:
                    best_size, best_level = size, cur
                if size > peak:
                    peak = size
                if size > limit and cur < start:
                    break
            _move_in_session(mgr, var, best_level)
            size = len(var_arr) - 1 - len(free)
        return size
    finally:
        perf.observe_live(peak)
        perf.reorder_size_after += mgr.num_nodes_live
        perf.reorder_time_s += time.perf_counter() - t0
        mgr.end_reorder()


def window3(mgr: BDD, roots: Sequence[int], passes: int = 2) -> int:
    """Window-permutation reordering: exhaustively permute every window of
    three adjacent levels, keeping the best live size.  Cheaper than full
    sifting and often a good finisher after it.  Returns the final size.

    Like :func:`sift`, refs not reachable from ``roots`` are invalidated.
    """
    # The six permutations of (0,1,2) as adjacent-swap programs relative
    # to the current window state; each entry appends one swap (by window
    # offset) forming the cyclic Steinhaus sequence 012 -> 102 -> 120 ->
    # 210 -> 201 -> 021 -> (012).
    program = [0, 1, 0, 1, 0]
    t0 = time.perf_counter()
    perf = mgr.perf
    size = mgr.begin_reorder(roots)
    perf.reorder_passes += 1
    perf.reorder_size_before += size
    try:
        for _ in range(passes):
            improved = False
            for base in range(mgr.num_vars - 2):
                best_size = mgr.num_nodes_live
                best_state = 0
                for state, offset in enumerate(program, start=1):
                    _session_swap(mgr, base + offset)
                    s = mgr.num_nodes_live
                    if s < best_size:
                        best_size, best_state = s, state
                # One more swap returns to the original permutation
                # (state 0); then replay to the best state.
                _session_swap(mgr, base + 1)
                for offset in program[:best_state]:
                    _session_swap(mgr, base + offset)
                if best_size < size:
                    size = best_size
                    improved = True
            if not improved:
                break
        return mgr.num_nodes_live
    finally:
        perf.reorder_size_after += mgr.num_nodes_live
        perf.reorder_time_s += time.perf_counter() - t0
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


#: Reorder methods :meth:`repro.bdd.manager.BDD.enable_autoreorder` can
#: fire at growth safe points.  Each takes (manager, roots) where roots
#: are the in-flight refs the triggering safe point declared (registered
#: roots are always protected in addition).
AUTOREORDER_METHODS: Dict[str, Callable[[BDD, List[int]], int]] = {
    "sift": lambda mgr, roots: sift(mgr, roots),
    "window3": lambda mgr, roots: window3(mgr, roots, passes=1),
}


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
