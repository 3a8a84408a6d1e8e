"""The BDD manager: node storage, unique table, ITE, derived operators.

A reference (``ref``) is an int ``node_index << 1 | complement``.  Node 0 is
the single terminal node; ``ONE == 0`` (terminal, regular) and ``ZERO == 1``
(terminal, complemented).  To keep the representation canonical the *then*
(high) edge of a stored node is never complemented; ``mk`` re-normalizes and
returns a complemented ref when needed.

Variables are small ints handed out by :meth:`BDD.new_var`.  The manager
keeps a ``var -> level`` permutation so the sifting reorderer can move
variables without touching callers' variable ids.

Kernel memory model (see ``docs/PERFORMANCE.md``):

* The computed table is a **bounded, slot-indexed** :class:`ComputedTable`
  (CUDD-style overwrite-on-collision) rather than an unbounded dict, so
  operator caching can never dominate the heap.
* Dead nodes are reclaimed by **mark-and-sweep** (:meth:`BDD.collect_garbage`)
  from externally registered roots; reclaimed slots go on a free list that
  ``mk`` reuses, keeping the node arrays and the unique table compact.
* The ITE hot path is **iterative** (explicit stack) and therefore
  independent of the interpreter recursion limit.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Dict, FrozenSet, Iterable, List,
                    Optional, Sequence, Tuple, overload)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs -> perf only)
    from repro.obs.trace import Tracer

#: A computed-table key: a small tuple tagged by operation (see the key
#: layouts in ``repro.check.bdd_sanitizer``).  Keys are heterogeneous
#: tuples, so they are typed ``Any`` at the table interface.
CacheKey = Any

#: One computed-table slot: ``(key, result_ref, generation)``.
CacheEntry = Tuple[CacheKey, int, int]

from repro.perf import PerfCounters

#: Sentinel level/var for the terminal node; larger than any real level.
TERMINAL = 1 << 30

#: Sentinel var id for a garbage-collected (tombstoned) node slot.
DEAD = -1

#: The constant TRUE function (terminal node, regular edge).
ONE = 0

#: The constant FALSE function (terminal node, complement edge).
ZERO = 1

#: For each computed-table key tag, the tuple positions holding BDD refs.
#: Tags: 0=ite, 3=vector_compose, 4=exists, 5=restrict, 6=constrain,
#: 7=and_exists (see the respective modules; ``compose`` caches through
#: its ITE only: the cofactor walk memoizes per call).
#: ``repro.check.bdd_sanitizer`` audits cache hygiene against this map.
CACHE_TAG_REF_POSITIONS: Dict[int, Tuple[int, ...]] = {
    0: (1, 2, 3),
    3: (1,),
    4: (1,),
    5: (1, 2),
    6: (1, 2),
    7: (1, 2),
}

#: Cache tags whose *keys* encode the variable order (frozensets of
#: levels): entries under these tags alias different variable sets after a
#: swap and must be purged on reordering.  Every other tag's entry maps a
#: canonical-ref key to a canonical-ref result -- a pure function-level
#: fact that stays true under any order.
ORDER_DEPENDENT_TAGS: FrozenSet[int] = frozenset({4, 7})


class BddBudgetExceeded(RuntimeError):
    """Raised by node construction when the manager's allocation limit
    (:meth:`BDD.set_alloc_limit`) is hit; the manager stays consistent, so
    the caller may raise the limit and retry, or give up."""


class ComputedTable:
    """Bounded, slot-indexed computed table with overwrite-on-collision.

    Each slot holds one ``(key, result, generation)`` entry at index
    ``hash(key) & mask``; a colliding insert simply overwrites (an
    *eviction*).  Results are always canonical refs, so losing an entry can
    never change an operator's result -- only cost a recomputation.

    ``clear()`` is O(1): it bumps the generation stamp, invalidating every
    stored entry lazily.  The table starts small and doubles (dropping its
    contents) whenever sustained insert traffic shows it is undersized, up
    to ``max_slots``.
    """

    __slots__ = ("slots", "mask", "gen", "max_slots", "_resize_at",
                 "hits", "misses", "evictions", "inserts")

    def __init__(self, slots: int = 1 << 8, max_slots: int = 1 << 16) -> None:
        n = 1
        while n < slots:
            n <<= 1
        self.max_slots = max(n, max_slots)
        self.slots: List[Optional[CacheEntry]] = [None] * n
        self.mask = n - 1
        self.gen = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.inserts = 0
        self._resize_at = self.inserts + 2 * n

    def lookup(self, key: CacheKey) -> Optional[int]:
        s = self.slots[hash(key) & self.mask]
        if s is not None and s[0] == key and s[2] == self.gen:
            self.hits += 1
            return s[1]
        self.misses += 1
        return None

    def insert(self, key: CacheKey, value: int) -> None:
        self.inserts += 1
        if self.inserts >= self._resize_at and len(self.slots) < self.max_slots:
            n = len(self.slots) * 2
            self.slots = [None] * n
            self.mask = n - 1
            self._resize_at = self.inserts + 2 * n
        i = hash(key) & self.mask
        s = self.slots[i]
        if s is not None and s[2] == self.gen and s[0] != key:
            self.evictions += 1
        self.slots[i] = (key, value, self.gen)

    def clear(self) -> None:
        self.gen += 1

    def drop_order_dependent(self) -> int:
        """Invalidate only the entries whose keys encode the variable order
        (:data:`ORDER_DEPENDENT_TAGS`); every other entry survives a swap.

        This is the scoped alternative to :meth:`clear` after a standalone
        adjacent swap: O(slots) once instead of discarding the whole memo.
        Returns the number of entries dropped.
        """
        gen = self.gen
        dropped = 0
        slots = self.slots
        for i, s in enumerate(slots):
            if s is None or s[2] != gen:
                continue
            key = s[0]
            if (isinstance(key, tuple) and key
                    and isinstance(key[0], int)
                    and key[0] in ORDER_DEPENDENT_TAGS):
                slots[i] = None
                dropped += 1
        return dropped

    def valid_entries(self) -> int:
        """Occupied, non-stale slots (O(table size); diagnostics only)."""
        gen = self.gen
        return sum(1 for s in self.slots if s is not None and s[2] == gen)


class BDD:
    """A manager for reduced, ordered BDDs with complement edges."""

    def __init__(self, cache_slots: int = 1 << 8,
                 cache_max_slots: int = 1 << 16) -> None:
        # Parallel node arrays.  Node 0 is the terminal.
        self._var: List[int] = [TERMINAL]
        self._lo: List[int] = [ONE]
        self._hi: List[int] = [ONE]
        # Unique table: (var, lo, hi) -> node index.
        self._unique: Dict[Tuple[int, int, int], int] = {}
        # Computed table for ITE and other cached operators.
        self._cache = ComputedTable(cache_slots, cache_max_slots)
        # Variable bookkeeping.
        self._var_names: List[str] = []
        self._name_to_var: Dict[str, int] = {}
        self._var2level: List[int] = []
        self._level2var: List[int] = []
        # Nodes indexed by variable (lists may contain stale entries after
        # in-place reordering; consumers must re-check ``self._var``.  GC
        # purges the stale entries).
        self._nodes_by_var: Dict[int, List[int]] = {}
        # Garbage collection state: tombstoned slots available for reuse,
        # refcounted external roots, and the auto-GC trigger.
        self._free: List[int] = []
        self._roots: Dict[int, int] = {}
        self._gc_min_trigger = 2048
        self._gc_trigger = self._gc_min_trigger
        self.gc_dead_ratio = 0.25
        # Optional cumulative-allocation ceiling (see set_alloc_limit).
        self._alloc_limit: Optional[int] = None
        # Incremental reorder bookkeeping (see docs/PERFORMANCE.md §7).
        # _ref[i]: references into slot i from allocated (non-dead) parent
        # nodes plus registered-root registrations.  _var_counts[v]: number
        # of allocated non-dead nodes labelled v.  Both are maintained in
        # O(touched nodes) by mk/swap and rebuilt wholesale by each sweep,
        # so reordering reads exact per-level sizes without traversing.
        self._ref: List[int] = [0]
        self._var_counts: List[int] = []
        # The pinned roots of the active reorder session, if any.
        self._reorder_session: Optional[List[int]] = None
        self.perf = PerfCounters()
        # Optional repro.obs tracer: when set by a flow, GC sweeps open
        # sub-spans.  None keeps the hot path a single attribute test.
        self.tracer: Optional["Tracer"] = None

    # ------------------------------------------------------------------
    # Variables and ordering
    # ------------------------------------------------------------------

    def new_var(self, name: Optional[str] = None) -> int:
        """Create a fresh variable at the bottom of the order; return its id."""
        var = len(self._var_names)
        if name is None:
            name = "v%d" % var
        if name in self._name_to_var:
            raise ValueError("duplicate variable name: %r" % name)
        self._var_names.append(name)
        self._name_to_var[name] = var
        self._var2level.append(len(self._level2var))
        self._level2var.append(var)
        self._nodes_by_var[var] = []
        self._var_counts.append(0)
        return var

    def add_vars(self, names: Iterable[str]) -> List[int]:
        """Create several named variables; return their ids in order."""
        return [self.new_var(n) for n in names]

    @property
    def num_vars(self) -> int:
        return len(self._var_names)

    def var_name(self, var: int) -> str:
        return self._var_names[var]

    def var_by_name(self, name: str) -> int:
        return self._name_to_var[name]

    def level_of_var(self, var: int) -> int:
        return self._var2level[var]

    def var_at_level(self, level: int) -> int:
        return self._level2var[level]

    def current_order(self) -> List[int]:
        """Variables from top level to bottom level."""
        return list(self._level2var)

    # ------------------------------------------------------------------
    # Structural accessors
    # ------------------------------------------------------------------

    def var_of(self, ref: int) -> int:
        """Variable labelling the top node of ``ref`` (TERMINAL for constants)."""
        return self._var[ref >> 1]

    def level(self, ref: int) -> int:
        """Level of the top node of ``ref`` (TERMINAL for constants)."""
        var = self._var[ref >> 1]
        if var == TERMINAL:
            return TERMINAL
        return self._var2level[var]

    def is_const(self, ref: int) -> bool:
        return ref >> 1 == 0

    def is_var(self, ref: int) -> bool:
        """True if ``ref`` is a plain positive or negative literal."""
        idx = ref >> 1
        if idx == 0:
            return False
        lo, hi = self._lo[idx], self._hi[idx]
        return (lo == ZERO and hi == ONE) or (lo == ONE and hi == ZERO)

    def children(self, ref: int) -> Tuple[int, int]:
        """Phase-corrected (else, then) child refs of ``ref``.

        The returned refs denote the actual cofactor *functions* of ``ref``
        with respect to its top variable, i.e. the complement bit of ``ref``
        is pushed onto the children.  This gives a view of the BDD "without
        complement edges" in which every vertex is a phased ref -- the view
        on which the paper's path/dominator definitions operate.
        """
        idx, phase = ref >> 1, ref & 1
        return self._lo[idx] ^ phase, self._hi[idx] ^ phase

    def node(self, ref: int) -> Tuple[int, int, int]:
        """Raw stored triple (var, lo, hi) of the node under ``ref``."""
        idx = ref >> 1
        return self._var[idx], self._lo[idx], self._hi[idx]

    @property
    def num_nodes_allocated(self) -> int:
        """Length of the node arrays (live + tombstoned dead slots)."""
        return len(self._var)

    @property
    def num_nodes_live(self) -> int:
        """Allocated slots currently holding a live (non-tombstoned) node."""
        return len(self._var) - 1 - len(self._free)

    # ------------------------------------------------------------------
    # Node construction
    # ------------------------------------------------------------------

    def mk(self, var: int, lo: int, hi: int) -> int:
        """Return the canonical ref for ``var ? hi : lo``.

        Applies the reduction rule (``lo == hi``) and the complement-edge
        normalization (stored *then* edges are never complemented).
        """
        if lo == hi:
            return lo
        if hi & 1:
            return self._mk_raw(var, lo ^ 1, hi ^ 1) ^ 1
        return self._mk_raw(var, lo, hi)

    def set_alloc_limit(self, limit: Optional[int]) -> None:
        """Cap cumulative allocations (``perf.nodes_allocated``).

        Once set, any *fresh* node construction past the limit raises
        :class:`BddBudgetExceeded` before touching manager state; lookups
        of existing nodes are unaffected.  This is how callers make a
        single deep operator call interruptible (operators allocate
        bottom-up, so aborting mid-call leaves only canonical nodes
        behind).  ``None`` removes the limit.
        """
        self._alloc_limit = limit

    def _mk_raw(self, var: int, lo: int, hi: int) -> int:
        key = (var, lo, hi)
        idx = self._unique.get(key)
        if idx is None:
            if (self._alloc_limit is not None
                    and self.perf.nodes_allocated >= self._alloc_limit):
                raise BddBudgetExceeded(
                    "allocation limit %d reached" % self._alloc_limit)
            free = self._free
            if free:
                idx = free.pop()
                self._var[idx] = var
                self._lo[idx] = lo
                self._hi[idx] = hi
                self._ref[idx] = 0
                self.perf.nodes_reused += 1
            else:
                idx = len(self._var)
                self._var.append(var)
                self._lo.append(lo)
                self._hi.append(hi)
                self._ref.append(0)
                if idx + 1 > self.perf.peak_allocated_nodes:
                    self.perf.peak_allocated_nodes = idx + 1
            self.perf.nodes_allocated += 1
            self._unique[key] = idx
            self._nodes_by_var[var].append(idx)
            ref_arr = self._ref
            ref_arr[lo >> 1] += 1
            ref_arr[hi >> 1] += 1
            self._var_counts[var] += 1
        return idx << 1

    def var_ref(self, var: int) -> int:
        """The literal function of variable ``var``."""
        return self.mk(var, ZERO, ONE)

    def literal(self, var: int, positive: bool = True) -> int:
        ref = self.var_ref(var)
        return ref if positive else ref ^ 1

    # ------------------------------------------------------------------
    # ITE and derived operators
    # ------------------------------------------------------------------

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f & g | ~f & h`` (iterative, explicit stack)."""
        var_arr = self._var
        lo_arr = self._lo
        hi_arr = self._hi
        var2level = self._var2level
        level2var = self._level2var
        cache = self._cache
        slots, mask, gen = cache.slots, cache.mask, cache.gen
        mk = self.mk
        vals: List[int] = []
        # Frames: (0, f, g, h) computes ite(f, g, h) onto the value stack;
        # (1, var, key, phase) pops (r0, r1), builds the node, caches it.
        # The third element is a ref in compute frames but a cache key in
        # rebuild frames, hence the Any.
        stack: List[Tuple[int, int, Any, int]] = [(0, f, g, h)]
        pop = stack.pop
        push = stack.append
        vpush = vals.append
        while stack:
            tag, f, g, h = pop()
            if tag:
                r1 = vals.pop()
                r0 = vals.pop()
                r = mk(f, r0, r1)
                cache.insert(g, r)
                slots, mask = cache.slots, cache.mask
                vpush(r ^ h)
                continue
            self.perf.ite_calls += 1
            # Terminal cases.
            if f == ONE:
                vpush(g)
                continue
            if f == ZERO:
                vpush(h)
                continue
            if g == h:
                vpush(g)
                continue
            if g == ONE and h == ZERO:
                vpush(f)
                continue
            if g == ZERO and h == ONE:
                vpush(f ^ 1)
                continue
            # Standard normalizations reduce the cache footprint.
            if g == f:
                g = ONE
            elif g == (f ^ 1):
                g = ZERO
            if h == f:
                h = ZERO
            elif h == (f ^ 1):
                h = ONE
            if g == h:
                vpush(g)
                continue
            if g == ONE and h == ZERO:
                vpush(f)
                continue
            if g == ZERO and h == ONE:
                vpush(f ^ 1)
                continue
            # Symmetry: ite(f,1,h) == ite(h,1,f); ite(f,g,0) == ite(g,f,0);
            # prefer the smaller top level first for a canonical cache key.
            vf = var_arr[f >> 1]
            lf = TERMINAL if vf == TERMINAL else var2level[vf]
            if g == ONE:
                vh = var_arr[h >> 1]
                if vh != TERMINAL and var2level[vh] < lf:
                    f, h = h, f
            elif h == ZERO:
                vg = var_arr[g >> 1]
                if vg != TERMINAL and var2level[vg] < lf:
                    f, g = g, f
            elif h == ONE:
                vg = var_arr[g >> 1]
                if vg != TERMINAL and var2level[vg] < lf:
                    f, g = g ^ 1, f ^ 1
            elif g == ZERO:
                vh = var_arr[h >> 1]
                if vh != TERMINAL and var2level[vh] < lf:
                    f, h = h ^ 1, f ^ 1
            # Canonical polarity: first argument regular.
            if f & 1:
                f, g, h = f ^ 1, h, g
            # Output polarity: g regular.
            out_phase = 0
            if g & 1:
                g, h, out_phase = g ^ 1, h ^ 1, 1
            key = (0, f, g, h)
            s = slots[hash(key) & mask]
            if s is not None and s[0] == key and s[2] == gen:
                cache.hits += 1
                vpush(s[1] ^ out_phase)
                continue
            cache.misses += 1
            # Expand around the top variable of the triple.
            vf = var_arr[f >> 1]
            lf = var2level[vf]  # f is non-constant after normalization
            vg = var_arr[g >> 1]
            lg = TERMINAL if vg == TERMINAL else var2level[vg]
            vh = var_arr[h >> 1]
            lh = TERMINAL if vh == TERMINAL else var2level[vh]
            top = lf
            if lg < top:
                top = lg
            if lh < top:
                top = lh
            var = level2var[top]
            if lf == top:
                i, p = f >> 1, f & 1
                f0, f1 = lo_arr[i] ^ p, hi_arr[i] ^ p
            else:
                f0 = f1 = f
            if lg == top:
                i, p = g >> 1, g & 1
                g0, g1 = lo_arr[i] ^ p, hi_arr[i] ^ p
            else:
                g0 = g1 = g
            if lh == top:
                i, p = h >> 1, h & 1
                h0, h1 = lo_arr[i] ^ p, hi_arr[i] ^ p
            else:
                h0 = h1 = h
            push((1, var, key, out_phase))
            push((0, f1, g1, h1))
            push((0, f0, g0, h0))
        return vals[0]

    def not_(self, f: int) -> int:
        return f ^ 1

    def and_(self, f: int, g: int) -> int:
        return self.ite(f, g, ZERO)

    def or_(self, f: int, g: int) -> int:
        return self.ite(f, ONE, g)

    def xor_(self, f: int, g: int) -> int:
        return self.ite(f, g ^ 1, g)

    def xnor_(self, f: int, g: int) -> int:
        return self.ite(f, g, g ^ 1)

    def and_many(self, refs: Sequence[int]) -> int:
        """Conjunction by balanced-tree reduction.

        Pairing operands keeps intermediate BDDs small on wide supports
        (a linear fold conjoins every operand into one growing result).
        """
        ops = list(refs)
        if not ops:
            return ONE
        while len(ops) > 1:
            nxt = []
            for i in range(0, len(ops) - 1, 2):
                r = self.and_(ops[i], ops[i + 1])
                if r == ZERO:
                    return ZERO
                nxt.append(r)
            if len(ops) & 1:
                nxt.append(ops[-1])
            ops = nxt
        return ops[0]

    def or_many(self, refs: Sequence[int]) -> int:
        """Disjunction by balanced-tree reduction (see :meth:`and_many`)."""
        ops = list(refs)
        if not ops:
            return ZERO
        while len(ops) > 1:
            nxt = []
            for i in range(0, len(ops) - 1, 2):
                r = self.or_(ops[i], ops[i + 1])
                if r == ONE:
                    return ONE
                nxt.append(r)
            if len(ops) & 1:
                nxt.append(ops[-1])
            ops = nxt
        return ops[0]

    def xor_many(self, refs: Sequence[int]) -> int:
        """Parity by balanced-tree reduction (see :meth:`and_many`)."""
        ops = list(refs)
        if not ops:
            return ZERO
        while len(ops) > 1:
            nxt = [self.xor_(ops[i], ops[i + 1])
                   for i in range(0, len(ops) - 1, 2)]
            if len(ops) & 1:
                nxt.append(ops[-1])
            ops = nxt
        return ops[0]

    def leq(self, f: int, g: int) -> bool:
        """True iff ``f`` implies ``g`` (ON(f) subset of ON(g))."""
        return self.and_(f, g ^ 1) == ZERO

    # ------------------------------------------------------------------
    # Cofactors, composition, quantification
    # ------------------------------------------------------------------

    def cofactors(self, f: int, var: int) -> Tuple[int, int]:
        """Both Shannon cofactors ``(f|var=0, f|var=1)`` from one walk.

        The walk rebuilds each node above ``var``'s level once, with one
        ``mk`` per cofactor, and stops at the nodes at or below that
        level.  It runs on an explicit stack (no Python frame per BDD
        level) and memoizes per call, not in the computed table.
        """
        lv = self._var2level[var]
        var_arr, lo_arr, hi_arr = self._var, self._lo, self._hi
        var2level = self._var2level
        mk = self.mk
        # Regular node index -> the two cofactors of its regular node.
        memo: Dict[int, Tuple[int, int]] = {}
        stack = [f]
        while stack:
            ref = stack[-1]
            idx = ref >> 1
            if idx in memo:
                stack.pop()
                continue
            v = var_arr[idx]
            if idx == 0 or var2level[v] > lv:
                memo[idx] = (idx << 1, idx << 1)
                stack.pop()
                continue
            lo, hi = lo_arr[idx], hi_arr[idx]
            if v == var:
                memo[idx] = (lo, hi)
                stack.pop()
                continue
            # Stored then-edges are regular, so only lo carries a phase.
            lo_pair = memo.get(lo >> 1)
            if lo_pair is None:
                stack.append(lo)
                continue
            hi_pair = memo.get(hi >> 1)
            if hi_pair is None:
                stack.append(hi)
                continue
            stack.pop()
            p = lo & 1
            memo[idx] = (mk(v, lo_pair[0] ^ p, hi_pair[0]),
                         mk(v, lo_pair[1] ^ p, hi_pair[1]))
        f0, f1 = memo[f >> 1]
        return f0 ^ (f & 1), f1 ^ (f & 1)

    def cofactor(self, f: int, var: int, value: bool) -> int:
        """Shannon cofactor of ``f`` with respect to ``var = value``."""
        f0, f1 = self.cofactors(f, var)
        return f1 if value else f0

    @overload
    def compose(self, f: int, var: int, g: int) -> int: ...

    @overload
    def compose(self, f: int, var: int, g: int,
                bound: Optional[int]) -> Optional[int]: ...

    def compose(self, f: int, var: int, g: int,
                bound: Optional[int] = None) -> Optional[int]:
        """Substitute function ``g`` for variable ``var`` in ``f``.

        ``f[var := g] == ite(g, f|var=1, f|var=0)``: one walk rebuilds
        the nodes above ``var`` into both cofactors, and one ITE merges
        them under ``g``.

        With ``bound`` set, the ITE may allocate at most ``bound`` fresh
        nodes and the call returns None past that.  Every node one ITE
        allocates is reachable from its result, so None means the result
        has more than ``bound`` nodes.  The cofactor walk is not bounded,
        as its nodes need not be in the result.  An allocation limit the
        caller set (:meth:`set_alloc_limit`) stays in force: when it is
        the tighter one, it raises :class:`BddBudgetExceeded` as usual.
        """
        f0, f1 = self.cofactors(f, var)
        outer = self._alloc_limit
        if bound is None or (outer is not None and
                             outer <= self.perf.nodes_allocated + bound):
            return self.ite(g, f1, f0)
        self._alloc_limit = self.perf.nodes_allocated + bound
        try:
            return self.ite(g, f1, f0)
        except BddBudgetExceeded:
            return None
        finally:
            self._alloc_limit = outer

    def vector_compose(self, f: int, subst: Dict[int, int]) -> int:
        """Simultaneously substitute ``subst[var]`` for each variable."""
        if not subst:
            return f
        token = tuple(sorted(subst.items()))
        return self._vector_compose(f, subst, hash(token), token)

    def _vector_compose(self, f: int, subst: Dict[int, int], token_hash: int,
                        token: Tuple[Tuple[int, int], ...]) -> int:
        if self.is_const(f):
            return f
        key = (3, f, token_hash, token)
        cached = self._cache.lookup(key)
        if cached is not None:
            return cached
        fvar = self.var_of(f)
        lo, hi = self.children(f)
        r0 = self._vector_compose(lo, subst, token_hash, token)
        r1 = self._vector_compose(hi, subst, token_hash, token)
        g = subst.get(fvar)
        if g is None:
            g = self.var_ref(fvar)
        r = self.ite(g, r1, r0)
        self._cache.insert(key, r)
        return r

    def exists(self, f: int, variables: Iterable[int]) -> int:
        """Existential quantification over ``variables``."""
        levels = frozenset(self._var2level[v] for v in variables)
        if not levels:
            return f
        return self._exists(f, levels, max(levels))

    def _exists(self, f: int, levels: FrozenSet[int], max_level: int) -> int:
        lf = self.level(f)
        if lf > max_level:
            return f
        key = (4, f, levels)
        cached = self._cache.lookup(key)
        if cached is not None:
            return cached
        lo, hi = self.children(f)
        r0 = self._exists(lo, levels, max_level)
        r1 = self._exists(hi, levels, max_level)
        if lf in levels:
            r = self.or_(r0, r1)
        else:
            r = self.mk(self.var_of(f), r0, r1)
        self._cache.insert(key, r)
        return r

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------

    def register_root(self, ref: int) -> int:
        """Protect ``ref`` (and everything it reaches) from GC; returns it."""
        self._roots[ref] = self._roots.get(ref, 0) + 1
        self._ref[ref >> 1] += 1
        return ref

    def deregister_root(self, ref: int) -> None:
        """Drop one protection of ``ref`` (refcounted)."""
        count = self._roots.get(ref, 0)
        if count <= 0:
            return
        if count == 1:
            self._roots.pop(ref, None)
        else:
            self._roots[ref] = count - 1
        self._ref[ref >> 1] -= 1

    def registered_roots(self) -> List[int]:
        return list(self._roots)

    def collect_garbage(self, extra_roots: Sequence[int] = ()) -> int:
        """Mark-and-sweep: tombstone every node unreachable from the
        registered roots plus ``extra_roots``.

        Reclaimed slots land on the free list for ``mk`` to reuse; their
        unique-table entries are removed and ``_nodes_by_var`` is purged of
        stale indices.  The computed table is invalidated (it may reference
        dead refs).  All refs other than those reachable from the root set
        become invalid.  Returns the number of nodes reclaimed.
        """
        if self.tracer is not None:
            with self.tracer.span("bdd.gc",
                                  live_before=self.num_nodes_live):
                return self._collect_garbage_impl(extra_roots)
        return self._collect_garbage_impl(extra_roots)

    def _collect_garbage_impl(self, extra_roots: Sequence[int] = ()) -> int:
        var_arr, lo_arr, hi_arr = self._var, self._lo, self._hi
        n = len(var_arr)
        live = bytearray(n)
        live[0] = 1
        stack = [r >> 1 for r in self._roots]
        stack.extend(r >> 1 for r in extra_roots)
        while stack:
            idx = stack.pop()
            if live[idx]:
                continue
            live[idx] = 1
            stack.append(lo_arr[idx] >> 1)
            stack.append(hi_arr[idx] >> 1)
        unique = self._unique
        free: List[int] = []
        purged = 0
        for idx in range(1, n):
            var = var_arr[idx]
            if var == DEAD:
                free.append(idx)
                continue
            if live[idx]:
                continue
            key = (var, lo_arr[idx], hi_arr[idx])
            if unique.get(key) == idx:
                del unique[key]
            var_arr[idx] = DEAD
            free.append(idx)
            purged += 1
        # Shrink the node arrays past a dead tail so long-lived managers
        # do not keep peak-sized arrays forever.
        while n > 1 and var_arr[n - 1] == DEAD:
            n -= 1
        if n < len(var_arr):
            del var_arr[n:]
            del lo_arr[n:]
            del hi_arr[n:]
            while free and free[-1] >= n:
                free.pop()
        self._free = free
        # Purge stale/dead indices (including any trimmed off the tail) so
        # reorder passes stop iterating over garbage.
        for var, nodes in self._nodes_by_var.items():
            self._nodes_by_var[var] = [
                i for i in nodes if i < n and var_arr[i] == var]
        # Rebuild the incremental reorder bookkeeping wholesale: after a
        # sweep every allocated non-dead node is reachable, so one O(n)
        # pass restores exact per-var counts and reference counts.
        counts = [0] * len(self._var_names)
        ref_arr = [0] * n
        for idx in range(1, n):
            var = var_arr[idx]
            if var == DEAD:
                continue
            counts[var] += 1
            ref_arr[lo_arr[idx] >> 1] += 1
            ref_arr[hi_arr[idx] >> 1] += 1
        for root, rcount in self._roots.items():
            ref_arr[root >> 1] += rcount
        self._var_counts = counts
        self._ref = ref_arr
        self._cache.clear()
        live_count = n - 1 - len(free)
        perf = self.perf
        perf.gc_sweeps += 1
        perf.gc_reclaimed += purged
        perf.observe_live(live_count + purged)  # live just before the sweep
        self._gc_trigger = max(self._gc_min_trigger, 2 * live_count)
        return purged

    def maybe_collect(self, extra_roots: Sequence[int] = ()) -> int:
        """Auto-GC trigger: sweep when the manager has grown past the
        adaptive threshold *and* the dead-node ratio makes it worthwhile.

        Callers must pass every ref they still need (beyond registered
        roots) -- only call this at points where the full root set is known.
        Returns the number of nodes reclaimed (0 when no sweep ran).
        """
        active = self.num_nodes_live
        if active < self._gc_trigger:
            return 0
        purged = self.collect_garbage(extra_roots)
        if active and purged / active < self.gc_dead_ratio:
            # Mostly-live manager: back off, don't thrash on marking.
            self._gc_trigger = max(self._gc_trigger, 2 * (active - purged))
        return purged

    # ------------------------------------------------------------------
    # Incremental reordering support (see repro.bdd.reorder)
    # ------------------------------------------------------------------

    @property
    def reordering(self) -> bool:
        """True while a reorder session (a sift pass) is active."""
        return self._reorder_session is not None

    def begin_reorder(self, roots: Sequence[int]) -> int:
        """Open a reorder session: collect garbage so that every allocated
        node is reachable from ``roots`` plus the registered roots, and pin
        ``roots``.

        Inside a session ``swap_adjacent`` reclaims nodes the moment their
        reference count drops to zero, which keeps ``num_nodes_live`` and
        the per-level counters exact after every swap -- no traversals.
        Returns the live node count.  Sessions do not nest.
        """
        if self._reorder_session is not None:
            raise RuntimeError("reorder session already active")
        self.collect_garbage(extra_roots=roots)
        pinned = list(roots)
        for r in pinned:
            self.register_root(r)
        self._reorder_session = pinned
        return self.num_nodes_live

    def end_reorder(self) -> None:
        """Close the reorder session opened by :meth:`begin_reorder`.

        The computed table needs no per-swap invalidation: the session's
        opening sweep already version-tagged every entry stale, and no
        operator may run (hence cache) while a session is active.
        """
        pinned = self._reorder_session
        if pinned is None:
            raise RuntimeError("no reorder session active")
        for r in pinned:
            self.deregister_root(r)
        self._reorder_session = None

    # ------------------------------------------------------------------
    # Cache management and perf reporting
    # ------------------------------------------------------------------

    def clear_cache(self) -> None:
        """Drop the computed table (unique table is kept)."""
        self._cache.clear()

    def perf_snapshot(self) -> Dict[str, float]:
        """Kernel-health counters as a flat dict (see ``repro.perf``)."""
        perf = self.perf
        cache = self._cache
        perf.observe_live(self.num_nodes_live)
        perf.observe_allocated(len(self._var))
        lookups = cache.hits + cache.misses
        return {
            "ite_calls": perf.ite_calls,
            "nodes_allocated": perf.nodes_allocated,
            "nodes_reused": perf.nodes_reused,
            "gc_sweeps": perf.gc_sweeps,
            "gc_reclaimed": perf.gc_reclaimed,
            "peak_live_nodes": perf.peak_live_nodes,
            "peak_allocated_nodes": perf.peak_allocated_nodes,
            "checks_run": perf.checks_run,
            "check_violations": perf.check_violations,
            "reorder_swaps": perf.reorder_swaps,
            "reorder_passes": perf.reorder_passes,
            "reorder_size_before": perf.reorder_size_before,
            "reorder_size_after": perf.reorder_size_after,
            "live_traversals": perf.live_traversals,
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
            "cache_evictions": cache.evictions,
            "cache_inserts": cache.inserts,
            "cache_slots": len(cache.slots),
            "cache_hit_rate": (cache.hits / lookups) if lookups else 0.0,
            "unique_live_ratio": (
                self.num_nodes_live / len(self._var) if len(self._var) else 0.0),
        }
