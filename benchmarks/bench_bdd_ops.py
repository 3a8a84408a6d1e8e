"""Microbenchmarks of the BDD substrate.

Not a paper table -- these keep the performance of the primitives that
every experiment depends on (ITE throughput, sifting, transfer, ISOP)
visible in the benchmark report, so regressions in the substrate are
caught next to the system-level numbers.  ``test_reorder_microbench``
additionally emits ``benchmarks/results/BENCH_reorder.json``:
the reordering engine's CPU numbers on the Table I circuits, with the
pre-incremental-engine baseline recorded for before/after evidence.
"""

import random
import time

from common import write_bench_json

from repro.bdd import BDD, transfer_many
from repro.bdd.isop import isop
from repro.bdd.reorder import sift
from repro.bdd.traverse import live_node_count, node_count


def _build_alu_like(mgr, n=10, seed=17):
    rng = random.Random(seed)
    vs = [mgr.new_var() for _ in range(n)]
    refs = [mgr.var_ref(v) for v in vs]
    for _ in range(120):
        f, g = rng.choice(refs), rng.choice(refs)
        if rng.random() < 0.3:
            f ^= 1
        refs.append(getattr(mgr, rng.choice(["and_", "or_", "xor_"]))(f, g))
    return vs, refs[-1]


def test_ite_throughput(benchmark):
    def run():
        mgr = BDD()
        _, f = _build_alu_like(mgr)
        return mgr.num_nodes_allocated

    nodes = benchmark(run)
    assert nodes > 100


def test_adder_bdd_construction(benchmark):
    def run():
        mgr = BDD()
        bits = 12
        a = [mgr.new_var("a%d" % i) for i in range(bits)]
        b = [mgr.new_var("b%d" % i) for i in range(bits)]
        carry = None
        outs = []
        for i in range(bits):
            ra, rb = mgr.var_ref(a[i]), mgr.var_ref(b[i])
            if carry is None:
                outs.append(mgr.xor_(ra, rb))
                carry = mgr.and_(ra, rb)
            else:
                t = mgr.xor_(ra, rb)
                outs.append(mgr.xor_(t, carry))
                carry = mgr.or_(mgr.and_(t, carry), mgr.and_(ra, rb))
        return node_count(mgr, carry)

    size = benchmark(run)
    assert size > 10


def test_sifting(benchmark):
    def run():
        mgr = BDD()
        # Interleaved-AND function: sifting has real work to do.
        a = [mgr.new_var("a%d" % i) for i in range(6)]
        b = [mgr.new_var("b%d" % i) for i in range(6)]
        f = 1  # ZERO
        for ai, bi in zip(a, b):
            f = mgr.or_(f, mgr.and_(mgr.var_ref(ai), mgr.var_ref(bi)))
        return sift(mgr, [f])

    final = benchmark(run)
    assert final <= 12


def test_transfer(benchmark):
    mgr = BDD()
    _, f = _build_alu_like(mgr)

    def run():
        return transfer_many(mgr, [f]).manager.num_nodes_allocated

    nodes = benchmark(run)
    assert nodes > 1


def test_isop_extraction(benchmark):
    mgr = BDD()
    _, f = _build_alu_like(mgr, n=8, seed=23)

    def run():
        return len(isop(mgr, f))

    cubes = benchmark(run)
    assert cubes >= 1


# ----------------------------------------------------------------------
# Reordering engine CPU on the Table I circuits -> BENCH_reorder.json
# ----------------------------------------------------------------------

#: Seed-implementation numbers (commit a9d3316, best of 3 on the CI
#: container): the pre-incremental sift re-traversed every live node per
#: swap, so its cost was O(live * swaps).  Kept as the "before" side of
#: the before/after evidence; the microbench re-measures "after" live.
_SEED_BASELINE = {
    "global_sift_s": {"C1355": 13.405, "C499": 15.436, "C880": 0.043},
    "flow_sift_s": {"C1355": 0.0426, "C499": 0.0503, "C880": 0.0053},
    "global_sifted_size": {"C1355": 10394, "C499": 10394, "C880": 112},
}

_REORDER_CIRCUITS = ("C1355", "C499", "C880")


def _global_sift_once(cname):
    """Build the monolithic global BDD of a circuit and sift it once."""
    from repro.circuits import build_circuit
    from repro.network.cones import global_bdd, initial_order

    net = build_circuit(cname)
    mgr = BDD()
    var_of = {name: mgr.new_var(name) for name in initial_order(net)}
    cache = {}
    roots = []
    for out in net.outputs:
        ref = global_bdd(mgr, net, out, var_of, cache, size_cap=10 ** 9)
        roots.append(mgr.register_root(ref))
    before = live_node_count(mgr, roots)
    t0 = time.perf_counter()
    after = sift(mgr, roots, size_limit=10 ** 9)
    elapsed = time.perf_counter() - t0
    return {
        "sift_s": round(elapsed, 4),
        "size_before": before,
        "size_after": after,
        "swaps": mgr.perf.reorder_swaps,
        "live_traversals": mgr.perf.live_traversals,
    }


def _flow_reorder_metrics(cname):
    """Per-supernode reorder CPU as the Table I harness exercises it: the
    time inside the flow's ``sift`` calls, taken by wrapping the name
    ``repro.bds.flow`` resolves at call time (best of 3 flow runs)."""
    import repro.bds.flow as flow
    from repro.bds import BDSOptions, bds_optimize
    from repro.circuits import build_circuit

    net = build_circuit(cname)
    sift_inner = flow.sift
    spent = [0.0]

    def timed_sift(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return sift_inner(*args, **kwargs)
        finally:
            spent[0] += time.perf_counter() - t0

    best = None
    flow.sift = timed_sift
    try:
        for _ in range(3):
            spent[0] = 0.0
            perf = bds_optimize(net, BDSOptions()).perf
            if best is None or spent[0] < best[0]:
                best = (spent[0], perf)
    finally:
        flow.sift = sift_inner
    sift_s, perf = best
    return {
        "flow_sift_s": round(sift_s, 4),
        "flow_passes": int(perf["reorder_passes"]),
        "flow_swaps": int(perf["reorder_swaps"]),
    }


def test_reorder_microbench():
    """Measure reorder CPU (global sift + in-flow sift) and emit
    ``BENCH_reorder.json`` with the seed baseline alongside."""
    payload = {"baseline_seed": _SEED_BASELINE, "current": {}}
    for cname in _REORDER_CIRCUITS:
        entry = _global_sift_once(cname)
        entry.update(_flow_reorder_metrics(cname))
        entry["speedup_global"] = round(
            _SEED_BASELINE["global_sift_s"][cname] / entry["sift_s"], 2)
        entry["speedup_flow"] = round(
            _SEED_BASELINE["flow_sift_s"][cname] / entry["flow_sift_s"], 2)
        payload["current"][cname] = entry
        # Sifted sizes must never be worse than the seed implementation's.
        assert entry["size_after"] <= _SEED_BASELINE[
            "global_sifted_size"][cname]
    write_bench_json(payload, "BENCH_reorder.json")
