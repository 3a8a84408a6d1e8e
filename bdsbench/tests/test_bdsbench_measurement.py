"""Measurement self-test: the benchmark's numbers move when a layer slows.

For each workload one public function gets a fixed busy-wait per call.
Each injection must

1. raise the predicted end-to-end metric by about calls x cost,
2. show up in the traced run as a rise of that layer's own number, and
3. leave a metric or workload that should not move within its bound.

The host's speed drifts over minutes, so every comparison runs in the
order base, slowed, slowed, base and compares the two means: a linear
drift cancels.

Slow (about five minutes): run with ``python3 -m pytest bdsbench/tests``.
"""

import pytest

from run import run_workload

#: Relative bound of the timing metrics (BENCHMARK.json).
TIME_BOUND = 0.25


def _run(workload, injections=(), trace=True, min_passes=3):
    result = run_workload(workload, seed=1, seconds=0 if workload !=
                          "service_mix" else 3, trace=trace,
                          injections=injections, memory=False,
                          min_passes=min_passes)
    assert result["failed"] == 0, result["failures"][:5]
    return result


def _mean(results):
    return {name: sum(r["metrics"][name] for r in results) / len(results)
            for name in results[0]["metrics"]}


def _abba(workload, injections, **kwargs):
    """(base, slowed) metric means over runs ordered base, slowed,
    slowed, base; plus the first base run for its ``info``."""
    first = _run(workload, **kwargs)
    slowed = [_run(workload, injections=injections, **kwargs)
              for _ in range(2)]
    last = _run(workload, **kwargs)
    return _mean([first, last]), _mean(slowed), first


def _rise_ok(rise, predicted, low=0.6, high=1.5):
    return low * predicted <= rise <= high * predicted


@pytest.fixture(scope="module")
def sift_runs():
    return _abba("table1", (("sift", 0.002),))


def test_named_layers_cover_the_flow(sift_runs):
    # bds.other_s is the flow's time outside every wrapped layer.
    assert sift_runs[2]["info"]["layer_share"] >= 0.9


def test_sift_cost_lands_in_table1_cpu_and_in_the_sift_layer(sift_runs):
    base, new, info_run = sift_runs
    calls = info_run["info"]["calls_per_pass"]["sift"]
    predicted = calls * 0.002
    rise = new["bds_cpu_s"] - base["bds_cpu_s"]
    assert _rise_ok(rise, predicted), (rise, predicted)
    layer_rise = new["bdd.sift_s"] - base["bdd.sift_s"]
    assert _rise_ok(layer_rise, predicted, 0.8, 1.25), (layer_rise, predicted)
    for other in ("network.eliminate_s", "decomp.decompose_s",
                  "bds.other_s"):
        assert abs(new[other] - base[other]) < 0.25 * predicted, other
    for exact in ("bds_literals", "bds_area", "bds_delay", "bdd.ite_calls"):
        assert new[exact] == base[exact], exact


def test_verify_cost_lands_in_arith_verify_and_not_in_table1():
    cost = 0.6
    injected = (("require_equivalent", cost),)
    base, new, info_run = _abba("arith_verify", injected, min_passes=2)
    assert info_run["info"]["layer_share"] >= 0.9
    calls = info_run["info"]["calls_per_pass"]["require_equivalent"]
    assert calls == 6
    predicted = calls * cost
    rise = new["bds_cpu_s"] - base["bds_cpu_s"]
    assert _rise_ok(rise, predicted), (rise, predicted)
    layer_rise = new["verify.check_s"] - base["verify.check_s"]
    assert _rise_ok(layer_rise, predicted), (layer_rise, predicted)
    for other in ("network.eliminate_s", "decomp.decompose_s",
                  "bds.other_s"):
        assert abs(new[other] - base[other]) < 0.25 * predicted, other
    assert new["verify_proven_share"] == 1.0
    # table1 runs verify="off": zero calls, so its CPU must not move.
    t_base, t_new, _info = _abba("table1", injected, trace=False)
    ratio = t_new["bds_cpu_s"] / t_base["bds_cpu_s"]
    assert abs(ratio - 1.0) <= TIME_BOUND, ratio


def test_cache_lookup_cost_lands_in_the_service_front_door():
    cost = 0.005
    b, s, _info = _abba("service_mix", (("cache_lookup", cost),))
    # Every request makes exactly one lookup, in the server process.
    lookups = s["service.cache_hits"] + s["service.cache_misses"]
    assert lookups == b["service.cache_hits"] + b["service.cache_misses"]
    predicted = lookups * cost
    rise = s["service_cpu_s"] - b["service_cpu_s"]
    assert _rise_ok(rise, predicted), (rise, predicted)
    hit_rise = s["hit_latency_p50_ms"] - b["hit_latency_p50_ms"]
    assert 0.8 * cost * 1000 <= hit_rise <= 2.5 * cost * 1000, hit_rise
    # Traced run: the lookup sits before scheduling, so it shows in the
    # miss wait (admission, queue, store, transport), not in the jobs.
    wait_rise = s["service.miss_wait_ms_p50"] - b["service.miss_wait_ms_p50"]
    assert 0.8 * cost * 1000 <= wait_rise <= 2.5 * cost * 1000, wait_rise
    assert abs(s["service.job_s"] / b["service.job_s"] - 1) <= TIME_BOUND
    assert abs(s["bds_cpu_s"] / b["bds_cpu_s"] - 1) <= TIME_BOUND
