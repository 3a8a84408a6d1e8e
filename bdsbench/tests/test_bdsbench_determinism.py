"""Exact metrics repeat exactly: across runs and across hash seeds.

Quality sums, the verify proven share, the service cache counts and every
count-type per-layer metric are functions of the inputs alone, so later
changes can make count claims against them.  Each workload runs in a
fresh process under two ``PYTHONHASHSEED`` values.  On ``service_mix``
the workload seed only orders and draws requests, so the quality sums
must not depend on it either.

Slow (about a minute): run with ``python3 -m pytest bdsbench/tests``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from run import PER_LAYER

BENCH = Path(__file__).resolve().parent.parent

#: Metrics that must repeat exactly (besides every "count" metric).
EXACT = ["bds_literals", "bds_area", "bds_delay", "verify_proven_share",
         "bdd.cache_hit_rate", "decomp.generalized_accept_rate",
         "service.cache_hit_ratio"]
EXACT += [name for name, unit in PER_LAYER if unit == "count"]

_SNIPPET = """
import json, sys
sys.path[:0] = [%r, %r]
from run import run_workload
result = run_workload(%r, seed=%r, seconds=%r, trace=True, memory=False,
                      min_passes=1)
print(json.dumps({"failed": result["failed"], "metrics": result["metrics"]}))
"""


def _exact_metrics(workload, hash_seed, seed=3):
    seconds = 2 if workload == "service_mix" else 0
    code = _SNIPPET % (str(BENCH.parent / "src"), str(BENCH), workload,
                       seed, seconds)
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run([sys.executable, "-c", code], cwd=str(BENCH.parent),
                          env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["failed"] == 0
    return {name: doc["metrics"][name] for name in EXACT}


@pytest.mark.parametrize("workload", ["table1", "arith_verify",
                                      "service_mix"])
def test_exact_metrics_repeat_under_two_hash_seeds(workload):
    first = _exact_metrics(workload, 0)
    second = _exact_metrics(workload, 1)
    assert first == second
    if workload == "table1":
        # The committed Table I results (benchmarks/results/table1.txt).
        assert (first["bds_literals"], first["bds_area"],
                first["bds_delay"]) == (4937, 2845712.0, 421.0)
    if workload == "arith_verify":
        assert first["verify_proven_share"] == 1.0
    if workload == "service_mix":
        assert first["service.cache_misses"] == \
            first["service.cache_stores"] == 32 + 16
        assert first["service.cache_hits"] == 4 * 48
        other_seed = _exact_metrics(workload, 0, seed=4)
        for name in ("bds_literals", "bds_area", "bds_delay",
                     "mapping.gates", "service.cache_misses",
                     "service.cache_hits"):
            assert other_seed[name] == first[name], name
