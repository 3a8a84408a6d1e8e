"""Golden-output regression tests: canonical optimized-BLIF digests.

``tests/golden/blif_digests.json`` commits the sha256 of the optimized
BLIF for six Table I circuits and four random netlists under default
flow options.  The flow is
deterministic (test_determinism_hashseed.py proves byte-stability
across interpreters), so these digests pin the *result quality* too:
any change to decomposition choices, sharing extraction or BLIF
emission shows up as a digest mismatch and demands a deliberate golden
update, never a silent one.

Regenerate after an intended change with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_golden_outputs.py

and commit the diff (the review of that diff *is* the quality review).
"""

import hashlib
import json
import os

import pytest

from repro.bds.flow import BDSOptions, bds_optimize
from repro.circuits import build_circuit, random_logic
from repro.network import write_blif

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "blif_digests.json")

#: Table I circuits pinned by golden digests (small enough that the
#: whole parametrization stays in tier-1 time).
GOLDEN_CIRCUITS = ("C432", "C499", "C880", "C1355", "C1908", "rot")

#: Seeds of random_logic(24, 64, 24) netlists, the shape of the service
#: workload's random requests, pinned as ``rand_s<seed>``.  Their final
#: sweep once alternated between two forms of a duplicate output until
#: the pass cap stopped it (docs/PERFORMANCE.md section 9): rand_s3 on
#: equal constant outputs, rand_s0 and rand_s35 on an output buffer of an
#: output inverter, rand_s20 on both.
GOLDEN_RANDOM_SEEDS = (0, 3, 20, 35)

GOLDEN_NETLISTS = GOLDEN_CIRCUITS + tuple(
    "rand_s%d" % seed for seed in GOLDEN_RANDOM_SEEDS)

UPDATE = bool(os.environ.get("REPRO_UPDATE_GOLDEN"))


def _build(name):
    if name.startswith("rand_s"):
        return random_logic(24, 64, 24, seed=int(name[len("rand_s"):]))
    return build_circuit(name)


def _optimize_digest(circuit):
    net = _build(circuit)
    result = bds_optimize(net, BDSOptions())
    text = write_blif(result.network)
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), result


def _load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_file_covers_the_circuit_set():
    if UPDATE:
        pytest.skip("golden file is being regenerated")
    golden = _load_golden()
    assert sorted(golden) == sorted(GOLDEN_NETLISTS)
    for circuit, entry in golden.items():
        assert set(entry) == {"sha256", "nodes", "literals"}
        assert len(entry["sha256"]) == 64


@pytest.mark.parametrize("circuit", GOLDEN_NETLISTS)
def test_optimized_blif_matches_golden_digest(circuit):
    digest, result = _optimize_digest(circuit)
    stats = result.network.stats()
    if UPDATE:
        golden = _load_golden() if os.path.exists(GOLDEN_PATH) else {}
        golden[circuit] = {"sha256": digest, "nodes": stats["nodes"],
                           "literals": stats["literals"]}
        os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
        with open(GOLDEN_PATH, "w") as fh:
            json.dump(golden, fh, indent=2, sort_keys=True)
            fh.write("\n")
        pytest.skip("golden digest for %s updated" % circuit)
    entry = _load_golden()[circuit]
    assert stats["nodes"] == entry["nodes"], \
        "%s: node count drifted from golden" % circuit
    assert stats["literals"] == entry["literals"], \
        "%s: literal count drifted from golden" % circuit
    assert digest == entry["sha256"], \
        ("%s: optimized BLIF bytes drifted from golden; if intended, "
         "regenerate with REPRO_UPDATE_GOLDEN=1 and commit the diff"
         % circuit)
