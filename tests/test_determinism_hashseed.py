"""Byte-identical optimization output across PYTHONHASHSEED values.

The artifact cache keys results by sha256(canonical BLIF) x options
(docs/SERVICE.md): one hash-order byte in the emitted BLIF and every
warm lookup silently misses.  String sets reorder under
``PYTHONHASHSEED``; int sets reorder when their tables resize -- which
is why every set iteration feeding emission is sorted (RPL002,
docs/LINTING.md).  This test is the end-to-end guard: the whole
generate -> optimize -> verify -> emit pipeline, run under different
hash seeds in fresh interpreters, must produce identical bytes.
"""

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SEEDS = ("0", "1", "77")


def _run_cli(args, seed, cwd):
    env = dict(os.environ,
               PYTHONPATH=os.path.join(REPO_ROOT, "src"),
               PYTHONHASHSEED=seed)
    res = subprocess.run([sys.executable, "-m", "repro.cli"] + args,
                         cwd=cwd, env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stdout + res.stderr
    return res


def _assert_identical_across_seeds(circuit, tmp_path, flow_args):
    outputs = {}
    for seed in SEEDS:
        gen = tmp_path / ("%s_%s.blif" % (circuit, seed))
        opt = tmp_path / ("%s_%s_opt.blif" % (circuit, seed))
        _run_cli(["generate", circuit, "-o", str(gen)], seed, tmp_path)
        _run_cli(["optimize", str(gen), "-o", str(opt), "--verify"]
                 + flow_args, seed, tmp_path)
        outputs[seed] = (gen.read_bytes(), opt.read_bytes())
    first = outputs[SEEDS[0]]
    for seed in SEEDS[1:]:
        assert outputs[seed][0] == first[0], \
            "generated BLIF differs under PYTHONHASHSEED=%s" % seed
        assert outputs[seed][1] == first[1], \
            "optimized BLIF differs under PYTHONHASHSEED=%s" % seed


#: rl_mux/add4 are the historical guards; rot and C880 come from Table I
#: (rot once emitted hash-seed-dependent gensym numbering through an
#: unsorted dependency-set DFS in trees_to_network -- the golden-digest
#: tests caught it, this pins the fix end to end).
@pytest.mark.parametrize("circuit", ["rl_mux", "add4", "rot", "C880"])
def test_flow_output_identical_across_hash_seeds(circuit, tmp_path):
    _assert_identical_across_seeds(circuit, tmp_path, [])


#: The SIS baseline once ordered fast_extract's divisor cubes and the
#: fanins of every node that fx or resub rewrote by string hash, by
#: iterating frozensets of (signal, phase) pairs; C432 first diverged in
#: fast_extract, and every circuit here differed between the seeds.
@pytest.mark.parametrize("circuit", ["add4", "rot", "C432"])
def test_sis_flow_output_identical_across_hash_seeds(circuit, tmp_path):
    _assert_identical_across_seeds(circuit, tmp_path, ["--flow", "sis"])
