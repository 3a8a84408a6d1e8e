"""Tests for the differential fuzzing harness (repro.fuzz).

The headline test plants a miscompile inside the flow's lowering stage and
asserts the fuzzer catches it within a small time budget, shrinks the
failing netlist to a handful of nodes, and writes a corpus entry that
replays the failure -- and stops replaying once the bug is "fixed".
"""

import random
import time

import pytest

import repro.bds.flow as flow_mod
from repro.bds import BDSOptions
from repro.circuits import build_circuit
from repro.circuits.randlogic import random_logic
from repro.fuzz import (
    load_entries,
    load_entry,
    replay_entry,
    run_case,
    run_fuzz,
    sample_options,
    sample_spec,
    save_entry,
    shrink_network,
)
from repro.fuzz.harness import _sample_payload
from repro.sop.cube import lit


def _plant_miscompile(monkeypatch):
    """Stick the first output of every lowered network at constant 0."""
    original = flow_mod.trees_to_network

    def corrupt(*args, **kwargs):
        net = original(*args, **kwargs)
        out = net.outputs[0]
        if out in net.nodes:
            net.nodes[out].cover = []
        return net

    monkeypatch.setattr(flow_mod, "trees_to_network", corrupt)


class TestGeneratorAndOptions:
    def test_sampling_is_deterministic(self):
        wave_a = [_sample_payload(random.Random(5), 300, 60.0)
                  for _ in range(20)]
        wave_b = [_sample_payload(random.Random(5), 300, 60.0)
                  for _ in range(20)]
        assert wave_a == wave_b

    def test_specs_build_valid_networks(self):
        rng = random.Random(9)
        for _ in range(10):
            net = sample_spec(rng).build()
            net.check()
            assert net.outputs

    def test_options_roundtrip(self):
        rng = random.Random(13)
        for _ in range(20):
            options, _mode = sample_options(rng)
            rebuilt = BDSOptions.from_dict(options.to_dict())
            assert rebuilt.to_dict() == options.to_dict()
            assert rebuilt.decomp.enable_mux == options.decomp.enable_mux


class TestRunCase:
    def test_clean_on_real_circuit(self):
        net = build_circuit("add4")
        assert run_case(net, BDSOptions()) is None

    def test_catches_planted_miscompile(self, monkeypatch):
        _plant_miscompile(monkeypatch)
        net = build_circuit("add4")
        failure = run_case(net, BDSOptions())
        assert failure is not None
        assert failure.kind == "mismatch" and failure.stage == "flow"
        assert failure.counterexample


class TestShrink:
    def test_shrinks_to_core_under_predicate(self):
        net = random_logic(n_inputs=8, n_gates=30, n_outputs=4, seed=99,
                           xor_fraction=0.4)

        def has_xor(candidate):
            xor_cover = {frozenset({lit(0), lit(1, False)}),
                         frozenset({lit(0, False), lit(1)})}
            return any(set(n.cover) == xor_cover
                       for n in candidate.nodes.values())

        assert has_xor(net)
        shrunk = shrink_network(net, has_xor)
        shrunk.check()
        assert has_xor(shrunk)
        assert shrunk.node_count() <= 6
        assert len(shrunk.outputs) == 1

    def test_result_unchanged_when_predicate_never_fails(self):
        net = random_logic(n_inputs=5, n_gates=10, n_outputs=2, seed=7)
        shrunk = shrink_network(net, lambda c: False)
        assert shrunk.node_count() == net.node_count()

    def test_budget_bounds_predicate_calls(self):
        net = random_logic(n_inputs=8, n_gates=40, n_outputs=4, seed=3)
        calls = [0]

        def counting(candidate):
            calls[0] += 1
            return True

        shrink_network(net, counting, max_checks=25)
        assert calls[0] <= 25


class TestRunFuzz:
    def test_planted_miscompile_caught_and_shrunk(self, monkeypatch, tmp_path):
        _plant_miscompile(monkeypatch)
        corpus = str(tmp_path / "corpus")
        t0 = time.monotonic()
        report = run_fuzz(budget_seconds=60.0, seed=42, jobs=1,
                          corpus_dir=corpus, max_failures=1)
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, "fuzzer needed the whole budget"
        assert report.failures, "planted miscompile not caught"
        record = report.failures[0]
        assert record.failure.kind == "mismatch"
        assert record.shrunk_nodes <= 8, (
            "shrinker left %d nodes" % record.shrunk_nodes)
        assert record.corpus_path is not None

        # The corpus entry replays the failure while the bug is live...
        entry = load_entry(record.corpus_path)
        assert entry.kind == "mismatch"
        assert replay_entry(entry) is not None
        # ... and stops replaying once the bug is fixed.
        monkeypatch.undo()
        assert replay_entry(entry) is None

    def test_clean_run_reports_iterations(self, tmp_path):
        report = run_fuzz(budget_seconds=3.0, seed=1,
                          corpus_dir=str(tmp_path / "corpus"))
        assert report.iterations > 0
        assert report.failures == []
        assert report.elapsed >= 3.0


class TestCorpusIO:
    def test_save_load_roundtrip(self, tmp_path):
        from repro.network.blif import write_blif

        net = build_circuit("add4")
        meta = {"kind": "mismatch", "stage": "flow", "detail": "planted",
                "options": BDSOptions(use_sdc=True).to_dict(),
                "map_mode": "lut4", "seed": 5}
        path = save_entry(str(tmp_path), write_blif(net), meta)
        again = save_entry(str(tmp_path), write_blif(net), meta)
        assert path == again, "content addressing must dedupe"
        entry = load_entry(path)
        assert entry.options.use_sdc is True
        assert entry.map_mode == "lut4"
        assert entry.seed == 5
        assert sorted(entry.network.outputs) == sorted(net.outputs)
        entries = load_entries(str(tmp_path))
        assert [e.path for e in entries] == [path]

    def test_missing_dir_is_empty(self, tmp_path):
        assert load_entries(str(tmp_path / "nope")) == []


@pytest.mark.perf
def test_verify_full_overhead_bounded():
    """verify="full" must stay well under 2x the unverified flow (Table I)."""
    from repro.circuits.registry import TABLE1_CIRCUITS

    base = verified = 0.0
    for name in TABLE1_CIRCUITS:
        net = build_circuit(name)
        t0 = time.perf_counter()
        flow_mod.bds_optimize(net, BDSOptions(verify="off"))
        base += time.perf_counter() - t0
        t0 = time.perf_counter()
        flow_mod.bds_optimize(net, BDSOptions(verify="full"))
        verified += time.perf_counter() - t0
    assert verified < 2.0 * base, (
        "verify=full overhead %.2fx" % (verified / base))
