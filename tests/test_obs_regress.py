"""Tests for repro.obs.regress and the ``repro bench --compare`` gate:
exit 0 within tolerances, 1 on regressions (including an injected >=25%
CPU regression), 2 when runs are not comparable."""

import copy
import json
import os
import subprocess
import sys

import pytest

from repro.obs.regress import (CPU_FLOOR_S, DEFAULT_BENCH_CIRCUITS,
                               collect_flow_payload, compare_payloads,
                               load_baseline)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: A canned payload so comparison tests never depend on wall-clock.
BASE = {
    "schema": "repro-bench-flow/1",
    "circuits": {
        "add8": {"cpu_s": 1.0, "nodes": 37, "literals": 74,
                 "counters": {"ite_calls": 100, "gc_sweeps": 1,
                              "gc_reclaimed": 10, "nodes_reused": 5,
                              "peak_live_nodes": 50,
                              "peak_allocated_nodes": 60,
                              "cache_hit_rate": 0.5}},
        "rl_mux": {"cpu_s": 0.5, "nodes": 5, "literals": 10,
                   "counters": {"ite_calls": 20, "gc_sweeps": 0,
                                "gc_reclaimed": 0, "nodes_reused": 0,
                                "peak_live_nodes": 9,
                                "peak_allocated_nodes": 12,
                                "cache_hit_rate": 0.1}},
    },
}


def _current(**tweaks):
    cur = copy.deepcopy(BASE)
    for circuit, fields in tweaks.items():
        cur["circuits"][circuit].update(fields)
    return cur


class TestComparePayloads:
    def test_identical_payloads_pass(self):
        report = compare_payloads(BASE, _current())
        assert report.exit_code() == 0
        assert report.regressions == [] and report.incomparable == []

    def test_cpu_regression_beyond_tolerance_exits_1(self):
        # Injected 30% slowdown against the default 25% tolerance.
        report = compare_payloads(BASE, _current(add8={"cpu_s": 1.3}))
        assert report.exit_code() == 1
        (diff,) = report.regressions
        assert (diff.circuit, diff.metric) == ("add8", "cpu_s")
        assert "slower" in diff.note

    def test_cpu_within_tolerance_passes(self):
        report = compare_payloads(BASE, _current(add8={"cpu_s": 1.2}))
        assert report.exit_code() == 0

    def test_cpu_improvement_passes_and_is_reported(self):
        report = compare_payloads(BASE, _current(add8={"cpu_s": 0.4}))
        assert report.exit_code() == 0
        assert any(d.status == "improved" for d in report.diffs)

    def test_wider_tolerance_forgives_the_same_slowdown(self):
        cur = _current(add8={"cpu_s": 1.3})
        assert compare_payloads(BASE, cur).exit_code() == 1
        assert compare_payloads(BASE, cur, cpu_tol=0.5).exit_code() == 0

    @pytest.mark.parametrize("metric", ["nodes", "literals"])
    @pytest.mark.parametrize("delta", [1, -1])
    def test_exact_metric_drift_either_direction_exits_1(self, metric,
                                                         delta):
        cur = _current(add8={metric: BASE["circuits"]["add8"][metric]
                             + delta})
        report = compare_payloads(BASE, cur)
        assert report.exit_code() == 1
        assert any(d.metric == metric and d.status == "regressed"
                   for d in report.diffs)

    def test_missing_circuit_exits_2(self):
        cur = _current()
        del cur["circuits"]["rl_mux"]
        assert compare_payloads(BASE, cur).exit_code() == 2
        # ...and in the other direction too.
        base = copy.deepcopy(BASE)
        del base["circuits"]["rl_mux"]
        assert compare_payloads(base, _current()).exit_code() == 2

    def test_inconsistent_counters_exit_2(self):
        cur = _current(add8={"counters": {"ite_calls": -1}})
        report = compare_payloads(BASE, cur)
        assert report.exit_code() == 2
        assert any("non-negative" in d.note for d in report.incomparable)

    def test_peak_live_above_allocated_exits_2(self):
        bad = dict(BASE["circuits"]["add8"]["counters"],
                   peak_live_nodes=100, peak_allocated_nodes=50)
        report = compare_payloads(BASE, _current(add8={"counters": bad}))
        assert report.exit_code() == 2

    def test_incomparable_takes_precedence_over_regression(self):
        cur = _current(add8={"cpu_s": 9.0,
                             "counters": {"ite_calls": -1}})
        assert compare_payloads(BASE, cur).exit_code() == 2

    def test_zero_cpu_baseline_neither_raises_nor_fails(self):
        # Regression: a 0.0s baseline (tiny circuit on fast hardware)
        # used to be rejected as incomparable -- and any sub-floor
        # baseline made the relative tolerance fire on pure noise.
        report = compare_payloads(_current(add8={"cpu_s": 0.0}),
                                  _current(add8={"cpu_s": 0.0009}))
        assert report.exit_code() == 0
        assert report.incomparable == []

    def test_sub_floor_jitter_is_not_a_regression(self):
        # 0.4ms -> 0.9ms is a 2.25x ratio but far below the floor.
        assert CPU_FLOOR_S > 0.001
        report = compare_payloads(_current(add8={"cpu_s": 0.0004}),
                                  _current(add8={"cpu_s": 0.0009}))
        assert report.exit_code() == 0

    def test_zero_baseline_still_catches_real_slowdowns(self):
        report = compare_payloads(_current(add8={"cpu_s": 0.0}),
                                  _current(add8={"cpu_s": 60.0}))
        assert report.exit_code() == 1
        (diff,) = report.regressions
        assert diff.metric == "cpu_s" and "floored" in diff.note

    def test_negative_baseline_is_incomparable(self):
        report = compare_payloads(_current(add8={"cpu_s": -1.0}),
                                  _current())
        assert report.exit_code() == 2
        assert any("negative baseline" in d.note
                   for d in report.incomparable)

    def test_custom_floor_is_honored(self):
        base = _current(add8={"cpu_s": 0.1})
        cur = _current(add8={"cpu_s": 0.3})
        assert compare_payloads(base, cur).exit_code() == 1
        assert compare_payloads(base, cur, cpu_floor=0.5).exit_code() == 0

    def test_render_summarizes_the_verdict(self):
        report = compare_payloads(BASE, _current(add8={"cpu_s": 1.3}))
        text = report.render()
        assert "add8" in text and "REGRESSED" in text
        assert "exit 1" in text


class TestLoadBaseline:
    def test_raw_payload(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(BASE))
        assert load_baseline(str(path))["circuits"].keys() \
            == BASE["circuits"].keys()

    def test_non_baseline_raises(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"kernel": {"x": 1}}))
        with pytest.raises(ValueError):
            load_baseline(str(path))


class TestCollectAndCli:
    def test_collect_flow_payload_shape(self):
        payload = collect_flow_payload(("rl_mux",))
        assert payload["schema"] == "repro-bench-flow/1"
        entry = payload["circuits"]["rl_mux"]
        assert entry["cpu_s"] > 0
        assert entry["nodes"] > 0 and entry["literals"] > 0
        assert entry["counters"]["ite_calls"] > 0
        # Fresh payloads satisfy their own monotonicity rules.
        assert compare_payloads(payload, payload).exit_code() == 0

    def test_cpu_is_the_minimum_of_three_calls(self, monkeypatch):
        from repro.obs import regress

        ticks = iter([0.0, 0.3, 1.0, 1.1, 2.0, 2.2])

        class Clock:
            @staticmethod
            def perf_counter():
                return next(ticks)

        monkeypatch.setattr(regress, "time", Clock)
        payload = collect_flow_payload(("rl_mux",))
        assert payload["circuits"]["rl_mux"]["cpu_s"] == pytest.approx(0.1)

    def test_calls_that_disagree_on_their_work_raise(self, monkeypatch):
        from repro.bds import flow

        calls = []
        optimize = flow.bds_optimize

        def drifting(net, options=None):
            result = optimize(net, options)
            result.perf["ite_calls"] += len(calls)
            calls.append(net.name)
            return result

        monkeypatch.setattr(flow, "bds_optimize", drifting)
        with pytest.raises(RuntimeError, match="rl_mux"):
            collect_flow_payload(("rl_mux",))
        assert len(calls) == 3

    def test_default_circuit_set_is_stable(self):
        assert DEFAULT_BENCH_CIRCUITS == ("C432", "C499", "C880", "C1908",
                                          "add8", "rl_mux")

    def _bench(self, tmp_path, *args):
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "bench", "rl_mux", "add4"]
            + list(args),
            env=env, cwd=str(tmp_path), capture_output=True, text=True)

    def test_cli_gate_exit_codes(self, tmp_path):
        res = self._bench(tmp_path, "--out", "bench.json")
        assert res.returncode == 0, res.stderr
        baseline = tmp_path / "bench.json"

        # Self-comparison passes (generous tolerance: shared CI runners).
        res = self._bench(tmp_path, "--compare", str(baseline),
                          "--cpu-tol", "5.0")
        assert res.returncode == 0, res.stdout + res.stderr

        # Injected quality drift: exact metrics gate at exit 1.
        obj = json.loads(baseline.read_text())
        obj["circuits"]["add4"]["nodes"] += 1
        drifted = tmp_path / "drifted.json"
        drifted.write_text(json.dumps(obj))
        res = self._bench(tmp_path, "--compare", str(drifted),
                          "--cpu-tol", "5.0")
        assert res.returncode == 1, res.stdout + res.stderr
        assert "deliberate baseline update" in res.stdout

        # Unreadable baseline: exit 2.
        res = self._bench(tmp_path, "--compare", "missing.json")
        assert res.returncode == 2
