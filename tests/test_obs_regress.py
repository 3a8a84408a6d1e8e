"""Tests for repro.obs.regress and the ``repro bench --compare`` work
gate: exit 0 when nodes, literals and every counter, total and per
phase, equal the baseline's; 1 when one differs or is on one side only;
2 when the runs are not comparable."""

import copy
import json
import os
import subprocess
import sys

import pytest

from repro.obs.regress import (DEFAULT_BENCH_CIRCUITS, SCHEMA,
                               collect_flow_payload, compare_payloads,
                               load_baseline)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: A canned payload, so comparison tests run no flow.
BASE = {
    "schema": "repro-bench-flow/2",
    "circuits": {
        "add8": {"nodes": 37, "literals": 74,
                 "counters": {"ite_calls": 100, "gc_sweeps": 1,
                              "gc_reclaimed": 10, "nodes_reused": 5,
                              "peak_live_nodes": 50,
                              "peak_allocated_nodes": 60,
                              "cache_hit_rate": 0.5},
                 "phases": {"flow.sweep": {},
                            "flow.eliminate": {"ite_calls": 70,
                                               "gc_sweeps": 1},
                            "flow.decompose": {"ite_calls": 30}}},
        "rl_mux": {"nodes": 5, "literals": 10,
                   "counters": {"ite_calls": 20, "gc_sweeps": 0,
                                "gc_reclaimed": 0, "nodes_reused": 0,
                                "peak_live_nodes": 9,
                                "peak_allocated_nodes": 12,
                                "cache_hit_rate": 0.1},
                   "phases": {"flow.sweep": {"ite_calls": 12},
                              "flow.eliminate": {"ite_calls": 8}}},
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

    @pytest.mark.parametrize("delta", [1, -1])
    def test_one_phase_counter_off_by_one_exits_1(self, delta):
        cur = _current()
        cur["circuits"]["add8"]["phases"]["flow.eliminate"]["ite_calls"] \
            += delta
        report = compare_payloads(BASE, cur)
        assert report.exit_code() == 1
        (diff,) = report.regressions
        assert (diff.circuit, diff.metric) \
            == ("add8", "phases/flow.eliminate/ite_calls")
        assert (diff.baseline, diff.current) == (70, 70 + delta)

    def test_doubled_ite_calls_exit_1(self):
        cur = _current()
        for entry in cur["circuits"].values():
            entry["counters"]["ite_calls"] *= 2
        report = compare_payloads(BASE, cur)
        assert report.exit_code() == 1
        assert sorted((d.circuit, d.metric) for d in report.regressions) \
            == [("add8", "counters/ite_calls"),
                ("rl_mux", "counters/ite_calls")]

    def test_key_on_one_side_only_exits_1(self):
        cur = _current()
        cur["circuits"]["rl_mux"]["counters"]["gc_reclaimed_extra"] = 0
        report = compare_payloads(BASE, cur)
        assert report.exit_code() == 1
        (diff,) = report.regressions
        assert diff.metric == "counters/gc_reclaimed_extra"
        assert "only in current run" in diff.note
        # ...and in the other direction, for a whole phase too.
        del cur["circuits"]["add8"]["phases"]["flow.sweep"]
        report = compare_payloads(cur, BASE)
        assert report.exit_code() == 1
        assert sorted((d.metric, d.note) for d in report.regressions) == [
            ("counters/gc_reclaimed_extra", "only in baseline"),
            ("phases/flow.sweep", "only in current run")]

    @pytest.mark.parametrize("side", ["baseline", "current"])
    def test_schema_drift_exits_2(self, side):
        other = _current()
        other["schema"] = "repro-bench-flow/999"
        pair = (other, BASE) if side == "baseline" else (BASE, other)
        report = compare_payloads(*pair)
        assert report.exit_code() == 2
        (diff,) = report.diffs
        assert diff.metric == "schema" and diff.status == "incomparable"

    def test_schema_1_baseline_against_schema_2_payload_exits_2(self):
        # The layout of the last repro-bench-flow/1 baseline: a CPU time,
        # no phases.  It is not compared circuit by circuit at all.
        old = {"schema": "repro-bench-flow/1", "circuits": {
            name: dict({k: v for k, v in entry.items() if k != "phases"},
                       cpu_s=0.01)
            for name, entry in BASE["circuits"].items()}}
        report = compare_payloads(old, BASE)
        assert report.exit_code() == 2
        (diff,) = report.diffs
        assert (diff.baseline, diff.current) \
            == ("repro-bench-flow/1", SCHEMA)

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
        cur = _current(add8={"nodes": 99,
                             "counters": {"ite_calls": -1}})
        assert compare_payloads(BASE, cur).exit_code() == 2

    def test_render_summarizes_the_verdict(self):
        cur = _current()
        cur["circuits"]["add8"]["counters"]["ite_calls"] = 101
        text = compare_payloads(BASE, cur).render()
        assert "add8" in text and "counters/ite_calls" in text
        assert "REGRESSED" in text and "exit 1" in text
        assert "every metric equals the baseline" \
            in compare_payloads(BASE, _current()).render()


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
        assert payload["schema"] == SCHEMA == "repro-bench-flow/2"
        entry = payload["circuits"]["rl_mux"]
        assert sorted(entry) == ["counters", "literals", "nodes", "phases"]
        assert entry["nodes"] > 0 and entry["literals"] > 0
        assert entry["counters"]["ite_calls"] > 0
        phases = entry["phases"]
        assert "flow.eliminate" in phases
        assert all(name.startswith("flow.") for name in phases)
        # The phase deltas partition the count totals.
        assert sum(p.get("ite_calls", 0) for p in phases.values()) \
            == entry["counters"]["ite_calls"]
        # Fresh payloads satisfy their own monotonicity rules.
        assert compare_payloads(payload, payload).exit_code() == 0

    def test_calls_that_disagree_on_their_work_raise(self, monkeypatch):
        from repro.bds import flow

        calls = []
        optimize = flow.bds_optimize

        def drifting(net, options=None, tracer=None):
            result = optimize(net, options, tracer=tracer)
            result.perf["ite_calls"] += len(calls)
            calls.append(net.name)
            return result

        monkeypatch.setattr(flow, "bds_optimize", drifting)
        with pytest.raises(RuntimeError, match="rl_mux"):
            collect_flow_payload(("rl_mux",))
        assert len(calls) == 2

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

        # Self-comparison passes.
        res = self._bench(tmp_path, "--compare", str(baseline))
        assert res.returncode == 0, res.stdout + res.stderr

        # Injected work drift: every value gates exactly, at exit 1.
        obj = json.loads(baseline.read_text())
        obj["circuits"]["add4"]["nodes"] += 1
        drifted = tmp_path / "drifted.json"
        drifted.write_text(json.dumps(obj))
        res = self._bench(tmp_path, "--compare", str(drifted))
        assert res.returncode == 1, res.stdout + res.stderr
        assert "deliberate baseline update" in res.stdout

        # Unreadable baseline: exit 2.
        res = self._bench(tmp_path, "--compare", "missing.json")
        assert res.returncode == 2
