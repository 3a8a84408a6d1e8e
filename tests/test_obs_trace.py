"""Tests for repro.obs.trace: span trees, counter-delta accounting,
Chrome export, fork-safe grafting, and the flow integration contract
(per-span deltas partition BDSResult.perf)."""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.bdd import BDD
from repro.bds.flow import BDSOptions, bds_optimize
from repro.circuits import build_circuit
from repro.network.blif import write_blif
from repro.obs.trace import Span, Tracer
from repro.perf import DERIVED_KEYS, PEAK_KEYS, counter_delta

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _count_totals(perf):
    return {k: v for k, v in perf.items()
            if k not in PEAK_KEYS and k not in DERIVED_KEYS and v}


def _sum_child_counters(spans):
    agg = {}
    for span in spans:
        for key, val in span.counters.items():
            agg[key] = agg.get(key, 0) + val
    return agg


class TestSpanTree:
    def test_nesting_reconstructs_a_valid_tree(self):
        tr = Tracer()
        with tr.span("a"):
            with tr.span("a.1"):
                pass
            with tr.span("a.2", depth=2):
                with tr.span("a.2.x"):
                    pass
        with tr.span("b"):
            pass
        roots = tr.roots
        assert [r.name for r in roots] == ["a", "b"]
        a = roots[0]
        assert [c.name for c in a.children] == ["a.1", "a.2"]
        assert [c.name for c in a.children[1].children] == ["a.2.x"]
        assert a.children[1].attrs == {"depth": 2}
        # Parent windows contain their children.
        for parent in (a, a.children[1]):
            for child in parent.children:
                assert child.start >= parent.start
                assert child.start + child.duration \
                    <= parent.start + parent.duration + 1e-6
        assert len(a.walk()) == 4

    def test_exception_still_closes_the_span(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            with tr.span("outer"):
                with tr.span("inner"):
                    raise ValueError("boom")
        assert tr.current is None
        assert [r.name for r in tr.roots] == ["outer"]
        assert [c.name for c in tr.roots[0].children] == ["inner"]

    def test_end_without_open_span_raises(self):
        with pytest.raises(RuntimeError):
            Tracer().end()

    def test_to_dict_from_dict_round_trip(self):
        tr = Tracer()
        with tr.span("root", circuit="x"):
            with tr.span("child"):
                pass
        exported = tr.export_spans()
        json.loads(json.dumps(exported))  # wire format is JSON-able
        rebuilt = Span.from_dict(exported[0], offset=1.5, tid=7)
        assert rebuilt.name == "root"
        assert rebuilt.attrs == {"circuit": "x"}
        assert rebuilt.tid == 7
        assert rebuilt.children[0].tid == 7
        orig = tr.roots[0]
        assert rebuilt.start == pytest.approx(orig.start + 1.5)
        assert rebuilt.children[0].start == pytest.approx(
            orig.children[0].start + 1.5)

    def test_graft_rebases_exported_spans_under_the_open_span(self):
        # A service worker's tracer runs in another process; its exported
        # spans are grafted under the caller's open span.
        worker = Tracer()
        for name in ("decompose.supernode", "decompose.supernode"):
            with worker.span(name):
                pass
        tr = Tracer()
        with tr.span("flow.decompose") as parent:
            time.sleep(0.002)   # outlasts the worker's whole timeline
            first = tr.graft(worker.export_spans())
            second = tr.graft(worker.export_spans())
        assert parent.children == first + second
        assert [s.name for s in first] == ["decompose.supernode"] * 2
        # Fresh tid per graft, never the caller's own row.
        tids = {s.tid for s in first} | {s.tid for s in second}
        assert len({s.tid for s in first}) == 1
        assert len(tids) == 2 and parent.tid not in tids
        # Rebased into the parent span's window.
        for span in first + second:
            assert span.start >= parent.start
            assert span.start + span.duration <= (
                parent.start + parent.duration)


class TestCounterDeltas:
    def test_span_captures_count_key_deltas_only(self):
        state = {"ite_calls": 0.0, "peak_live_nodes": 5.0,
                 "cache_hit_rate": 0.5}
        tr = Tracer(counter_source=lambda: dict(state))
        with tr.span("work"):
            state["ite_calls"] = 40.0
            state["peak_live_nodes"] = 99.0     # peak: excluded
            state["cache_hit_rate"] = 0.9       # derived: excluded
        assert tr.roots[0].counters == {"ite_calls": 40.0}

    def test_counter_delta_drops_zero_and_sorts_keys(self):
        before = {"a": 1.0, "b": 2.0}
        after = {"a": 1.0, "b": 5.0, "z": 1.0, "c": 2.0}
        delta = counter_delta(before, after)
        assert delta == {"b": 3.0, "c": 2.0, "z": 1.0}
        assert list(delta) == ["b", "c", "z"]

    def test_sequential_spans_telescope(self):
        state = {"n": 0.0}
        tr = Tracer(counter_source=lambda: dict(state))
        for bump in (3.0, 0.0, 7.0):
            with tr.span("step"):
                state["n"] += bump
        total = sum(r.counters.get("n", 0) for r in tr.roots)
        assert total == state["n"] == 10.0


class TestFlowIntegration:
    @pytest.mark.parametrize("circuit", ["C432", "rot"])
    def test_every_phase_that_builds_a_bdd_counts_its_work(self, circuit,
                                                          monkeypatch):
        # A manager belongs to the phase span open when it is made.  Sweep's
        # functional merge, sharing extraction and the equivalence checker
        # hand their counters to the flow when they finish.
        tr = Tracer()
        made = []
        init = BDD.__init__

        def tracked_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(tr.current)

        monkeypatch.setattr(BDD, "__init__", tracked_init)
        result = bds_optimize(build_circuit(circuit),
                              BDSOptions(verify="cec"), tracer=tr)
        phase_of = {}
        for phase in result.trace.children:
            stack = [phase]
            while stack:
                span = stack.pop()
                phase_of[id(span)] = phase.name
                stack.extend(span.children)
        built = {phase_of[id(span)] for span in made}
        assert built == {"flow.sweep", "flow.eliminate", "flow.decompose",
                         "flow.sharing", "flow.verify"}
        for phase in result.trace.children:
            if phase.name in built:
                assert phase.counters.get("ite_calls", 0) > 0, phase.name
        agg = _sum_child_counters(result.trace.children)
        assert agg["ite_calls"] == result.perf["ite_calls"]

    @pytest.mark.parametrize("circuit", ["rl_mux", "C880"])
    def test_phase_deltas_partition_flow_totals(self, circuit):
        tr = Tracer()
        result = bds_optimize(build_circuit(circuit),
                              BDSOptions(verify="sim"), tracer=tr)
        root = result.trace
        assert root is not None and root.name == "flow"
        agg = _sum_child_counters(root.children)
        totals = _count_totals(result.perf)
        for key, want in totals.items():
            assert agg.get(key, 0) == want, \
                "phase deltas for %r do not sum to the flow total" % key
        assert set(agg) <= set(totals) | {k for k in agg if agg[k] == 0}

    @pytest.mark.parametrize("circuit, eliminate, decompose", [
        ("C432", 3384, 190),
        ("C499", 6939, 2135),
    ])
    def test_phase_ite_calls_are_pinned(self, circuit, eliminate, decompose):
        """The kernel work of the two phases that make most of it, exact.

        Eliminate's trial compositions go through two cofactors and one
        ITE, and the generalized-dominator search skips the RESTRICT of
        every divisor that cannot win (C432 read 5,853 and 5,516 before
        either, C499 30,615 and 22,364).  Decompose then works only on
        the first supernode of each distinct BDD (14 of C432's 59, 18 of
        C499's 48), and checks each decomposition level against its
        children's checked refs instead of rebuilding the whole subtree
        (681 and 8,310 before).  Each trial ITE of eliminate runs under
        the slack its collapse has left, and stops once the collapse is
        sure to be rejected (3,713 and 14,070 before).  A change here is
        a change in the work the flow does: say why, then update the
        pins.
        """
        result = bds_optimize(build_circuit(circuit), tracer=Tracer())
        work = {span.name: span.counters.get("ite_calls", 0)
                for span in result.trace.children}
        assert work["flow.eliminate"] == eliminate
        assert work["flow.decompose"] == decompose

    def test_eliminate_decisions_are_pinned(self):
        # Span attributes, not counters: BDSResult.perf does not carry
        # them.  26 of the 157 rejections stop inside a trial ITE.
        result = bds_optimize(build_circuit("C432"))
        [span] = [s for s in result.trace.children
                  if s.name == "flow.eliminate"]
        assert span.attrs == {"trials": 232, "collapsed": 75,
                              "rejected": 157, "stopped_early": 26}

    def test_tracing_does_not_change_the_network(self):
        net = build_circuit("C432")
        plain = bds_optimize(net, BDSOptions())
        traced = bds_optimize(net, BDSOptions(), tracer=Tracer())
        assert write_blif(traced.network) == write_blif(plain.network)

    def test_chrome_export_loads_and_covers_every_span(self):
        tr = Tracer()
        bds_optimize(build_circuit("rl_mux"), BDSOptions(), tracer=tr)
        doc = json.loads(json.dumps(tr.to_chrome()))
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert len(events) == sum(len(r.walk()) for r in tr.roots)
        for ev in events:
            assert set(ev) == {"name", "cat", "ph", "ts", "dur",
                               "pid", "tid", "args"}
            assert ev["ph"] == "X" and ev["cat"] == "repro"
            assert ev["ts"] >= 0 and ev["dur"] >= 0
        flow = [e for e in events if e["name"] == "flow"][0]
        assert flow["args"]["circuit"] == "rl_mux"
        assert flow["args"]["counters"]["ite_calls"] > 0


class TestCliTrace:
    def test_optimize_trace_round_trips_through_the_service_worker(
            self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        gen = tmp_path / "add4.blif"
        opt = tmp_path / "add4.opt.blif"
        trace = tmp_path / "add4.trace.json"
        for args in (["generate", "add4", "-o", str(gen)],
                     ["optimize", str(gen), "-o", str(opt),
                      "--cache-dir", str(tmp_path / "cache"),
                      "--trace", str(trace)]):
            res = subprocess.run([sys.executable, "-m", "repro.cli"] + args,
                                 env=env, capture_output=True, text=True)
            assert res.returncode == 0, res.stdout + res.stderr
        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"flow", "flow.decompose", "decompose.supernode"} <= names
        # The forked worker's spans are grafted onto one row of their own.
        tids = {e["tid"] for e in doc["traceEvents"]
                if e["name"] in ("flow", "flow.decompose",
                                 "decompose.supernode")}
        assert len(tids) == 1 and 1 not in tids
        # ... inside the request's own span, so the worker's flow lies in
        # the window the request was served in, not after the reply.
        [request] = [e for e in doc["traceEvents"]
                     if e["name"] == "service.request"]
        [flow] = [e for e in doc["traceEvents"] if e["name"] == "flow"]
        assert request["tid"] == 1 and request["args"]["cached"] is False
        assert request["ts"] <= flow["ts"]
        assert flow["ts"] + flow["dur"] <= request["ts"] + request["dur"] + 1


@pytest.mark.perf
class TestAlwaysOnOverhead:
    """Acceptance: spans are always on, so one private-tracer span (no
    counter sampling) times the span count of a C499 run must cost under
    2% of that run's CPU."""

    def test_span_cost_under_two_percent_of_flow(self):
        net = build_circuit("C499")
        t0 = time.process_time()
        result = bds_optimize(net, BDSOptions())
        flow_s = time.process_time() - t0
        spans = len(result.trace.walk())

        tr = Tracer()
        reps = 20_000
        with tr.span("outer"):
            t0 = time.process_time()
            for _ in range(reps):
                with tr.span("x", live_before=1):
                    pass
            per_span = (time.process_time() - t0) / reps
        overhead = per_span * spans
        assert overhead < 0.02 * flow_s, \
            "always-on spans cost %.3gs on a %.3gs flow (%d spans)" \
            % (overhead, flow_s, spans)
