"""Tests for static timing analysis of mapped networks."""

import pytest

from repro.circuits import ripple_adder
from repro.mapping import map_network
from repro.mapping.timing import analyze_timing, format_timing


class TestTiming:
    def test_arrival_and_critical_path(self):
        net = ripple_adder(4)
        result = map_network(net)
        report = analyze_timing(result)
        assert report.worst_delay == pytest.approx(result.delay)
        # The critical path ends at the worst output and starts at a PI.
        assert report.critical_path[0] in net.inputs
        assert report.critical_path[-1] in net.outputs
        # Arrival along the path is nondecreasing.
        arr = [report.arrival.get(s, 0.0) for s in report.critical_path]
        assert all(a <= b for a, b in zip(arr, arr[1:]))

    def test_slack_nonnegative_at_default_target(self):
        net = ripple_adder(3)
        result = map_network(net)
        report = analyze_timing(result)
        assert all(s >= -1e-9 for s in report.slack.values())
        # Critical-path signals have (near) zero slack.
        for sig in report.critical_path:
            if sig in report.slack:
                assert report.slack[sig] == pytest.approx(0.0, abs=1e-9)

    def test_tight_required_time_gives_negative_slack(self):
        net = ripple_adder(3)
        result = map_network(net)
        report = analyze_timing(result, required_time=0.5)
        assert min(report.slack.values()) < 0

    def test_format(self):
        net = ripple_adder(2)
        result = map_network(net)
        text = format_timing(analyze_timing(result))
        assert "worst delay" in text
        assert "critical path" in text

