"""End-to-end: the BDS flow under ``check_level`` full/cheap.

The full sanitizer+lint must pass at every safe point of a real
optimization run, produce an equivalent network, and surface its counters
through ``BDSResult.perf``.
"""

import pytest

from repro.bds import BDSOptions, bds_optimize
from repro.circuits import build_circuit
from repro.verify import check_equivalence


def test_full_check_flow_clean_and_equivalent():
    net = build_circuit("cmp8")
    res_off = bds_optimize(net, BDSOptions(check_level="off"))
    res_full = bds_optimize(net, BDSOptions(check_level="full"))
    # Checks ran, found nothing, and did not change the result.
    assert res_full.perf["checks_run"] > 0
    assert res_full.perf["check_violations"] == 0
    assert check_equivalence(net, res_full.network).equivalent
    eq = check_equivalence(res_off.network, res_full.network)
    assert eq.equivalent


def test_cheap_check_flow_runs():
    net = build_circuit("add8")
    res = bds_optimize(net, BDSOptions(check_level="cheap"))
    assert res.perf["checks_run"] > 0
    assert res.perf["check_violations"] == 0
    assert check_equivalence(net, res.network).equivalent


def test_off_reports_zero_checks():
    net = build_circuit("rl_cm85")
    res = bds_optimize(net, BDSOptions(check_level="off"))
    assert res.perf["checks_run"] == 0
    assert res.perf["check_violations"] == 0


def test_invalid_check_level_rejected():
    net = build_circuit("rl_cm85")
    with pytest.raises(ValueError):
        bds_optimize(net, BDSOptions(check_level="paranoid"))
