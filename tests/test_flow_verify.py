"""Verification as a first-class flow stage: BDSOptions(verify=...)."""

import pytest

import repro.bds.flow as flow_mod
from repro.bds import BDSOptions, bds_optimize
from repro.circuits import build_circuit
from repro.verify import VerifyError


def _corrupting_lowering(monkeypatch):
    """Patch the flow's lowering to stick the first output at constant 0."""
    original = flow_mod.trees_to_network

    def corrupt(*args, **kwargs):
        net = original(*args, **kwargs)
        out = net.outputs[0]
        if out in net.nodes:
            net.nodes[out].cover = []
        return net

    monkeypatch.setattr(flow_mod, "trees_to_network", corrupt)


class TestFlowVerify:
    @pytest.mark.parametrize("mode", ["sim", "cec", "full"])
    def test_clean_flow_passes_each_mode(self, mode):
        net = build_circuit("add4")
        result = bds_optimize(net, BDSOptions(verify=mode))
        assert result.perf["verify_outputs_checked"] >= len(net.outputs)
        assert result.perf["verify_unknown"] == 0
        assert result.verify_unknown_outputs == []
        assert "verify" in result.timings

    def test_off_mode_records_nothing(self):
        net = build_circuit("add4")
        result = bds_optimize(net, BDSOptions(verify="off"))
        assert "verify_outputs_checked" not in result.perf
        assert "verify" not in result.timings

    def test_invalid_mode_rejected_up_front(self):
        net = build_circuit("add4")
        with pytest.raises(ValueError, match="verify must be one of"):
            bds_optimize(net, BDSOptions(verify="yes"))

    @pytest.mark.parametrize("mode", ["sim", "cec", "full"])
    def test_miscompile_raises_verify_error(self, mode, monkeypatch):
        _corrupting_lowering(monkeypatch)
        net = build_circuit("add4")
        with pytest.raises(VerifyError) as info:
            bds_optimize(net, BDSOptions(verify=mode))
        err = info.value
        assert err.mode == mode
        assert set(err.counterexample) == set(net.inputs)

    def test_miscompile_unnoticed_without_verify(self, monkeypatch):
        # The guard the fuzzer exists to provide: verify="off" ships the bug.
        _corrupting_lowering(monkeypatch)
        net = build_circuit("add4")
        result = bds_optimize(net, BDSOptions(verify="off"))
        assert result.network is not None

    def test_size_cap_yields_unknowns_not_error(self):
        # A budget of 0 s is a deadline already past; like a hit size
        # cap, it leaves outputs unknown instead of raising.
        net = build_circuit("add16")      # > EXHAUSTIVE_LIMIT inputs
        result = bds_optimize(net, BDSOptions(verify="cec",
                                              verify_budget=0))
        assert result.verify_unknown_outputs
        assert result.perf["verify_unknown"] == len(
            result.verify_unknown_outputs)
