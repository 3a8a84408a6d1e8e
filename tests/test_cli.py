"""Tests for the command-line interface."""


import pytest

from repro.circuits import build_circuit
from repro.cli import main
from repro.network import parse_blif, write_blif
from repro.verify import EXHAUSTIVE_LIMIT


@pytest.fixture
def blif_file(tmp_path):
    path = tmp_path / "in.blif"
    path.write_text("""
.model t
.inputs a b c
.outputs y z
.names a b t1
11 1
.names t1 c y
10 1
01 1
.names a c z
11 1
.end
""")
    return str(path)


class TestOptimize:
    def test_bds_roundtrip(self, blif_file, tmp_path, capsys):
        out = str(tmp_path / "out.blif")
        rc = main(["optimize", blif_file, "-o", out, "--flow", "bds",
                   "--verify"])
        assert rc == 0
        net = parse_blif(open(out).read())
        assert set(net.outputs) == {"y", "z"}

    def test_sis_flow(self, blif_file, tmp_path):
        out = str(tmp_path / "out.blif")
        assert main(["optimize", blif_file, "-o", out, "--flow", "sis"]) == 0
        parse_blif(open(out).read())

    def test_stdout_output(self, blif_file, capsys):
        assert main(["optimize", blif_file]) == 0
        captured = capsys.readouterr()
        assert ".model" in captured.out

    def test_map_option(self, blif_file, tmp_path, capsys):
        out = str(tmp_path / "mapped.blif")
        assert main(["optimize", blif_file, "-o", out, "--map",
                     "--stats"]) == 0
        parse_blif(open(out).read())

    def test_lut_option(self, blif_file, tmp_path):
        out = str(tmp_path / "luts.blif")
        assert main(["optimize", blif_file, "-o", out, "--lut", "4"]) == 0
        net = parse_blif(open(out).read())
        for node in net.nodes.values():
            assert len(node.fanins) <= 4

    def test_balance_option(self, blif_file, tmp_path):
        out = str(tmp_path / "bal.blif")
        assert main(["optimize", blif_file, "-o", out, "--balance",
                     "--verify"]) == 0


class TestGenerateVerify:
    def test_generate(self, tmp_path):
        out = str(tmp_path / "gen.blif")
        assert main(["generate", "add4", "-o", out]) == 0
        net = parse_blif(open(out).read())
        assert len(net.inputs) == 8

    def test_verify_equivalent(self, tmp_path, capsys):
        a = str(tmp_path / "a.blif")
        b = str(tmp_path / "b.blif")
        main(["generate", "parity8", "-o", a])
        main(["optimize", a, "-o", b])
        assert main(["verify", a, b]) == 0
        assert "equivalent" in capsys.readouterr().out

    def test_verify_inequivalent(self, tmp_path, capsys):
        from repro.network import write_blif
        from repro.sop.cube import lit

        a = str(tmp_path / "a.blif")
        b = str(tmp_path / "b.blif")
        main(["generate", "add4", "-o", a])
        net = parse_blif(open(a).read())
        # Corrupt: turn the first sum node's XOR cover into XNOR.
        node = net.nodes["fa0_s"]
        node.cover = [frozenset({lit(0), lit(1)}),
                      frozenset({lit(0, False), lit(1, False)})]
        open(b, "w").write(write_blif(net))
        assert main(["verify", a, b]) == 1
        assert "NOT equivalent" in capsys.readouterr().out


class TestVerifyContract:
    """Exit-code contract: 0 proven, 1 mismatch, 2 inconclusive."""

    def test_inconclusive_exits_2_and_names_outputs(self, tmp_path, capsys):
        # add4 with unused inputs past EXHAUSTIVE_LIMIT: the size cap
        # bounds only the BDD proof, which runs above the limit.
        net = build_circuit("add4")
        for k in range(EXHAUSTIVE_LIMIT + 1 - len(net.inputs)):
            net.add_input("pad%d" % k)
        a = str(tmp_path / "a.blif")
        with open(a, "w") as fh:
            fh.write(write_blif(net))
        rc = main(["verify", a, a, "--size-cap", "1"])
        assert rc == 2
        out = capsys.readouterr().out
        assert "UNPROVEN" in out
        assert "fa3_c" in out            # unproven outputs named explicitly

    def test_full_mode_breaks_the_tie(self, tmp_path, capsys):
        a = str(tmp_path / "a.blif")
        main(["generate", "add4", "-o", a])
        # Same tiny cap, but the exhaustive simulation cross-check proves
        # the capped outputs (add4 is small enough for a full truth table).
        rc = main(["verify", a, a, "--size-cap", "1", "--mode", "full"])
        assert rc == 0
        assert "equivalent" in capsys.readouterr().out

    def test_sim_mode(self, tmp_path, capsys):
        a = str(tmp_path / "a.blif")
        main(["generate", "parity8", "-o", a])
        assert main(["verify", a, a, "--mode", "sim"]) == 0

    def test_optimize_verify_mode_argument(self, blif_file, tmp_path):
        out = str(tmp_path / "out.blif")
        for mode in ("sim", "cec", "full"):
            assert main(["optimize", blif_file, "-o", out,
                         "--verify", mode]) == 0

    def test_optimize_verify_miscompile_exits_1(self, blif_file, tmp_path,
                                                capsys, monkeypatch):
        import repro.bds.flow as flow_mod

        original = flow_mod.trees_to_network

        def corrupt(*args, **kwargs):
            net = original(*args, **kwargs)
            out = net.outputs[0]
            if out in net.nodes:
                net.nodes[out].cover = []
            return net

        monkeypatch.setattr(flow_mod, "trees_to_network", corrupt)
        out = str(tmp_path / "out.blif")
        rc = main(["optimize", blif_file, "-o", out, "--verify", "full"])
        assert rc == 1
        assert "VERIFICATION FAILED" in capsys.readouterr().err
        # Silent shipping is exactly what the exit code must prevent.
        assert main(["optimize", blif_file, "-o", out]) == 0


class TestOptimizeJson:
    def test_json_object_on_stdout(self, blif_file, tmp_path, capsys):
        out = str(tmp_path / "out.blif")
        rc = main(["optimize", blif_file, "-o", out, "--json",
                   "--verify", "cec"])
        assert rc == 0
        import json

        obj = json.loads(capsys.readouterr().out)
        assert obj["exit_code"] == 0
        assert obj["verify_mode"] == "cec"
        assert obj["cached"] is False
        assert obj["input"]["nodes"] >= obj["output"]["nodes"] - 5
        assert obj["perf"]["ite_calls"] > 0
        parse_blif(open(out).read())     # BLIF went to -o, not stdout

    def test_json_without_output_file_keeps_stdout_clean(self, blif_file,
                                                         capsys):
        import json

        assert main(["optimize", blif_file, "--json"]) == 0
        # stdout must be exactly one JSON object -- no BLIF mixed in.
        json.loads(capsys.readouterr().out)

    def test_json_reports_cache_hit_on_second_run(self, blif_file, tmp_path,
                                                  capsys):
        import json

        cache_dir = str(tmp_path / "cache")
        out = str(tmp_path / "out.blif")
        main(["optimize", blif_file, "-o", out, "--json",
              "--cache-dir", cache_dir])
        cold = json.loads(capsys.readouterr().out)
        assert cold["perf"]["artifact_cache_misses"] == 1
        main(["optimize", blif_file, "-o", out, "--json",
              "--cache-dir", cache_dir])
        warm = json.loads(capsys.readouterr().out)
        assert warm["cached"] is True
        assert warm["perf"]["artifact_cache_hits"] == 1


class TestBatchCommand:
    def _make_inputs(self, tmp_path, names=("add4", "cmp8", "parity8")):
        indir = tmp_path / "in"
        indir.mkdir()
        for name in names:
            main(["generate", name, "-o", str(indir / (name + ".blif"))])
        return str(indir)

    def test_two_pass_batch_second_all_cached(self, tmp_path, capsys):
        import json

        indir = self._make_inputs(tmp_path)
        cache_dir = str(tmp_path / "cache")
        args = ["batch", indir, "--cache-dir", cache_dir, "--json"]
        assert main(args) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["cache_hits"] == 0 and cold["cache_misses"] == 3
        assert main(args) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["cache_hits"] == 3 and warm["cache_misses"] == 0
        assert all(r["cached"] for r in warm["results"])

    def test_out_dir_writes_optimized_blifs(self, tmp_path, capsys):
        import os

        indir = self._make_inputs(tmp_path, names=("add4",))
        outdir = str(tmp_path / "out")
        assert main(["batch", indir, "--out-dir", outdir]) == 0
        assert os.listdir(outdir) == ["add4.opt.blif"]
        parse_blif(open(os.path.join(outdir, "add4.opt.blif")).read())

    def test_bad_input_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.blif"
        bad.write_text("garbage\n")
        cache_dir = str(tmp_path / "cache")
        assert main(["batch", str(bad), "--cache-dir", cache_dir]) == 1

    def test_no_inputs_exits_1(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["batch", str(empty)]) == 1


class TestServeCommand:
    def test_serve_round_trip(self, blif_file, tmp_path, capsys,
                              monkeypatch):
        import io
        import json
        import sys as _sys

        # Commands are answered when read.  With --backlog 1 stdin is
        # read on only once r1 is answered, so stats covers it and the
        # shutdown that follows finds nothing to cancel (a shutdown
        # racing a pending request answers it ``cancelled`` instead --
        # see tests/test_service_api.py).
        request = json.dumps({"blif": open(blif_file).read(), "id": "r1"})
        stats = json.dumps({"cmd": "stats"})
        shutdown = json.dumps({"cmd": "shutdown"})
        monkeypatch.setattr(
            _sys, "stdin",
            io.StringIO(request + "\n" + stats + "\n" + shutdown + "\n"))
        rc = main(["serve", "--cache-dir", str(tmp_path / "cache"),
                   "--backlog", "1"])
        assert rc == 0
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines()]
        assert lines[0]["id"] == "r1" and lines[0]["status"] == "ok"
        parse_blif(lines[0]["blif"])
        assert lines[1]["cache"]["artifact_cache_misses"] == 1
        assert lines[2] == {"status": "ok", "served": 1}


class TestServeSocketCommand:
    def _spawn_server(self, tmp_path):
        import os
        import subprocess
        import sys as _sys
        import time

        sock_path = str(tmp_path / "srv.sock")
        repo_src = os.path.join(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.Popen(
            [_sys.executable, "-m", "repro.cli", "serve",
             "--socket", sock_path,
             "--cache-dir", str(tmp_path / "cache")],
            env=dict(os.environ, PYTHONPATH=repo_src),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        deadline = time.monotonic() + 30
        while not os.path.exists(sock_path):
            assert proc.poll() is None, proc.stderr.read()
            assert time.monotonic() < deadline, "server never bound"
            time.sleep(0.05)
        return proc, sock_path

    def test_socket_serve_sigterm_drains_exit_0(self, blif_file, tmp_path):
        import signal

        from repro.service import ServiceClient

        proc, sock_path = self._spawn_server(tmp_path)
        try:
            with ServiceClient(socket_path=sock_path) as client:
                resp = client.request(open(blif_file).read(), timeout=120)
            assert resp["status"] == "ok"
            parse_blif(resp["blif"])
        finally:
            proc.send_signal(signal.SIGTERM)
            _out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert "drained cleanly" in err

    def test_client_command_round_trip(self, blif_file, tmp_path):
        import signal

        proc, sock_path = self._spawn_server(tmp_path)
        try:
            out_dir = str(tmp_path / "out")
            rc = main(["client", blif_file, "--socket", sock_path,
                       "--out-dir", out_dir, "--timeout", "120"])
            assert rc == 0
            optimized = open(out_dir + "/in.opt.blif").read()
            parse_blif(optimized)
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=60)
        assert proc.returncode == 0

    def test_client_requires_exactly_one_transport(self, blif_file):
        assert main(["client", blif_file]) == 1
        assert main(["client", blif_file, "--socket", "/tmp/x",
                     "--port", "1"]) == 1

    def test_client_unreachable_server_exits_1(self, blif_file, tmp_path):
        assert main(["client", blif_file,
                     "--socket", str(tmp_path / "gone.sock"),
                     "--retries", "1"]) == 1


class TestFuzzCommand:
    def test_smoke_run_exits_0(self, tmp_path, capsys):
        corpus = str(tmp_path / "corpus")
        rc = main(["fuzz", "--minutes", "0.03", "--seed", "11",
                   "--corpus", corpus])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fuzz: seed=11" in out
        assert "failures=0" in out

    def test_finds_exit_1_and_land_in_corpus(self, tmp_path, capsys,
                                             monkeypatch):
        import os

        import repro.bds.flow as flow_mod

        original = flow_mod.trees_to_network

        def corrupt(*args, **kwargs):
            net = original(*args, **kwargs)
            out = net.outputs[0]
            if out in net.nodes:
                net.nodes[out].cover = []
            return net

        monkeypatch.setattr(flow_mod, "trees_to_network", corrupt)
        corpus = str(tmp_path / "corpus")
        rc = main(["fuzz", "--minutes", "1.0", "--seed", "11",
                   "--corpus", corpus, "--max-failures", "1"])
        assert rc == 1
        assert "mismatch" in capsys.readouterr().out
        assert any(f.endswith(".blif") for f in os.listdir(corpus))
