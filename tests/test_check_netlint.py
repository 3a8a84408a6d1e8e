"""Network/partition lint tests plus the ``repro check`` CLI subcommand."""

import pytest

from repro.check import CheckError
from repro.check.net_lint import (
    INV_COVER_RANGE,
    INV_CYCLE,
    INV_DANGLING_FANIN,
    INV_DUPLICATE_FANIN,
    INV_DUPLICATE_OUTPUT,
    INV_FANOUT_INDEX,
    INV_FOREIGN_REF,
    INV_ORPHAN_NODE,
    INV_SIZE_CACHE,
    INV_UNDRIVEN_OUTPUT,
    lint_network,
    lint_partition,
)
from repro.cli import main
from repro.network import parse_blif
from repro.network.eliminate import PartitionedNetwork

GOOD = """\
.model good
.inputs a b c
.outputs y
.names a b t
11 1
.names t c y
1- 1
-1 1
.end
"""

CYCLIC = """\
.model cyc
.inputs a
.outputs y
.names a z y
11 1
.names w z
1 1
.names y w
1 1
.end
"""

BROKEN = """\
.model bad
.inputs a b
.outputs y y q
.names a b ghost t
111 1
.names t y
1 1
.names a a u
11 1
.names b orphaned
1 1
.end
"""


def lint_text(text, **kw):
    net = parse_blif(text, validate=False)
    return lint_network(net, raise_on_violation=False, **kw)


def test_clean_network_passes():
    report = lint_text(GOOD)
    assert report.ok
    assert report.stats["nodes"] == 2
    assert report.stats["outputs"] == 1


def test_cycle_detected_with_path():
    report = lint_text(CYCLIC)
    assert INV_CYCLE in report.invariants()
    [violation] = [v for v in report.violations if v.invariant == INV_CYCLE]
    assert set(violation.signals) == {"y", "z", "w"}


def test_cycle_raises_check_error():
    net = parse_blif(CYCLIC, validate=False)
    with pytest.raises(CheckError) as excinfo:
        lint_network(net)
    assert INV_CYCLE in excinfo.value.invariants


def test_broken_network_violations():
    report = lint_text(BROKEN)
    found = report.invariants()
    assert INV_DANGLING_FANIN in found      # ghost
    assert INV_DUPLICATE_OUTPUT in found    # y declared twice
    assert INV_DUPLICATE_FANIN in found     # node u lists a twice
    assert INV_UNDRIVEN_OUTPUT in found     # q driven by nothing
    assert INV_ORPHAN_NODE in found         # orphaned feeds no output


def test_orphan_check_is_full_level_only():
    report = lint_text(BROKEN, level="cheap")
    assert INV_ORPHAN_NODE not in report.invariants()


def test_cover_fanin_range():
    net = parse_blif(GOOD, validate=False)
    node = net.nodes["t"]
    node.cover.append(frozenset({2 << 1}))  # position 2, only 2 fanins
    report = lint_network(net, raise_on_violation=False)
    assert INV_COVER_RANGE in report.invariants()


def test_partition_lint_clean_and_foreign_ref():
    net = parse_blif(GOOD)
    part = PartitionedNetwork.from_network(net)
    assert lint_partition(part).ok
    name = sorted(part.refs)[0]
    part.refs[name] = (1 << 20)  # ref into storage the manager never had
    report = lint_partition(part, raise_on_violation=False)
    assert INV_FOREIGN_REF in report.invariants()
    assert name in {s for v in report.violations for s in v.signals}


def test_partition_lint_fanout_index_full_level():
    part = PartitionedNetwork.from_network(parse_blif(GOOD))
    assert lint_partition(part).ok
    part._fanouts["t"].remove("y")  # the index forgets that y reads t
    assert INV_FANOUT_INDEX not in lint_partition(
        part, level="cheap", raise_on_violation=False).invariants()
    report = lint_partition(part, raise_on_violation=False)
    assert report.invariants() == [INV_FANOUT_INDEX]
    assert "t" in {s for v in report.violations for s in v.signals}


def test_partition_lint_size_cache_full_level():
    part = PartitionedNetwork.from_network(parse_blif(GOOD))
    part._sizes["t"] += 1  # eliminate's trial bound would trust it
    assert INV_SIZE_CACHE not in lint_partition(
        part, level="cheap", raise_on_violation=False).invariants()
    with pytest.raises(CheckError) as exc:
        lint_partition(part)
    assert exc.value.report.invariants() == [INV_SIZE_CACHE]
    assert "t" in {s for v in exc.value.report.violations
                   for s in v.signals}


# ----------------------------------------------------------------------
# CLI: repro check
# ----------------------------------------------------------------------


def test_cli_check_clean(tmp_path, capsys):
    p = tmp_path / "good.blif"
    p.write_text(GOOD)
    assert main(["check", str(p)]) == 0
    out = capsys.readouterr().out
    assert "clean" in out


def test_cli_check_violations_exit_1(tmp_path, capsys):
    p = tmp_path / "cyc.blif"
    p.write_text(CYCLIC)
    assert main(["check", str(p)]) == 1
    err = capsys.readouterr().err
    assert INV_CYCLE in err
    assert "FAILED" in err


def test_cli_check_parse_error_exit_2(tmp_path, capsys):
    p = tmp_path / "nonsense.blif"
    p.write_text(".model x\n.latch a b\n.end\n")
    assert main(["check", str(p)]) == 2
    assert "PARSE ERROR" in capsys.readouterr().err


def test_cli_check_cheap_level(tmp_path, capsys):
    p = tmp_path / "good.blif"
    p.write_text(GOOD)
    assert main(["check", str(p), "--level", "cheap"]) == 0
    assert "cheap lint" in capsys.readouterr().out
