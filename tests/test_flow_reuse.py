"""Each distinct supernode is sifted and decomposed once per flow.

``bds_optimize`` keys every supernode by
:func:`repro.bdd.structure_key`: the node arrays and root its transfer
would build in a fresh manager.  A supernode whose key an earlier one
had reuses that one's factoring tree.  Here the key helper, as
``repro.bds.flow`` resolves it, is wrapped to make every key unique,
which gives back one transfer, sift and decomposition per supernode.
Both flows must write the same BLIF bytes and count the same
:class:`DecompStats`.
"""

import gc
import itertools

import pytest

from repro.bdd import BDD, transfer_many
from repro.bds import BDSOptions, bds_optimize
from repro.bds import flow
from repro.circuits import TABLE1_CIRCUITS, build_circuit
from repro.circuits.randlogic import random_logic
from repro.decomp.ftree import FTree
from repro.network.blif import write_blif
from repro.obs.trace import Tracer

ARITH_CIRCUITS = ["add32", "add64", "add128", "cla32", "cla64", "m6x6"]

VARIANTS = {
    "default": {},
    "balance_trees": {"balance_trees": True},
    "check_full": {"check_level": "full"},
}

#: Variants that take 15-35 s over the corpus on a 2-core Xeon, so they
#: run with the perf-marked tests (``pytest -m perf``).
SLOW_VARIANTS = {
    "use_sdc": {"use_sdc": True},
}


@pytest.fixture(scope="module")
def corpus():
    nets = [build_circuit(name) for name in TABLE1_CIRCUITS + ARITH_CIRCUITS]
    return nets + [random_logic(24, 64, 24, seed=seed) for seed in range(40)]


def _unique_keys(monkeypatch):
    """Make every supernode's key unique: no supernode is reused."""
    fresh = itertools.count()
    key_of = flow.structure_key

    def unique(mgr, ref):
        key, order = key_of(mgr, ref)
        return (next(fresh),) + key, order

    monkeypatch.setattr(flow, "structure_key", unique)


def _outcome(net, options):
    result = bds_optimize(net, options)
    return write_blif(result.network), result.decomp_stats.as_dict()


@pytest.mark.parametrize("variant", sorted(VARIANTS) + [
    pytest.param(name, marks=pytest.mark.perf)
    for name in sorted(SLOW_VARIANTS)])
def test_reuse_changes_no_output(monkeypatch, corpus, variant):
    options = BDSOptions(**dict(VARIANTS, **SLOW_VARIANTS)[variant])
    reused = [_outcome(net, options) for net in corpus]
    _unique_keys(monkeypatch)
    fresh = [_outcome(net, options) for net in corpus]
    for net, want, got in zip(corpus, fresh, reused):
        assert got == want, "%s under %s" % (net.name, variant)


class TestReuse:
    def test_repeats_build_no_manager_and_are_named_in_the_trace(
            self, monkeypatch):
        transfers = []

        def counted(src, refs, *args, **kwargs):
            transfers.append(refs)
            return transfer_many(src, refs, *args, **kwargs)

        monkeypatch.setattr(flow, "transfer_many", counted)
        result = bds_optimize(build_circuit("C432"), tracer=Tracer())
        [phase] = [span for span in result.trace.children
                   if span.name == "flow.decompose"]
        spans = [span for span in phase.children
                 if span.name == "decompose.supernode"]
        assert len(spans) == result.supernodes == 59
        firsts = [span.attrs["supernode"] for span in spans
                  if "reuses" not in span.attrs]
        reusers = [span for span in spans if "reuses" in span.attrs]
        # 45 of C432's 59 supernodes repeat an earlier one's BDD.
        assert len(reusers) == 45
        assert len(transfers) == len(firsts) == 14
        names = [span.attrs["supernode"] for span in spans]
        for span in reusers:
            first = span.attrs["reuses"]
            assert first in firsts
            assert names.index(first) < names.index(span.attrs["supernode"])

    def test_reused_supernodes_do_no_kernel_work(self):
        result = bds_optimize(build_circuit("C499"), tracer=Tracer())
        [phase] = [span for span in result.trace.children
                   if span.name == "flow.decompose"]
        for span in phase.children:
            if "reuses" in span.attrs:
                assert not span.counters.get("ite_calls")

    def test_no_tree_outlives_the_flow(self):
        # The memo holds factoring trees over variable ids and no
        # manager; everything dies with the call, by reference counting
        # alone (TestManagerLifetime in test_bds_flow.py counts the
        # managers).  Balancing flattens its chains on an explicit stack,
        # so it leaves no reference cycle either.
        def trees():
            return sum(isinstance(obj, FTree) for obj in gc.get_objects())

        net = build_circuit("C6288")
        for options in (BDSOptions(), BDSOptions(balance_trees=True)):
            was_enabled = gc.isenabled()
            gc.collect()
            gc.disable()
            try:
                before = trees()
                result = bds_optimize(net, options)
                del result
                after = trees()
            finally:
                if was_enabled:
                    gc.enable()
            assert after == before, options

    def test_the_key_is_the_transferred_manager(self):
        # structure_key is exactly the arrays transfer_many builds.
        mgr = BDD()
        a, b, c, d = (mgr.var_ref(mgr.new_var(n)) for n in "abcd")
        f = mgr.or_(mgr.and_(a, c), mgr.xor_(b, d)) ^ 1
        key, order = flow.structure_key(mgr, f)
        moved = transfer_many(mgr, [f])
        dst = moved.manager
        arrays = []
        for idx in range(1, dst.num_nodes_allocated):
            arrays += dst.node(idx << 1)
        assert key == (moved.refs[0],) + tuple(arrays)
        assert [mgr.var_name(v) for v in order] == [
            dst.var_name(v) for v in range(dst.num_vars)]
