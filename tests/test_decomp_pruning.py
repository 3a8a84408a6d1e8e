"""The generalized-dominator search's pruning is exact.

``engine._try_structural`` hands both generalized searches a
:class:`repro.decomp.generalized.Bound`, and they skip the RESTRICT of
every divisor whose candidate could not beat the best one found so far.
Here the two search names in ``repro.decomp.engine`` are wrapped to drop
the bound, which gives back the unpruned search.  On the same function,
built in two identical managers, both engines must return equal factoring
trees and equal :class:`DecompStats`, under every family switch of
:class:`DecompOptions`.
"""

import random

import pytest

from repro.bdd import BDD
from repro.bdd.transfer import transfer_many
from repro.bdd.traverse import support
from repro.circuits.randlogic import random_logic
from repro.decomp import engine, generalized
from repro.decomp.engine import DecompOptions, DecompStats, decompose
from repro.network import sweep
from repro.network.eliminate import PartitionedNetwork

CONFIGS = [{}, {"enable_simple": False}, {"enable_x_dominator": False},
           {"enable_mux": False}, {"enable_generalized": False},
           {"enable_bool_xnor": False}]


def _random_expression(mgr, refs, rng, n_ops):
    refs = list(refs)
    for _ in range(n_ops):
        f, g = rng.choice(refs), rng.choice(refs)
        if rng.random() < 0.3:
            f ^= 1
        refs.append(getattr(mgr, rng.choice(["and_", "or_", "xor_"]))(f, g))
    return refs[-1]


def _expression(rng):
    """A random AND/OR/XOR expression."""
    mgr = BDD()
    refs = [mgr.var_ref(mgr.new_var()) for _ in range(rng.randint(4, 9))]
    return mgr, _random_expression(mgr, refs, rng, rng.randint(6, 18))


def _product(rng):
    """The AND or OR of two expressions over overlapping variable sets:
    the shape a Boolean AND/OR decomposition (Lemmas 1-2) can win on."""
    mgr = BDD()
    refs = [mgr.var_ref(mgr.new_var()) for _ in range(rng.randint(4, 9))]
    half = len(refs) // 2 + 1
    a = _random_expression(mgr, rng.sample(refs, half), rng, 4)
    b = _random_expression(mgr, rng.sample(refs, half), rng, 4)
    op = mgr.and_ if rng.random() < 0.5 else mgr.or_
    return mgr, op(a, b)


def _reads_4_to_9(mgr, ref):
    return 4 <= len(support(mgr, ref)) <= 9


def _drawn(make, count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        mgr, ref = make(rng)
        if _reads_4_to_9(mgr, ref):
            out.append((mgr, ref))
    return out


def _supernodes(count, seed):
    """Eliminated supernodes of ``random_logic`` netlists that read 4-9
    variables, as the flow hands them to ``decompose``."""
    out = []
    netlist_seed = seed
    while len(out) < count:
        net = random_logic(16, 48, 8, seed=netlist_seed)
        netlist_seed += 1
        sweep(net)
        part = PartitionedNetwork.from_network(net)
        part.eliminate(threshold=10)
        out.extend((part.mgr, part.refs[name]) for name in sorted(part.refs)
                   if _reads_4_to_9(part.mgr, part.refs[name]))
    return out[:count]


@pytest.fixture(scope="module")
def corpus():
    """200 seeded functions of 4-9 variables."""
    return (_drawn(_expression, 80, 7) + _drawn(_product, 60, 8)
            + _supernodes(60, 9))


def _unbounded(search):
    """``search`` with its bound dropped: every candidate, no pruning."""
    def call(mgr, root, cuts=None, bound=None):
        return search(mgr, root, cuts)
    return call


def _run(src, ref, options):
    moved = transfer_many(src, [ref])
    stats = DecompStats()
    tree = decompose(moved.manager, moved.refs[0], options, stats)
    return tree, stats.as_dict(), moved.manager.perf.ite_calls


@pytest.mark.parametrize("config", CONFIGS,
                         ids=lambda c: "-".join("%s=%s" % kv
                                                for kv in sorted(c.items()))
                         or "default")
def test_pruned_search_decides_as_the_full_search(config, corpus,
                                                  monkeypatch):
    options = DecompOptions(**config)
    pruned = [_run(mgr, ref, options) for mgr, ref in corpus]
    monkeypatch.setattr(engine, "conjunctive_candidates",
                        _unbounded(generalized.conjunctive_candidates))
    monkeypatch.setattr(engine, "disjunctive_candidates",
                        _unbounded(generalized.disjunctive_candidates))
    full = [_run(mgr, ref, options) for mgr, ref in corpus]
    for i, ((tree, stats, _), (want_tree, want_stats, _)) in enumerate(
            zip(pruned, full)):
        assert tree == want_tree, "function %d: trees differ" % i
        assert stats == want_stats, "function %d: stats differ" % i
    if options.enable_generalized:
        # The corpus reaches Boolean AND/OR winners, and the bound saves
        # work on it.
        assert sum(s["boolean_and"] + s["boolean_or"]
                   for _, s, _ in full) > 0
        assert sum(n for _, _, n in pruned) < sum(n for _, _, n in full)
