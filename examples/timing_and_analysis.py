"""Analysis APIs: static timing, cone extraction, MFFCs, serialization.

Synthesizes a carry-lookahead adder, maps it, and then exercises the
analysis layer a downstream user would reach for: the critical path and
slacks, the logic cone of the slowest output, its MFFC, and saving the
output's BDD to disk format.

Run:  python examples/timing_and_analysis.py
"""

from repro.bdd import BDD
from repro.bdd.serialize import dumps, loads
from repro.bds import bds_optimize
from repro.circuits.extra import carry_lookahead_adder
from repro.mapping import analyze_timing, format_timing, map_network
from repro.network.cones import (extract_cone, global_bdd, initial_order,
                                 mffc, transitive_fanin)
from repro.verify import check_equivalence


def main():
    net = carry_lookahead_adder(8)
    optimized = bds_optimize(net).network
    mapped = map_network(optimized, mode="delay")
    assert check_equivalence(net, mapped.network).equivalent

    report = analyze_timing(mapped)
    print(format_timing(report))

    worst = report.worst_output()
    print("\ncone of %s: %d signals"
          % (worst, len(transitive_fanin(mapped.network, worst))))
    print("MFFC of %s: %d private nodes"
          % (worst, len(mffc(mapped.network, worst))))

    cone = extract_cone(mapped.network, [worst], name="worst_cone")
    print("standalone cone:", cone.stats())

    # Serialize the cone output's global BDD and read it back.
    mgr = BDD()
    var_of = {n: mgr.new_var(n) for n in initial_order(cone)}
    ref = global_bdd(mgr, cone, worst, var_of, {}, size_cap=100000)
    text = dumps(mgr, [ref])
    mgr2, (back,) = loads(text)
    print("BDD dump: %d lines, reload %s"
          % (len(text.splitlines()),
             "ok" if len(text.splitlines()) > 3 and back is not None else "??"))


if __name__ == "__main__":
    main()
