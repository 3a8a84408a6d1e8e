"""Output digests: did a change move any optimized netlist's bytes?

For every netlist of a fixed, seeded corpus this writes the sha256 of the
BLIF that ``sweep()`` produces and of the BLIF the default BDS flow
produces.  Digests taken at two commits are equal exactly when every one
of those outputs is byte-identical.  The corpus:

* the Table I circuits;
* the arithmetic circuits of bdsbench's ``arith_verify`` workload, plus
  m8x8, bshift16 and bshift32;
* the registry circuits of bdsbench's ``service_mix`` workload and its
  240 ``random_logic(24, 64, 24)`` netlists (netlist seed 20001);
* 400 ``random_logic`` netlists in four shapes;
* ``random_logic(64, 400, 32, seed=652768597)``, whose sweep output moves
  when the global-BDD walk builds a node's fanins in another order.

Usage (from the repository root; a full run takes a few minutes)::

    PYTHONPATH=src python benchmarks/output_digests.py -o digests.json
    PYTHONPATH=src python benchmarks/output_digests.py --compare digests.json

``--compare FILE`` lists every netlist whose sweep or flow output differs
from FILE (or is missing from either side) and exits 1 if there is one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from typing import Callable, Dict, Iterator, Tuple

from repro.bds import bds_optimize
from repro.circuits import TABLE1_CIRCUITS, build_circuit
from repro.circuits.randlogic import random_logic
from repro.network import sweep
from repro.network.blif import write_blif
from repro.network.network import Network

#: bdsbench ``arith_verify`` circuits, then three more arithmetic shapes.
ARITH = ["add32", "add64", "add128", "cla32", "cla64", "m6x6",
         "m8x8", "bshift16", "bshift32"]

#: bdsbench ``service_mix``: its registry circuits and its random netlists.
SERVICE_REGISTRY = [
    "rl_cm85", "rl_cm151", "rl_mux", "rl_pcle", "rl_cc", "rl_frg1",
    "parity8", "parity16", "parity32", "add4", "add8", "add16",
    "cmp8", "alu4", "rnd4_1", "bshift4", "bshift8", "bshift16",
    "m2x2", "m4x4", "dec3", "dec4", "prio8", "gray8", "cla8",
    "cla16", "rot", "dalu", "vda", "C880", "C1908", "C3540"]
SERVICE_SEED = 20001
SERVICE_RANDOM = 240

#: (label, count, seed, random_logic arguments) of the random shapes.
RANDOM_SHAPES = [
    ("small", 100, 31, dict(n_inputs=12, n_gates=40, n_outputs=8)),
    ("xor", 100, 32, dict(n_inputs=16, n_gates=80, n_outputs=12,
                          xor_fraction=0.3)),
    ("mux", 100, 33, dict(n_inputs=20, n_gates=100, n_outputs=16,
                          mux_fraction=0.15, not_fraction=0.1,
                          sink_outputs=True)),
    ("deep", 100, 34, dict(n_inputs=48, n_gates=300, n_outputs=24,
                           max_arity=4, locality=6)),
]


def corpus() -> Iterator[Tuple[str, Callable[[], Network]]]:
    """(name, builder) of every netlist, in a fixed order."""
    for name in TABLE1_CIRCUITS:
        yield "table1/" + name, lambda name=name: build_circuit(name)
    for name in ARITH:
        yield "arith/" + name, lambda name=name: build_circuit(name)
    for name in SERVICE_REGISTRY:
        yield "service/" + name, lambda name=name: build_circuit(name)
    rng = random.Random(SERVICE_SEED)
    for i in range(SERVICE_RANDOM):
        seed = rng.randrange(2 ** 31)
        yield ("service/rand%d" % i,
               lambda seed=seed, i=i: random_logic(24, 64, 24, seed=seed,
                                                   name="rand%d" % i))
    for label, count, shape_seed, kwargs in RANDOM_SHAPES:
        rng = random.Random(shape_seed)
        for i in range(count):
            seed = rng.randrange(2 ** 31)
            yield ("random/%s%d" % (label, i),
                   lambda seed=seed, kwargs=kwargs: random_logic(
                       seed=seed, **kwargs))
    yield ("random/walk_order",
           lambda: random_logic(64, 400, 32, seed=652768597))


def _sha(net: Network) -> str:
    return hashlib.sha256(write_blif(net).encode("utf-8")).hexdigest()


def digests() -> Dict[str, Dict[str, str]]:
    """Netlist name -> sha256 of its ``sweep`` and ``flow`` BLIF."""
    out: Dict[str, Dict[str, str]] = {}
    for name, build in corpus():
        net = build()
        out[name] = {"sweep": _sha(sweep(net.copy())),
                     "flow": _sha(bds_optimize(net).network)}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("-o", "--output", help="write the digests to FILE")
    group.add_argument("--compare", metavar="FILE",
                       help="compare against digests written earlier")
    args = parser.parse_args()
    current = digests()
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(current, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("%d netlists written to %s" % (len(current), args.output))
        return 0
    with open(args.compare) as fh:
        reference = json.load(fh)
    differ = 0
    for name in sorted(set(current) | set(reference)):
        old, new = reference.get(name), current.get(name)
        if old == new:
            continue
        differ += 1
        if old is None or new is None:
            print("%s: only in %s" % (name, "reference" if new is None
                                      else "this checkout"))
            continue
        print("%s: %s differs" % (name, " and ".join(
            kind for kind in ("sweep", "flow") if old[kind] != new[kind])))
    print("%d of %d netlists differ" % (differ, len(current)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
