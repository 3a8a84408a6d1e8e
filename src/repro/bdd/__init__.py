"""Reduced, ordered binary decision diagrams with complement edges.

This package is the foundational substrate of the BDS reproduction.  It
implements, from scratch, everything the paper assumes of a "BDD package":

* canonical ROBDDs with complement edges (Brace-Rudell-Bryant style),
* the ITE operator and the usual derived Boolean operators,
* cofactors, composition, and quantification,
* the Coudert-Madre ``restrict``/``constrain`` don't-care minimizers
  (Section III-B of the paper relies on RESTRICT),
* Minato-Morreale irredundant sum-of-products extraction,
* support, size and phased-vertex traversals (the cut analysis of the
  structural decomposition engine walks the phased view),
* variable reordering by sifting (Rudell [30]),
* inter-manager transfer -- the paper's "BDD mapping" (Section IV-B).

References are plain ints: ``ref = node_index << 1 | complement_bit``.
The constant ``ONE`` is ref ``0`` and ``ZERO`` is its complement, ref ``1``.
"""

from repro.bdd.manager import BDD, ONE, ZERO, TERMINAL, BddBudgetExceeded
from repro.bdd.ops import and_exists
from repro.bdd.transfer import structure_key, transfer, transfer_many
from repro.bdd.reorder import sift, random_order, force_order
from repro.bdd.dot import to_dot

__all__ = [
    "BDD",
    "BddBudgetExceeded",
    "ONE",
    "ZERO",
    "TERMINAL",
    "and_exists",
    "structure_key",
    "transfer",
    "transfer_many",
    "sift",
    "random_order",
    "force_order",
    "to_dot",
]
