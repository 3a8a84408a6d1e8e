"""repro: a full reproduction of "BDS: A BDD-Based Logic Optimization System"
(Yang & Ciesielski, DAC 2000 / IEEE TCAD 21(7), 2002).

Subpackages
-----------
``repro.bdd``
    From-scratch ROBDD package with complement edges (the substrate).
``repro.sop``
    Cube/cover algebra and two-level minimization (SIS-side substrate).
``repro.network``
    Boolean networks, BLIF I/O, sweep, eliminate (partial collapsing).
``repro.decomp``
    The paper's core contribution: structural BDD decompositions
    (dominators, cuts, generalized dominators, XNOR, functional MUX) and
    factoring trees with sharing extraction.
``repro.bds``
    The complete BDS synthesis flow (Fig. 12, right).
``repro.sis``
    The algebraic baseline flow mirroring SIS ``script.rugged`` (Fig. 12,
    left): kernels, fast-extract, algebraic factoring, resubstitution.
``repro.mapping``
    Tree-based technology mapper with an embedded genlib-style library.
``repro.circuits``
    Benchmark circuit generators standing in for MCNC/ISCAS/LGSynth91.
``repro.verify``
    BDD-based combinational equivalence checking and simulation.
"""

import sys

# The ITE hot path and the cofactor walk are iterative (explicit stack)
# and need no headroom, but other kernel recursions (quantification,
# isop, traversals) still descend one level per variable; keep room for
# deep orders.
if sys.getrecursionlimit() < 100000:
    sys.setrecursionlimit(100000)

__version__ = "1.0.0"
