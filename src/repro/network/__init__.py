"""Boolean networks: the multilevel circuit representation.

A :class:`Network` is a DAG of named nodes; each internal node carries a
local function as a cube cover over its fanins (the SIS-style *local*
representation the paper contrasts with local BDDs).  The BDS flow converts
local covers to local BDDs on entry (``repro.bds``).

Modules
-------
``network``   the core Network/Node classes and structural utilities
``blif``      BLIF reader/writer
``sweep``     constant propagation, buffer squeezing, duplicate removal
``eliminate`` partial collapsing (BDD-cost and literal-cost variants)
"""

from repro.network.network import Network, Node
from repro.network.blif import parse_blif, write_blif
from repro.network.sweep import sweep
from repro.network.eliminate import eliminate_literal

__all__ = [
    "Network",
    "Node",
    "parse_blif",
    "write_blif",
    "sweep",
    "eliminate_literal",
]
