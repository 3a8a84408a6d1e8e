"""Option-matrix sampling for the differential fuzzer.

The fuzzer's job is to cross the *whole* configuration space of the flow
against random circuits: every decomposition family switch, tree
balancing, SDC minimization, sanitizer levels, and the post-flow
technology mapping (area- vs delay-mode cell mapping, K-LUT covering).
``sample_options`` draws one point of that matrix;
:meth:`BDSOptions.to_dict` / :meth:`BDSOptions.from_dict` give a stable
JSON shape so a corpus entry replays with the exact options that failed.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from repro.bds.flow import BDSOptions
from repro.decomp.engine import DecompOptions

#: Post-flow mapping stage choices; None skips mapping.
MAP_MODES = (None, "area", "delay", "lut3", "lut4", "lut5")


def sample_options(rng: random.Random) -> Tuple[BDSOptions, Optional[str]]:
    """One point of the flow's option matrix: ``(BDSOptions, map_mode)``.

    Expensive settings (the full sanitizer, SDC minimization) appear with
    low probability so throughput stays high while every combination
    still gets coverage over a long run.
    """
    decomp = DecompOptions(
        enable_simple=rng.random() < 0.95,
        enable_x_dominator=rng.random() < 0.85,
        enable_mux=rng.random() < 0.85,
        enable_generalized=rng.random() < 0.85,
        enable_bool_xnor=rng.random() < 0.85,
    )
    opts = BDSOptions(
        decomp=decomp,
        balance_trees=rng.random() < 0.3,
        use_sdc=rng.random() < 0.1,
        check_level=rng.choice(["off", "off", "off", "off", "cheap", "full"]),
        verify="off",  # the fuzzer cross-checks differentially itself
    )
    map_mode = rng.choice(MAP_MODES)
    return opts, map_mode

