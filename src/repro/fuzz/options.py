"""Option-matrix sampling for the differential fuzzer.

The fuzzer's job is to cross the *whole* configuration space of the flow
against random circuits: sanitizer levels, reordering on/off, eliminate
thresholds, every decomposition family switch, and the post-flow
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
        verify=rng.random() < 0.25,
        min_gain=rng.choice([1.0, 1.0, 1.0, 1.15]),
        xnor_slack=rng.choice([0, 2, 2, 4]),
    )
    opts = BDSOptions(
        eliminate_threshold=rng.choice([-2, 0, 0, 0, 2, 5]),
        eliminate_size_cap=rng.choice([60, 250, 1000, 1000]),
        use_bdd_mapping=rng.random() < 0.7,
        reorder=rng.random() < 0.8,
        sift_size_limit=rng.choice([50, 20000, 20000]),
        decomp=decomp,
        sharing=rng.random() < 0.85,
        final_sweep=rng.random() < 0.9,
        sweep_merge_equivalent=rng.random() < 0.8,
        balance_trees=rng.random() < 0.3,
        use_sdc=rng.random() < 0.1,
        check_level=rng.choice(["off", "off", "off", "off", "cheap", "full"]),
        verify="off",  # the fuzzer cross-checks differentially itself
    )
    map_mode = rng.choice(MAP_MODES)
    return opts, map_mode

