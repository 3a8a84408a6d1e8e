"""``repro.fuzz``: differential fuzzing of the BDS flow.

BDS validates every synthesis result against the original network
(Section V); this package turns that check into *automated correctness
pressure*.  Random netlists (:mod:`repro.fuzz.generator`) are pushed
through the full flow under randomly sampled option matrices
(:mod:`repro.fuzz.options`), each result is cross-checked against its
input with the strongest verifier available, and every disagreement is
delta-debugged (:mod:`repro.fuzz.shrink`) to a minimal replayable BLIF in
``tests/corpus/`` (:mod:`repro.fuzz.corpus`), which the corpus regression
test re-runs forever after.

Entry points: :func:`run_fuzz` (the time-boxed loop, also exposed as the
``repro fuzz`` CLI subcommand), :func:`run_case` (one differential check),
:func:`shrink_network` (generic ddmin on netlists), and the corpus
load/save/replay helpers.  See ``docs/VERIFICATION.md``.
"""

from repro.fuzz.corpus import (
    CorpusEntry,
    load_entries,
    load_entry,
    save_entry,
)
from repro.fuzz.generator import NetSpec, sample_spec, spec_from_dict
from repro.fuzz.harness import (
    Failure,
    FailureRecord,
    FuzzReport,
    replay_entry,
    run_case,
    run_fuzz,
    shrink_failure,
)
from repro.fuzz.options import (
    MAP_MODES,
    sample_options,
)
from repro.fuzz.shrink import shrink_network

__all__ = [
    "CorpusEntry",
    "Failure",
    "FailureRecord",
    "FuzzReport",
    "MAP_MODES",
    "NetSpec",
    "load_entries",
    "load_entry",
    "replay_entry",
    "run_case",
    "run_fuzz",
    "sample_options",
    "sample_spec",
    "save_entry",
    "shrink_failure",
    "shrink_network",
    "spec_from_dict",
]
