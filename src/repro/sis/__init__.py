"""The algebraic baseline: a faithful SIS ``script.rugged`` stand-in.

The paper's every experiment is "BDS vs SIS (script.rugged)"; this package
rebuilds the algebraic half of Fig. 12 from scratch in the cube domain:

``division``  algebraic (weak) division of covers
``kernels``   kernels and co-kernels (the recursive cube-free machinery)
``factor``    good-factor: factored forms and factored literal counts
``fx``        fast-extract: greedy single-cube and double-cube divisor
              extraction (the ``fx`` command)
``resub``     algebraic resubstitution
``rugged``    the script: sweep, eliminate, simplify, fx, resub, ...
"""

from repro.sis.division import algebraic_divide
from repro.sis.kernels import all_kernels
from repro.sis.factor import factor_cover, factored_literal_count
from repro.sis.fx import fast_extract
from repro.sis.resub import resubstitute_all
from repro.sis.rugged import script_rugged, SISResult

__all__ = [
    "algebraic_divide",
    "all_kernels",
    "factor_cover",
    "factored_literal_count",
    "fast_extract",
    "resubstitute_all",
    "script_rugged",
    "SISResult",
]
