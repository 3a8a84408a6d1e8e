"""Helpers shared by the benchmark modules.

Locating the program under test, the CPU clock every metric uses,
percentiles, the independent check and quality score of one optimized
netlist, and the fixed-cost injection the measurement self-test relies
on.
"""

from __future__ import annotations

import importlib
import math
import os
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

import blifcheck

#: The checkout root: the benchmark lives in ``<root>/bdsbench``.
ROOT = Path(__file__).resolve().parent.parent
#: Source tree of the program under test.
SRC = ROOT / "src"
#: Scratch space for sockets, cache dirs and traces (inside the checkout).
WORK = ROOT / ".bdsbench"


class ProgramMissing(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def require_program() -> None:
    """Put ``<root>/src`` first on ``sys.path`` and import ``repro`` from it.

    Raises :class:`ProgramMissing` when the checkout has no program, or
    when ``repro`` resolves anywhere else (an installed copy must never
    stand in for the checkout's source).
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing("no program to benchmark: %s/repro is missing"
                             % SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    where = Path(repro.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ProgramMissing("repro imported from %s, not from %s"
                             % (where, SRC))


def program_env() -> Dict[str, str]:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def cpu_now() -> float:
    """CPU seconds of this process plus every child it has reaped.

    Counting reaped children keeps work that moves into worker
    processes inside the metric.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def check_and_score(reference_blif: str, optimized_blif: str, library: Any,
                    seed: int) -> Tuple[List[str], Dict[str, float]]:
    """Check one optimized netlist against the input it came from.

    :mod:`blifcheck` compares ``optimized_blif`` with ``reference_blif``;
    the netlist is then mapped onto ``library`` (untimed) and the mapped
    netlist is compared too.  Returns the failed comparisons' verdicts
    and the quality of the netlist: literals, mapped area, delay and gate
    count (empty when the optimized netlist itself is wrong).
    """
    from repro.mapping import map_network
    from repro.network.blif import parse_blif, write_blif

    verdict = blifcheck.compare(reference_blif, optimized_blif, seed=seed)
    if verdict is not None:
        return ["optimized netlist: " + verdict], {}
    net = parse_blif(optimized_blif)
    mapped = map_network(net, library)
    verdicts = []
    verdict = blifcheck.compare(reference_blif, write_blif(mapped.network),
                                seed=seed)
    if verdict is not None:
        verdicts.append("mapped netlist: " + verdict)
    return verdicts, {"bds_literals": net.literal_count(),
                      "bds_area": mapped.area, "bds_delay": mapped.delay,
                      "mapping.gates": mapped.gate_count}


def busy_wait(seconds: float) -> None:
    """Burn ``seconds`` of CPU time in this process."""
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


#: Public functions the self-test can slow down, as (module, attribute
#: path) in the namespace the caller resolves at call time.
INJECTION_POINTS: Dict[str, Tuple[str, str]] = {
    "sift": ("repro.bds.flow", "sift"),
    "require_equivalent": ("repro.bds.flow", "require_equivalent"),
    "cache_lookup": ("repro.service.cache", "ArtifactCache.lookup"),
}


def patch(module_name: str, path: str,
          make: Callable[[Callable], Callable]) -> Callable[[], None]:
    """Replace ``module.path`` by ``make(original)``; returns the undo.

    ``path`` is ``name`` or ``Class.name``; class attributes keep their
    ``classmethod`` wrapping.
    """
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    raw = owner.__dict__[name] if isinstance(owner, type) \
        else getattr(owner, name)
    if isinstance(raw, classmethod):
        wrapped = classmethod(make(raw.__func__))
    else:
        wrapped = make(raw)
    setattr(owner, name, wrapped)

    def undo() -> None:
        setattr(owner, name, raw)

    return undo


def inject(point: str, cost_s: float) -> Callable[[], None]:
    """Make every call of an :data:`INJECTION_POINTS` function first burn
    ``cost_s`` CPU seconds; returns the undo."""
    module_name, path = INJECTION_POINTS[point]

    def make(fn: Callable) -> Callable:
        def slowed(*args, **kwargs):
            busy_wait(cost_s)
            return fn(*args, **kwargs)

        return slowed

    return patch(module_name, path, make)


def parse_injections(specs: List[str]) -> List[Tuple[str, float]]:
    """``["sift:0.001", ...]`` -> ``[("sift", 0.001), ...]``."""
    out = []
    for spec in specs:
        point, _, cost = spec.partition(":")
        if point not in INJECTION_POINTS:
            raise ValueError("unknown injection point %r" % point)
        out.append((point, float(cost)))
    return out
