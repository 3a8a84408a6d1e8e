"""Netlist generation schedule for the differential fuzzer.

Each fuzz iteration builds one random multilevel network from a
:class:`NetSpec` -- a frozen, picklable recipe (so worker processes can
rebuild the exact same circuit from its spec alone).  Specs are drawn from
small size *tiers*, weighted toward the smallest: miscompiles that exist
at all almost always reproduce on tiny circuits, tiny circuits keep the
cross-check exhaustive (<= 20 inputs simulates the full truth table), and
shrinking starts closer to minimal.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple

from repro.circuits.randlogic import random_logic
from repro.network.network import Network


@dataclass(frozen=True)
class NetSpec:
    """A reproducible recipe for one random network."""

    n_inputs: int
    n_gates: int
    n_outputs: int
    seed: int
    xor_fraction: float = 0.05
    max_arity: int = 3
    locality: int = 12
    mux_fraction: float = 0.0
    not_fraction: float = 0.0
    sink_outputs: bool = False

    def build(self) -> Network:
        return random_logic(self.n_inputs, self.n_gates, self.n_outputs,
                            seed=self.seed, xor_fraction=self.xor_fraction,
                            max_arity=self.max_arity, locality=self.locality,
                            mux_fraction=self.mux_fraction,
                            not_fraction=self.not_fraction,
                            sink_outputs=self.sink_outputs,
                            name="fuzz_s%d" % self.seed)

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


#: (weight, inputs-range, gates-range, outputs-range).  Every tier stays
#: at or below the exhaustive-simulation limit of 20 inputs, so the
#: differential cross-check is a full-truth-table proof on every
#: iteration, by an oracle that shares no code with the BDD kernel.
TIERS: Tuple[Tuple[int, Tuple[int, int], Tuple[int, int], Tuple[int, int]], ...] = (
    (6, (3, 8), (6, 24), (1, 4)),
    (3, (8, 12), (16, 60), (2, 6)),
    (1, (12, 16), (40, 110), (3, 8)),
)


def sample_spec(rng: random.Random, tier: Optional[int] = None) -> NetSpec:
    """Draw one :class:`NetSpec` from the tier schedule (or a fixed tier)."""
    if tier is None:
        total = sum(w for w, _, _, _ in TIERS)
        pick = rng.randrange(total)
        for i, (w, _, _, _) in enumerate(TIERS):
            if pick < w:
                tier = i
                break
            pick -= w
    assert tier is not None
    _, (i_lo, i_hi), (g_lo, g_hi), (o_lo, o_hi) = TIERS[tier]
    return NetSpec(
        n_inputs=rng.randint(i_lo, i_hi),
        n_gates=rng.randint(g_lo, g_hi),
        n_outputs=rng.randint(o_lo, o_hi),
        seed=rng.getrandbits(32),
        xor_fraction=rng.choice([0.0, 0.05, 0.05, 0.15, 0.3]),
        max_arity=rng.choice([2, 3, 3, 4]),
        locality=rng.choice([6, 12, 20]),
        mux_fraction=rng.choice([0.0, 0.0, 0.1]),
        not_fraction=rng.choice([0.0, 0.1, 0.2]),
        sink_outputs=rng.random() < 0.5,
    )


def spec_from_dict(data: Dict[str, object]) -> NetSpec:
    """Rebuild a spec from :meth:`NetSpec.as_dict` output (corpus replay)."""
    fields = {f: data[f] for f in NetSpec.__dataclass_fields__ if f in data}
    return NetSpec(**fields)  # type: ignore[arg-type]
