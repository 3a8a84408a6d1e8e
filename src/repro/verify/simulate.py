"""Bit-parallel simulation equivalence check.

Up to :data:`EXHAUSTIVE_LIMIT` inputs the check is *exhaustive*: the full
truth table is simulated bit-parallel, so the answer is a proof (random
rounds can miss a single-minterm bug).  It is the proof
:func:`repro.verify.runner.verify_networks` uses there in every mode,
since it costs at most ``2^(EXHAUSTIVE_LIMIT - CHUNK_INPUTS)`` = 16
:meth:`Network.eval_words` passes per network whatever the circuit
computes; global BDDs of a multiplier grow exponentially (the paper
could not verify C6288 with them).  Above the limit it falls back to
seeded random patterns -- the cross-check for outputs whose global BDDs
exceed the verifier's cap.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.network.network import Network

#: Networks with at most this many primary inputs are compared on their
#: full truth table, in chunks of 2^CHUNK_INPUTS patterns.
EXHAUSTIVE_LIMIT = 20
#: Inputs that vary within one exhaustive chunk: one bit-parallel pass
#: simulates 2^16 patterns as 8 KiB words.
CHUNK_INPUTS = 16


def simulate_equivalence(a: Network, b: Network, rounds: int = 16,
                         width: int = 256, seed: int = 1355
                         ) -> Tuple[bool, Optional[Dict[str, bool]]]:
    """Compare networks by simulation; ``(agree, counterexample)``.

    With at most :data:`EXHAUSTIVE_LIMIT` inputs every assignment is
    simulated, so the result is exact.  Otherwise ``rounds * width``
    random patterns drawn from ``seed`` are compared -- pass an explicit
    ``seed`` so a reported mismatch reproduces.  The counterexample is an
    input assignment on which the networks differ (None when they agree
    on everything sampled).
    """
    if set(a.inputs) != set(b.inputs):
        raise ValueError("input sets differ")
    if sorted(a.outputs) != sorted(b.outputs):
        raise ValueError("output sets differ")
    if len(a.inputs) <= EXHAUSTIVE_LIMIT:
        return _exhaustive_equivalence(a, b)
    import random

    rng = random.Random(seed)
    for _ in range(rounds):
        words = {i: rng.getrandbits(width) for i in a.inputs}
        out_a = a.eval_words(words, width)
        out_b = b.eval_words(words, width)
        for name in a.outputs:
            diff = out_a[name] ^ out_b[name]
            if diff:
                bit = (diff & -diff).bit_length() - 1
                cex = {i: bool((words[i] >> bit) & 1) for i in a.inputs}
                return False, cex
    return True, None


def _exhaustive_equivalence(a: Network, b: Network
                            ) -> Tuple[bool, Optional[Dict[str, bool]]]:
    """Full-truth-table comparison.

    Pattern ``j`` assigns input ``i`` the bit ``(j >> i) & 1``.  Chunk
    ``c`` simulates patterns ``c * 2^low`` to ``(c + 1) * 2^low - 1`` in
    one pass: the low :data:`CHUNK_INPUTS` inputs take their bit from the
    word position, the others are constant across the chunk.  So a
    differing bit maps straight back to an input assignment.
    """
    inputs = list(a.inputs)
    low = min(len(inputs), CHUNK_INPUTS)
    width = 1 << low
    ones = (1 << width) - 1
    words = {name: _pattern_word(i, width)
             for i, name in enumerate(inputs[:low])}
    for chunk in range(1 << (len(inputs) - low)):
        for i, name in enumerate(inputs[low:]):
            words[name] = ones if (chunk >> i) & 1 else 0
        out_a = a.eval_words(words, width)
        out_b = b.eval_words(words, width)
        for name in a.outputs:
            diff = out_a[name] ^ out_b[name]
            if diff:
                j = (chunk << low) | ((diff & -diff).bit_length() - 1)
                cex = {inp: bool((j >> i) & 1) for i, inp in enumerate(inputs)}
                return False, cex
    return True, None


def _pattern_word(i: int, width: int) -> int:
    """Input ``i``'s column over ``width`` patterns: 2^i zeros, 2^i ones,
    repeated by doubling up to ``width`` bits."""
    word = ((1 << (1 << i)) - 1) << (1 << i)
    period = 2 << i
    while period < width:
        word |= word << period
        period <<= 1
    return word
