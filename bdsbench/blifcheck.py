"""Independent BLIF evaluator: the benchmark's own correctness oracle.

This module imports nothing from the program under test.  It reads the
combinational BLIF subset the program writes (``.model``, ``.inputs``,
``.outputs``, ``.names`` with on-set or off-set rows, ``\\`` line
continuations, ``#`` comments, ``.end``) and simulates a netlist
bit-parallel: every signal is a Python int holding one bit per input
pattern.

:func:`compare` checks a candidate netlist against a reference one.  It
is exhaustive up to :data:`EXHAUSTIVE_LIMIT` inputs and uses seeded
random patterns above that.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

#: Up to this many primary inputs every input pattern is simulated.
EXHAUSTIVE_LIMIT = 16

#: Random patterns simulated when a netlist has more inputs.
RANDOM_PATTERNS = 4096


class Netlist:
    """A parsed BLIF model: inputs, outputs and ``.names`` tables."""

    def __init__(self) -> None:
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        #: signal -> (fanin names, rows as (plane, output bit))
        self.tables: Dict[str, Tuple[List[str], List[Tuple[str, str]]]] = {}


def _logical_lines(text: str) -> List[str]:
    lines: List[str] = []
    pending = ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        lines.append(pending + line)
        pending = ""
    if pending.strip():
        lines.append(pending)
    return lines


def parse(text: str) -> Netlist:
    """Parse BLIF text; raises ``ValueError`` on anything malformed."""
    net = Netlist()
    current: Optional[str] = None
    for line in _logical_lines(text):
        tokens = line.split()
        if not tokens:
            continue
        head = tokens[0]
        if head.startswith("."):
            current = None
            if head == ".model":
                continue
            if head == ".inputs":
                net.inputs.extend(tokens[1:])
            elif head == ".outputs":
                net.outputs.extend(tokens[1:])
            elif head == ".names":
                if len(tokens) < 2:
                    raise ValueError(".names without an output")
                current = tokens[-1]
                if current in net.tables or current in net.inputs:
                    raise ValueError("signal %r defined twice" % current)
                net.tables[current] = (tokens[1:-1], [])
            elif head == ".end":
                break
            else:
                raise ValueError("unsupported BLIF construct %s" % head)
            continue
        if current is None:
            raise ValueError("cover row outside .names: %r" % line)
        fanins, rows = net.tables[current]
        if fanins:
            if len(tokens) != 2 or len(tokens[0]) != len(fanins):
                raise ValueError("bad cover row %r for %r" % (line, current))
            plane, bit = tokens
        else:
            if len(tokens) != 1:
                raise ValueError("bad constant row %r" % line)
            plane, bit = "", tokens[0]
        if bit not in ("0", "1") or set(plane) - set("01-"):
            raise ValueError("bad cover row %r" % line)
        rows.append((plane, bit))
    for name, (_fanins, rows) in net.tables.items():
        if len({bit for _plane, bit in rows}) > 1:
            raise ValueError("%r mixes on-set and off-set rows" % name)
    return net


def _order(net: Netlist) -> List[str]:
    """The ``.names`` outputs in dependency order (Kahn's algorithm)."""
    waiting: Dict[str, int] = {}
    users: Dict[str, List[str]] = {}
    ready: List[str] = []
    for name, (fanins, _rows) in net.tables.items():
        pending = [f for f in set(fanins) if f in net.tables]
        for f in set(fanins):
            if f not in net.tables and f not in net.inputs:
                raise ValueError("signal %r is never defined" % f)
        waiting[name] = len(pending)
        for f in pending:
            users.setdefault(f, []).append(name)
        if not pending:
            ready.append(name)
    order: List[str] = []
    while ready:
        name = ready.pop()
        order.append(name)
        for user in users.get(name, ()):
            waiting[user] -= 1
            if waiting[user] == 0:
                ready.append(user)
    if len(order) != len(net.tables):
        raise ValueError("combinational cycle")
    return order


def simulate(net: Netlist, patterns: Dict[str, int],
             width: int) -> Dict[str, int]:
    """Value of every output under ``patterns`` (one int per input)."""
    mask = (1 << width) - 1
    values = {name: patterns[name] & mask for name in net.inputs}
    for name in _order(net):
        fanins, rows = net.tables[name]
        acc = 0
        for plane, _bit in rows:
            term = mask
            for ch, fanin in zip(plane, fanins):
                if ch == "1":
                    term &= values[fanin]
                elif ch == "0":
                    term &= ~values[fanin]
            acc |= term
        if rows and rows[0][1] == "0":
            acc = ~acc
        values[name] = acc & mask
    missing = [out for out in net.outputs if out not in values]
    if missing:
        raise ValueError("output %r is never defined" % missing[0])
    return {out: values[out] for out in net.outputs}


def _patterns(inputs: List[str], seed: int) -> Tuple[Dict[str, int], int]:
    n = len(inputs)
    if n <= EXHAUSTIVE_LIMIT:
        width = 1 << n
        pats = {}
        for i, name in enumerate(inputs):
            # Bit p of input i is bit i of the pattern index p: runs of
            # 2**i zeros then 2**i ones, doubled up to the full width.
            run = 1 << i
            word = ((1 << run) - 1) << run
            length = 2 * run
            while length < width:
                word |= word << length
                length *= 2
            pats[name] = word
        return pats, width
    rng = random.Random(seed)
    return ({name: rng.getrandbits(RANDOM_PATTERNS) for name in inputs},
            RANDOM_PATTERNS)


def compare(reference: str, candidate: str, seed: int = 0) -> Optional[str]:
    """None when ``candidate`` computes the same outputs as ``reference``.

    Otherwise a one-line description of the first difference found:
    mismatched interfaces, an unparsable netlist or an output that
    differs under some input pattern.
    """
    try:
        ref = parse(reference)
        cand = parse(candidate)
    except ValueError as exc:
        return "parse error: %s" % exc
    if sorted(ref.inputs) != sorted(cand.inputs):
        return "input sets differ"
    if sorted(ref.outputs) != sorted(cand.outputs):
        return "output sets differ"
    inputs = sorted(ref.inputs)
    patterns, width = _patterns(inputs, seed)
    try:
        want = simulate(ref, patterns, width)
        got = simulate(cand, patterns, width)
    except ValueError as exc:
        return "simulation error: %s" % exc
    for out in sorted(ref.outputs):
        diff = want[out] ^ got[out]
        if diff:
            bit = (diff & -diff).bit_length() - 1
            return "output %r differs on pattern %d of %d" % (out, bit, width)
    return None
