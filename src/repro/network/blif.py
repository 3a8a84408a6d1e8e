"""BLIF reader and writer (the Berkeley Logic Interchange Format subset
used by SIS and BDS: ``.model``, ``.inputs``, ``.outputs``, ``.names``,
``.end``; multi-line continuations with ``\\``)."""

from __future__ import annotations

from typing import Iterable, List

from repro.network.network import Network
from repro.sop.cube import lit


def parse_blif(text: str, validate: bool = True) -> Network:
    """Parse a BLIF model into a :class:`Network`.

    ``validate=False`` skips the structural :meth:`Network.check` after
    parsing, so that diagnostics tools (``repro check``) can lint broken
    netlists -- dangling fanins, cycles -- instead of dying on the first
    inconsistency.
    """
    lines = _logical_lines(text)
    net = Network()
    i = 0
    current_names: List[str] = []
    current_cover: List[frozenset] = []

    def flush_names():
        nonlocal current_names, current_cover
        if not current_names:
            return
        out = current_names[-1]
        fanins = current_names[:-1]
        net.add_node(out, fanins, list(current_cover))
        current_names, current_cover = [], []

    while i < len(lines):
        tokens = lines[i].split()
        i += 1
        if not tokens:
            continue
        head = tokens[0]
        if head.startswith("."):
            flush_names()
        if head == ".model":
            net.name = tokens[1] if len(tokens) > 1 else "top"
        elif head == ".inputs":
            for name in tokens[1:]:
                net.add_input(name)
        elif head == ".outputs":
            for name in tokens[1:]:
                net.add_output(name)
        elif head == ".names":
            current_names = tokens[1:]
            current_cover = []
        elif head == ".end":
            break
        elif head.startswith("."):
            raise ValueError("unsupported BLIF construct: %s" % head)
        else:
            # A cover row: one input-plane column per fanin (no plane for
            # a constant node), then the output bit.
            if not current_names:
                raise ValueError("cover row outside .names: %r" % tokens)
            width = len(current_names) - 1
            plane = tokens[0] if width else ""
            outbit = tokens[-1]
            if len(tokens) != (2 if width else 1) or len(plane) != width:
                raise ValueError("cover row %r of %s: want %d input "
                                 "column(s), then the output bit"
                                 % (" ".join(tokens), current_names[-1],
                                    width))
            if outbit == "0":
                raise ValueError("offset (.names with output 0) not supported")
            if outbit != "1":
                raise ValueError("cover row %r of %s: output bit must be 1"
                                 % (" ".join(tokens), current_names[-1]))
            cube = []
            for pos, ch in enumerate(plane):
                if ch == "1":
                    cube.append(lit(pos, True))
                elif ch == "0":
                    cube.append(lit(pos, False))
                elif ch != "-":
                    raise ValueError("bad cover character %r" % ch)
            current_cover.append(frozenset(cube))
    flush_names()
    if validate:
        net.check()
    return net


def write_blif(net: Network) -> str:
    """Serialize a network to BLIF text."""
    out = [".model %s" % net.name]
    out.append(_wrap(".inputs", net.inputs))
    out.append(_wrap(".outputs", net.outputs))
    for node in net.topological():
        out.append(_wrap(".names", node.fanins + [node.name]))
        if not node.cover:
            # Constant 0: an empty cover; BLIF convention is no rows.
            continue
        for cube in node.cover:
            plane = ["-"] * len(node.fanins)
            for l in cube:
                plane[l >> 1] = "0" if (l & 1) else "1"
            if node.fanins:
                out.append("%s 1" % "".join(plane))
            else:
                out.append("1")
    out.append(".end")
    return "\n".join(out) + "\n"


def _wrap(head: str, names: Iterable[str], width: int = 78) -> str:
    parts = [head]
    lines = []
    cur = head
    for n in names:
        if len(cur) + len(n) + 1 > width:
            lines.append(cur + " \\")
            cur = " " + n
        else:
            cur += " " + n
    lines.append(cur)
    return "\n".join(lines)


def _logical_lines(text: str) -> List[str]:
    """Strip comments and join continuation lines."""
    out: List[str] = []
    pending = ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        out.append(pending + line)
        pending = ""
    if pending:
        out.append(pending)
    return out
