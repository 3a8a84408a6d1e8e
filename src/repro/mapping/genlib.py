"""The gate library: an ``mcnc.genlib``-style cell set.

Each cell carries an area (lambda^2-flavoured, so totals land in the same
magnitude as the paper's tables), a pin-to-output delay, a *pattern* over
the NAND2/INV subject basis, and a cube cover used to rebuild the mapped
netlist for verification.  The default library is one genlib text,
:data:`MCNC_GENLIB`, read by the same parser as any user library
(:func:`repro.mapping.genlib_parse.parse_genlib`).

Patterns are nested tuples: ``("nand", p, q)``, ``("inv", p)`` or a leaf
placeholder string.  A placeholder appearing twice (XOR/XNOR/MUX cells)
must bind to the *same* subject DAG node -- structural hashing makes that
an identity check.
"""

from __future__ import annotations

from typing import List, Sequence

Pattern = object  # nested tuples / placeholder strings

#: The default cells in genlib form: areas in mcnc.genlib units, each
#: cell's delay as its pins' block delay.
MCNC_GENLIB = """
GATE inv1   1  O = !a;                PIN * INV 1 999 1.0 0 1.0 0
GATE nand2  2  O = !(a*b);            PIN * INV 1 999 1.2 0 1.2 0
GATE nand3  3  O = !(a*b*c);          PIN * INV 1 999 1.4 0 1.4 0
GATE nand4  4  O = !(a*b*c*d);        PIN * INV 1 999 1.6 0 1.6 0
GATE and2   3  O = a*b;               PIN * NONINV 1 999 1.5 0 1.5 0
GATE nor2   2  O = !(a+b);            PIN * INV 1 999 1.4 0 1.4 0
GATE nor3   3  O = !(a+b+c);          PIN * INV 1 999 1.6 0 1.6 0
GATE or2    3  O = a+b;               PIN * NONINV 1 999 1.7 0 1.7 0
GATE aoi21  3  O = !(a*b+c);          PIN * INV 1 999 1.6 0 1.6 0
GATE oai21  3  O = !((a+b)*c);        PIN * INV 1 999 1.6 0 1.6 0
GATE aoi22  4  O = !(a*b+c*d);        PIN * INV 1 999 1.8 0 1.8 0
GATE oai22  4  O = !((a+b)*(c+d));    PIN * INV 1 999 1.8 0 1.8 0
GATE xor2   5  O = a*!b+!a*b;         PIN * UNKNOWN 1 999 2.0 0 2.0 0
GATE xnor2  5  O = a*b+!a*!b;         PIN * UNKNOWN 1 999 2.0 0 2.0 0
GATE mux21  5  O = s*a+!s*b;          PIN * UNKNOWN 1 999 2.0 0 2.0 0
"""

#: lambda^2 per genlib area unit, putting totals in table range.
LAMBDA2_PER_UNIT = 464.0


class Cell:
    """One library cell."""

    def __init__(self, name: str, area: float, delay: float,
                 pattern: Pattern, inputs: Sequence[str],
                 cover: List[frozenset]):
        self.name = name
        self.area = area
        self.delay = delay
        self.pattern = pattern
        self.inputs = list(inputs)       # placeholder order = pin order
        self.cover = cover               # over pin positions

    def __repr__(self) -> str:
        return "Cell(%s, area=%.0f)" % (self.name, self.area)


class Library:
    """A collection of cells plus the mandatory inverter."""

    def __init__(self, cells: Sequence[Cell]):
        self.cells = list(cells)
        by_name = {c.name: c for c in self.cells}
        if "inv1" not in by_name:
            raise ValueError("library must contain an inv1 cell")
        self.inverter = by_name["inv1"]

    def __iter__(self):
        return iter(self.cells)

    def by_name(self, name: str) -> Cell:
        for c in self.cells:
            if c.name == name:
                return c
        raise KeyError(name)


def mcnc_library() -> Library:
    """The default library: :data:`MCNC_GENLIB` with areas in lambda^2."""
    # Deferred: the parser builds this module's Cell and Library.
    from repro.mapping.genlib_parse import parse_genlib

    library = parse_genlib(MCNC_GENLIB)
    for cell in library:
        cell.area *= LAMBDA2_PER_UNIT
    return library
