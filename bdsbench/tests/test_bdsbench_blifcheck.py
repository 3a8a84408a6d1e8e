"""The independent BLIF evaluator agrees with hand-computed truth tables
and catches wrong netlists."""

import random

import blifcheck

XOR = """.model x
.inputs a b
.outputs y
.names a b y
10 1
01 1
.end
"""


def test_on_set_rows_and_exhaustive_patterns():
    net = blifcheck.parse(XOR)
    pats, width = blifcheck._patterns(["a", "b"], seed=0)
    assert width == 4
    # Pattern p assigns bit i of p to input i (a = bit 0, b = bit 1).
    assert pats == {"a": 0b1010, "b": 0b1100}
    assert blifcheck.simulate(net, pats, width) == {"y": 0b0110}


def test_off_set_rows_continuations_comments_and_constants():
    text = """# an XNOR written as the off-set of XOR
.model x
.inputs a \\
  b
.outputs y one zero
.names a b \\
 y
10 0
01 0
.names one
1
.names zero
.end
"""
    assert blifcheck.compare(XOR.replace("10 1\n01 1", "11 1\n00 1"),
                             text.replace(" one zero", "")
                             .replace(".names one\n1\n.names zero\n", "")) \
        is None
    net = blifcheck.parse(text)
    pats, width = blifcheck._patterns(["a", "b"], seed=0)
    out = blifcheck.simulate(net, pats, width)
    assert out == {"y": 0b1001, "one": 0b1111, "zero": 0}


def test_detects_a_wrong_row_and_interface_changes():
    wrong = XOR.replace("01 1", "11 1")
    assert "differs" in blifcheck.compare(XOR, wrong)
    assert blifcheck.compare(XOR, XOR.replace(".inputs a b",
                                              ".inputs a c")
                             .replace(".names a b y",
                                      ".names a c y")) == "input sets differ"
    assert blifcheck.compare(XOR, XOR.replace("y", "z")) == \
        "output sets differ"
    assert blifcheck.compare(XOR, XOR.replace(".end", "1x 1\n.end")) \
        .startswith("parse error")


def test_cycles_and_undefined_signals_are_errors():
    cyclic = """.model c
.inputs a
.outputs y
.names a z y
11 1
.names y z
1 1
.end
"""
    assert "cycle" in blifcheck.compare(cyclic, cyclic)
    dangling = XOR.replace(".names a b y", ".names a q y")
    assert "never defined" in blifcheck.compare(XOR, dangling)


def test_agrees_with_the_program_on_random_netlists():
    from repro.circuits.randlogic import random_logic
    from repro.network.blif import write_blif

    rng = random.Random(7)
    for n_inputs in (6, 20):
        net = random_logic(n_inputs, 30, 4, seed=rng.randrange(2 ** 31))
        text = write_blif(net)
        parsed = blifcheck.parse(text)
        for _ in range(20):
            assignment = {i: rng.random() < 0.5 for i in net.inputs}
            pats = {i: int(v) for i, v in assignment.items()}
            got = blifcheck.simulate(parsed, pats, 1)
            want = net.eval(assignment)
            assert got == {o: int(want[o]) for o in net.outputs}
