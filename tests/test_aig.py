import random
import re
from dataclasses import fields, replace

import pytest
from hypothesis import given

from aigopt import aig
from aigopt.aig import (
    FALSE,
    SHARED_CODES,
    TRUE,
    AigCircuit,
    AigerError,
    AndGate,
    Literal,
    from_aiger,
    to_aiger,
)
from aigopt.truthtable import parse_hex

from helpers import circuits, random_circuit


def and_gate(a: int, ca: bool, b: int, cb: bool) -> AndGate:
    return AndGate.of(Literal(a, ca), Literal(b, cb))


def test_validate_empty_constant_circuit():
    assert AigCircuit(4, (), FALSE).evaluate().bits == 0


def test_validate_flags_non_topological_fanin():
    # gate 0 is node 3 at n=2; referencing node 3 or later is invalid
    with pytest.raises(ValueError, match="fanin node 3 not topological"):
        AigCircuit(2, (AndGate(Literal(1), Literal(3)),), Literal(3))


def test_validate_single_and_gate():
    # The output may name the last node, the gate just placed.
    c = AigCircuit(2, (and_gate(1, False, 2, False),), Literal(3))
    assert c.output.node == c.node_count - 1


def test_validate_flags_unnormalized_fanins():
    with pytest.raises(ValueError, match="not normalized"):
        AigCircuit(2, (AndGate(Literal(2), Literal(1)),), Literal(3))
    with pytest.raises(ValueError, match="not normalized"):
        AigCircuit(2, (AndGate(Literal(1), Literal(1)),), Literal(3))


def test_validate_flags_output_out_of_range():
    with pytest.raises(ValueError, match="output node 5 out of range"):
        AigCircuit(2, (), Literal(5))


def test_invalid_circuit_names_every_fault():
    with pytest.raises(ValueError) as info:
        AigCircuit(-1, (AndGate(Literal(2), Literal(1)),), Literal(5))
    message = str(info.value)
    assert message.startswith("invalid circuit: negative input count -1; ")
    assert message.count("not topological") == 2
    assert "not normalized" in message
    assert message.endswith("output node 5 out of range")


def test_evaluate_single_and():
    c = AigCircuit(2, (and_gate(1, False, 2, False),), Literal(3))
    assert c.evaluate() == parse_hex("0x8", 2)


def test_evaluate_constant_true():
    assert AigCircuit(2, (), TRUE).evaluate() == parse_hex("0xf", 2)


def test_evaluate_three_gate_minterm_chain():
    # AND(AND(x1,x2), AND(x3,x4)) is 1 only on the all-ones row
    c = AigCircuit(
        4,
        (
            and_gate(1, False, 2, False),
            and_gate(3, False, 4, False),
            and_gate(5, False, 6, False),
        ),
        Literal(7),
    )
    assert c.evaluate() == parse_hex("0x8000", 4)
    assert c.size() == 3


def test_complementing_output_complements_table():
    rng = random.Random(41)
    for _ in range(30):
        c = random_circuit(rng, 3, 6)
        flipped = AigCircuit(c.n, c.gates, ~c.output)
        assert flipped.evaluate() == c.evaluate().complement()


def test_evaluate_matches_row_by_row():
    rng = random.Random(43)
    for _ in range(40):
        c = random_circuit(rng, 4, 8, allow_const=True)
        table = c.evaluate()
        for row in range(16):
            assert (table.bits >> row) & 1 == c.eval_row(row)


def test_evaluate_keeps_its_table_outside_the_fields():
    """A circuit is simulated once; its table is no field, so equality, hash,
    repr and ``replace`` see only n, gates and output."""
    c = AigCircuit(2, (and_gate(1, False, 2, False),), Literal(3))
    twin = AigCircuit(2, (and_gate(1, False, 2, False),), Literal(3))
    table = c.evaluate()
    assert c.evaluate() is table
    assert [f.name for f in fields(c)] == ["n", "gates", "output"]
    assert (c, hash(c), repr(c)) == (twin, hash(twin), repr(twin))
    copy = replace(c)
    assert copy == c and "_table" not in vars(copy)
    assert copy.evaluate() == table


def test_evaluate_rejects_invalid_circuit():
    # An invalid circuit cannot reach evaluate(): it is refused when made.
    with pytest.raises(ValueError, match="invalid circuit"):
        AigCircuit(2, (AndGate(Literal(2), Literal(1)),), Literal(3))
    for n in (0, 7):
        with pytest.raises(ValueError, match=r"1\.\.6"):
            AigCircuit(n, (), FALSE).evaluate()


def test_size_counts_gates_only():
    assert AigCircuit(4, (), FALSE).size() == 0
    c = AigCircuit(
        4,
        (
            and_gate(1, True, 2, True),
            and_gate(3, True, 4, True),
            and_gate(5, False, 6, False),
        ),
        Literal(7, True),
    )
    assert c.size() == 3


def test_literal_encoding():
    assert Literal(0, False).code == 0
    assert Literal(0, True).code == 1
    assert Literal(3, True).code == 7
    assert ~Literal(2, False) == Literal(2, True)


def test_shared_literal_acts_like_a_constructed_one():
    """``Literal.decode`` hands out the table's literal below the bound and a
    fresh one above it; either equals, hashes, orders and prints like the
    literal the constructor makes."""
    codes = [0, 1, 2, 7, 12, SHARED_CODES - 2, SHARED_CODES - 1, SHARED_CODES, SHARED_CODES + 3]
    for code in codes:
        shared, made = Literal.decode(code), Literal(code >> 1, bool(code & 1))
        assert (shared, hash(shared), repr(shared)) == (made, hash(made), repr(made))
        assert shared.code == made.code == code
        assert ~shared == ~made and ~~shared == made
    assert Literal.decode(7) is Literal.decode(7) is ~Literal(3, False)
    rng = random.Random(47)
    drawn = [rng.randrange(SHARED_CODES + 100) for _ in range(200)]
    assert sorted(map(Literal.decode, drawn)) == sorted(
        Literal(code >> 1, bool(code & 1)) for code in drawn
    )
    assert [lit.code for lit in sorted(map(Literal.decode, drawn))] == sorted(drawn)


def test_aiger_node_past_the_table_gets_a_fresh_literal():
    # A gate reading input node 10^5: its code is far past the table, which
    # stays as it was made.
    n = 10**5
    lines = [f"aag {n + 1} {n} 0 1 1", *(str(2 * v) for v in range(1, n + 1))]
    lines += [str(2 * n + 2), f"{2 * n + 2} 2 {2 * n}"]
    text = "\n".join(lines) + "\n"
    c = from_aiger(text)
    assert c.gates == (AndGate(Literal(1), Literal(n)),)
    assert c.output == Literal(n + 1)
    assert len(aig._SHARED) == SHARED_CODES
    assert to_aiger(c) == text


def test_to_aiger_empty_constant_circuit():
    assert to_aiger(AigCircuit(0, (), FALSE)) == "aag 0 0 0 1 0\n0\n"


def test_to_aiger_single_and():
    c = AigCircuit(2, (and_gate(1, False, 2, False),), Literal(3))
    text = to_aiger(c)
    assert text.splitlines()[0] == "aag 3 2 0 1 1"
    assert text == "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n"


@given(circuits())
def test_aiger_round_trip_random_circuits(c):
    back = from_aiger(to_aiger(c))
    assert (back.n, back.gates, back.output) == (c.n, c.gates, c.output)
    assert back.evaluate() == c.evaluate()


def test_from_aiger_normalizes_fanins():
    text = "aag 3 2 0 1 1\n2\n4\n6\n6 4 2\n"
    c = from_aiger(text)
    assert c.gates[0] == and_gate(1, False, 2, False)
    assert to_aiger(from_aiger(to_aiger(c))) == to_aiger(c)


def test_from_aiger_ignores_symbol_table_and_comments():
    text = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\ni0 alpha\no0 out\nc\nnote\n"
    c = from_aiger(text)
    assert c.size() == 1


def test_from_aiger_accepts_sparse_gate_numbering():
    # gate variable 9 instead of 3; must be renumbered densely
    text = "aag 9 2 0 1 1\n2\n4\n18\n18 2 4\n"
    c = from_aiger(text)
    assert c.size() == 1
    assert c.output == Literal(3, False)


def test_from_aiger_errors():
    with pytest.raises(AigerError):
        from_aiger("not a header\n")
    with pytest.raises(AigerError):
        from_aiger("aag 1 0 1 1 0\n2 2 0\n0\n")  # latch present
    with pytest.raises(AigerError):
        from_aiger("aag 0 0 0 2 0\n0\n1\n")  # two outputs
    with pytest.raises(AigerError):
        from_aiger("aag 3 2 0 1 1\n2\n4\n6\n6 2 8\n")  # dangling literal
    with pytest.raises(AigerError):
        from_aiger("aag 2 1 0 1 0\n2\n")  # truncated: no output line
    with pytest.raises(AigerError):
        # forward reference: gate 3 uses gate 4 before its definition
        from_aiger("aag 4 1 0 1 2\n2\n6\n6 8 2\n8 2 3\n")


@pytest.mark.parametrize(
    "text, cause",
    [
        ("", "empty AIGER document"),
        ("aag 1 x 0 1 0\n", "malformed header 'aag 1 x 0 1 0'"),
        ("aag 0 -1 0 1 0\n", "malformed header 'aag 0 -1 0 1 0'"),
        ("aag 1 1 0 1 -1\n2\n2\n", "malformed header 'aag 1 1 0 1 -1'"),
        ("aag 1 1 0 1 0\n3\n2\n", "input line 3 is not a positive even literal"),
        ("aag 2 2 0 1 0\n2\n2\n2\n", "bad input variable 1"),
        ("aag 3 2 0 1 1\n2\n4\n6\n6 2\n", "malformed AND line '6 2'"),
        ("aag 3 2 0 1 1\n2\n4\n6\n6 2 x\n", "malformed AND line '6 2 x'"),
        ("aag 3 2 0 1 1\n2\n4\n6\n7 2 4\n", "AND lhs 7 is not a positive even literal"),
        ("aag 4 2 0 1 2\n2\n4\n6\n6 2 4\n6 3 5\n", "bad AND variable 3"),
        ("aag 1 1 0 1 0\n2\n2 4\n", "expected a single literal, got '2 4'"),
        ("aag 1 1 0 1 0\n2\nx\n", "malformed literal 'x'"),
        ("aag 1 1 0 1 0\n2\n-2\n", "negative literal -2"),
        # int() takes a sign, underscores and non-ASCII digits; AIGER does not.
        ("aag 3 2 0 1 1\n2\n4\n+6\n6 2 4\n", "malformed literal '+6'"),
        ("aag 3 2 0 1 1\n2\n4\n6\n6 2 0_4\n", "malformed AND line '6 2 0_4'"),
        ("aag 3 2 0 1 1\n2\n4\n6\n6 2 \u0664\n", "malformed AND line '6 2 \u0664'"),
        ("aag \u0663 2 0 1 1\n2\n4\n6\n6 2 4\n", "malformed header 'aag \u0663 2 0 1 1'"),
        (
            "aag 3 2 0 1 1\n2\n4\n6\n6 2 2\n",
            "parsed circuit invalid: gate 0 fanins Literal(node=1, complement=False), "
            "Literal(node=1, complement=False) not normalized",
        ),
    ],
    ids=[
        "empty", "header-field", "header-negative-inputs", "header-negative-ands",
        "odd-input", "repeated-input", "and-two-fields",
        "and-not-int", "odd-lhs", "repeated-lhs", "output-two-fields",
        "output-not-int", "output-negative", "output-signed", "and-underscore",
        "and-arabic-digit", "header-arabic-digit", "repeated-fanin",
    ],
)
def test_from_aiger_names_each_rejection(text, cause):
    with pytest.raises(AigerError, match=re.escape(cause)):
        from_aiger(text)
