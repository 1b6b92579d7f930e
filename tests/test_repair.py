import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aigopt.aig import FALSE, AigCircuit, AndGate, Literal, to_aiger
from aigopt.repair import (
    RepairError,
    build_detector,
    repair_clear,
    repair_multi,
    repair_set,
)
from aigopt.synthesis import Status, opt_size
from aigopt.truthtable import Assignment, TruthTable, parse_hex, var_table

from helpers import random_circuit


def minterm_circuit(bits_hex: str):
    result = opt_size(parse_hex(bits_hex, 4))
    return result.witness


def test_detector_all_ones_is_plain_chain():
    det = build_detector(4, Assignment(4, 0b1111))
    assert det.size() == 3
    assert det.evaluate() == parse_hex("0x8000", 4)
    assert all(
        not g.fanin0.complement and not g.fanin1.complement for g in det.gates
    )


def test_detector_degenerate_single_input():
    det = build_detector(1, Assignment(1, 0))
    assert det.size() == 0
    assert det.output == Literal(1, True)


def test_detector_mixed_polarity():
    det = build_detector(4, Assignment(4, 0b0111))
    assert det.size() == 3
    assert det.evaluate() == parse_hex("0x0080", 4)


def test_detector_fires_only_on_xstar():
    rng = random.Random(59)
    for n in (1, 2, 3, 4):
        for _ in range(10):
            xstar = Assignment(n, rng.randrange(1 << n))
            det = build_detector(n, xstar)
            assert det.size() == n - 1 if n > 1 else det.size() == 0
            assert det.evaluate().bits == 1 << xstar.values


def test_repair_set_paper_edge():
    c = minterm_circuit("0x0080")
    assert c.size() == 3
    repaired, report = repair_set(c, Assignment(4, 8))
    assert repaired.evaluate() == parse_hex("0x0180", 4)
    assert repaired.size() == 7
    assert report.bound == 7
    assert report.flips == 1


def test_repair_set_from_empty_constant():
    c = AigCircuit(4, (), FALSE)
    repaired, report = repair_set(c, Assignment(4, 0))
    assert repaired.evaluate() == parse_hex("0x0001", 4)
    assert repaired.size() <= 4
    assert report.bound == 4


def test_repair_set_precondition():
    c = minterm_circuit("0x0001")
    with pytest.raises(RepairError):
        repair_set(c, Assignment(4, 0))


def test_repair_set_then_clear_restores_function():
    rng = random.Random(61)
    for _ in range(20):
        c = random_circuit(rng, 3, 5)
        table = c.evaluate()
        row = rng.randrange(8)
        xstar = Assignment(3, row)
        if table.eval(xstar) == 0:
            mid, _ = repair_set(c, xstar)
            back, _ = repair_clear(mid, xstar)
        else:
            mid, _ = repair_clear(c, xstar)
            back, _ = repair_set(mid, xstar)
        assert back.evaluate() == table


def test_repair_clear_to_constant_zero():
    c = minterm_circuit("0x0001")
    repaired, report = repair_clear(c, Assignment(4, 0))
    assert repaired.evaluate() == parse_hex("0x0000", 4)
    assert repaired.size() - c.size() == 4
    assert report.bound == c.size() + 4


def test_repair_clear_from_constant_one():
    c = AigCircuit(4, (), ~FALSE)
    repaired, report = repair_clear(c, Assignment(4, 0b1111))
    assert repaired.evaluate() == parse_hex("0x7fff", 4)
    assert repaired.size() == 4
    assert report.output_size <= report.bound


def test_repair_clear_two_variable():
    result = opt_size(parse_hex("0x8", 2))
    repaired, report = repair_clear(result.witness, Assignment(2, 0b11))
    assert repaired.evaluate() == parse_hex("0x0", 2)
    assert repaired.size() - result.witness.size() == 2


def test_repair_clear_precondition():
    c = AigCircuit(2, (), FALSE)
    with pytest.raises(RepairError):
        repair_clear(c, Assignment(2, 0))


def test_repair_multi_noop():
    c = minterm_circuit("0x0080")
    repaired, report = repair_multi(c, c.evaluate())
    assert repaired == c
    assert report.flips == 0
    assert report.bound == c.size()


def test_repair_multi_full_complement():
    c = AigCircuit(4, (), FALSE)
    target = parse_hex("0xffff", 4)
    repaired, report = repair_multi(c, target)
    assert report.flips == 16
    assert report.bound == 64
    assert repaired.evaluate() == target


def test_repair_multi_two_flips():
    c = minterm_circuit("0x0080")
    target = parse_hex("0x0181", 4)
    repaired, report = repair_multi(c, target)
    assert report.flips == 2
    assert report.bound == 3 + 4 * 2
    assert repaired.size() <= report.bound
    assert repaired.evaluate() == target


@pytest.mark.parametrize(
    "n, g_hex",
    [(3, "0x89"), (4, "0x8889"), (5, "0x88888889"), (6, "0x8888888888888889")],
)
def test_flip_bound_is_tight(n, g_hex):
    """f = x0 AND x1 takes one gate; g, f with row 0 flipped, takes exactly
    1 + n, so |delta opt| = n meets the bound at every n the search serves,
    and the repair gadget adds exactly n gates."""
    f = opt_size(TruthTable(n, var_table(n, 0).bits & var_table(n, 1).bits))
    g = opt_size(parse_hex(g_hex, n))
    assert g.tt.bits == f.tt.bits ^ 1
    assert (f.size, f.status) == (1, Status.EXACT)
    assert (g.size, g.status) == (1 + n, Status.EXACT)
    repaired, _ = repair_multi(f.witness, g.tt)
    assert repaired.size() == 1 + n
    assert repaired.evaluate() == g.tt


def test_repair_multi_arity_mismatch():
    with pytest.raises(ValueError):
        repair_multi(AigCircuit(3, (), FALSE), parse_hex("0xffff", 4))


def test_repair_gadget_aiger_is_pinned():
    """x0 AND NOT x1 (0x22): setting row 0b110 ORs in a detector of NOT x0, x1
    and x2; clearing row 0b101 ANDs in the complement of one of x0, NOT x1, x2."""
    c = AigCircuit(3, (AndGate.of(Literal(1), Literal(2, True)),), Literal(4))
    set_row, _ = repair_set(c, Assignment(3, 0b110))
    assert to_aiger(set_row) == "aag 7 3 0 1 4\n2\n4\n6\n15\n8 2 5\n10 3 4\n12 6 10\n14 9 13\n"
    cleared, _ = repair_clear(c, Assignment(3, 0b101))
    assert to_aiger(cleared) == "aag 7 3 0 1 4\n2\n4\n6\n14\n8 2 5\n10 2 5\n12 6 10\n14 8 13\n"


@given(st.data())
def test_repair_certificate_property(data):
    """Every flip adds exactly n gates, and exactly one polarity applies to a row."""
    n = data.draw(st.integers(1, 4))
    c = random_circuit(random.Random(data.draw(st.integers(0, 2**32 - 1))), n, 6)
    target = TruthTable(n, data.draw(st.integers(0, (1 << (1 << n)) - 1)))
    repaired, report = repair_multi(c, target)
    assert repaired.evaluate() == target
    assert report.flips == c.evaluate().hamming(target)
    assert repaired.size() == c.size() + n * report.flips == report.bound

    xstar = Assignment(n, data.draw(st.integers(0, (1 << n) - 1)))
    table = c.evaluate()
    applies, refused = repair_set, repair_clear
    if table.eval(xstar):
        applies, refused = refused, applies
    flipped, _ = applies(c, xstar)
    assert flipped.evaluate() == table.flip_bit(xstar.values)
    assert flipped.size() == c.size() + n
    with pytest.raises(RepairError, match=refused.__name__):
        refused(c, xstar)
