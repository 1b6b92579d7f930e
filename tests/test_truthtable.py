import random

import pytest

from aigopt.truthtable import (
    Assignment,
    TruthTable,
    parse_hex,
    var_table,
)


def test_parse_hex_single_minterm():
    tt = parse_hex("0x0001", 4)
    assert tt.bits == 1
    assert tt.n == 4


def test_parse_hex_constant_zero():
    assert parse_hex("0x0000", 4).bits == 0


def test_parse_hex_0x0180_sets_rows_7_and_8():
    tt = parse_hex("0x0180", 4)
    assert tt.bits == (1 << 7) | (1 << 8)


def test_parse_hex_prefix_optional_and_case_insensitive():
    assert parse_hex("01aB", 4).bits == 0x1AB
    assert parse_hex("0X01AB", 4).bits == 0x1AB


def test_parse_hex_rejects_garbage():
    # int(text, 16) reads the last four as 0x10, 0xf, 0x10 and 0.
    for text in ("0xzz", "", "0x1_0", "0x+f", " 0x 10", "-0"):
        with pytest.raises(ValueError):
            parse_hex(text, 4)


def test_parse_hex_rejects_oversized_value():
    with pytest.raises(ValueError):
        parse_hex("0x10000", 4)
    # boundary: largest legal value is fine
    assert parse_hex("0xffff", 4).bits == 0xFFFF


def test_hex_formatting_round_trips():
    tt = parse_hex("0x0180", 4)
    assert tt.hex() == "0x0180"
    assert parse_hex("0x1", 2).hex() == "0x1"
    assert parse_hex("0x01", 3).hex() == "0x01"


def test_table_rejects_bad_arity_and_bits():
    with pytest.raises(ValueError):
        TruthTable(0, 0)
    with pytest.raises(ValueError):
        TruthTable(7, 0)
    with pytest.raises(ValueError):
        TruthTable(2, 16)


def test_eval_minterm_zero():
    tt = parse_hex("0x0001", 4)
    assert tt.eval(Assignment(4, 0)) == 1
    assert tt.eval(Assignment(4, 0b1111)) == 0


def test_eval_row_seven_of_0x0180():
    # bit 7 of 0x0180: 0x0180 = 0b0000_0001_1000_0000, row 7 is set
    tt = parse_hex("0x0180", 4)
    assert tt.eval(Assignment(4, 0b0111)) == 1


def test_eval_arity_mismatch():
    with pytest.raises(ValueError):
        parse_hex("0x1", 2).eval(Assignment(3, 0))


def test_eval_reconstructs_bits():
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        bits = rng.randrange(1 << (1 << n))
        tt = TruthTable(n, bits)
        rebuilt = 0
        for row in range(1 << n):
            rebuilt |= tt.eval(Assignment(n, row)) << row
        assert rebuilt == bits


def test_flip_bit_examples():
    assert parse_hex("0x0080", 4).flip_bit(8) == parse_hex("0x0180", 4)
    assert parse_hex("0x0000", 4).flip_bit(0) == parse_hex("0x0001", 4)
    assert parse_hex("0x0001", 4).flip_bit(0) == parse_hex("0x0000", 4)


def test_flip_bit_is_involution():
    rng = random.Random(11)
    for _ in range(50):
        tt = TruthTable(4, rng.randrange(1 << 16))
        row = rng.randrange(16)
        assert tt.flip_bit(row).flip_bit(row) == tt
        assert tt.flip_bit(row).hamming(tt) == 1


def test_flip_bit_range_check():
    with pytest.raises(ValueError):
        parse_hex("0x0", 2).flip_bit(4)


def test_hamming_examples():
    # 0x0001 ^ 0x0180 = 0x0181, three set bits
    assert parse_hex("0x0001", 4).hamming(parse_hex("0x0180", 4)) == 3
    tt = parse_hex("0xbeef", 4)
    assert tt.hamming(tt) == 0
    assert parse_hex("0x0000", 4).hamming(parse_hex("0xffff", 4)) == 16


def test_hamming_symmetry_and_triangle():
    rng = random.Random(3)
    for _ in range(200):
        a, b, c = (TruthTable(4, rng.randrange(1 << 16)) for _ in range(3))
        assert a.hamming(b) == b.hamming(a)
        assert a.hamming(c) <= a.hamming(b) + b.hamming(c)


def test_flip_changes_distance_by_one():
    rng = random.Random(5)
    for _ in range(100):
        a = TruthTable(4, rng.randrange(1 << 16))
        ref = TruthTable(4, rng.randrange(1 << 16))
        row = rng.randrange(16)
        assert abs(a.flip_bit(row).hamming(ref) - a.hamming(ref)) == 1


def test_var_and_const_tables():
    assert var_table(4, 0).hex() == "0xaaaa"
    assert var_table(2, 1).bits == 0b1100
    for n in range(1, 7):
        for i in range(n):
            rows = sum(1 << b for b in range(1 << n) if (b >> i) & 1)
            assert var_table(n, i) == TruthTable(n, rows)


def test_assignment_validation():
    with pytest.raises(ValueError):
        Assignment(2, 4)
    a = Assignment(3, 0b101)
    assert a.bit(0) == 1 and a.bit(1) == 0 and a.bit(2) == 1
    with pytest.raises(ValueError):
        a.bit(3)
