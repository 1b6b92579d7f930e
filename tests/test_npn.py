import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aigopt.npn import (
    NpnTransform,
    apply_transform,
    canonicalize,
    enumerate_classes,
    orbit_positions,
    retarget,
    transform_circuit,
    walk_transform,
)
from aigopt.truthtable import Assignment, TruthTable, parse_hex

from helpers import naive_orbit_partition, random_circuit


def random_transform(rng: random.Random, n: int) -> NpnTransform:
    perm = list(range(n))
    rng.shuffle(perm)
    return NpnTransform(tuple(perm), rng.randrange(1 << n), rng.random() < 0.5)


def brute_apply(tt: TruthTable, t: NpnTransform) -> TruthTable:
    """Row-by-row reference: evaluate the source on the mapped assignment."""
    bits = 0
    for b in range(tt.rows):
        src = 0
        for i in range(t.n):
            bit = (b >> t.perm[i]) & 1
            bit ^= (t.input_neg >> i) & 1
            src |= bit << i
        out = tt.eval(Assignment(tt.n, src)) ^ int(t.output_neg)
        bits |= out << b
    return TruthTable(tt.n, bits)


def test_negating_all_inputs_moves_minterm_0_to_15():
    tt = parse_hex("0x0001", 4)
    t = NpnTransform((0, 1, 2, 3), 0b1111, False)
    result = apply_transform(tt, t)
    assert result == parse_hex("0x8000", 4)
    assert result == brute_apply(tt, t)


def test_identity_transform_is_identity():
    rng = random.Random(2)
    for _ in range(20):
        tt = TruthTable(4, rng.randrange(1 << 16))
        assert apply_transform(tt, NpnTransform.identity(4)) == tt


def test_output_negation_complements():
    tt = parse_hex("0x0001", 4)
    t = NpnTransform((0, 1, 2, 3), 0, True)
    assert apply_transform(tt, t) == parse_hex("0xfffe", 4)


def test_apply_matches_row_by_row_reference():
    rng = random.Random(13)
    for n in (2, 3, 4):
        for _ in range(25):
            tt = TruthTable(n, rng.randrange(1 << (1 << n)))
            t = random_transform(rng, n)
            assert apply_transform(tt, t) == brute_apply(tt, t)


@st.composite
def circuits_and_transforms(draw):
    """A random valid circuit over n = 1..4 inputs and an NPN transform of n."""
    n = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    circuit = random_circuit(random.Random(seed), n, 8, allow_const=True)
    perm = draw(st.permutations(range(n)))
    t = NpnTransform(tuple(perm), draw(st.integers(0, (1 << n) - 1)), draw(st.booleans()))
    return circuit, t


@given(circuits_and_transforms())
def test_transform_then_inverse_is_identity(case):
    circuit, t = case
    tt = circuit.evaluate()
    assert apply_transform(apply_transform(tt, t), t.inverse()) == tt
    assert apply_transform(apply_transform(tt, t.inverse()), t) == tt


@given(circuits_and_transforms())
def test_transform_circuit_matches_apply_transform(case):
    circuit, t = case
    moved = transform_circuit(circuit, t)
    assert moved.validate() == []
    assert moved.evaluate() == apply_transform(circuit.evaluate(), t)
    assert moved.size() == circuit.size()


def test_transform_validation():
    with pytest.raises(ValueError):
        NpnTransform((0, 0), 0, False)
    with pytest.raises(ValueError):
        NpnTransform((0, 1), 4, False)
    with pytest.raises(ValueError):
        apply_transform(parse_hex("0x1", 2), NpnTransform.identity(3))


def test_canonicalize_examples():
    canon, witness = canonicalize(parse_hex("0x0080", 4))
    assert canon == parse_hex("0x0001", 4)
    assert apply_transform(parse_hex("0x0080", 4), witness) == canon

    canon, _ = canonicalize(parse_hex("0x0001", 4))
    assert canon == parse_hex("0x0001", 4)

    canon, _ = canonicalize(parse_hex("0xffff", 4))
    assert canon == parse_hex("0x0000", 4)


def test_canonicalize_idempotent_and_constant_on_orbits():
    rng = random.Random(23)
    for _ in range(30):
        tt = TruthTable(4, rng.randrange(1 << 16))
        canon, witness = canonicalize(tt)
        assert apply_transform(tt, witness) == canon
        again, _ = canonicalize(canon)
        assert again == canon
        moved = apply_transform(tt, random_transform(rng, 4))
        assert canonicalize(moved)[0] == canon


def test_canonical_is_orbit_minimum_by_full_scan():
    rng = random.Random(29)
    every_transform = [
        NpnTransform(perm, neg, out)
        for perm in itertools.permutations(range(3))
        for neg in range(8)
        for out in (False, True)
    ]
    for _ in range(10):
        tt = TruthTable(3, rng.randrange(1 << 8))
        canon, _ = canonicalize(tt)
        orbit_min = min(brute_apply(tt, t).bits for t in every_transform)
        assert canon.bits == orbit_min


@given(st.data())
def test_orbit_maps_each_pattern_by_its_transform(classes2, classes3, classes4, data):
    n = data.draw(st.integers(1, 4))
    tt = TruthTable(n, data.draw(st.integers(0, (1 << (1 << n)) - 1)))
    table = {1: enumerate_classes(1), 2: classes2, 3: classes3, 4: classes4}[n]
    positions = orbit_positions(tt)
    assert positions[tt.bits] == 0
    assert walk_transform(n, 0) == NpnTransform.identity(n)
    for pattern, position in positions.items():
        assert apply_transform(tt, walk_transform(n, position)).bits == pattern
    assert len(positions) == table[table.classify(tt)].orbit_size


@given(circuits_and_transforms())
def test_retarget_moves_a_member_circuit_onto_the_table(case):
    circuit, t = case
    target = apply_transform(circuit.evaluate(), t)
    moved = retarget(circuit, target)
    assert moved.validate() == []
    assert moved.size() == circuit.size()
    assert moved.evaluate() == target

    outside = next(
        TruthTable(target.n, bits)
        for bits in range(1 << target.rows)
        if bits not in orbit_positions(target)
    )
    with pytest.raises(ValueError, match="not in the NPN orbit"):
        retarget(circuit, outside)
    if target.n > 1:
        with pytest.raises(ValueError, match="not in the NPN orbit"):
            retarget(circuit, TruthTable(target.n - 1, 0))


def test_walk_positions_name_every_transform_once():
    rng = random.Random(31)
    for n in (1, 2, 3, 4):
        count = (2 * math.factorial(n)) << n
        assert len({walk_transform(n, i) for i in range(count)}) == count
        tt = TruthTable(n, rng.randrange(1 << (1 << n)))
        for pattern, position in orbit_positions(tt).items():
            assert brute_apply(tt, walk_transform(n, position)).bits == pattern


def test_class_counts_small(classes2, classes3):
    assert len(enumerate_classes(1)) == 2
    assert len(classes2) == 4
    assert len(classes3) == 14


def test_enumerate_classes_rejects_n_above_four_before_allocating(monkeypatch):
    def orbit_scan_reached(n, bits):
        raise AssertionError(f"enumerate_classes({n}) started its orbit scan")

    monkeypatch.setattr("aigopt.npn._walk_patterns", orbit_scan_reached)
    for n in (0, 5, 6):
        with pytest.raises(ValueError, match="1..4"):
            enumerate_classes(n)


def test_class_counts_match_naive_orbit_partition(classes2, classes3):
    for n, table in ((1, enumerate_classes(1)), (2, classes2), (3, classes3)):
        orbits = naive_orbit_partition(n)
        assert len(table) == len(orbits)
        # same partition, not just the same count: each orbit's minimum is
        # a canonical representative
        mins = sorted(min(o) for o in orbits)
        assert mins == [c.canon.bits for c in table]


def test_orbit_sizes_partition_function_space(classes2, classes3):
    assert sum(c.orbit_size for c in classes2) == 1 << 4
    assert sum(c.orbit_size for c in classes3) == 1 << 8


def test_classes_sorted_and_self_canonical(classes3):
    bits = [c.canon.bits for c in classes3]
    assert bits == sorted(bits)
    for c in classes3:
        assert canonicalize(c.canon)[0] == c.canon


def test_classify_lookup_agrees_with_canonicalize(classes3):
    rng = random.Random(31)
    for _ in range(50):
        tt = TruthTable(3, rng.randrange(1 << 8))
        canon, _ = canonicalize(tt)
        assert classes3[classes3.classify(tt)].canon == canon


def test_hamming_invariance_under_transforms():
    rng = random.Random(37)
    for _ in range(300):
        a = TruthTable(4, rng.randrange(1 << 16))
        b = TruthTable(4, rng.randrange(1 << 16))
        t = random_transform(rng, 4)
        assert apply_transform(a, t).hamming(apply_transform(b, t)) == a.hamming(b)
