import gc
import hashlib
import itertools
import random
import re
import subprocess
import sys
import tracemalloc
import types
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings

import aigopt
from aigopt.aig import AigCircuit, AndGate, Literal, from_aiger, to_aiger
from aigopt.cnf import decode_model, encode_cnf
from aigopt.npn import (
    NpnTransform,
    apply_transform,
    canonicalize,
    enumerate_classes,
    orbit,
    retarget,
    transform_circuit,
)
from aigopt.repair import build_detector
from aigopt.synthesis import (
    MAX_GATES,
    SearchInconclusiveError,
    Status,
    SynthesisConfig,
    _candidate_pairs,
    _gate_choices,
    _input_group,
    _pack_sig,
    brute_oracle,
    exists_circuit,
    opt_size,
    sweep,
)
from aigopt.truthtable import Assignment, TruthTable, parse_hex, var_table

from helpers import FOUR_GATE_XOR_AAG, circuits, dpll_satisfiable, model_text
from test_npn import random_transform


def test_exists_one_gate_and():
    outcome = exists_circuit(parse_hex("0x8", 2), 1)
    assert outcome.witness is not None
    assert outcome.witness.gates == (AndGate(Literal(1), Literal(2)),)
    assert outcome.witness.evaluate() == parse_hex("0x8", 2)


def test_exists_two_gates_insufficient_for_minterm_of_four():
    outcome = exists_circuit(parse_hex("0x0001", 4), 2)
    assert outcome.witness is None
    assert outcome.proven_infeasible


def test_exists_xor_needs_three_gates(oracle2):
    xor = parse_hex("0x6", 2)
    assert oracle2[xor.bits].size == 3  # independent route agrees
    outcome = exists_circuit(xor, 2)
    assert outcome.proven_infeasible
    outcome = exists_circuit(xor, 3)
    assert outcome.witness is not None
    assert outcome.witness.evaluate() == xor


def test_exists_zero_gates():
    assert exists_circuit(parse_hex("0x0", 2), 0).witness is not None
    assert exists_circuit(parse_hex("0xf", 2), 0).witness is not None
    assert exists_circuit(parse_hex("0xa", 2), 0).witness is not None  # x0
    assert exists_circuit(parse_hex("0x8", 2), 0).proven_infeasible


def test_zero_gate_witness_is_the_one_literal():
    """Constants and literals are answered at k = 0 through the orbit, and the
    mapped circuit is the only zero-gate circuit for the table."""
    cases = [(n, node, c) for n in range(1, 5) for node in range(n + 1) for c in (False, True)]
    for n, node, complement in cases + [(6, 6, True)]:
        expected = AigCircuit(n, (), Literal(node, complement))
        outcome = exists_circuit(expected.evaluate(), 0)
        assert (outcome.nodes_visited, outcome.proven_infeasible) == (0, False)
        assert to_aiger(outcome.witness) == to_aiger(expected), (n, node, complement)


def test_budget_stop_is_not_infeasibility():
    outcome = exists_circuit(
        parse_hex("0x0180", 4), 6, SynthesisConfig(time_budget=0.02)
    )
    assert outcome.witness is None
    assert not outcome.proven_infeasible
    assert outcome.budget_exhausted

    # The deadline is checked once per gate placed before the second-to-last,
    # not per candidate; the full proof visits 78,983,965 nodes.
    outcome = exists_circuit(
        parse_hex("0x0169", 4), 7, SynthesisConfig(time_budget=0.05)
    )
    assert outcome.budget_exhausted
    assert outcome.nodes_visited < 78_983_965
    assert outcome.elapsed < 1.0


def test_budget_stop_counts_are_pinned(monkeypatch):
    """A budget stop reports every node visited before the deadline read that
    stops it.  Under a clock that advances 1.0 per read, the budget counts
    reads, so the counts are fixed: the deadline is read each time the walk
    steps to a gate, up to the second-to-last, whose loop reads none and is
    counted whole before the next read."""
    monkeypatch.setattr(
        "aigopt.synthesis.time", types.SimpleNamespace(monotonic=itertools.count(1.0).__next__)
    )
    for budget, nodes in ((50, 13_389), (500, 246_977), (2000, 1_344_048)):
        outcome = exists_circuit(
            parse_hex("0x0169", 4), 6, SynthesisConfig(time_budget=budget)
        )
        assert outcome.budget_exhausted, budget
        assert outcome.nodes_visited == nodes, budget


def test_a_query_leaves_no_garbage_cycle():
    """Each query's search state and orbit set are freed when it returns; left
    in a cycle they would pile up until a full collection, proof after proof."""
    gc.collect()
    gc.disable()
    try:
        for k in (0, 3):
            exists_circuit(parse_hex("0x0169", 4), k)
        exists_circuit(parse_hex("0x0169", 4), 6, SynthesisConfig(time_budget=0.01))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_search_memory_is_bounded_by_its_path():
    """Once the gate lists and the orbit are built, a query holds only its
    path (values, seen set, chain), so it traces a few KiB over this
    57,012-node proof, not memory that grows with the nodes visited."""
    tt = parse_hex("0x0169", 4)
    exists_circuit(tt, 5)
    tracemalloc.start()
    try:
        outcome = exists_circuit(tt, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.proven_infeasible
    assert peak < 8 * 1024, peak


def test_budget_bounds_the_search_not_the_orbit_build():
    # x0 AND x1 AND x2 at n=6: its orbit takes longer to build than the
    # budget, while its k=2 search takes well under a millisecond once the
    # n=6 gate lists, which every target shares, are built.  k=2 is the
    # first gate count whose search reads the clock.
    exists_circuit(TruthTable(6, 0), 2)
    orbit.cache_clear()
    outcome = exists_circuit(parse_hex("0x8080808080808080", 6), 2, SynthesisConfig(time_budget=0.005))
    assert outcome.witness is not None and outcome.witness.size() == 2


def test_canonicalize_then_opt_size_walk_the_orbit_once(monkeypatch):
    import aigopt.npn as npn

    walks = []
    real = npn._walk_patterns

    def counted(n, bits):
        walks.append((n, bits))
        return real(n, bits)

    monkeypatch.setattr(npn, "_walk_patterns", counted)
    orbit.cache_clear()
    member = parse_hex("0x0080", 4)
    assert canonicalize(member)[0] == parse_hex("0x0001", 4)
    assert opt_size(member, SynthesisConfig(max_gates=4)).size == 3
    assert walks == [(4, 0x0080)]


def test_opt_size_minterm_of_four_is_three_exact():
    result = opt_size(parse_hex("0x0001", 4))
    assert result.size == 3
    assert result.status is Status.EXACT
    assert result.exhausted_below == 2
    assert result.witness.evaluate() == parse_hex("0x0001", 4)


def test_opt_size_projection_is_free():
    result = opt_size(parse_hex("0xaaaa", 4))
    assert result.size == 0
    assert result.status is Status.EXACT
    assert result.exhausted_below == -1
    assert result.witness.evaluate() == var_table(4, 0)


def test_opt_size_constant():
    result = opt_size(parse_hex("0x0000", 4))
    assert result.size == 0 and result.status is Status.EXACT


def test_opt_size_raises_when_capped():
    with pytest.raises(SearchInconclusiveError) as exc:
        opt_size(parse_hex("0x6", 2), SynthesisConfig(max_gates=2))
    assert exc.value.exhausted_below == 2
    # At cap 0 only the zero-gate check runs: it proves k = 0 or answers.
    with pytest.raises(SearchInconclusiveError) as exc:
        opt_size(parse_hex("0x6", 2), SynthesisConfig(max_gates=0))
    assert exc.value.exhausted_below == 0
    result = opt_size(parse_hex("0x5", 2), SynthesisConfig(max_gates=0))
    assert (result.size, result.status, result.exhausted_below) == (0, Status.EXACT, -1)


def test_opt_size_downgrades_on_budget_interruption(monkeypatch):
    """Any budget stop below the witness level must cost Exact status."""
    import aigopt.synthesis as synthesis

    xor = parse_hex("0x6", 2)
    real_witness = exists_circuit(xor, 3).witness
    script = {
        0: synthesis.ExistsOutcome(None, True, 0, 0.0),
        1: synthesis.ExistsOutcome(None, True, 0, 0.0),   # proven infeasible
        2: synthesis.ExistsOutcome(None, False, 0, 0.0),  # budget stop
        3: synthesis.ExistsOutcome(real_witness, False, 0, 0.0),
    }
    monkeypatch.setattr(synthesis, "exists_circuit", lambda tt, k, cfg: script[k])
    result = synthesis.opt_size(xor)
    assert result.size == 3
    assert result.status is Status.UPPER_BOUND
    assert result.exhausted_below == 1


def test_opt_size_floor_ends_at_the_first_gap(monkeypatch):
    """A proof above a budget stop is no floor: ``exhausted_below`` ends the
    unbroken run of proven gate counts from k = 0."""
    import aigopt.synthesis as synthesis

    xor = parse_hex("0x6", 2)
    pad = from_aiger(FOUR_GATE_XOR_AAG)
    assert pad.evaluate() == xor and pad.size() == 4
    script = {
        0: synthesis.ExistsOutcome(None, True, 0, 0.0),
        1: synthesis.ExistsOutcome(None, True, 0, 0.0),
        2: synthesis.ExistsOutcome(None, False, 0, 0.0),  # budget stop
        3: synthesis.ExistsOutcome(None, True, 0, 0.0),   # proven later anyway
        4: synthesis.ExistsOutcome(pad, False, 0, 0.0),
    }
    monkeypatch.setattr(synthesis, "exists_circuit", lambda tt, k, cfg: script[k])
    result = synthesis.opt_size(xor)
    assert result.size == 4
    assert result.status is Status.UPPER_BOUND
    assert result.exhausted_below == 1


def test_config_validation():
    with pytest.raises(ValueError):
        SynthesisConfig(max_gates=-1)
    assert SynthesisConfig(max_gates=MAX_GATES).max_gates == MAX_GATES
    with pytest.raises(ValueError, match=f"0..{MAX_GATES}"):
        SynthesisConfig(max_gates=MAX_GATES + 1)
    with pytest.raises(ValueError):
        SynthesisConfig(time_budget=0)
    # NaN passes a ``<= 0`` test, yet a deadline of start + NaN never fires.
    with pytest.raises(ValueError):
        SynthesisConfig(time_budget=float("nan"))
    assert SynthesisConfig(time_budget=float("inf")).time_budget == float("inf")


def test_oracle_n1_both_classes_free():
    oracle = brute_oracle(1)
    assert len(oracle) == 4
    assert all(e.size == 0 for e in oracle.values())


def test_oracle_n2_exactly_two_functions_cost_three(oracle2):
    assert len(oracle2) == 16
    three = sorted(bits for bits, e in oracle2.items() if e.size == 3)
    assert three == [0x6, 0x9]
    assert max(e.size for e in oracle2.values()) == 3


def test_oracle_rejects_large_n():
    with pytest.raises(ValueError):
        brute_oracle(4)


def test_opt_size_agrees_with_oracle_n2(oracle2):
    for bits in range(16):
        result = opt_size(TruthTable(2, bits))
        assert result.status is Status.EXACT
        assert result.size == oracle2[bits].size
        assert result.witness.evaluate().bits == bits


def test_opt_size_agrees_with_oracle_n3(oracle3):
    """Two routes at n=3: every function's orbit search against brute_oracle."""
    for bits in range(256):
        result = opt_size(TruthTable(3, bits))
        assert result.status is Status.EXACT
        assert result.size == oracle3[bits].size, hex(bits)
        assert result.witness.size() == result.size
        assert result.witness.evaluate().bits == bits


# Sizes of the 21 n=4 classes of size <= 4 and the 24 of size 5, as the
# per-function search (no orbit target, no symmetry cut) found them.
N4_SIZES_UP_TO_4 = {
    "0x0000": 0, "0x0001": 3, "0x0003": 2, "0x0007": 3, "0x000f": 1,
    "0x001b": 4, "0x001f": 3, "0x003c": 4, "0x003f": 2, "0x007f": 3,
    "0x00ff": 0, "0x01ab": 4, "0x01af": 4, "0x01ef": 4, "0x033f": 4,
    "0x0357": 3, "0x035f": 4, "0x03c3": 4, "0x03cf": 3, "0x03fc": 4,
    "0x0ff0": 3,
}
N4_SIZE_5 = (
    "0x0006", "0x0017", "0x0019", "0x001e", "0x003d", "0x006f", "0x011f",
    "0x012f", "0x013f", "0x0189", "0x018b", "0x018f", "0x01a9", "0x01aa",
    "0x01ee", "0x01fe", "0x0356", "0x03c0", "0x03c7", "0x03d7", "0x03dd",
    "0x0666", "0x07f0", "0x07f8",
)


def check_exact(tt: TruthTable, size: int, cap: int) -> None:
    result = opt_size(tt, SynthesisConfig(max_gates=cap))
    assert (result.size, result.status) == (size, Status.EXACT), tt.hex()
    assert result.exhausted_below == (size - 1 if size else -1), tt.hex()
    assert result.witness.size() == size, tt.hex()
    assert result.witness.evaluate() == tt, tt.hex()


def test_opt_size_n4_classes_at_cap_four(classes4):
    exact = 0
    for c in classes4:
        size = N4_SIZES_UP_TO_4.get(c.canon.hex())
        if size is None:
            with pytest.raises(SearchInconclusiveError) as exc:
                opt_size(c.canon, SynthesisConfig(max_gates=4))
            assert exc.value.exhausted_below == 4, c.canon.hex()
        else:
            check_exact(c.canon, size, cap=4)
            exact += 1
    assert exact == 21


def test_opt_size_size_five_orbit_members():
    rng = random.Random(61)
    for canon in N4_SIZE_5:
        member = apply_transform(parse_hex(canon, 4), random_transform(rng, 4))
        check_exact(member, 5, cap=5)


def test_symmetry_cut_lists_n4():
    """Gate 1 is x0 AND x1 alone, placed under nothing and leaving H, the 16
    input transforms that fix it; gate 2 keeps the 8 live orbit-minimal pairs
    of the 40 over x0..x3 and gate 1.  A pair is (sig, l0, l1, keep,
    next_stab), with literal codes l = node << 1 | complement and keep
    clearing both fanin nodes from a pending bitmask."""
    full = (1 << 16) - 1
    gate1 = (_pack_sig(1, 0, 2, 0), 2, 4, ~0b110, full)
    assert _gate_choices(4, 4, 1, -1) == ([gate1], {})
    second = _gate_choices(4, 5, full, gate1[0])[0]
    assert len(_candidate_pairs(5, 0xFFFF)) == 40
    assert len(second) == 8
    # x0 AND x1 again, x0 AND g1, NOT x0 AND g1 and NOT x0 AND NOT g1 recompute
    # gate 1, g1, 0 and NOT x0: they never reach the list.
    dead = {(1, 0, 2, 0), (1, 0, 5, 0), (1, 1, 5, 0), (1, 1, 5, 1)}
    assert not dead & {(l0 >> 1, l0 & 1, l1 >> 1, l1 & 1) for _, l0, l1, _, _ in second}


def literal_image(t, j: int, c: int) -> tuple[int, int]:
    """Where the input transform t sends the literal (node j, complement c);
    the constant and gate nodes stay put."""
    if j == 0 or j > t.n:
        return j, c
    return t.perm[j - 1] + 1, c ^ ((t.input_neg >> (j - 1)) & 1)


def pair_image(t, pair):
    """The image of a fanin pair (j0, c0, j1, c1), sorted like a signature."""
    j0, c0, j1, c1 = pair
    return tuple(sorted([literal_image(t, j0, c0), literal_image(t, j1, c1)]))


def test_stabilizer_chain_n4():
    """Every list the n=4 walk reaches through gate 4 agrees with a direct
    construction from the NPN transforms: the pairs that read the newest node
    and the older pairs of signature >= the previous gate's, less those that
    recompute a constant, an input or gate 1, each kept when it is the
    smallest in its orbit under the stabilizer it is placed under, and
    carrying the subgroup that fixes it.  The closers of each node split the
    pairs that read the newest node by its polarity."""
    n, mask = 4, 0xFFFF
    gate1 = ((1, 0), (2, 0))
    group = [
        NpnTransform(perm, neg, False)
        for perm in itertools.permutations(range(n))
        for neg in range(1 << n)
        if pair_image(NpnTransform(perm, neg, False), (1, 0, 2, 0)) == gate1
    ]
    assert len(group) == len(_input_group(n)) == 16

    def as_transform(table):
        images = [table[j << 1] for j in range(1, n + 1)]
        assert all(table[(j << 1) | 1] == table[j << 1] ^ 1 for j in range(1, n + 1))
        assert all(table[code] == code for code in range(2 * n + 2, len(table)))
        neg = sum((image & 1) << i for i, image in enumerate(images))
        return NpnTransform(tuple((image >> 1) - 1 for image in images), neg, False)

    order = [as_transform(table) for table in _input_group(n)]
    assert order[0] == NpnTransform.identity(n) and set(order) == set(group)

    values = [0] + [var_table(n, i).bits for i in range(n)]
    values.append(values[1] & values[2])
    known = {min(v, v ^ mask) for v in values}

    def direct(m, stab, prev_sig):
        members = [(i, t) for i, t in enumerate(order) if (stab >> i) & 1]
        expect = []
        for j0, j1 in itertools.combinations(range(1, m + 1), 2):
            for c0, c1 in itertools.product((0, 1), repeat=2):
                sig = _pack_sig(j0, c0, j1, c1)
                if j1 < m and sig < prev_sig:
                    continue
                if j1 <= n + 1:
                    v = (values[j0] ^ (mask * c0)) & (values[j1] ^ (mask * c1))
                    if min(v, v ^ mask) in known:
                        continue
                images = {i: pair_image(t, (j0, c0, j1, c1)) for i, t in members}
                if min(images.values()) == images[0]:
                    fixed = sum(1 << i for i, image in images.items() if image == images[0])
                    keep = ~(1 << j0 | 1 << j1)
                    expect.append((sig, j0 << 1 | c0, j1 << 1 | c1, keep, fixed))
        return sorted(expect)

    full = (1 << 16) - 1
    second = _gate_choices(n, n + 1, full, _pack_sig(1, 0, 2, 0))[0]
    assert sorted(c[4].bit_count() for c in second) == [2, 2, 4, 4, 4, 8, 8, 16]
    frontier = [(n + 1, full, _pack_sig(1, 0, 2, 0))]
    checked = 0
    while frontier:
        m, stab, prev_sig = frontier.pop()
        pairs, closers = _gate_choices(n, m, stab, prev_sig)
        assert pairs == direct(m, stab, prev_sig)
        fresh = [c for c in pairs if c[2] >> 1 == m]

        def split(close):
            pos = [c[1] for c in close if c[2] == m << 1]
            neg = [c[1] for c in close if c[2] == m << 1 | 1]
            return pos, neg, close

        assert closers == {0: split(fresh)} | {
            1 << a: split([c for c in fresh if c[1] >> 1 == a]) for a in range(1, m)
        }
        checked += 1
        if m < n + 3:
            frontier += [(m + 1, c[4], c[0]) for c in pairs]
    assert checked == 212


@settings(max_examples=60, deadline=None)
@given(circuits(min_n=3, max_n=4, max_gates=5))
def test_opt_size_never_exceeds_a_drawn_circuit(c):
    """A cut that removed every minimum witness of some function would make
    its search miss the drawn circuit's size."""
    tt = c.evaluate()
    result = opt_size(tt, SynthesisConfig(max_gates=c.size()))
    assert result.size <= c.size()
    assert result.witness.evaluate() == tt
    assert result.witness.size() == result.size


def test_opt_size_npn_invariant(oracle3):
    rng = random.Random(53)
    for _ in range(10):
        tt = TruthTable(3, rng.randrange(256))
        t = random_transform(rng, 3)
        moved = apply_transform(tt, t)
        assert oracle3[moved.bits].size == oracle3[tt.bits].size
        assert opt_size(moved).size == opt_size(tt).size


def test_search_node_counts_are_pinned():
    """Exhaustive infeasibility proofs visit a fixed number of nodes; any
    change means the search space or its reductions changed."""
    pins = {
        # Both depend on every input, so k <= n - 2 visits no node.  Gate 1
        # is always x0 AND x1 and gate 2 takes the 7 live orbit-minimal pairs
        # at n = 3, so 0x69 visits 8 nodes at k = 2.
        parse_hex("0x0169", 4): (0, 0, 69, 1_844, 57_012, 2_032_341),
        parse_hex("0x69", 3): (0, 8, 121, 2_018, 40_411),
        TruthTable(1, 0b10): (0,),  # n = 1 has no fanin pair at all
    }
    for tt, counts in pins.items():
        for k, nodes in enumerate(counts, start=1):
            outcome = exists_circuit(tt, k)
            assert outcome.proven_infeasible, (tt.hex(), k)
            assert outcome.nodes_visited == nodes, (tt.hex(), k)


def test_support_floor():
    """A function of D inputs needs D - 1 gates, so a query below that is
    proven infeasible before any node is visited; at k = D - 1 the witness is
    still found, whether or not D is all of n."""
    for k in (1, 2):
        outcome = exists_circuit(parse_hex("0x6996", 4), k)
        assert (outcome.proven_infeasible, outcome.nodes_visited) == (True, 0), k
    outcome = exists_circuit(parse_hex("0x4040", 4), 1)
    assert (outcome.proven_infeasible, outcome.nodes_visited) == (True, 0)
    for tt_hex, k in (("0x4040", 2), ("0x8888", 1), ("0x0001", 3)):
        outcome = exists_circuit(parse_hex(tt_hex, 4), k)
        assert outcome.witness.evaluate() == parse_hex(tt_hex, 4), tt_hex
        assert outcome.witness.size() == k, tt_hex


def test_deterministic_witness():
    """The first witness found depends on the candidate order and on the
    orbit transform that maps it back, unlike an infeasibility proof; these
    pins fix both.  ``None`` pins a proof instead."""
    pins = {
        ("0x0006", 5): (
            18_768,
            "aag 9 4 0 1 5\n2\n4\n6\n8\n18\n"
            "10 2 4\n12 3 5\n14 7 9\n16 11 13\n18 14 16\n",
        ),
        ("0x0001", 3): (
            23,
            "aag 7 4 0 1 3\n2\n4\n6\n8\n14\n10 3 5\n12 7 9\n14 10 12\n",
        ),
        ("0x8888", 1): (1, "aag 5 4 0 1 1\n2\n4\n6\n8\n10\n10 2 4\n"),
        # A hit 1.2M nodes into the walk.
        ("0x1be4", 6): (
            1_212_870,
            "aag 10 4 0 1 6\n2\n4\n6\n8\n20\n"
            "10 3 5\n12 2 7\n14 11 13\n16 8 14\n18 9 15\n20 17 19\n",
        ),
        # Found as x0 AND x1 AND x2, then moved by the orbit transform.
        ("0x4040", 2): (8, "aag 6 4 0 1 2\n2\n4\n6\n8\n12\n10 3 4\n12 6 10\n"),
        # Gate 1, x0 AND x1, already computes the target: a 1-gate witness,
        # so no 2-gate circuit may close.
        ("0x8888", 2): (9, None),
    }
    for (tt_hex, k), (nodes, aag) in pins.items():
        outcome = exists_circuit(parse_hex(tt_hex, 4), k)
        assert outcome.nodes_visited == nodes, tt_hex
        if aag is None:
            assert outcome.proven_infeasible, tt_hex
        else:
            assert to_aiger(outcome.witness) == aag, tt_hex


def _canons(table):
    return [c.canon for c in table]


def test_sweep_levels_are_pinned(classes3, classes4):
    """Per level k = 0, 1, ...: the nodes the one walk visits and the classes
    it settles.  At n = 3 the inputs join the pending set from k = 4 on, once
    x0 XOR x1 (size 3) is settled, so k = 4 and 5 visit 0x69's own proof
    counts; k = 6 stops at the hit that settles 0x69, the last class.  At
    n = 4 they never join below k = 7."""
    pins = {
        3: ([0, 1, 8, 160, 2_018, 40_411, 518_320], [2, 1, 2, 2, 4, 1, 2]),
        4: ([0, 1, 9, 212, 3_779, 93_983, 2_790_588], [2, 1, 2, 7, 9, 24, 30]),
    }
    for table in (classes3, classes4):
        nodes, settled = pins[table.n]
        levels = list(itertools.islice(sweep(table, _canons(table)), len(nodes)))
        assert [level.k for level in levels] == list(range(len(nodes))), table.n
        assert [level.nodes_visited for level in levels] == nodes, table.n
        assert [len(level.settled) for level in levels] == settled, table.n


def test_sweep_stops_at_the_last_needed_class(classes4):
    """Given the tables its caller needs, the sweep stops at the hit that
    settles the last of them: needing only the first canon level 6 settles,
    it walks that level only to its hit, and settles it the same way."""
    full = list(itertools.islice(sweep(classes4, _canons(classes4)), 7))
    result = full[6].settled[0]
    levels = list(sweep(classes4, [result.tt]))
    assert [level.nodes_visited for level in levels[:6]] == [
        level.nodes_visited for level in full[:6]
    ]
    assert len(levels) == 7 and levels[6].nodes_visited < full[6].nodes_visited
    assert levels[6].settled == [result]
    assert list(sweep(classes4, [])) == []


def test_sweep_sizes_equal_brute_oracle_n3(classes3, oracle3):
    """Swept for every function, each gets the reference size and a witness
    that computes it: its class's first witness moved by one retarget, the
    same circuit as moving the canon's witness on to it."""
    functions = [TruthTable(3, bits) for bits in range(256)]
    results = [r for level in sweep(classes3, functions) for r in level.settled]
    assert sorted(r.tt.bits for r in results) == list(range(256))
    canon_witness = {
        r.tt: r.witness for level in sweep(classes3, _canons(classes3)) for r in level.settled
    }
    for r in results:
        assert r.size == oracle3[r.tt.bits].size, r.tt.hex()
        assert r.witness.evaluate() == r.tt and r.witness.size() == r.size, r.tt.hex()
        canon = classes3[classes3.function_class[r.tt.bits]].canon
        assert r.witness == retarget(canon_witness[canon], canon.bits, r.tt), r.tt.hex()


@pytest.mark.parametrize("n, max_gates, count", [(3, 6, 14), (4, 5, 45)])
def test_sweep_witnesses_equal_opt_size(n, max_gates, count):
    """Each class's first hit in the sweep is the first hit of its own
    per-class walk, moved onto the canon by the same transform."""
    table = enumerate_classes(n)
    levels = itertools.islice(sweep(table, _canons(table)), max_gates + 1)
    settled = [r for level in levels for r in level.settled]
    assert len(settled) == count
    cfg = SynthesisConfig(max_gates=max_gates)
    for result in settled:
        expected = opt_size(result.tt, cfg)
        assert result == replace(expected, elapsed=0.0), result.tt.hex()


# ---------------------------------------------------------------------------
# CNF backend
# ---------------------------------------------------------------------------


def test_cnf_one_gate_and_decodes():
    tt = parse_hex("0x8", 2)
    cnf = "".join(encode_cnf(tt, 1))
    sat, model = dpll_satisfiable(cnf)
    assert sat
    circuit = decode_model(model_text(model), 1, 2)
    assert circuit is not None
    assert circuit.evaluate() == tt
    assert circuit.gates == (AndGate(Literal(1), Literal(2)),)


def test_cnf_minterm_of_four_unsat_at_two_gates():
    sat, _ = dpll_satisfiable("".join(encode_cnf(parse_hex("0x0001", 4), 2)))
    assert not sat


def test_cnf_agrees_with_brute_oracle(classes2, oracle2, oracle3):
    """Second route for the CNF path: satisfiable at the brute-force size,
    decoded to a circuit of that size, and unsatisfiable one gate below."""
    cases = [(c.canon, oracle2) for c in classes2 if oracle2[c.canon.bits].size]
    # The n=3 classes of size 1..3; 0x1e at size 4 alone takes ~10 s in DPLL.
    for h in ("0x01", "0x03", "0x07", "0x1b", "0x3c"):
        cases.append((parse_hex(h, 3), oracle3))
    for tt, oracle in cases:
        size = oracle[tt.bits].size
        sat, model = dpll_satisfiable("".join(encode_cnf(tt, size)))
        assert sat, tt.hex()
        circuit = decode_model(model_text(model), size, tt.n)
        assert circuit.size() == size, tt.hex()
        assert circuit.evaluate() == tt, tt.hex()
        if size > 1:
            sat, _ = dpll_satisfiable("".join(encode_cnf(tt, size - 1)))
            assert not sat, tt.hex()


def test_cnf_header_documents_layout():
    cnf = "".join(encode_cnf(parse_hex("0x6", 2), 2))
    assert "c gate 1: selection vars" in cnf
    assert "c output polarity var" in cnf
    assert cnf.count("p cnf") == 1


def test_decode_model_unsat_token():
    assert decode_model("UNSAT\n", 2, 2) is None
    assert decode_model("s UNSATISFIABLE\n", 2, 2) is None


# The one 1-gate model for 0x8 at n=2: selection var 1 picks (x0, x1), output
# polarity var 9 is false.
_AND_MODEL = "1 -2 -3 -4 -5 -6 -7 8 -9 0"


@pytest.mark.parametrize(
    "text, error",
    [
        (f"c solver banner\ns SATISFIABLE\nv {_AND_MODEL}\n", None),
        (f"SAT\n{_AND_MODEL}\n", None),
        ("v 1 x 0\n", "unexpected token 'x' in model"),
        ("s UNKNOWN\n", "unexpected token 'UNKNOWN' in model"),
    ],
    ids=["dimacs-banner", "bare-sat", "bad-literal", "unknown-status"],
)
def test_decode_model_reads_solver_output(text, error):
    if error is None:
        assert decode_model(text, 1, 2).evaluate() == parse_hex("0x8", 2)
    else:
        with pytest.raises(ValueError, match=re.escape(error)):
            decode_model(text, 1, 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: transform_circuit(AigCircuit(2), NpnTransform.identity(3)),
            "arity mismatch: circuit n=2, transform n=3",
        ),
        (
            lambda: enumerate_classes(2).classify(parse_hex("0x6", 3)),
            "arity mismatch: table n=3, classes n=2",
        ),
        (
            lambda: build_detector(3, Assignment(2, 1)),
            "arity mismatch: n=3, assignment n=2",
        ),
        (
            lambda: parse_hex("0x6", 2).hamming(parse_hex("0x6", 3)),
            "arity mismatch: n=2 vs n=3",
        ),
        (lambda: var_table(3, 3), "variable index 3 out of range for n=3"),
        (
            lambda: exists_circuit(parse_hex("0x6", 2), -1),
            f"gate count must be in 0..{MAX_GATES}, got -1",
        ),
        (
            lambda: exists_circuit(
                parse_hex("0x6996", 4), MAX_GATES + 1, SynthesisConfig(time_budget=0.5)
            ),
            f"gate count must be in 0..{MAX_GATES}, got {MAX_GATES + 1}",
        ),
    ],
    ids=[
        "transform-circuit", "classify", "detector", "hamming", "var-table", "gates", "above-cap",
    ],
)
def test_bad_arguments_raise_named_errors(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_decode_model_rejects_inconsistent_selection():
    # all-positive assignment selects several candidates for gate 1
    with pytest.raises(ValueError):
        decode_model("1 2 3 4 0\n", 1, 2)


def test_cnf_bytes_are_pinned():
    """sha256 of whole queries; the layout and clause order are an interface
    that solver models decoded by ``decode_model`` depend on."""
    pins = {
        ("0x8", 2, 1): "ff61dac103553076ac6335fafa45d59e7ca4ca0564125c1cefc9daa2f7ce4a2a",
        ("0x6", 2, 3): "f2d30b531c01e520380ddb0c40b93ac9b5904b8edd0921a1e321088dbdfa62fd",
        ("0x0169", 4, 5): "ef963db8d42ee1cc690bcd3bbd2484a79f5fbc66d43432b262054a1d16113e9e",
    }
    for (tt_hex, n, k), digest in pins.items():
        text = "".join(encode_cnf(parse_hex(tt_hex, n), k))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (tt_hex, k)


def test_cnf_export_memory_stays_flat(tmp_path):
    """k = 12 holds ~1M clauses; the export streams them, so its peak RSS is
    the interpreter's own, not the query's (52 MB when held in memory).

    The child reads its peak from VmHWM: ``ru_maxrss`` keeps the high-water
    mark of the process that forked it across exec, here the test runner's.
    """
    script = (
        "import sys\n"
        "from aigopt import cli\n"
        "code = cli.main(['cnf-export', '0x6', '-n', '2', '--max-gates', '12',"
        " '--cnf-dir', sys.argv[1]])\n"
        "hwm = next(line for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
        "print(code, hwm.split()[1])\n"
    )
    src = str(Path(aigopt.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True, text=True, timeout=120, env={"PYTHONPATH": src},
    )
    code, maxrss_kb = map(int, done.stdout.splitlines()[-1].split())
    assert code == 0, done.stderr
    assert len(list(tmp_path.glob("*.cnf"))) == 12
    assert maxrss_kb < 35 * 1024


def test_cnf_rejects_zero_gates():
    with pytest.raises(ValueError):
        encode_cnf(parse_hex("0x8", 2), 0)
