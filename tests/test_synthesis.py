import random

import pytest

from aigopt.aig import AndGate, Literal, from_aiger, to_aiger
from aigopt.npn import apply_transform, canonicalize, orbit_positions
from aigopt.synthesis import (
    MAX_GATES,
    SearchInconclusiveError,
    Status,
    SynthesisConfig,
    _candidate_pairs,
    _gate_choices,
    _pack_sig,
    brute_oracle,
    decode_model,
    encode_cnf,
    exists_circuit,
    opt_size,
)
from aigopt.truthtable import TruthTable, parse_hex, var_table

from helpers import FOUR_GATE_XOR_AAG, dpll_satisfiable, model_text
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


def test_budget_stop_is_not_infeasibility():
    outcome = exists_circuit(
        parse_hex("0x0180", 4), 6, SynthesisConfig(time_budget=0.02)
    )
    assert outcome.witness is None
    assert not outcome.proven_infeasible
    assert outcome.budget_exhausted

    # The deadline is checked once per gate placed, not per candidate; the
    # full proof visits 7,370,554 nodes.
    outcome = exists_circuit(
        parse_hex("0x0169", 4), 6, SynthesisConfig(time_budget=0.05)
    )
    assert outcome.budget_exhausted
    assert outcome.nodes_visited < 7_370_554
    assert outcome.elapsed < 1.0


def test_budget_bounds_the_search_not_the_orbit_build():
    # x0 AND x1 AND x2 at n=6: its orbit takes longer to build than the
    # budget, while the k=1 and k=2 searches take well under a millisecond.
    result = opt_size(parse_hex("0x8080808080808080", 6), SynthesisConfig(time_budget=0.02))
    assert (result.size, result.status) == (2, Status.EXACT)


def test_canonicalize_then_opt_size_walk_the_orbit_once(monkeypatch):
    import aigopt.npn as npn

    walks = []
    real = npn._walk_patterns

    def counted(n, bits):
        walks.append((n, bits))
        return real(n, bits)

    monkeypatch.setattr(npn, "_walk_patterns", counted)
    orbit_positions.cache_clear()
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


def test_opt_size_tracks_largest_proven_level(monkeypatch):
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
    assert result.exhausted_below == 3


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
    """Gate 1 is x0 AND x1 alone; gate 2 keeps the 12 orbit-minimal pairs of
    the 40 over x0..x3 and gate 1."""
    assert _gate_choices(4, 4)[1] == [[(_pack_sig(1, 0, 2, 0), 1, 0, 2, 0)]]
    second = _gate_choices(4, 5)[1][0]
    assert len(_candidate_pairs(5, 0xFFFF)) == 40
    assert len(second) == 12


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
        # Gate 1 is always x0 AND x1, so k = 1 visits one node.
        parse_hex("0x0169", 4): (1, 13, 375, 8_117),
        parse_hex("0x69", 3): (1, 12, 228, 3_175, 57_812),
        TruthTable(1, 0b10): (0,),  # n = 1 has no fanin pair at all
    }
    for tt, counts in pins.items():
        for k, nodes in enumerate(counts, start=1):
            outcome = exists_circuit(tt, k)
            assert outcome.proven_infeasible, (tt.hex(), k)
            assert outcome.nodes_visited == nodes, (tt.hex(), k)


def test_deterministic_witness():
    """The first witness found depends on the candidate order and on the
    orbit transform that maps it back, unlike an infeasibility proof; these
    pins fix both.  ``None`` pins a proof instead."""
    pins = {
        ("0x0006", 5): (
            100_288,
            "aag 9 4 0 1 5\n2\n4\n6\n8\n18\n"
            "10 2 4\n12 3 5\n14 7 9\n16 11 13\n18 14 16\n",
        ),
        ("0x0001", 3): (
            311,
            "aag 7 4 0 1 3\n2\n4\n6\n8\n14\n10 3 5\n12 7 9\n14 10 12\n",
        ),
        ("0x8888", 1): (1, "aag 5 4 0 1 1\n2\n4\n6\n8\n10\n10 2 4\n"),
        # Found as x0 AND x1 AND x2, then moved by the orbit transform.
        ("0x4040", 2): (12, "aag 6 4 0 1 2\n2\n4\n6\n8\n12\n10 3 4\n12 6 10\n"),
        # Gate 1, x0 AND x1, already computes the target: a 1-gate witness,
        # so no 2-gate circuit may close.
        ("0x8888", 2): (13, None),
    }
    for (tt_hex, k), (nodes, aag) in pins.items():
        outcome = exists_circuit(parse_hex(tt_hex, 4), k)
        assert outcome.nodes_visited == nodes, tt_hex
        if aag is None:
            assert outcome.proven_infeasible, tt_hex
        else:
            assert to_aiger(outcome.witness) == aag, tt_hex


# ---------------------------------------------------------------------------
# CNF backend
# ---------------------------------------------------------------------------


def test_cnf_one_gate_and_decodes():
    tt = parse_hex("0x8", 2)
    cnf = encode_cnf(tt, 1)
    sat, model = dpll_satisfiable(cnf)
    assert sat
    circuit = decode_model(model_text(model), 1, 2)
    assert circuit is not None
    assert circuit.evaluate() == tt
    assert circuit.gates == (AndGate(Literal(1), Literal(2)),)


def test_cnf_minterm_of_four_unsat_at_two_gates():
    sat, _ = dpll_satisfiable(encode_cnf(parse_hex("0x0001", 4), 2))
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
        sat, model = dpll_satisfiable(encode_cnf(tt, size))
        assert sat, tt.hex()
        circuit = decode_model(model_text(model), size, tt.n)
        assert circuit.size() == size, tt.hex()
        assert circuit.evaluate() == tt, tt.hex()
        if size > 1:
            sat, _ = dpll_satisfiable(encode_cnf(tt, size - 1))
            assert not sat, tt.hex()


def test_cnf_header_documents_layout():
    cnf = encode_cnf(parse_hex("0x6", 2), 2)
    assert "c gate 1: selection vars" in cnf
    assert "c output polarity var" in cnf
    assert cnf.count("p cnf") == 1


def test_decode_model_unsat_token():
    assert decode_model("UNSAT\n", 2, 2) is None
    assert decode_model("s UNSATISFIABLE\n", 2, 2) is None


def test_decode_model_rejects_inconsistent_selection():
    # all-positive assignment selects several candidates for gate 1
    with pytest.raises(ValueError):
        decode_model("1 2 3 4 0\n", 1, 2)


def test_cnf_rejects_zero_gates():
    with pytest.raises(ValueError):
        encode_cnf(parse_hex("0x8", 2), 0)
