import random

import pytest

from aigopt.aig import AndGate, Literal, from_aiger, to_aiger
from aigopt.npn import apply_transform
from aigopt.synthesis import (
    SearchInconclusiveError,
    Status,
    SynthesisConfig,
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
    # full proof visits 13,312,466 nodes.
    outcome = exists_circuit(
        parse_hex("0x0169", 4), 5, SynthesisConfig(time_budget=0.05)
    )
    assert outcome.budget_exhausted
    assert outcome.nodes_visited < 13_312_466
    assert outcome.elapsed < 1.0


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


def test_opt_size_downgrades_on_budget_interruption(monkeypatch):
    """Any budget stop below the witness level must cost Exact status."""
    import aigopt.synthesis as synthesis

    xor = parse_hex("0x6", 2)
    real_witness = exists_circuit(xor, 3).witness
    script = {
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
    with pytest.raises(ValueError):
        SynthesisConfig(time_budget=0)


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
        parse_hex("0x0169", 4): (24, 708, 19_564, 488_672),
        parse_hex("0x69", 3): (12, 234, 3_906, 59_862, 998_429),
        TruthTable(1, 0b10): (0,),  # n = 1 has no fanin pair at all
    }
    for tt, counts in pins.items():
        for k, nodes in enumerate(counts, start=1):
            outcome = exists_circuit(tt, k)
            assert outcome.proven_infeasible, (tt.hex(), k)
            assert outcome.nodes_visited == nodes, (tt.hex(), k)


def test_deterministic_witness():
    """The first witness found depends on the candidate order, unlike an
    infeasibility proof; these pins fix that order."""
    pins = {
        ("0x0006", 5): (
            221_607,
            "aag 9 4 0 1 5\n2\n4\n6\n8\n18\n"
            "10 2 4\n12 3 5\n14 7 9\n16 11 13\n18 14 16\n",
        ),
        ("0x0001", 3): (
            9_122,
            "aag 7 4 0 1 3\n2\n4\n6\n8\n14\n10 3 5\n12 7 9\n14 10 12\n",
        ),
        ("0x8888", 1): (1, "aag 5 4 0 1 1\n2\n4\n6\n8\n10\n10 2 4\n"),
        # The first gate already computes the target, so one last-gate list
        # is counted whole before the witness closes with one unread gate.
        ("0x8888", 2): (
            49,
            "aag 6 4 0 1 2\n2\n4\n6\n8\n12\n10 2 5\n12 2 11\n",
        ),
    }
    for (tt_hex, k), (nodes, aag) in pins.items():
        outcome = exists_circuit(parse_hex(tt_hex, 4), k)
        assert outcome.nodes_visited == nodes, tt_hex
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


def test_cnf_xor_sat_at_three_gates(oracle2):
    tt = parse_hex("0x6", 2)
    cnf = encode_cnf(tt, 3)
    sat, model = dpll_satisfiable(cnf)
    assert sat
    circuit = decode_model(model_text(model), 3, 2)
    assert circuit.evaluate() == tt
    assert circuit.size() == 3 == oracle2[tt.bits].size


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
