import json
import random
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aigopt.aig import AigCircuit, AndGate, Literal, from_aiger, to_aiger
from aigopt.store import (
    HEADER,
    ResultRecord,
    append_record,
    load_store,
    record_from_result,
)
from aigopt.synthesis import Status, opt_size
from aigopt.truthtable import parse_hex

from helpers import FOUR_GATE_XOR_AAG, random_circuit


def make_record(**overrides) -> ResultRecord:
    result = opt_size(parse_hex("0x6", 2))
    record = record_from_result(result)
    return replace(record, **overrides) if overrides else record


def test_append_then_load_round_trips(tmp_path):
    path = tmp_path / "store.jsonl"
    record = make_record()
    append_record(path, record)
    loaded = load_store(path)
    assert loaded.issues == []
    assert loaded.best == {record.tt_hex: record}
    assert path.read_text().splitlines()[0] == HEADER


def test_header_written_once(tmp_path):
    path = tmp_path / "store.jsonl"
    append_record(path, make_record())
    append_record(path, make_record(timestamp="2026-01-01T00:00:00+00:00"))
    lines = path.read_text().splitlines()
    assert lines[0] == HEADER
    assert sum(1 for ln in lines if ln.startswith("#")) == 1


def test_exact_dominates_upper_bound(tmp_path):
    path = tmp_path / "store.jsonl"
    exact = make_record()
    assert exact.status == Status.EXACT.value and exact.size == 3
    # an honest upper-bound record for the same table, one gate fatter
    padded = opt_size(parse_hex("0x6", 2))
    upper = record_from_result(padded)
    upper = replace(
        upper,
        size=4,
        status=Status.UPPER_BOUND.value,
        exhausted_below=1,
        witness_aag=FOUR_GATE_XOR_AAG,
    )
    append_record(path, upper)
    append_record(path, exact)
    assert load_store(path).best[exact.tt_hex] == exact
    # order-insensitive
    path2 = tmp_path / "store2.jsonl"
    append_record(path2, exact)
    append_record(path2, upper)
    assert load_store(path2).best[exact.tt_hex] == exact


def test_smaller_size_wins_within_status(tmp_path):
    path = tmp_path / "store.jsonl"
    small = make_record(
        status=Status.UPPER_BOUND.value, exhausted_below=1
    )
    big = replace(
        small, size=4, witness_aag=FOUR_GATE_XOR_AAG, exhausted_below=1
    )
    append_record(path, big)
    append_record(path, small)
    assert load_store(path).best[small.tt_hex].size == 3


@pytest.mark.parametrize("upper_first", [True, False])
def test_one_table_has_one_spelling(tmp_path, upper_first):
    """0x6 and 0x06 parse to one n=3 table; were both accepted, they would
    escape dominance and line order would decide which record wins."""
    exact = record_from_result(opt_size(parse_hex("0x06", 3)))
    assert (exact.tt_hex, exact.size, exact.status) == ("0x06", 4, Status.EXACT.value)
    witness = from_aiger(exact.witness_aag)
    # A fifth gate, TRUE AND output, pads the witness.
    gates = witness.gates + (AndGate(Literal(0, True), witness.output),)
    padded = AigCircuit(3, gates, Literal(3 + len(gates)))
    upper = replace(
        exact,
        tt_hex="0x6",
        size=5,
        status=Status.UPPER_BOUND.value,
        witness_aag=to_aiger(padded),
    )
    path = tmp_path / "store.jsonl"
    append_record(path, exact)
    lines = [json.dumps(asdict(upper))] + path.read_text().splitlines()[1:]
    path.write_text("\n".join([HEADER, *(lines if upper_first else lines[::-1])]) + "\n")
    loaded = load_store(path)
    assert [issue.line_number for issue in loaded.issues] == [2 if upper_first else 3]
    assert "'0x06'" in loaded.issues[0].reason
    assert loaded.best == {"0x06": exact}
    assert loaded.by_bits() == {0x06: exact}


def test_earliest_timestamp_breaks_ties(tmp_path):
    path = tmp_path / "store.jsonl"
    early = make_record(timestamp="2026-01-01T00:00:00+00:00")
    late = make_record(timestamp="2026-06-01T00:00:00+00:00")
    append_record(path, late)
    append_record(path, early)
    assert load_store(path).best[early.tt_hex].timestamp == early.timestamp


@st.composite
def tying_records(draw):
    """Valid records over a few n=2 tables, their fields drawn from small sets
    so that records for one table often tie on status, size and timestamp."""
    records = []
    for _ in range(draw(st.integers(1, 10))):
        circuit = random_circuit(random.Random(draw(st.integers(0, 7))), 2, 3)
        exact = draw(st.booleans())
        # exhausted_below <= size - 1: a gate-free witness proves nothing infeasible.
        most_proven = min(0, circuit.size() - 1)
        records.append(
            ResultRecord(
                tt_hex=circuit.evaluate().hex(),
                n=2,
                size=circuit.size(),
                status=(Status.EXACT if exact else Status.UPPER_BOUND).value,
                exhausted_below=circuit.size() - 1 if exact else draw(st.integers(-1, most_proven)),
                witness_aag=to_aiger(circuit),
                backend=draw(st.sampled_from(["enum", "oracle"])),
                elapsed_ms=draw(st.integers(0, 1)),
                timestamp=draw(
                    st.sampled_from(["2026-01-01T00:00:00+00:00", "2026-06-01T00:00:00+00:00"])
                ),
            )
        )
    return records


@given(tying_records(), st.data())
def test_any_line_order_loads_the_same_best_map(records, data):
    shuffled = data.draw(st.permutations(records))
    with tempfile.TemporaryDirectory() as tmp:
        paths = Path(tmp) / "given.jsonl", Path(tmp) / "shuffled.jsonl"
        for path, lines in zip(paths, (records, shuffled)):
            for record in lines:
                append_record(path, record)
        assert load_store(paths[0]).best == load_store(paths[1]).best


def test_corrupt_line_reported_with_number(tmp_path):
    path = tmp_path / "store.jsonl"
    append_record(path, make_record())
    with path.open("ab") as fh:
        fh.write(b"{not json\n")
        fh.write(b"\xff\xfe\n")  # not UTF-8: reported, not raised
    append_record(path, make_record(timestamp="2027-01-01T00:00:00+00:00"))
    loaded = load_store(path)
    assert len(loaded.best) == 1
    assert [issue.line_number for issue in loaded.issues] == [3, 4]


def test_torn_last_line_costs_no_later_record(tmp_path):
    """A crash mid-append leaves a line with no newline; the next append
    starts a line of its own, so only the torn record is lost."""
    path = tmp_path / "store.jsonl"
    append_record(path, record_from_result(opt_size(parse_hex("0x1", 2))))
    with path.open("a", encoding="utf-8") as fh:
        fh.write('{"tt_hex": "0x3", "n": 2, "si')
    append_record(path, make_record())
    loaded = load_store(path)
    assert sorted(loaded.best) == ["0x1", "0x6"]
    assert [issue.line_number for issue in loaded.issues] == [3]


def test_deeply_nested_line_reported_with_number(tmp_path):
    """A line nested deeper than the JSON parser recurses is one rejected
    line; the records after it still load."""
    path = tmp_path / "store.jsonl"
    append_record(path, record_from_result(opt_size(parse_hex("0x1", 2))))
    with path.open("a", encoding="utf-8") as fh:
        fh.write("[" * 200_000 + "]" * 200_000 + "\n")
    append_record(path, make_record())
    loaded = load_store(path)
    assert sorted(loaded.best) == ["0x1", "0x6"]
    assert [issue.line_number for issue in loaded.issues] == [3]


@pytest.mark.parametrize(
    "overrides",
    [{"timestamp": 5}, {"size": 1.0, "exhausted_below": 0.0}],
    ids=["int-timestamp", "float-size"],
)
def test_mistyped_line_reported_with_number(tmp_path, overrides):
    """An int timestamp on a line tying the first on status and size would
    reach ``_rank``'s comparison; a float size equals the witness's count."""
    path = tmp_path / "store.jsonl"
    record = record_from_result(opt_size(parse_hex("0x8", 2)))
    assert (record.size, record.exhausted_below) == (1, 0)
    append_record(path, record)
    with path.open("a") as fh:
        fh.write(json.dumps(asdict(record) | overrides) + "\n")
    loaded = load_store(path)
    assert [issue.line_number for issue in loaded.issues] == [3]
    assert next(iter(overrides)) in loaded.issues[0].reason
    assert loaded.best == {record.tt_hex: record}


def test_tampered_witness_rejected_at_load(tmp_path):
    path = tmp_path / "store.jsonl"
    record = make_record()
    append_record(path, record)
    # flip the claimed table so the witness no longer matches
    tampered = asdict(replace(record, tt_hex="0x7"))
    with path.open("a") as fh:
        fh.write(json.dumps(tampered) + "\n")
    loaded = load_store(path)
    assert len(loaded.issues) == 1
    assert "evaluates to" in loaded.issues[0].reason
    assert "0x7" not in loaded.best


def test_floor_at_the_witness_size_rejected_at_load(tmp_path):
    """exhausted_below == size would claim that no circuit of the witness's
    own size exists."""
    path = tmp_path / "store.jsonl"
    upper = make_record(
        size=4,
        status=Status.UPPER_BOUND.value,
        exhausted_below=4,
        witness_aag=FOUR_GATE_XOR_AAG,
    )
    path.write_text(HEADER + "\n" + json.dumps(asdict(upper)) + "\n")
    loaded = load_store(path)
    assert [issue.line_number for issue in loaded.issues] == [2]
    assert "exhausted_below must be in -1..size-1" in loaded.issues[0].reason
    assert loaded.best == {}


def test_status_consistency_enforced():
    record = make_record(exhausted_below=1)  # exact but not size-1
    with pytest.raises(ValueError):
        record.verify()


def test_size_mismatch_rejected():
    record = make_record(size=5, exhausted_below=4)
    with pytest.raises(ValueError):
        record.verify()


def test_append_refuses_bad_record(tmp_path):
    record = make_record(exhausted_below=0)
    with pytest.raises(ValueError):
        append_record(tmp_path / "s.jsonl", record)


def test_one_append_verifies_each_record_before_writing_it(tmp_path):
    """Several records share one open, and each is verified just before it
    is written: the one before a bad record stays, the one after is not
    reached."""
    path = tmp_path / "s.jsonl"
    good = make_record()
    later = make_record(timestamp="2026-01-01T00:00:00+00:00")
    with pytest.raises(ValueError):
        append_record(path, good, make_record(exhausted_below=0), later)
    assert path.read_text().splitlines() == [HEADER, json.dumps(asdict(good), sort_keys=True)]


def test_bulk_round_trip_random_circuits(tmp_path):
    rng = random.Random(79)
    path = tmp_path / "bulk.jsonl"
    records = []
    for i in range(50):
        c = random_circuit(rng, rng.randint(1, 4), 6)
        table = c.evaluate()
        record = ResultRecord(
            tt_hex=table.hex(),
            n=c.n,
            size=c.size(),
            status=Status.UPPER_BOUND.value,
            exhausted_below=-1,
            witness_aag=to_aiger(c),
            backend="enum",
            elapsed_ms=i,
            timestamp=f"2026-01-01T00:00:{i % 60:02d}+00:00",
        )
        records.append(record)
        append_record(path, record)
    loaded = load_store(path)
    assert loaded.issues == []
    for record in loaded.best.values():
        assert parse_hex(record.tt_hex, record.n) is not None