import json
import random
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aigopt.aig import to_aiger
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
        records.append(
            ResultRecord(
                tt_hex=circuit.evaluate().hex(),
                n=2,
                size=circuit.size(),
                status=(Status.EXACT if exact else Status.UPPER_BOUND).value,
                exhausted_below=circuit.size() - 1 if exact else draw(st.integers(-1, 0)),
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
            exhausted_below=0,
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