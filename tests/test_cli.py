import argparse
import json
import re
import subprocess
import sys
from dataclasses import replace
from operator import attrgetter
from pathlib import Path

import pytest

import aigopt
from aigopt.aig import from_aiger, to_aiger
from aigopt.cli import (
    EXIT_BOUND_VIOLATION,
    EXIT_INCOMPLETE_STORE,
    EXIT_OK,
    EXIT_UPPER_BOUND,
    EXIT_USAGE,
    build_parser,
    main,
)
from aigopt.npn import enumerate_classes
from aigopt.store import HEADER, ResultRecord, append_record, load_store, record_from_result
from aigopt.synthesis import SearchInconclusiveError, Status, SynthesisConfig, opt_size
from aigopt.truthtable import parse_hex

from helpers import FOUR_GATE_XOR_AAG


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_exact_single_minterm(capsys, tmp_path):
    store = tmp_path / "s.jsonl"
    code, out, err = run(
        capsys, "synth", "0x0001", "-n", "4", "--store", str(store)
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema"] == "aigopt.synth/1"
    assert doc["size"] == 3
    assert doc["status"] == "exact"
    assert "size 3" in err
    assert load_store(store).best["0x0001"].size == 3


def test_synth_constant(capsys):
    code, out, _ = run(capsys, "synth", "0x0000", "-n", "4")
    assert code == EXIT_OK
    assert json.loads(out)["size"] == 0


def test_synth_xor(capsys):
    code, out, _ = run(capsys, "synth", "0x6", "-n", "2")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["size"] == 3
    witness = from_aiger(doc["witness_aag"])
    assert witness.evaluate() == parse_hex("0x6", 2)


def test_synth_usage_error(capsys):
    code, _, err = run(capsys, "synth", "0xzz", "-n", "4")
    assert code == EXIT_USAGE
    assert "error" in err
    code, _, err = run(
        capsys, "synth", "0x0169", "-n", "4", "--max-gates", "4", "--budget-secs", "nan"
    )
    assert code == EXIT_USAGE
    assert "error:" in err


@pytest.mark.parametrize("command", ["synth", "cnf-export"])
def test_gate_cap_above_limit_is_a_usage_error(capsys, tmp_path, monkeypatch, command):
    def search_reached(*args):
        raise AssertionError("the gate lists were built")

    for builder in ("_gate_choices", "_input_group", "_orbit_cut", "_live_pairs"):
        monkeypatch.setattr(f"aigopt.synthesis.{builder}", search_reached)
    out_dir = tmp_path / "cnf"
    argv = [command, "0x6996966996696996", "-n", "6", "--max-gates", "33"]
    argv += ["--budget-secs", "0.01"] if command == "synth" else ["--cnf-dir", str(out_dir)]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == "" and "error:" in err and "0..32" in err
    assert not out_dir.exists()


def test_cnf_export_needs_one_gate_or_more(capsys, tmp_path):
    out_dir = tmp_path / "cnf"
    code, out, err = run(
        capsys, "cnf-export", "0x6", "-n", "2", "--max-gates", "0", "--cnf-dir", str(out_dir)
    )
    assert code == EXIT_USAGE
    assert out == "" and "error:" in err and "1..32" in err
    assert not out_dir.exists()


def test_synth_inconclusive_exit(capsys):
    code, out, _ = run(capsys, "synth", "0x6", "-n", "2", "--max-gates", "2")
    assert code == EXIT_UPPER_BOUND
    assert json.loads(out)["error"] == "inconclusive"


def test_synth_cnf_export(capsys, tmp_path):
    out_dir = tmp_path / "cnf"
    code, out, _ = run(
        capsys,
        "cnf-export", "0x6", "-n", "2", "--max-gates", "3",
        "--cnf-dir", str(out_dir),
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["files"]) == 3
    text = (out_dir / "0x6_n2_k3.cnf").read_text()
    assert text.startswith("c aigopt")
    assert "p cnf" in text


def test_classify_counts(capsys):
    code, out, err = run(capsys, "classify", "-n", "3")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["count"] == 14
    assert len(doc["classes"]) == 14
    assert "14 NPN classes" in err


def test_classify_csv(capsys):
    code, out, _ = run(capsys, "classify", "-n", "2", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "class_index,canon,orbit_size"
    assert len(lines) == 5


def test_oracle_then_graph_and_verify(capsys, tmp_path):
    store = tmp_path / "oracle2.jsonl"
    code, out, _ = run(capsys, "oracle", "-n", "2", "--store", str(store))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["functions"] == 16
    assert len(load_store(store).best) == 16

    code, out, _ = run(capsys, "graph", "-n", "2", "--store", str(store))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["exact_edge_total"] == doc["edge_total"]
    assert doc["edge_total"] >= 1
    assert doc["max_delta"] <= 2

    code, out, _ = run(capsys, "verify", "-n", "2", "--store", str(store))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["holds"] is True
    assert doc["bound"] == 2


def test_verify_exits_on_bound_violation(capsys, tmp_path):
    """A forged Exact record for 0x6 at size 4 puts |delta| = 3 > n on the
    0x1--0x6 edge; record verification cannot check optimality."""
    store = tmp_path / "forged.jsonl"
    for tt_hex in ("0x0", "0x1", "0x3"):
        code, _, _ = run(capsys, "synth", tt_hex, "-n", "2", "--store", str(store))
        assert code == EXIT_OK
    append_record(
        store,
        ResultRecord(
            tt_hex="0x6",
            n=2,
            size=4,
            status="exact",
            exhausted_below=3,
            witness_aag=FOUR_GATE_XOR_AAG,
            backend="enum",
            elapsed_ms=0,
            timestamp="2026-01-01T00:00:00+00:00",
        ),
    )
    code, out, err = run(capsys, "verify", "-n", "2", "--store", str(store))
    assert code == EXIT_BOUND_VIOLATION
    doc = json.loads(out)
    assert doc["holds"] is False
    assert doc["violations"] == [{"a": "0x1", "b": "0x6", "delta": 3}]
    assert "BOUND VIOLATED on 1 edges" in err


@pytest.mark.parametrize(
    "upper, exit_code, max_delta, line",
    [
        (("0x6",), EXIT_OK, 1, "bound holds on 2 of 3 edges: max |delta| = 1 <= n = 2"),
        (
            ("0x1", "0x6"),
            EXIT_UPPER_BOUND,
            None,
            "bound not checked: none of the 3 edges has two exact endpoints",
        ),
    ],
    ids=["some-edges-exact", "no-edge-exact"],
)
def test_verify_names_the_edges_it_checked(
    capsys, tmp_path, upper, exit_code, max_delta, line
):
    store = tmp_path / "upper.jsonl"
    for tt_hex in ("0x0", "0x1", "0x3", "0x6"):
        record = record_from_result(opt_size(parse_hex(tt_hex, 2)))
        if tt_hex in upper:
            record = replace(record, status=Status.UPPER_BOUND.value, exhausted_below=-1)
        append_record(store, record)
    code, out, err = run(capsys, "verify", "-n", "2", "--store", str(store))
    assert code == exit_code
    doc = json.loads(out)
    assert (doc["holds"], doc["max_delta"], doc["violations"]) == (True, max_delta, [])
    assert err.splitlines() == [line]


def test_oracle_agrees_with_brute_oracle_n3(capsys, tmp_path, oracle3):
    """Two routes at n=3: the sweep's class witnesses mapped to every
    function, against the breadth-first reference sizes."""
    store = tmp_path / "oracle3.jsonl"
    code, out, _ = run(capsys, "oracle", "-n", "3", "--store", str(store))
    assert code == EXIT_OK
    assert json.loads(out)["functions"] == 256
    loaded = load_store(store)
    assert loaded.issues == []
    records = loaded.by_bits()
    assert sorted(records) == list(range(256))
    for bits, rec in records.items():
        assert rec.size == oracle3[bits].size, rec.tt_hex
        witness = from_aiger(rec.witness_aag)
        assert witness.evaluate().bits == bits
        assert witness.size() == rec.size


def test_oracle_appends_only_tables_not_yet_exact(capsys, tmp_path):
    """A table the store already holds as exact gets no second record, so a
    second run appends nothing and reports the same document."""
    store = tmp_path / "s.jsonl"
    assert run(capsys, "synth", "0x6", "-n", "2", "--store", str(store))[0] == EXIT_OK
    docs = []
    for _ in range(2):
        code, out, _ = run(capsys, "oracle", "-n", "2", "--store", str(store))
        assert code == EXIT_OK
        doc = json.loads(out)
        del doc["elapsed_ms"]
        docs.append(doc)
        lines = [json.loads(line) for line in store.read_text().splitlines()[1:]]
        assert len(lines) == len({rec["tt_hex"] for rec in lines}) == 16
        assert [rec["backend"] for rec in lines].count("enum") == 1
    assert docs[0] == docs[1]


def test_oracle_on_a_full_store_walks_nothing(capsys, tmp_path, monkeypatch):
    """A store that already holds every function as exact needs no sweep:
    a second run reads ``max_size`` from the store."""
    store = tmp_path / "s.jsonl"

    def oracle_doc():
        code, out, _ = run(capsys, "oracle", "-n", "3", "--store", str(store))
        assert code == EXIT_OK
        doc = json.loads(out)
        del doc["elapsed_ms"]
        return doc

    def walk_reached(*args):
        raise AssertionError("the sweep walked a level")

    first = oracle_doc()
    monkeypatch.setattr("aigopt.synthesis._walk", walk_reached)
    assert oracle_doc() == first


@pytest.mark.parametrize(
    "argv, backend",
    [
        (["oracle", "-n", "2"], "oracle"),
        (["synth", "0x6", "-n", "2"], "enum"),
        (["campaign", "-n", "2"], "sweep"),
    ],
    ids=["oracle", "synth", "campaign"],
)
def test_store_records_name_their_provenance(capsys, tmp_path, argv, backend):
    store = tmp_path / "s.jsonl"
    code, out, _ = run(capsys, *argv, "--store", str(store))
    assert code == EXIT_OK
    doc = json.loads(out)
    lines = [json.loads(line) for line in store.read_text().splitlines()[1:]]
    assert {rec["backend"] for rec in lines} == {backend}
    if argv[0] == "oracle":
        # each level's cumulative search time, within the whole run's
        assert len(lines) == 16
        times = [rec["elapsed_ms"] for rec in lines]
        assert times == sorted(times) and times[-1] <= doc["elapsed_ms"]
    elif argv[0] == "synth":
        del doc["schema"]
        assert lines == [doc]
    else:
        assert len(lines) == doc["new_exact"] == 4


def test_graph_csv_edges(capsys, tmp_path):
    store = tmp_path / "oracle1.jsonl"
    run(capsys, "oracle", "-n", "1", "--store", str(store))
    code, out, _ = run(
        capsys, "graph", "-n", "1", "--store", str(store), "--format", "csv"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "class_a,class_b,delta,multiplicity"
    assert lines[1].startswith("0x0,0x1,0,")


def test_graph_incomplete_store(capsys, tmp_path):
    store = tmp_path / "partial.jsonl"
    run(capsys, "synth", "0x0001", "-n", "4", "--store", str(store))
    code, out, _ = run(capsys, "graph", "-n", "4", "--store", str(store))
    assert code == EXIT_INCOMPLETE_STORE
    doc = json.loads(out)
    assert doc["error"] == "incomplete-store"
    assert len(doc["missing"]) == 221


@pytest.mark.parametrize(
    "n, tt_hex, ending",
    [(2, "0x6", "store is missing 3 classes: 0x0, 0x1, 0x3\n"), (4, "0x0001", " ...\n")],
)
def test_incomplete_store_line_elides_only_past_eight(capsys, tmp_path, n, tt_hex, ending):
    store = tmp_path / "partial.jsonl"
    run(capsys, "synth", tt_hex, "-n", str(n), "--store", str(store))
    code, _, err = run(capsys, "graph", "-n", str(n), "--store", str(store))
    assert code == EXIT_INCOMPLETE_STORE
    assert err.endswith(ending)


def test_graph_requires_store(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("AIGOPT_STORE", raising=False)
    code, _, err = run(capsys, "graph", "-n", "2")
    assert code == EXIT_USAGE
    assert "store" in err


def test_store_env_var(capsys, tmp_path, monkeypatch):
    store = tmp_path / "env.jsonl"
    monkeypatch.setenv("AIGOPT_STORE", str(store))
    code, _, _ = run(capsys, "oracle", "-n", "1")
    assert code == EXIT_OK
    assert store.exists()


def test_repair_flip_and_back(capsys, tmp_path):
    witness = opt_size(parse_hex("0x0080", 4)).witness
    src = tmp_path / "c.aag"
    src.write_text(to_aiger(witness))

    code, out, _ = run(
        capsys, "repair", str(src), "--flip", "8",
        "-o", str(tmp_path / "r1.aag"),
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["target_tt"] == "0x0180"
    assert doc["output_size"] <= 7
    assert doc["bound"] == 7
    repaired = from_aiger((tmp_path / "r1.aag").read_text())
    assert repaired.evaluate() == parse_hex("0x0180", 4)

    code, out, _ = run(
        capsys, "repair", str(tmp_path / "r1.aag"), "--flip", "8",
        "-o", str(tmp_path / "r2.aag"),
    )
    assert code == EXIT_OK
    back = from_aiger((tmp_path / "r2.aag").read_text())
    assert back.evaluate() == parse_hex("0x0080", 4)


def test_repair_multi_target(capsys, tmp_path):
    witness = opt_size(parse_hex("0x0080", 4)).witness
    src = tmp_path / "c.aag"
    src.write_text(to_aiger(witness))
    code, out, _ = run(
        capsys, "repair", str(src), "--target", "0x0181",
        "-o", str(tmp_path / "r.aag"),
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["flips"] == 2
    assert doc["bound"] == 3 + 8


def test_repair_flip_out_of_range(capsys, tmp_path):
    witness = opt_size(parse_hex("0x8", 2)).witness
    src = tmp_path / "c.aag"
    src.write_text(to_aiger(witness))
    code, _, err = run(capsys, "repair", str(src), "--flip", "99")
    assert code == EXIT_USAGE
    assert "out of range" in err


@pytest.mark.parametrize(
    "aag",
    [
        "aag 0 0 0 1 0\n1\n",
        "aag 7 7 0 1 0\n2\n4\n6\n8\n10\n12\n14\n2\n",
    ],
    ids=["0-inputs", "7-inputs"],
)
def test_repair_rejects_input_count_out_of_range(capsys, tmp_path, aag):
    src = tmp_path / "c.aag"
    src.write_text(aag)
    code, out, err = run(capsys, "repair", str(src), "--flip", "0")
    assert code == EXIT_USAGE
    assert out == ""
    assert "error:" in err and "1..6" in err


def test_repair_default_output_path(capsys, tmp_path):
    witness = opt_size(parse_hex("0x8", 2)).witness
    src = tmp_path / "c.aag"
    src.write_text(to_aiger(witness))
    code, out, _ = run(capsys, "repair", str(src), "--flip", "0")
    assert code == EXIT_OK
    assert (tmp_path / "c.repaired.aag").exists()


def test_campaign_small(capsys, tmp_path):
    store = tmp_path / "campaign2.jsonl"
    code, out, _ = run(capsys, "campaign", "-n", "2", "--store", str(store))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["classes"] == 4
    assert doc["new_exact"] == 4
    # resume: everything already done
    code, out, _ = run(capsys, "campaign", "-n", "2", "--store", str(store))
    doc = json.loads(out)
    assert doc["skipped_exact"] == 4
    assert doc["new_exact"] == 0
    # An oracle store holds all 16 functions, but only 4 classes are skipped.
    store = tmp_path / "oracle2.jsonl"
    run(capsys, "oracle", "-n", "2", "--store", str(store))
    code, out, err = run(capsys, "campaign", "-n", "2", "--store", str(store))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert (doc["skipped_exact"], doc["new_exact"]) == (4, 0)
    assert "4 classes, 4 already exact, 0 to run" in err


def test_campaign_counts_inconclusive_classes_and_runs_them_again(capsys, tmp_path):
    store = tmp_path / "capped.jsonl"
    argv = ("campaign", "-n", "3", "--max-gates", "3", "--store", str(store))
    unsettled = ["0x06", "0x16", "0x17", "0x18", "0x19", "0x1e", "0x69"]
    for skipped, new_exact in ((0, 7), (7, 0)):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_UPPER_BOUND
        doc = json.loads(out)
        assert (doc["skipped_exact"], doc["new_exact"]) == (skipped, new_exact)
        assert (doc["new_upper_bound"], doc["inconclusive"]) == (0, 7)
        assert [ln for ln in err.splitlines() if "inconclusive" in ln] == [
            f"{tt}: inconclusive within 3 gates" for tt in unsettled
        ]
    assert len(load_store(store).best) == 7


def test_campaign_counts_upper_bounds_and_runs_them_again(capsys, tmp_path):
    """A class the store holds only as an upper bound is run again and
    stored as exact; the sweep writes no upper bound of its own."""
    store = tmp_path / "upper.jsonl"
    record = record_from_result(opt_size(parse_hex("0x6", 2)))
    append_record(store, replace(record, status=Status.UPPER_BOUND.value, exhausted_below=-1))
    code, out, _ = run(capsys, "campaign", "-n", "2", "--store", str(store))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert (doc["skipped_exact"], doc["new_exact"]) == (0, 4)
    assert (doc["new_upper_bound"], doc["inconclusive"]) == (0, 0)
    best = load_store(store).best["0x6"]
    assert (best.size, best.status, best.backend) == (3, Status.EXACT.value, "sweep")


def test_resumed_campaign_stops_at_the_last_class_it_needs(capsys, tmp_path):
    """A campaign resumed with one size-6 record dropped walks level 6 only to
    the hit that settles that class, short of the hit that settles the
    level's last class (518,320 nodes), and writes the same record again."""
    store = tmp_path / "resume.jsonl"
    run(capsys, "campaign", "-n", "3", "--store", str(store))
    lines = store.read_text().splitlines(keepends=True)
    dropped = next(i for i, ln in enumerate(lines[1:], 1) if json.loads(ln)["size"] == 6)
    first = json.loads(lines.pop(dropped))
    store.write_text("".join(lines))

    code, out, err = run(capsys, "campaign", "-n", "3", "--store", str(store))
    assert code == EXIT_OK
    assert json.loads(out)["new_exact"] == 1
    again = load_store(store).best[first["tt_hex"]]
    assert (again.size, again.witness_aag) == (6, first["witness_aag"])
    nodes = int(re.search(r"^k=6: (\d+) nodes, 1 settled", err, re.M).group(1))
    assert nodes < 518_320


def test_store_rejections_named_by_campaign_and_graph(capsys, tmp_path):
    store = tmp_path / "campaign2.jsonl"
    run(capsys, "campaign", "-n", "2", "--store", str(store))
    lines = store.read_bytes().splitlines(keepends=True)
    edited = json.loads(lines[2])
    edited["size"] = 9
    lines[2] = json.dumps(edited).encode() + b"\n"
    store.write_bytes(b"".join(lines) + b"\xff\xfe\n")

    code, _, err = run(capsys, "campaign", "-n", "2", "--store", str(store))
    assert code == EXIT_OK
    assert "3 already exact, 1 to run" in err
    assert "store line 3 rejected" in err
    assert "store line 6 rejected" in err
    code, _, err = run(capsys, "graph", "-n", "2", "--store", str(store))
    assert code == EXIT_OK
    assert "store line 3 rejected" in err
    assert "store line 6 rejected" in err


@pytest.mark.parametrize(
    "command, per_level",
    [("campaign", [2, 1, 2, 2]), ("oracle", [8, 24, 64, 30])],
    ids=["campaign", "oracle"],
)
def test_campaign_keeps_records_before_a_crash(capsys, tmp_path, monkeypatch, command, per_level):
    """Each level's records are appended when the level ends, so a crash
    during level 4 keeps the tables that levels 0..3 settled: the 7 classes
    for ``campaign``, the 126 functions for ``oracle``."""
    import aigopt.cli as cli

    real_sweep = cli.sweep

    def crash_in_level_4(table, targets):
        for level in real_sweep(table, targets):
            if level.k == 4:
                raise RuntimeError("simulated crash")
            yield level

    monkeypatch.setattr(cli, "sweep", crash_in_level_4)
    store = tmp_path / "crash.jsonl"
    with pytest.raises(RuntimeError, match="simulated crash"):
        main([command, "-n", "3", "--store", str(store)])
    sizes = [rec.size for rec in load_store(store).best.values()]
    assert [sizes.count(k) for k in range(4)] == per_level
    assert len(sizes) == sum(per_level)


@pytest.mark.parametrize(
    "argv",
    [["-n", "1"], ["-n", "2"], ["-n", "3"], ["-n", "3", "--max-gates", "3"]],
    ids=["n1", "n2", "n3", "n3-cap3"],
)
def test_campaign_records_equal_opt_size(capsys, tmp_path, argv):
    """Every class the sweep settles gets the record that per-class
    ``opt_size`` gives it, a class is left out exactly when ``opt_size``
    finds no witness within the cap, and each level walked prints one
    progress line."""
    store = tmp_path / "campaign.jsonl"
    code, out, err = run(capsys, "campaign", *argv, "--store", str(store))
    cap = int(argv[-1]) if "--max-gates" in argv else 16
    expected = {}
    for cls in enumerate_classes(int(argv[1])):
        try:
            result = opt_size(cls.canon, SynthesisConfig(max_gates=cap))
        except SearchInconclusiveError:
            continue
        expected[cls.canon.hex()] = record_from_result(result)
    doc = json.loads(out)
    open_classes = doc["classes"] - len(expected)
    assert code == (EXIT_UPPER_BOUND if open_classes else EXIT_OK)
    assert (doc["new_exact"], doc["inconclusive"]) == (len(expected), open_classes)
    search_fields = attrgetter("tt_hex", "size", "status", "exhausted_below", "witness_aag")
    best = load_store(store).best
    assert {tt_hex: search_fields(rec) for tt_hex, rec in best.items()} == {
        tt_hex: search_fields(rec) for tt_hex, rec in expected.items()
    }
    assert {rec.backend for rec in best.values()} == {"sweep"}
    last = cap if open_classes else max(rec.size for rec in expected.values())
    progress = [line for line in err.splitlines() if line.startswith("k=")]
    assert [line.split(":")[0] for line in progress] == [f"k={k}" for k in range(last + 1)]
    for line in progress:
        assert re.fullmatch(r"k=\d+: \d+ nodes, \d+ settled, \d+\.\d\ds", line), line


def test_campaign_refuses_store_of_another_n(capsys, tmp_path):
    """n=2 records would overwrite n=3 records of the same bits in by_bits(),
    so an n=2 campaign into an n=3 store is refused and the n=3 graph stays."""
    store = tmp_path / "mixed.jsonl"
    assert run(capsys, "campaign", "-n", "3", "--store", str(store))[0] == EXIT_OK
    before = store.read_bytes()
    code, out, err = run(capsys, "campaign", "-n", "2", "--store", str(store))
    assert code == EXIT_USAGE
    assert out == "" and "error:" in err and "n=3" in err
    assert store.read_bytes() == before
    code, out, _ = run(capsys, "graph", "-n", "3", "--store", str(store))
    assert code == EXIT_OK
    assert json.loads(out)["histogram"] == {"0": 3, "1": 6, "2": 9, "3": 2}
    assert run(capsys, "verify", "-n", "3", "--store", str(store))[0] == EXIT_OK


def test_campaign_refuses_store_sharing_hex_spellings(capsys, tmp_path):
    """n=1 and n=2 tables share one-digit hex keys, so an n=1 store would
    pass for finished n=2 classes."""
    store = tmp_path / "mixed.jsonl"
    assert run(capsys, "campaign", "-n", "1", "--store", str(store))[0] == EXIT_OK
    before = store.read_bytes()
    code, out, err = run(capsys, "campaign", "-n", "2", "--store", str(store))
    assert code == EXIT_USAGE
    assert out == "" and "error:" in err and "n=1" in err
    assert store.read_bytes() == before


@pytest.mark.parametrize("command", ["graph", "verify"])
def test_graph_and_verify_refuse_a_mixed_n_store(capsys, tmp_path, command):
    store = tmp_path / "mixed.jsonl"
    assert run(capsys, "campaign", "-n", "3", "--store", str(store))[0] == EXIT_OK
    append_record(store, record_from_result(opt_size(parse_hex("0x6", 2))))
    code, out, err = run(capsys, command, "-n", "3", "--store", str(store))
    assert code == EXIT_USAGE
    assert out == "" and "error:" in err and "n=2, 3" in err


@pytest.mark.parametrize(
    "argv",
    [["oracle", "-n", "3"], ["synth", "0x6", "-n", "3"]],
    ids=["oracle", "synth"],
)
def test_store_writers_refuse_a_store_of_another_n(capsys, tmp_path, argv):
    """Appending n=3 records to an n=2 store would leave graph and verify
    refusing it for either n, so the writers refuse before appending."""
    store = tmp_path / "n2.jsonl"
    assert run(capsys, "oracle", "-n", "2", "--store", str(store))[0] == EXIT_OK
    before = store.read_bytes()
    code, out, err = run(capsys, *argv, "--store", str(store))
    assert code == EXIT_USAGE
    assert out == "" and "error:" in err and "n=2" in err
    assert store.read_bytes() == before


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "-n", "5"],
        ["graph", "-n", "5", "--store"],
        ["verify", "-n", "5", "--store"],
        ["campaign", "-n", "5", "--store"],
    ],
)
def test_class_enumeration_rejects_n_above_four(capsys, tmp_path, monkeypatch, argv):
    def orbit_scan_reached(n, bits):
        raise AssertionError(f"enumerate_classes({n}) started its orbit scan")

    monkeypatch.setattr("aigopt.npn._walk_patterns", orbit_scan_reached)
    if argv[-1] == "--store":
        store = tmp_path / "s.jsonl"
        store.write_text(HEADER + "\n")
        argv = argv + [str(store)]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "error:" in err and "1..4" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "0x6", "-n", "2", "--store", "{missing}/s.jsonl"],
        ["campaign", "-n", "2", "--store", "{missing}/s.jsonl"],
        ["oracle", "-n", "2", "--store", "{missing}/s.jsonl"],
        ["cnf-export", "0x6", "-n", "2", "--max-gates", "1", "--cnf-dir", "{file}"],
        ["graph", "-n", "2", "--store", "{directory}"],
        ["repair", "{aag}", "--flip", "0", "-o", "{missing}/r.aag"],
    ],
    ids=lambda argv: argv[0],
)
def test_file_errors_exit_with_one_error_line(capsys, tmp_path, argv):
    """A path that cannot be read or written is a usage error named on
    stderr, never a traceback, and no JSON document is printed."""
    aag = tmp_path / "c.aag"
    aag.write_text(to_aiger(opt_size(parse_hex("0x8", 2)).witness))
    (tmp_path / "file").write_text("")
    (tmp_path / "directory").mkdir()
    paths = {name: tmp_path / name for name in ("missing", "file", "directory")}
    code, out, err = run(capsys, *(arg.format(aag=aag, **paths) for arg in argv))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.splitlines()[-1].startswith("error: [Errno ")


@pytest.mark.parametrize("parent", ["missing", "file"])
@pytest.mark.parametrize(
    "argv",
    [["synth", "0x6", "-n", "2"], ["campaign", "-n", "2"], ["oracle", "-n", "2"]],
    ids=lambda argv: argv[0],
)
def test_store_directory_checked_before_any_search(capsys, tmp_path, monkeypatch, argv, parent):
    """A store whose directory is missing, or is a file, is refused before
    the search runs, naming the directory."""

    def search_reached(*args, **kwargs):
        raise AssertionError("a search ran before the store directory was checked")

    monkeypatch.setattr("aigopt.cli.opt_size", search_reached)
    monkeypatch.setattr("aigopt.cli.sweep", search_reached)
    (tmp_path / "file").write_text("")
    code, out, err = run(capsys, *argv, "--store", str(tmp_path / parent / "s.jsonl"))
    assert code == EXIT_USAGE
    assert out == ""
    last = err.splitlines()[-1]
    assert last.startswith("error: [Errno ") and last.endswith(f"'{tmp_path / parent}'")


def test_cli_option_surface(capsys):
    """Every subcommand's options and choices; a new or revived flag shows here."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: {
            "/".join(a.option_strings) or a.dest: tuple(a.choices) if a.choices else None
            for a in p._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for name, p in sub.choices.items()
    }
    assert surface == {
        "synth": {
            "tt": None, "-n": None, "--max-gates": None, "--budget-secs": None,
            "--store": None,
        },
        "campaign": {"-n": None, "--max-gates": None, "--store": None},
        "cnf-export": {"tt": None, "-n": None, "--max-gates": None, "--cnf-dir": None},
        "classify": {"-n": None, "--format": ("json", "csv")},
        "graph": {"-n": None, "--store": None, "--format": ("json", "csv")},
        "verify": {"-n": None, "--store": None},
        "repair": {"input": None, "--flip": None, "--target": None, "-o/--output": None},
        "oracle": {"-n": (1, 2, 3), "--store": None},
    }
    assert main(["graph", "-n", "2", "--format", "table"]) == EXIT_USAGE
    assert main(["synth", "0x6", "-n", "2", "--format", "json"]) == EXIT_USAGE
    assert main(["synth", "0x6", "-n", "2", "--campaign"]) == EXIT_USAGE
    assert main(["synth", "0x6", "-n", "2", "--backend", "cnf-export"]) == EXIT_USAGE


def test_usage_exit_code(capsys):
    assert main(["nonsense"]) == EXIT_USAGE


def test_module_entry_point_exits_with_main_code():
    src = str(Path(aigopt.__file__).resolve().parent.parent)

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "aigopt.cli", *argv],
            capture_output=True, text=True, timeout=60, env={"PYTHONPATH": src},
        )

    listed = cli("classify", "-n", "2")
    assert listed.returncode == EXIT_OK, listed.stderr
    assert json.loads(listed.stdout)["count"] == 4
    refused = cli("synth", "0x6", "-n", "7")
    assert refused.returncode == EXIT_USAGE
    assert refused.stderr.splitlines() == ["error: variable count must be in 1..6, got 7"]


def test_output_reparses_under_schema(capsys, tmp_path):
    """Machine output is JSON with a schema tag on every subcommand."""
    store = tmp_path / "s.jsonl"
    for argv in (
        ["synth", "0x8", "-n", "2", "--store", str(store)],
        ["classify", "-n", "2"],
        ["oracle", "-n", "2", "--store", str(store)],
        ["graph", "-n", "2", "--store", str(store)],
        ["verify", "-n", "2", "--store", str(store)],
    ):
        code = main(argv)
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["schema"].startswith("aigopt.")
        assert code == EXIT_OK