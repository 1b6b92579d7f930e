import argparse
import json

import pytest

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
from aigopt.store import HEADER, ResultRecord, append_record, load_store
from aigopt.synthesis import opt_size
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
    def search_reached(n, m):
        raise AssertionError("the gate lists were built")

    monkeypatch.setattr("aigopt.synthesis._gate_choices", search_reached)
    out_dir = tmp_path / "cnf"
    argv = [command, "0x6996966996696996", "-n", "6", "--max-gates", "33"]
    argv += ["--budget-secs", "0.01"] if command == "synth" else ["--cnf-dir", str(out_dir)]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == "" and "error:" in err and "0..32" in err
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


def test_oracle_agrees_with_brute_oracle_n3(capsys, tmp_path, oracle3):
    """Two routes at n=3: per-class opt_size witnesses mapped to every
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


def test_campaign_keeps_records_before_a_crash(capsys, tmp_path, monkeypatch):
    import aigopt.cli as cli

    real_opt_size = cli.opt_size
    calls = []

    def crash_on_third(tt, cfg):
        calls.append(tt.hex())
        if len(calls) == 3:
            raise RuntimeError("simulated crash")
        return real_opt_size(tt, cfg)

    monkeypatch.setattr(cli, "opt_size", crash_on_third)
    store = tmp_path / "crash.jsonl"
    with pytest.raises(RuntimeError, match="simulated crash"):
        main(["campaign", "-n", "3", "--store", str(store)])
    assert sorted(load_store(store).best) == sorted(calls[:2])


def test_parallel_campaign_keeps_finished_classes_after_a_worker_error(tmp_path, monkeypatch):
    """A worker error cancels the classes not yet started, yet every class
    that finishes is still appended before the error is raised."""
    import time

    import aigopt.cli as cli

    real_opt_size = cli.opt_size
    markers = tmp_path / "finished"
    markers.mkdir()

    def crash_on_0x00(tt, cfg):
        if tt.hex() == "0x00":
            raise RuntimeError("simulated worker crash")
        time.sleep(0.3)  # keep the first error ahead of the queued classes
        result = real_opt_size(tt, cfg)
        (markers / tt.hex()).touch()
        return result

    monkeypatch.setattr(cli, "opt_size", crash_on_0x00)  # inherited by forked workers
    store = tmp_path / "crash.jsonl"
    with pytest.raises(RuntimeError, match="simulated worker crash"):
        main(["campaign", "-n", "3", "--jobs", "2", "--store", str(store)])
    finished = sorted(p.name for p in markers.iterdir())
    assert finished
    assert sorted(load_store(store).best) == finished
    assert len(finished) < 13  # some of the 13 other classes never started


def test_campaign_parallel_jobs(capsys, tmp_path):
    store = tmp_path / "campaign3.jsonl"
    code, out, _ = run(
        capsys, "campaign", "-n", "3", "--jobs", "2", "--store", str(store),
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["classes"] == 14
    assert doc["new_exact"] == 14
    best = load_store(store).best
    assert len(best) == 14
    assert best["0x69"].size == 6


def test_campaign_appends_records_as_classes_finish(capsys, tmp_path, monkeypatch):
    """A slow class must not hold back the records of classes that finish
    after it was submitted but before it ends."""
    import time

    import aigopt.cli as cli

    real_opt_size = cli.opt_size

    def slow_on_0x1(tt, cfg):
        if tt.hex() == "0x1":
            time.sleep(1.5)
        return real_opt_size(tt, cfg)

    monkeypatch.setattr(cli, "opt_size", slow_on_0x1)  # inherited by forked workers
    store = tmp_path / "order.jsonl"
    code, _, _ = run(capsys, "campaign", "-n", "2", "--jobs", "2", "--store", str(store))
    assert code == EXIT_OK
    lines = store.read_text().splitlines()[1:]
    assert len(lines) == 4
    assert json.loads(lines[-1])["tt_hex"] == "0x1"


def test_campaign_rejects_jobs_below_one(capsys, tmp_path):
    store = tmp_path / "jobs.jsonl"
    code, out, err = run(capsys, "campaign", "-n", "2", "--jobs", "0", "--store", str(store))
    assert code == EXIT_USAGE
    assert out == "" and "--jobs" in err
    assert not store.exists()


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
        "campaign": {
            "-n": None, "--max-gates": None, "--budget-secs": None,
            "--jobs": None, "--store": None,
        },
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