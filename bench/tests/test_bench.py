"""Self-tests for the benchmark: output schema, and that wrong answers fail.

    python3 -m pytest -q bench/tests

Runs are shrunk by patching the workloads' pick counts, so each finishes in
seconds; n3_pipeline has no smaller form and takes about six per round.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "CAMPAIGN_EXACT", 1)
    monkeypatch.setattr(workloads, "CAMPAIGN_BEYOND", 1)
    monkeypatch.setattr(workloads, "DEEP_SIZE5", 1)
    monkeypatch.setattr(workloads, "DEEP_BEYOND", 0)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def bench(capsys, workload: str, trace: int = 0) -> tuple[dict, str]:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)])
    out, err = capsys.readouterr()
    assert code == 0
    lines = out.strip().splitlines()
    assert "report" in json.loads(lines[-2])
    return json.loads(lines[-1]), err


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(small, capsys, workload, trace):
    result, _ = bench(capsys, workload, trace)
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]


def test_size_off_by_one_counts_as_failed(small, capsys, monkeypatch):
    A = workloads.load_aigopt()
    real = A.synthesis.opt_size

    def one_too_many(tt, cfg):
        result = real(tt, cfg)
        return dataclasses.replace(result, size=result.size + 1)

    monkeypatch.setattr(A.synthesis, "opt_size", one_too_many)
    result, err = bench(capsys, "n4_deep")
    assert result["correct"] is False and result["failed"] > 0
    assert "FAILED" in err


def test_corrupted_store_line_counts_as_failed(small, capsys, monkeypatch):
    A = workloads.load_aigopt()
    real = A.store.append_record

    def append_then_corrupt(path, record):
        real(path, record)
        bad = dataclasses.asdict(record) | {"size": record.size + 1}
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(bad) + "\n")

    monkeypatch.setattr(A.store, "append_record", append_then_corrupt)
    result, err = bench(capsys, "n4_campaign")
    assert result["correct"] is False and result["failed"] > 0
    assert "rejected" in err


def test_changed_node_count_is_reported_as_a_count(small, capsys, monkeypatch):
    reference = copy.deepcopy(workloads.load_reference())
    reference["n4"]["infeasible_nodes"]["4"] += 1
    monkeypatch.setattr(run, "load_reference", lambda: reference)
    result, err = bench(capsys, "n4_campaign", trace=1)
    assert result["correct"] is True
    assert "count change: n=4 k=4" in err and "not a speed-up" in err


def test_tail_percentile_is_fixed_by_one_round():
    samples = [float(i) for i in range(200)]
    assert run.tail([samples[:100], samples[100:]]) == (179.0, 90.0, 200)
    assert run.tail([samples[i : i + 40] for i in range(0, 200, 40)]) == (149.0, 75.0, 200)
    # Three per round: the median of the rounds' maxima, not the run's maximum.
    rounds = [[1.0, 2.0, 9.0], [1.0, 2.0, 5.0], [1.0, 2.0, 6.0]]
    assert run.tail(rounds) == (6.0, 100.0, 9)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "n4_deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
