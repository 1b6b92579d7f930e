"""The aigopt benchmark: one workload, timed, checked, reported by name.

    python3 bench/run.py --workload n4_deep --seed 1 --seconds 30 --trace 0

Runs from any directory; it benchmarks the ``src/aigopt`` next to this
directory and exits 2 without a result when there is none.  Human-readable
progress goes to stderr.  Stdout ends with two JSON lines: a ``report``
(machine, round times, failures, node-count changes) and the result
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones, from rounds run with span recorders installed.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import Tracer  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS, MissingProgramError, Tally, load_aigopt, load_reference  # noqa: E402

BUILD_DIR = ROOT / ".bench_build"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
TAIL_MIN_BEYOND = 10
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def measure_setup(n: int) -> list[float]:
    """Fresh interpreter, ``import aigopt``, class table for n; seconds each.

    The child prints the wall clock when it is done, so the sample does not
    include the parent's polling for its exit.
    """
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); import aigopt; "
        f"aigopt.enumerate_classes({n}); print(repr(time.time()))"
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.time()
        proc = subprocess.run(
            [sys.executable, "-I", "-c", code],
            check=True, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        samples.append(float(proc.stdout) - started)
    return samples


def tail(per_round: list[list[float]]) -> tuple[float, float, int]:
    """The highest of TAIL_PERCENTILES with ten samples beyond it per round.

    ``per_round`` holds each round's samples.  Returns (value, percentile,
    sample count).  Choosing the percentile from one round's sample count
    keeps it fixed however many rounds a run fits; extra rounds only add
    samples beyond it.  When one round has fewer than 20 samples, no
    percentile has a tail to stand on: the value is then the median over
    rounds of each round's slowest sample, returned as percentile 100.  The
    maximum over the whole run would rest on a single sample.
    """
    ordered = sorted(t for samples in per_round for t in samples)
    count = len(ordered)
    for pct in reversed(TAIL_PERCENTILES):
        if len(per_round[0]) * (100 - pct) / 100 >= TAIL_MIN_BEYOND:
            return ordered[math.ceil(count * pct / 100) - 1], pct, count
    return statistics.median(max(samples) for samples in per_round), 100.0, count


def mean_round(rounds: list) -> float:
    """Seconds per round over the whole run: total round time / rounds.

    The host's speed wanders from second to second; the mean takes in every
    second measured, where a median of a handful of rounds rests on one or
    two of them.
    """
    return statistics.fmean(r.wall for r in rounds)


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


# --- per-layer tracing -------------------------------------------------------


def _count_nodes(pins: dict, changes: dict):
    def hook(tracer, args, kwargs, outcome):
        tt = args[0]
        k = args[1] if len(args) > 1 else kwargs["k"]
        tracer.counts["synthesis.nodes"] += outcome.nodes_visited
        tracer.counts[f"synthesis.nodes.k{k}"] += outcome.nodes_visited
        pinned = pins.get((tt.n, k))
        if outcome.proven_infeasible and pinned is not None and pinned != outcome.nodes_visited:
            changes[(tt.n, k)] = (pinned, outcome.nodes_visited)

    return hook


def _count_graph(tracer, args, kwargs, graph):
    tracer.counts["mutation.edges"] += graph.summary.edge_total
    tracer.counts["mutation.exact_edges"] += graph.summary.exact_edge_total


def _count_rejected(tracer, args, kwargs, loaded):
    tracer.counts["store.rejected_lines"] += len(loaded.issues)


def _count_repair(tracer, args, kwargs, result):
    _, report = result
    tracer.counts["repair.gates_added"] += report.output_size - report.input_size


def layer_targets(A, pins: dict, changes: dict) -> list:
    """(span name, function, hook) for every public function the trace times."""
    return [
        ("npn.enumerate_classes", A.npn.enumerate_classes, None),
        ("npn.canonicalize", A.npn.canonicalize, None),
        ("synthesis.opt_size", A.synthesis.opt_size, None),
        ("synthesis.exists_circuit", A.synthesis.exists_circuit, _count_nodes(pins, changes)),
        ("synthesis.brute_oracle", A.synthesis.brute_oracle, None),
        ("store.append", A.store.append_record, None),
        ("store.load", A.store.load_store, _count_rejected),
        ("aig.from_aiger", A.aig.from_aiger, None),
        ("mutation.build_graph", A.mutation.build_graph, _count_graph),
        ("mutation.verify_bound", A.mutation.verify_bound, None),
        ("repair.set", A.repair.repair_set, _count_repair),
        ("repair.clear", A.repair.repair_clear, _count_repair),
    ]


def per_layer_metrics(tracer: Tracer, setup_tracer: Tracer, traced: list, untraced: list) -> dict:
    """Per-layer figures for one round (totals over traced rounds / rounds)."""
    rounds = len(traced)

    def per_round(value):
        return value // rounds if isinstance(value, int) and value % rounds == 0 else value / rounds

    def seconds(name, kind="total"):
        table = tracer.self_time if kind == "self" else tracer.total_time
        return table[name] / rounds

    enum_calls = tracer.calls["npn.enumerate_classes"] + setup_tracer.calls["npn.enumerate_classes"]
    enum_s = tracer.total_time["npn.enumerate_classes"] + setup_tracer.total_time["npn.enumerate_classes"]
    nodes = tracer.counts["synthesis.nodes"]
    exists_s = tracer.total_time["synthesis.exists_circuit"]
    settled = sum(r.settled for r in traced)
    traced_wall = mean_round(traced)
    untraced_wall = mean_round(untraced)
    values = {
        "npn.enumerate_classes.s": (enum_s / enum_calls, "s"),
        "npn.canonicalize.calls": (per_round(tracer.calls["npn.canonicalize"]), "count"),
        "npn.canonicalize.s": (seconds("npn.canonicalize"), "s"),
        "synthesis.exists_circuit.calls": (per_round(tracer.calls["synthesis.exists_circuit"]), "count"),
        "synthesis.exists_circuit.self_s": (seconds("synthesis.exists_circuit", "self"), "s"),
        "synthesis.nodes": (per_round(nodes), "count"),
        **{
            f"synthesis.nodes.k{k}": (per_round(tracer.counts[f"synthesis.nodes.k{k}"]), "count")
            for k in range(1, 6)
        },
        "synthesis.nodes_per_s": (nodes / exists_s if exists_s else 0.0, "1/s"),
        "synthesis.nodes_per_class": (nodes / settled if settled else 0.0, "count"),
        "synthesis.opt_size.calls": (per_round(tracer.calls["synthesis.opt_size"]), "count"),
        "synthesis.opt_size.self_s": (seconds("synthesis.opt_size", "self"), "s"),
        "synthesis.inconclusive": (per_round(sum(r.inconclusive for r in traced)), "count"),
        "synthesis.brute_oracle.s": (seconds("synthesis.brute_oracle"), "s"),
        "store.append.calls": (per_round(tracer.calls["store.append"]), "count"),
        "store.append.s": (seconds("store.append"), "s"),
        "store.load.s": (seconds("store.load"), "s"),
        "store.bytes": (per_round(sum(r.store_bytes for r in traced)), "bytes"),
        "store.rejected_lines": (per_round(tracer.counts["store.rejected_lines"]), "count"),
        "aig.from_aiger.calls": (per_round(tracer.calls["aig.from_aiger"]), "count"),
        "aig.from_aiger.s": (seconds("aig.from_aiger"), "s"),
        "mutation.build_graph.s": (seconds("mutation.build_graph"), "s"),
        "mutation.verify_bound.s": (seconds("mutation.verify_bound"), "s"),
        "mutation.edges": (per_round(tracer.counts["mutation.edges"]), "count"),
        "mutation.exact_edges": (per_round(tracer.counts["mutation.exact_edges"]), "count"),
        "repair.calls": (per_round(tracer.calls["repair.set"] + tracer.calls["repair.clear"]), "count"),
        "repair.s": (seconds("repair.set") + seconds("repair.clear"), "s"),
        "repair.gates_added": (per_round(tracer.counts["repair.gates_added"]), "count"),
        "cli.oracle.s": (seconds("cli.oracle"), "s"),
        "cli.graph.s": (seconds("cli.graph"), "s"),
        "cli.verify.s": (seconds("cli.verify"), "s"),
        "trace.traced_wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_ratio": (traced_wall / untraced_wall, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def end_to_end_metrics(rounds: list, setup: list[float]) -> tuple[dict, dict]:
    times = [t for r in rounds for t in r.class_times]
    wall = mean_round(rounds)
    tail_s, tail_pct, tail_count = tail([r.class_times for r in rounds])
    values = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "classes_per_s": (rounds[0].settled / wall, "1/s"),
        "class_ms_p50": (1000 * statistics.median(times), "ms"),
        "class_ms_tail": (1000 * tail_s, "ms"),
        "exact_classes": (rounds[0].exact, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {"class_ms_tail": {"percentile": tail_pct, "samples": tail_count}}
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}, notes


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    try:
        A = load_aigopt()
    except MissingProgramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reference = load_reference()
    load_before = os.getloadavg()
    cls = WORKLOADS[workload]
    setup = [] if trace else measure_setup(cls.n)

    pins = {
        (int(key[1:]), int(k)): count
        for key, part in reference.items()
        for k, count in part["infeasible_nodes"].items()
    }
    changes: dict = {}
    targets = layer_targets(A, pins, changes)
    setup_tracer, tracer = Tracer(), Tracer()
    tally = Tally()
    BUILD_DIR.mkdir(exist_ok=True)
    rounds: list = []
    traced: list = []
    with tempfile.TemporaryDirectory(dir=BUILD_DIR, prefix=f"{workload}-") as workdir:
        if trace:
            setup_tracer.install("aigopt", targets)
        try:
            bench = cls(A, reference, seed, Path(workdir), tally)
        finally:
            setup_tracer.uninstall()
        # One untimed round first, so every timed round starts from the same
        # process state: the first round after start-up runs unlike later
        # ones (up to a third slower on n4_campaign, a tenth faster on
        # n4_deep, where later rounds reuse a heap the first one grew).
        warmup = bench.run_round()
        print(f"{workload} seed={seed} warm-up round: {warmup.wall:.3f}s", file=sys.stderr)
        deadline = time.perf_counter() + seconds
        while True:
            # With tracing, rounds alternate untraced / traced so both see
            # the same machine state; the untraced ones give the overhead.
            traced_round = trace and len(rounds) > len(traced)
            if traced_round:
                tracer.install("aigopt", targets)
                try:
                    with tracer.span("round"):
                        result = bench.run_round(tracer)
                finally:
                    tracer.uninstall()
                traced.append(result)
            else:
                result = bench.run_round()
                rounds.append(result)
            print(
                f"{workload} seed={seed} round {len(rounds) + len(traced)}"
                f"{' traced' if traced_round else ''}: {result.wall:.3f}s, "
                f"{result.settled} classes, failed so far {tally.failed}",
                file=sys.stderr,
            )
            # Stop when less than half a round is left, so a run measures for
            # about ``seconds`` however long its rounds are.
            if time.perf_counter() + result.wall / 2 >= deadline and (not trace or traced):
                break

    if trace:
        metrics = per_layer_metrics(tracer, setup_tracer, traced, rounds)
        notes = {}
    else:
        metrics, notes = end_to_end_metrics(rounds, setup)
    count_changes = [
        {"n": n, "k": k, "pinned": pinned, "observed": observed}
        for (n, k), (pinned, observed) in sorted(changes.items())
    ]
    for change in count_changes:
        print(
            f"count change: n={change['n']} k={change['k']} infeasibility proof visits "
            f"{change['observed']} nodes, pinned {change['pinned']} (a count, not a speed-up)",
            file=sys.stderr,
        )
    for failure in tally.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine(),
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "setup_s": setup,
        "warmup_round_s": warmup.wall,
        "round_s": [r.wall for r in rounds],
        "traced_round_s": [r.wall for r in traced],
        "failed_ratio": tally.failed / tally.attempted,
        "failures": tally.failures,
        "count_changes": count_changes,
        "spans": {
            name: {
                "calls": tracer.calls[name],
                "total_s": tracer.total_time[name],
                "self_s": tracer.self_time[name],
            }
            for name in sorted(tracer.calls)
        },
        **notes,
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time; rounds run until it is used")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
