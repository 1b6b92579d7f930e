"""Command-line surface: synthesis runs, class lists, graphs, bound checks.

Machine-readable JSON goes to stdout as a single document; human-readable
summaries go to stderr, where ``graph`` also prints its |delta| histogram.
``classify`` and ``graph`` print CSV instead with ``--format csv``.  ``synth``
searches one function, ``campaign`` every NPN class of n (appending each record
as its class finishes) and ``cnf-export`` writes DIMACS queries.  ``oracle``
runs ``opt_size`` once per NPN class of n <= 3 and stores every function with
its class's witness moved to it by ``npn.retarget``.  Commands that
enumerate NPN classes (``classify``, ``graph``, ``verify``, ``campaign``)
accept n <= 4 only.  Exit codes: 0 success (or bound holds),
1 usage error, 2 upper-bound/unknown result, 3 bound violation, 4 incomplete
store.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import ExitStack
from dataclasses import asdict
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

from .aig import from_aiger, to_aiger
from .mutation import IncompleteStoreError, MutationGraph, build_graph, verify_bound
from .npn import NpnClassTable, enumerate_classes, retarget
from .repair import repair_clear, repair_multi, repair_set
from .store import LoadedStore, ResultRecord, append_record, load_store, record_from_result
from .synthesis import (
    SearchInconclusiveError,
    Status,
    SynthesisConfig,
    encode_cnf,
    opt_size,
)
from .truthtable import Assignment, TruthTable, parse_hex

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UPPER_BOUND = 2
EXIT_BOUND_VIOLATION = 3
EXIT_INCOMPLETE_STORE = 4

STORE_ENV = "AIGOPT_STORE"


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _human(text: str) -> None:
    print(text, file=sys.stderr)


def _store_path(args) -> Path | None:
    if args.store:
        return Path(args.store)
    env = os.environ.get(STORE_ENV)
    return Path(env) if env else None


def _load_store(path: Path) -> LoadedStore:
    """Load a store, naming each rejected line on stderr."""
    loaded = load_store(path)
    for issue in loaded.issues:
        _human(f"store line {issue.line_number} rejected: {issue.reason}")
    return loaded


def _class_table(n: int) -> NpnClassTable | None:
    """All NPN classes of n, or None after reporting an unsupported n."""
    try:
        return enumerate_classes(n)
    except ValueError as exc:
        _human(f"error: {exc}")
        return None


def _synth_one(tt_hex: str, n: int, cfg: SynthesisConfig) -> dict:
    """Worker-friendly synthesis: picklable arguments in, plain dict out."""
    tt = parse_hex(tt_hex, n)
    try:
        result = opt_size(tt, cfg)
    except SearchInconclusiveError as exc:
        return {
            "tt": tt_hex,
            "n": n,
            "error": "inconclusive",
            "max_gates": exc.max_gates,
            "exhausted_below": exc.exhausted_below,
        }
    return asdict(record_from_result(result))


def cmd_synth(args) -> int:
    try:
        tt = parse_hex(args.tt, args.n)
        cfg = SynthesisConfig(max_gates=args.max_gates, time_budget=args.budget_secs)
    except ValueError as exc:
        _human(f"error: {exc}")
        return EXIT_USAGE

    outcome = _synth_one(tt.hex(), args.n, cfg)
    if "error" in outcome:
        _emit({"schema": "aigopt.synth/1", **outcome})
        _human(
            f"{tt.hex()}: inconclusive, no witness within {outcome['max_gates']} "
            f"gates (infeasible through k={outcome['exhausted_below']})"
        )
        return EXIT_UPPER_BOUND
    record = ResultRecord(**outcome)
    store = _store_path(args)
    if store is not None:
        append_record(store, record)
    _emit({"schema": "aigopt.synth/1", **outcome})
    _human(
        f"{record.tt_hex} (n={record.n}): size {record.size} [{record.status}] "
        f"exhausted_below={record.exhausted_below} in {record.elapsed_ms} ms"
    )
    return EXIT_OK if record.status == Status.EXACT.value else EXIT_UPPER_BOUND


def cmd_cnf_export(args) -> int:
    try:
        tt = parse_hex(args.tt, args.n)
        hi = SynthesisConfig(max_gates=args.max_gates).max_gates
    except ValueError as exc:
        _human(f"error: {exc}")
        return EXIT_USAGE
    out_dir = Path(args.cnf_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for k in range(1, hi + 1):
        path = out_dir / f"{tt.hex()}_n{tt.n}_k{k}.cnf"
        path.write_text(encode_cnf(tt, k), encoding="utf-8")
        written.append(str(path))
    _emit(
        {
            "schema": "aigopt.cnf-export/1",
            "tt": tt.hex(),
            "n": tt.n,
            "k_range": [1, hi],
            "files": written,
        }
    )
    _human(
        f"wrote {len(written)} DIMACS files to {out_dir}; solve externally and "
        "import models with aigopt.synthesis.decode_model"
    )
    return EXIT_OK


def _finished_outcomes(futures):
    """Each result as its class finishes.  After the first worker error, the
    classes not yet started are cancelled, those still running are yielded as
    they finish, and then the error is raised."""
    error = None
    for future in as_completed(futures):
        try:
            outcome = future.result()
        except Exception as exc:  # a cancelled class raises CancelledError here
            if error is None:
                error = exc
                for queued in futures:
                    queued.cancel()
            continue
        yield outcome
    if error is not None:
        raise error


def cmd_campaign(args) -> int:
    try:
        cfg = SynthesisConfig(max_gates=args.max_gates, time_budget=args.budget_secs)
        if args.jobs < 1:
            raise ValueError("--jobs must be >= 1")
    except ValueError as exc:
        _human(f"error: {exc}")
        return EXIT_USAGE
    store = _store_path(args)
    if store is None:
        _human("error: campaign mode requires --store or " + STORE_ENV)
        return EXIT_USAGE
    table = _class_table(args.n)
    if table is None:
        return EXIT_USAGE
    done: set[str] = set()
    if store.exists():
        loaded = _load_store(store)
        done = {
            rec.tt_hex
            for rec in loaded.best.values()
            if rec.status == Status.EXACT.value
        }
    todo = [c.canon.hex() for c in table if c.canon.hex() not in done]
    _human(f"campaign: {len(table)} classes, {len(done)} already exact, {len(todo)} to run")
    exact = upper = failed = 0
    with ExitStack() as stack:
        run = partial(_synth_one, n=args.n, cfg=cfg)
        outcomes = map(run, todo)
        if args.jobs > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=args.jobs))
            outcomes = _finished_outcomes([pool.submit(run, tt_hex) for tt_hex in todo])
        # Each record is appended as its class finishes, so a crash loses only
        # the classes still running; a worker error is raised after those.
        for outcome in outcomes:
            if "error" in outcome:
                failed += 1
                _human(f"{outcome['tt']}: inconclusive within {outcome['max_gates']} gates")
                continue
            record = ResultRecord(**outcome)
            append_record(store, record)
            if record.status == Status.EXACT.value:
                exact += 1
            else:
                upper += 1
            _human(f"{record.tt_hex}: size {record.size} [{record.status}]")
    _emit(
        {
            "schema": "aigopt.campaign/1",
            "n": args.n,
            "classes": len(table),
            "skipped_exact": len(done),
            "new_exact": exact,
            "new_upper_bound": upper,
            "inconclusive": failed,
            "store": str(store),
        }
    )
    return EXIT_OK if failed == 0 and upper == 0 else EXIT_UPPER_BOUND


def cmd_classify(args) -> int:
    started = time.monotonic()
    table = _class_table(args.n)
    if table is None:
        return EXIT_USAGE
    elapsed = time.monotonic() - started
    rows = [
        {"class_index": c.class_index, "canon": c.canon.hex(), "orbit_size": c.orbit_size}
        for c in table
    ]
    if args.format == "csv":
        print("class_index,canon,orbit_size")
        for r in rows:
            print(f"{r['class_index']},{r['canon']},{r['orbit_size']}")
    else:
        _emit(
            {
                "schema": "aigopt.classify/1",
                "n": args.n,
                "count": len(table),
                "elapsed_ms": int(elapsed * 1000),
                "classes": rows,
            }
        )
    _human(f"{len(table)} NPN classes at n={args.n} ({elapsed:.2f}s)")
    return EXIT_OK


def _graph_from_store(args) -> tuple[MutationGraph | None, int]:
    store = _store_path(args)
    if store is None or not store.exists():
        _human("error: graph construction requires an existing --store")
        return None, EXIT_USAGE
    table = _class_table(args.n)
    if table is None:
        return None, EXIT_USAGE
    loaded = _load_store(store)
    try:
        graph = build_graph(table, loaded.by_bits())
    except IncompleteStoreError as exc:
        _emit(
            {
                "schema": "aigopt.graph/1",
                "n": args.n,
                "error": "incomplete-store",
                "missing": exc.missing,
            }
        )
        _human(f"store is missing {len(exc.missing)} classes: {', '.join(exc.missing[:8])} ...")
        return None, EXIT_INCOMPLETE_STORE
    return graph, EXIT_OK


def _render_histogram(graph: MutationGraph) -> str:
    total = graph.summary.exact_edge_total
    lines = ["|delta|  edges  %"]
    for delta in sorted(graph.histogram):
        count = graph.histogram[delta]
        lines.append(f"{delta:>7}  {count:>5}  {100 * count / total:.1f}")
    lines.append(f"  total  {total:>5}  100.0")
    return "\n".join(lines)


def cmd_graph(args) -> int:
    graph, code = _graph_from_store(args)
    if graph is None:
        return code
    edges = [
        {
            "a": graph.classes[e.a].canon.hex(),
            "b": graph.classes[e.b].canon.hex(),
            "delta": e.delta,
            "multiplicity": e.multiplicity,
        }
        for e in graph.edges
    ]
    if args.format == "csv":
        print("class_a,class_b,delta,multiplicity")
        for e in edges:
            delta = "NA" if e["delta"] is None else e["delta"]
            print(f"{e['a']},{e['b']},{delta},{e['multiplicity']}")
    else:
        _emit(
            {
                "schema": "aigopt.graph/1",
                "n": graph.n,
                "edge_total": graph.summary.edge_total,
                "exact_edge_total": graph.summary.exact_edge_total,
                "histogram": {str(k): v for k, v in sorted(graph.histogram.items())},
                "max_delta": graph.summary.max_delta,
                "mean_abs_delta": graph.summary.mean_abs_delta,
                "share_delta_le_2": graph.summary.share_delta_le_2,
                "edges": edges,
            }
        )
    _human(
        f"{graph.summary.edge_total} edges, {graph.summary.exact_edge_total} with "
        f"exact endpoints, max |delta| = {graph.summary.max_delta}"
    )
    if graph.summary.exact_edge_total:
        _human(_render_histogram(graph))
    return EXIT_OK


def cmd_verify(args) -> int:
    graph, code = _graph_from_store(args)
    if graph is None:
        return code
    report = verify_bound(graph)
    _emit(
        {
            "schema": "aigopt.verify/1",
            "n": graph.n,
            "holds": report.holds,
            "max_delta": report.max_delta,
            "bound": graph.n,
            "violations": [
                {
                    "a": graph.classes[e.a].canon.hex(),
                    "b": graph.classes[e.b].canon.hex(),
                    "delta": e.delta,
                }
                for e in report.violations
            ],
        }
    )
    if report.holds:
        _human(f"bound holds: max |delta| = {report.max_delta} <= n = {graph.n}")
        return EXIT_OK
    _human(f"BOUND VIOLATED on {len(report.violations)} edges")
    return EXIT_BOUND_VIOLATION


def cmd_repair(args) -> int:
    try:
        circuit = from_aiger(Path(args.input).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        _human(f"error: {exc}")
        return EXIT_USAGE
    try:
        table = circuit.evaluate()
        if args.flip is not None:
            if not 0 <= args.flip < table.rows:
                raise ValueError(f"flip row {args.flip} out of range for n={circuit.n}")
            xstar = Assignment(circuit.n, args.flip)
            if table.eval(xstar) == 0:
                repaired, report = repair_set(circuit, xstar)
            else:
                repaired, report = repair_clear(circuit, xstar)
        else:
            target = parse_hex(args.target, circuit.n)
            repaired, report = repair_multi(circuit, target)
    except ValueError as exc:
        _human(f"error: {exc}")
        return EXIT_USAGE
    out_path = Path(args.output) if args.output else Path(args.input).with_suffix(".repaired.aag")
    out_path.write_text(to_aiger(repaired), encoding="utf-8")
    _emit(
        {
            "schema": "aigopt.repair/1",
            "input": args.input,
            "output": str(out_path),
            "input_size": report.input_size,
            "output_size": report.output_size,
            "flips": report.flips,
            "bound": report.bound,
            "target_tt": report.target_tt.hex(),
        }
    )
    _human(
        f"repaired {args.input}: {report.input_size} -> {report.output_size} gates "
        f"(certified <= {report.bound}), table {report.target_tt.hex()}"
    )
    return EXIT_OK


def cmd_oracle(args) -> int:
    store = _store_path(args)
    if store is None:
        _human("error: oracle mode requires --store or " + STORE_ENV)
        return EXIT_USAGE
    started = time.monotonic()
    table = enumerate_classes(args.n)
    solved = [opt_size(c.canon) for c in table]
    elapsed_ms = int((time.monotonic() - started) * 1000)
    stamp = datetime.now(timezone.utc).isoformat()
    functions = 1 << (1 << args.n)
    for bits in range(functions):
        tt = TruthTable(args.n, bits)
        result = solved[table.classify(tt)]
        record = ResultRecord(
            tt_hex=tt.hex(),
            n=args.n,
            size=result.size,
            status=result.status.value,
            exhausted_below=result.exhausted_below,
            witness_aag=to_aiger(retarget(result.witness, tt)),
            backend="oracle",
            elapsed_ms=elapsed_ms,
            timestamp=stamp,
        )
        append_record(store, record)
    max_size = max(result.size for result in solved)
    _emit(
        {
            "schema": "aigopt.oracle/1",
            "n": args.n,
            "functions": functions,
            "max_size": max_size,
            "elapsed_ms": elapsed_ms,
            "store": str(store),
        }
    )
    _human(f"oracle: {functions} exact records (max size {max_size}) -> {store}")
    return EXIT_OK


def _add_store_flag(p) -> None:
    p.add_argument("--store", default=None, help=f"result store path (or ${STORE_ENV})")


def _add_format_flag(p) -> None:
    p.add_argument(
        "--format", choices=("json", "csv"), default="json",
        help="stdout format (the human summary always goes to stderr)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aigopt",
        description="Exact AIG sizes, one-bit repair, and mutation-graph bound checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="prove or bound the optimal size of one function")
    p.add_argument("tt", help="truth table in hex, e.g. 0x0180")
    p.add_argument("-n", type=int, required=True, help="variable count")
    p.add_argument("--budget-secs", type=float, default=None,
                   help="wall-clock budget per (function, gate count) query")
    p.add_argument("--max-gates", type=int, default=16)
    _add_store_flag(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("campaign", help="synth every NPN class of n, resuming from the store")
    p.add_argument("-n", type=int, required=True, help="variable count")
    p.add_argument("--budget-secs", type=float, default=None,
                   help="wall-clock budget per (function, gate count) query")
    p.add_argument("--max-gates", type=int, default=16)
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    _add_store_flag(p)
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("cnf-export", help="write DIMACS queries for k=1..max-gates")
    p.add_argument("tt", help="truth table in hex, e.g. 0x0180")
    p.add_argument("-n", type=int, required=True, help="variable count")
    p.add_argument("--max-gates", type=int, default=16)
    p.add_argument("--cnf-dir", default="cnf", help="output directory")
    p.set_defaults(func=cmd_cnf_export)

    p = sub.add_parser("classify", help="enumerate NPN classes")
    p.add_argument("-n", type=int, required=True)
    _add_format_flag(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("graph", help="build the mutation graph from a store")
    p.add_argument("-n", type=int, required=True)
    _add_store_flag(p)
    _add_format_flag(p)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("verify", help="check |delta opt| <= n over the graph")
    p.add_argument("-n", type=int, required=True)
    _add_store_flag(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("repair", help="flip rows of a circuit's function")
    p.add_argument("input", help="AIGER (aag) file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--flip", type=int, default=None, help="row index to flip")
    group.add_argument("--target", default=None, help="target truth table hex")
    p.add_argument("-o", "--output", default=None, help="output aag path")
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("oracle", help="exact sizes for every function (n <= 3)")
    p.add_argument("-n", type=int, required=True, choices=(1, 2, 3))
    _add_store_flag(p)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
