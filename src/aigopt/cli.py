"""Command-line surface: synthesis runs, class lists, graphs, bound checks.

Machine-readable JSON goes to stdout as a single document; human-readable
summaries go to stderr, where ``graph`` also prints its |delta| histogram.
``classify`` and ``graph`` print CSV instead with ``--format csv``.  ``synth``
searches one function and ``cnf-export`` streams DIMACS queries to disk.
``campaign`` and ``oracle`` share one ``sweep``, which walks each gate count
once for all classes, and walk it only until the tables the store lacks are
settled: every NPN class canon of n for ``campaign``, every function of
n <= 3 for ``oracle``.  Both append each level's records as the level ends and
print one line per level.  Commands that enumerate NPN classes (``classify``,
``graph``, ``verify``, ``campaign``) accept n <= 4 only.  Exit codes: 0
success (or bound holds), 1 usage error or a file that cannot be read or
written, 2 upper-bound/unknown result (also a ``verify`` that checked no
edge), 3 bound violation, 4 incomplete store.
"""

from __future__ import annotations

import argparse
import errno
import itertools
import json
import os
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

from .aig import from_aiger, to_aiger
from .cnf import encode_cnf
from .mutation import IncompleteStoreError, MutationGraph, build_graph, verify_bound
from .npn import enumerate_classes
from .repair import repair_multi
from .store import LoadedStore, ResultRecord, append_record, load_store, record_from_result
from .synthesis import MAX_GATES, SearchInconclusiveError, Status, SynthesisConfig, opt_size, sweep
from .truthtable import TruthTable, parse_hex

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
    """The store path, if one is given.  Its directory is checked here, before
    any search, so that a store that cannot be written is refused at once,
    not at the first append after the search has run."""
    path = args.store or os.environ.get(STORE_ENV)
    if not path:
        return None
    path = Path(path)
    if not path.parent.is_dir():
        code = errno.ENOTDIR if path.parent.exists() else errno.ENOENT
        raise OSError(code, os.strerror(code), str(path.parent))
    return path


def _required_store(args) -> Path:
    store = _store_path(args)
    if store is None:
        raise ValueError(f"{args.command} requires --store or {STORE_ENV}")
    return store


def _load_store(path: Path, n: int) -> LoadedStore:
    """Load a store, naming each rejected line on stderr; refuse records of
    another n, which hex and bit keys would mistake for n's own."""
    loaded = load_store(path)
    for issue in loaded.issues:
        _human(f"store line {issue.line_number} rejected: {issue.reason}")
    found = sorted({rec.n for rec in loaded.best.values()})
    if found and found != [n]:
        raise ValueError(
            f"{path} holds records of n={', '.join(map(str, found))}, "
            f"not only n={n}; keep one store per n"
        )
    return loaded


def _exact_tables(path: Path, n: int) -> dict[str, int]:
    """The tables the store at ``path`` already holds as exact, with their
    sizes, if it exists."""
    if not path.exists():
        return {}
    return {
        rec.tt_hex: rec.size
        for rec in _load_store(path, n).best.values()
        if rec.status == Status.EXACT.value
    }


def cmd_synth(args) -> int:
    tt = parse_hex(args.tt, args.n)
    cfg = SynthesisConfig(max_gates=args.max_gates, time_budget=args.budget_secs)
    store = _store_path(args)
    if store is not None and store.exists():
        _load_store(store, args.n)

    try:
        record = record_from_result(opt_size(tt, cfg))
    except SearchInconclusiveError as exc:
        _emit(
            {
                "schema": "aigopt.synth/1",
                "tt": tt.hex(),
                "n": args.n,
                "error": "inconclusive",
                "max_gates": exc.max_gates,
                "exhausted_below": exc.exhausted_below,
            }
        )
        _human(
            f"{tt.hex()}: inconclusive, no witness within {exc.max_gates} "
            f"gates (infeasible through k={exc.exhausted_below})"
        )
        return EXIT_UPPER_BOUND
    if store is not None:
        append_record(store, record)
    _emit({"schema": "aigopt.synth/1", **asdict(record)})
    _human(
        f"{record.tt_hex} (n={record.n}): size {record.size} [{record.status}] "
        f"exhausted_below={record.exhausted_below} in {record.elapsed_ms} ms"
    )
    return EXIT_OK if record.status == Status.EXACT.value else EXIT_UPPER_BOUND


def cmd_cnf_export(args) -> int:
    tt = parse_hex(args.tt, args.n)
    hi = SynthesisConfig(max_gates=args.max_gates).max_gates
    if hi < 1:
        raise ValueError(f"cnf-export needs --max-gates in 1..{MAX_GATES}, got {hi}")
    out_dir = Path(args.cnf_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for k in range(1, hi + 1):
        path = out_dir / f"{tt.hex()}_n{tt.n}_k{k}.cnf"
        with path.open("w", encoding="utf-8") as fh:
            fh.writelines(encode_cnf(tt, k))
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
        "import models with aigopt.cnf.decode_model"
    )
    return EXIT_OK


def _sweep_into_store(store: Path, table, targets, cap: int, backend: str) -> list[ResultRecord]:
    """Settle ``targets`` by the sweep, walking at most ``cap`` gates, and
    return the records written.  Each level's records are appended when the
    level ends, so a crash loses only the level under way, and each level
    prints one line.  A resumed run walks every level from k = 0 again, and
    stops at the hit that settles the last target it needs."""
    written = []
    started = time.monotonic()
    for level in itertools.islice(sweep(table, targets), cap + 1):
        elapsed = time.monotonic() - started
        records = [
            record_from_result(replace(result, elapsed=elapsed), backend=backend)
            for result in level.settled
        ]
        append_record(store, *records)
        written += records
        _human(
            f"k={level.k}: {level.nodes_visited} nodes, {len(records)} settled, "
            f"{elapsed:.2f}s"
        )
    return written


def cmd_campaign(args) -> int:
    cap = SynthesisConfig(max_gates=args.max_gates).max_gates
    store = _required_store(args)
    table = enumerate_classes(args.n)
    done = _exact_tables(store, args.n)
    # The store may also hold records of functions that are not class
    # representatives (``oracle`` writes every function), so count classes.
    targets = [c.canon for c in table if c.canon.hex() not in done]
    skipped = len(table) - len(targets)
    _human(f"campaign: {len(table)} classes, {skipped} already exact, {len(targets)} to run")
    written = {rec.tt_hex for rec in _sweep_into_store(store, table, targets, cap, "sweep")}
    unsettled = [tt.hex() for tt in targets if tt.hex() not in written]
    for tt_hex in unsettled:
        _human(f"{tt_hex}: inconclusive within {cap} gates")
    _emit(
        {
            "schema": "aigopt.campaign/1",
            "n": args.n,
            "classes": len(table),
            "skipped_exact": skipped,
            "new_exact": len(written),
            # The sweep writes only Exact records.
            "new_upper_bound": 0,
            "inconclusive": len(unsettled),
            "store": str(store),
        }
    )
    return EXIT_UPPER_BOUND if unsettled else EXIT_OK


def cmd_classify(args) -> int:
    started = time.monotonic()
    table = enumerate_classes(args.n)
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


def _graph_from_store(args) -> MutationGraph:
    store = _required_store(args)
    table = enumerate_classes(args.n)
    return build_graph(table, _load_store(store, args.n).by_bits())


def _render_histogram(graph: MutationGraph) -> str:
    total = graph.summary.exact_edge_total
    lines = ["|delta|  edges  %"]
    for delta in sorted(graph.histogram):
        count = graph.histogram[delta]
        lines.append(f"{delta:>7}  {count:>5}  {100 * count / total:.1f}")
    lines.append(f"  total  {total:>5}  100.0")
    return "\n".join(lines)


def cmd_graph(args) -> int:
    graph = _graph_from_store(args)
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
    graph = _graph_from_store(args)
    report = verify_bound(graph)
    _emit(
        {
            "schema": "aigopt.verify/1",
            "n": graph.n,
            "holds": report.holds,
            "max_delta": graph.summary.max_delta,
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
    if not report.holds:
        _human(f"BOUND VIOLATED on {len(report.violations)} edges")
        return EXIT_BOUND_VIOLATION
    checked, total = graph.summary.exact_edge_total, graph.summary.edge_total
    if checked == 0:
        _human(f"bound not checked: none of the {total} edges has two exact endpoints")
        return EXIT_UPPER_BOUND
    _human(
        f"bound holds on {checked} of {total} edges: "
        f"max |delta| = {graph.summary.max_delta} <= n = {graph.n}"
    )
    return EXIT_OK


def cmd_repair(args) -> int:
    circuit = from_aiger(Path(args.input).read_text(encoding="utf-8"))
    if args.flip is not None:
        target = circuit.evaluate().flip_bit(args.flip)
    else:
        target = parse_hex(args.target, circuit.n)
    repaired, report = repair_multi(circuit, target)
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
    store = _required_store(args)
    done = _exact_tables(store, args.n)
    started = time.monotonic()
    table = enumerate_classes(args.n)
    functions = [TruthTable(args.n, bits) for bits in range(len(table.function_class))]
    missing = [tt for tt in functions if tt.hex() not in done]
    records = _sweep_into_store(store, table, missing, MAX_GATES, "oracle")
    elapsed = time.monotonic() - started
    max_size = max([*done.values(), *(rec.size for rec in records)])
    _emit(
        {
            "schema": "aigopt.oracle/1",
            "n": args.n,
            "functions": len(functions),
            "max_size": max_size,
            "elapsed_ms": int(elapsed * 1000),
            "store": str(store),
        }
    )
    _human(
        f"oracle: {len(functions)} exact records (max size {max_size}), "
        f"{len(records)} new -> {store}"
    )
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

    p = sub.add_parser("campaign", help="sweep every NPN class of n, resuming from the store")
    p.add_argument("-n", type=int, required=True, help="variable count")
    p.add_argument("--max-gates", type=int, default=16)
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
    """Run one command; the one place an error becomes an exit code.  Bad
    input or a file that cannot be read or written prints one ``error:`` line
    and exits 1, an incomplete store exits 4, any other error propagates."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except IncompleteStoreError as exc:
        _emit(
            {
                "schema": "aigopt.graph/1",
                "n": args.n,
                "error": "incomplete-store",
                "missing": exc.missing,
            }
        )
        more = " ..." if len(exc.missing) > 8 else ""
        _human(f"store is missing {len(exc.missing)} classes: {', '.join(exc.missing[:8])}{more}")
        return EXIT_INCOMPLETE_STORE
    except (ValueError, OSError) as exc:
        _human(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
