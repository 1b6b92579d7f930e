"""Regenerate ``bench/reference.json``, the pinned answers every run checks.

    python3 bench/make_reference.py            # about 20 minutes on one core

The n=4 part runs the k=1..5 deepening on all 222 classes, and each class
proven > 5 costs a full 13.3M-node k=5 proof.  The script checks its own
results against independent routes before writing: n=3 sizes against
``brute_oracle(3)``, and the n=4 size counts for sizes 0..4 against the
published 2/1/2/7/9.  It also checks that every infeasibility proof at one
(n, k) visits the same number of nodes, because ``run.py`` compares
node counts against those pins.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
from workloads import load_aigopt  # noqa: E402

N4_CAP = 5
N4_LOW_COUNTS = {0: 2, 1: 1, 2: 2, 3: 7, 4: 9}
PROBE = "0x0169"


def deepen(aigopt, tt, cap):
    """Exact size (None when > cap) and the nodes visited at each k."""
    nodes = []
    for k in range(cap + 1):
        outcome = aigopt.synthesis.exists_circuit(tt, k)
        nodes.append(outcome.nodes_visited)
        if outcome.witness is not None:
            return k, nodes
        if not outcome.proven_infeasible:
            raise RuntimeError(f"{tt.hex()} k={k}: search stopped without a verdict")
    return None, nodes


def fold_infeasible(label, size, nodes, infeasible):
    """Fold one class's per-k proof sizes into ``infeasible``; all must agree."""
    for k, count in enumerate(nodes):
        if k == 0 or (size is not None and k >= size):
            continue
        known = infeasible.setdefault(str(k), count)
        if known != count:
            raise RuntimeError(f"{label} k={k}: {count} nodes, other proofs {known}")


def n3_reference(aigopt):
    table = aigopt.enumerate_classes(3)
    oracle = aigopt.brute_oracle(3)
    classes, infeasible = [], {}
    for cls in table:
        size, nodes = deepen(aigopt, cls.canon, 8)
        for bits, entry in oracle.items():
            if table.classify(aigopt.TruthTable(3, bits)) == cls.class_index and entry.size != size:
                raise RuntimeError(f"n=3 {cls.canon.hex()}: search {size}, oracle {entry.size}")
        fold_infeasible(cls.canon.hex(), size, nodes, infeasible)
        classes.append({"canon": cls.canon.hex(), "size": size})
    opt = {
        cls.canon.bits: SimpleNamespace(size=entry["size"], status="exact")
        for cls, entry in zip(table, classes)
    }
    graph = aigopt.build_graph(table, opt)
    report = aigopt.verify_bound(graph)
    return {
        "classes": classes,
        "infeasible_nodes": infeasible,
        "graph": {
            "edge_total": graph.summary.edge_total,
            "exact_edge_total": graph.summary.exact_edge_total,
            "histogram": {str(d): c for d, c in sorted(graph.histogram.items())},
            "max_delta": graph.summary.max_delta,
            "holds": report.holds,
        },
    }


def n4_reference(aigopt):
    table = aigopt.enumerate_classes(4)
    classes, infeasible = [], {}
    started = time.monotonic()
    for i, cls in enumerate(table):
        size, nodes = deepen(aigopt, cls.canon, N4_CAP)
        fold_infeasible(cls.canon.hex(), size, nodes, infeasible)
        classes.append({"canon": cls.canon.hex(), "size": size, "nodes": nodes})
        print(
            f"n=4 {i + 1}/{len(table)} {cls.canon.hex()} size={size} "
            f"nodes={sum(nodes)} t={time.monotonic() - started:.0f}s",
            file=sys.stderr,
            flush=True,
        )
    low = {s: sum(1 for c in classes if c["size"] == s) for s in N4_LOW_COUNTS}
    if low != N4_LOW_COUNTS:
        raise RuntimeError(f"n=4 classes per size 0..4: {low}, expected {N4_LOW_COUNTS}")
    probe = next(c for c in classes if c["canon"] == PROBE)
    if probe["size"] is not None:
        raise RuntimeError(f"probe {PROBE} has size {probe['size']}, expected > {N4_CAP}")
    return {"cap": N4_CAP, "classes": classes, "infeasible_nodes": infeasible, "probe": PROBE}


def main() -> int:
    aigopt = load_aigopt()
    reference = {"n3": n3_reference(aigopt), "n4": n4_reference(aigopt)}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
