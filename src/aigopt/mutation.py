"""The class-level mutation graph and the size-difference bound over it.

Vertices are NPN classes; an edge joins two classes whenever some member of
one differs from some member of the other in exactly one truth-table row.
Because NPN transforms preserve Hamming distance, flipping each row of the
canonical representative reaches every neighbouring class, so edges are
computed from representatives only.  A graph is its edges: its |delta|
histogram, its summary and the bound check are all derived from them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .npn import NpnClass, NpnClassTable
from .synthesis import Status


@dataclass(frozen=True, slots=True)
class MutationEdge:
    """Edge between classes a < b.

    ``delta`` is the absolute difference of exact optimal sizes, or None when
    either endpoint lacks an exact value.  ``multiplicity`` counts how many
    distinct representative bit flips realize the pair; it is diagnostic only
    and excluded from all histogram accounting.
    """

    a: int
    b: int
    delta: int | None
    multiplicity: int = 1


@dataclass(frozen=True)
class GraphSummary:
    edge_total: int
    exact_edge_total: int
    max_delta: int | None
    mean_abs_delta: float | None
    share_delta_le_2: float | None


@dataclass(frozen=True)
class MutationGraph:
    n: int
    classes: tuple[NpnClass, ...]
    edges: tuple[MutationEdge, ...]

    @cached_property
    def histogram(self) -> dict[int, int]:
        """Edge count per defined |delta|."""
        return dict(Counter(e.delta for e in self.edges if e.delta is not None))

    @cached_property
    def summary(self) -> GraphSummary:
        deltas = [e.delta for e in self.edges if e.delta is not None]
        return GraphSummary(
            edge_total=len(self.edges),
            exact_edge_total=len(deltas),
            max_delta=max(deltas) if deltas else None,
            mean_abs_delta=sum(deltas) / len(deltas) if deltas else None,
            share_delta_le_2=(
                sum(1 for d in deltas if d <= 2) / len(deltas) if deltas else None
            ),
        )


class IncompleteStoreError(KeyError):
    """A class required by graph construction has no synthesis result."""

    def __init__(self, missing: list[str]):
        super().__init__(f"{len(missing)} classes missing from the result store")
        self.missing = missing


def class_neighbors(cls: NpnClass, table: NpnClassTable) -> dict[int, int]:
    """Classes one bit flip away from ``cls`` (self excluded), each mapped to
    the number of representative rows whose flip reaches it."""
    counts: dict[int, int] = {}
    for row in range(cls.canon.rows):
        neighbor = table.classify(cls.canon.flip_bit(row))
        if neighbor != cls.class_index:
            counts[neighbor] = counts.get(neighbor, 0) + 1
    return counts


def build_graph(table: NpnClassTable, opt_store) -> MutationGraph:
    """Assemble the graph joining classes with synthesis results.

    ``opt_store`` maps canonical table bits to any object with ``size`` and
    ``status`` attributes (an OptResult or a store record).  Every class must
    be present; deltas are defined only between two Exact endpoints.
    """
    missing = [c.canon.hex() for c in table if c.canon.bits not in opt_store]
    if missing:
        raise IncompleteStoreError(missing)

    def exact_size(cls: NpnClass) -> int | None:
        rec = opt_store[cls.canon.bits]
        return rec.size if Status(rec.status) is Status.EXACT else None

    pair_multiplicity: dict[tuple[int, int], int] = {}
    for cls in table:
        for neighbor, count in class_neighbors(cls, table).items():
            a, b = sorted((cls.class_index, neighbor))
            key = (a, b)
            # Each unordered pair is met from both sides; keep the max so the
            # multiplicity annotation stays side-independent.
            pair_multiplicity[key] = max(pair_multiplicity.get(key, 0), count)

    edges = []
    for (a, b), mult in sorted(pair_multiplicity.items()):
        sa = exact_size(table[a])
        sb = exact_size(table[b])
        delta = abs(sa - sb) if sa is not None and sb is not None else None
        edges.append(MutationEdge(a, b, delta, mult))
    return MutationGraph(table.n, tuple(table), tuple(edges))


@dataclass(frozen=True)
class BoundReport:
    violations: tuple[MutationEdge, ...]

    @property
    def holds(self) -> bool:
        return not self.violations


def verify_bound(g: MutationGraph) -> BoundReport:
    """Check every defined delta against the n * d_H bound (d_H = 1 here).

    A violation would indicate an implementation bug, not a property of the
    functions: the bound is constructive.
    """
    return BoundReport(
        tuple(e for e in g.edges if e.delta is not None and e.delta > g.n)
    )

