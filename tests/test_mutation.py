import random

import pytest

from aigopt.mutation import (
    IncompleteStoreError,
    MutationEdge,
    MutationGraph,
    build_graph,
    class_neighbors,
    verify_bound,
)
from aigopt.npn import apply_transform, enumerate_classes
from aigopt.synthesis import Status, brute_oracle
from aigopt.truthtable import parse_hex

from test_npn import random_transform


class FakeResult:
    def __init__(self, size, status=Status.EXACT):
        self.size = size
        self.status = status


def oracle_store(n, oracle, classes):
    return {c.canon.bits: FakeResult(oracle[c.canon.bits].size) for c in classes}


def test_constant_class_has_single_neighbor(classes4):
    const_cls = classes4[classes4.classify(parse_hex("0x0000", 4))]
    neighbors = class_neighbors(const_cls, classes4)
    minterm_idx = classes4.classify(parse_hex("0x0001", 4))
    assert neighbors.keys() == {minterm_idx}


def test_minterm_class_neighbors_include_paper_pair(classes4):
    minterm_cls = classes4[classes4.classify(parse_hex("0x0001", 4))]
    neighbors = class_neighbors(minterm_cls, classes4)
    assert classes4.classify(parse_hex("0x0000", 4)) in neighbors
    assert classes4.classify(parse_hex("0x0180", 4)) in neighbors


def test_neighbors_at_n1():
    table = enumerate_classes(1)
    for cls in table:
        others = class_neighbors(cls, table)
        assert others.keys() == {1 - cls.class_index}


def test_neighbor_symmetry_exhaustive(classes2, classes3, classes4):
    for table in (classes2, classes3, classes4):
        neighbor_sets = [class_neighbors(c, table) for c in table]
        for cls in table:
            for other in neighbor_sets[cls.class_index]:
                assert cls.class_index in neighbor_sets[other]


def test_neighbors_independent_of_orbit_member(classes3):
    rng = random.Random(73)
    for cls in classes3:
        canonical_neighbors = class_neighbors(cls, classes3)
        for _ in range(3):
            member = apply_transform(cls.canon, random_transform(rng, 3))
            from_member = {
                classes3.classify(member.flip_bit(row))
                for row in range(member.rows)
            }
            from_member.discard(cls.class_index)
            assert from_member == canonical_neighbors.keys()


def test_build_graph_n1_single_edge():
    table = enumerate_classes(1)
    oracle = brute_oracle(1)
    graph = build_graph(table, oracle_store(1, oracle, table))
    assert len(graph.edges) == 1
    assert graph.edges[0].delta == 0
    assert graph.summary.exact_edge_total == 1
    assert graph.histogram == {0: 1}


def test_build_graph_n3_bound_holds(classes3, oracle3):
    graph = build_graph(classes3, oracle_store(3, oracle3, classes3))
    assert sum(graph.histogram.values()) == graph.summary.exact_edge_total
    assert graph.summary.edge_total == len(graph.edges)
    assert verify_bound(graph).holds
    assert graph.summary.max_delta is not None and graph.summary.max_delta <= 3


def test_build_graph_requires_full_store(classes3, oracle3):
    store = oracle_store(3, oracle3, classes3)
    del store[classes3[5].canon.bits]
    with pytest.raises(IncompleteStoreError) as exc:
        build_graph(classes3, store)
    assert classes3[5].canon.hex() in exc.value.missing


def test_upper_bound_endpoints_leave_delta_undefined(classes3, oracle3):
    store = oracle_store(3, oracle3, classes3)
    victim = classes3[4].canon.bits
    store[victim] = FakeResult(store[victim].size, Status.UPPER_BOUND)
    graph = build_graph(classes3, store)
    undefined = [e for e in graph.edges if e.delta is None]
    assert undefined
    for e in undefined:
        assert victim in (
            graph.classes[e.a].canon.bits,
            graph.classes[e.b].canon.bits,
        )
    assert graph.summary.exact_edge_total == graph.summary.edge_total - len(undefined)
    # store records with plain-string status work the same way
    store[victim] = FakeResult(store[victim].size, Status.UPPER_BOUND.value)
    assert build_graph(classes3, store).summary.exact_edge_total == (
        graph.summary.exact_edge_total
    )


def test_verify_bound_vacuous_on_empty_graph():
    graph = MutationGraph(4, (), ())
    assert verify_bound(graph).holds
    assert graph.histogram == {}
    assert graph.summary.max_delta is None


def test_verify_bound_flags_violations():
    edges = (MutationEdge(0, 1, 5),)
    graph = MutationGraph(4, (), edges)
    assert graph.histogram == {5: 1}
    report = verify_bound(graph)
    assert not report.holds
    assert report.violations == edges


def test_summary_stats_single_zero_edge():
    summary = MutationGraph(4, (), (MutationEdge(0, 1, 0),)).summary
    assert summary.mean_abs_delta == 0.0
    assert summary.share_delta_le_2 == 1.0


def test_summary_stats_reference_histogram_arithmetic():
    """The published distribution: mean 1019/987, share 935/987."""
    histogram = {0: 300, 1: 414, 2: 221, 3: 45, 4: 7}
    edges = []
    next_a = 0
    for delta, count in histogram.items():
        for _ in range(count):
            edges.append(MutationEdge(next_a, next_a + 1, delta))
            next_a += 2
    graph = MutationGraph(4, (), tuple(edges))
    assert graph.histogram == histogram
    summary = graph.summary
    assert summary.exact_edge_total == 987
    assert summary.max_delta == 4
    assert abs(summary.mean_abs_delta - 1019 / 987) < 1e-12
    assert abs(summary.mean_abs_delta - 1.03) < 0.01
    assert abs(summary.share_delta_le_2 - 935 / 987) < 1e-12
    assert abs(summary.share_delta_le_2 - 0.947) < 0.002


def test_multiplicity_annotation_counts_flips(classes4):
    const_cls = classes4[classes4.classify(parse_hex("0x0000", 4))]
    oracle_like = {c.canon.bits: FakeResult(0) for c in classes4}
    graph = build_graph(classes4, oracle_like)
    const_idx = const_cls.class_index
    minterm_idx = classes4.classify(parse_hex("0x0001", 4))
    edge = next(
        e for e in graph.edges if {e.a, e.b} == {const_idx, minterm_idx}
    )
    # every one of the 16 flips of the constant reaches the minterm class
    assert edge.multiplicity == 16
