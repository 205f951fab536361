"""Brute-force oracle: pruning soundness, theory cross-checks, bridge graphs."""

from collections import Counter, deque
from itertools import product

import pytest

from pardiff import oracle
from pardiff.counting import count_T_recurrence, count_configs_on_orientation
from pardiff.engine import fire_step, orientation_of_stacks
from pardiff.errors import CeilingError, DomainError, WindowNotStabilizedError
from pardiff.graphs import Configuration, PathGraph, SimpleGraph, canonicalize
from pardiff.oracle import (
    bound_stability_check,
    build_bridge_graph,
    count_p2_configurations,
    enumerate_p2_configurations,
    enumerate_p2_on_bridge_graph,
    orientations_realized,
)
from pardiff.orientations import enumerate_p2_orientations

from conftest import naive_p2_path

TRIANGLE = SimpleGraph.from_edge_list([(1, 2), (2, 3), (1, 3)])


def test_pruned_search_equals_full_iteration():
    for n in range(2, 7):
        naive = [c.stacks for c in naive_p2_path(n)]
        pruned = [c.stacks for c in enumerate_p2_configurations(n).configurations]
        assert sorted(pruned) == sorted(naive)
        assert len(pruned) == len(set(pruned))


def test_two_vertex_members():
    result = enumerate_p2_configurations(2)
    assert result.count == 2
    assert {c.stacks for c in result.configurations} == {(0, 1), (0, -1)}


@pytest.mark.parametrize("n,count", [(3, 8), (4, 26), (5, 96)])
def test_small_counts(n, count):
    assert enumerate_p2_configurations(n).count == count


def test_counts_match_recurrence(oracle_runs):
    for n in range(2, 9):
        assert oracle_runs(n).count == count_T_recurrence(n)


def test_member_invariants(oracle_runs):
    result = oracle_runs(5)
    graph = PathGraph(5)
    for c in result.configurations:
        assert c.stacks[0] == 0
        assert all(abs(c.stacks[i + 1] - c.stacks[i]) <= 3 for i in range(4))
        once = fire_step(graph, c)
        assert once != c and fire_step(graph, once) == c
    assert result.count == len(result.configurations)


def test_members_ordered_by_difference_vector(oracle_runs):
    result = oracle_runs(5)
    diffs = [
        tuple(c.stacks[i + 1] - c.stacks[i] for i in range(4)) for c in result.configurations
    ]
    assert diffs == sorted(diffs)


def test_orientations_realized(oracle_runs):
    assert orientations_realized(oracle_runs(4)) == set(enumerate_p2_orientations(4))
    assert {o.to_string() for o in orientations_realized(oracle_runs(2))} == {"R", "L"}
    assert len(orientations_realized(oracle_runs(6))) == 14


def test_per_orientation_grouping_matches_multipliers(oracle_runs):
    for n in range(2, 9):
        grouped = Counter(
            orientation_of_stacks(c.stacks).to_string()
            for c in oracle_runs(n).configurations
        )
        for o in enumerate_p2_orientations(n):
            assert grouped[o.to_string()] == count_configs_on_orientation(o)


def test_orbit_partners_are_members(oracle_runs):
    for n in range(2, 8):
        graph = PathGraph(n)
        members = set(oracle_runs(n).configurations)
        for c in members:
            assert canonicalize(fire_step(graph, c)) in members


def test_bound_stability():
    for n in (2, 5, 7):
        assert bound_stability_check(n)


def test_parallel_matches_serial():
    serial = enumerate_p2_configurations(9, workers=1)
    parallel = enumerate_p2_configurations(9, workers=3)
    assert parallel.count == serial.count
    assert parallel.configurations == serial.configurations


def test_candidate_ceiling():
    with pytest.raises(CeilingError):
        enumerate_p2_configurations(12)
    with pytest.raises(CeilingError):
        enumerate_p2_configurations(10, diff_bound=4)
    assert enumerate_p2_configurations(9, diff_bound=4).count == count_T_recurrence(9)


def test_candidate_ceiling_env_override(monkeypatch):
    monkeypatch.setenv("PARDIFF_ORACLE_CEILING", "100")
    with pytest.raises(CeilingError):
        enumerate_p2_configurations(5)
    assert enumerate_p2_configurations(3).count == 8


@pytest.mark.parametrize("diff_bound,n_max", [(2, 10), (3, 10), (4, 9)])
def test_window_dp_equals_search(oracle_runs, diff_bound, n_max):
    for n in range(2, n_max + 1):
        assert count_p2_configurations(n, diff_bound) == oracle_runs(n, diff_bound).count
    if diff_bound == 2:
        # b = 2 undercounts T_n, so agreement there shows the DP runs the
        # same search rather than reproducing the recurrence
        assert count_p2_configurations(n_max, 2) < count_T_recurrence(n_max)


@pytest.mark.parametrize("diff_bound", [3, 4])
def test_window_dp_matches_recurrence_at_200(diff_bound):
    assert count_p2_configurations(200, diff_bound) == count_T_recurrence(200)


def test_window_dp_domain():
    with pytest.raises(DomainError):
        count_p2_configurations(1)
    with pytest.raises(DomainError):
        count_p2_configurations(5, diff_bound=0)


def test_window_dp_ceiling(monkeypatch):
    assert count_p2_configurations(11) == count_T_recurrence(11)
    with pytest.raises(CeilingError):
        count_p2_configurations(5, diff_bound=100)
    monkeypatch.setenv("PARDIFF_ORACLE_CEILING", "100")
    with pytest.raises(CeilingError):
        count_p2_configurations(5)


def test_result_export_shapes(oracle_runs):
    result = oracle_runs(3)
    full = result.to_dict()
    assert full["count"] == 8
    assert len(full["configurations"]) == 8
    slim = result.to_dict(include_configurations=False)
    assert "configurations" not in slim


def test_bridge_graph_shape():
    g = build_bridge_graph(TRIANGLE, 1, 3)
    assert g.vertex_count == 6
    assert (1, 4) in g.edges and (4, 5) in g.edges and (5, 6) in g.edges


def test_bridge_degenerate_single_vertex():
    for k in (3, 4, 5):
        got = enumerate_p2_on_bridge_graph(PathGraph(1), 1, k)
        assert got == count_T_recurrence(k + 1)


def test_bridge_degenerate_single_edge():
    for k in (2, 3, 4):
        got = enumerate_p2_on_bridge_graph(PathGraph(2), 1, k)
        assert got == count_T_recurrence(k + 2)


def _naive_bridge_count(g0, base_vertex, k, window):
    """Window the differences along the breadth-first tree, firing via the engine."""
    graph = build_bridge_graph(g0, base_vertex, k)
    adj = {v: set() for v in range(1, graph.vertex_count + 1)}
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    root = graph.vertex_count
    parent = {root: None}
    order = [root]
    dq = deque([root])
    while dq:
        u = dq.popleft()
        for w in sorted(adj[u]):
            if w not in parent:
                parent[w] = u
                order.append(w)
                dq.append(w)
    count = 0
    for diffs in product(range(-window, window + 1), repeat=len(order) - 1):
        stacks = {root: 0}
        for v, d in zip(order[1:], diffs):
            stacks[v] = stacks[parent[v]] + d
        c = Configuration(tuple(stacks[v] for v in range(1, graph.vertex_count + 1)), graph)
        once = fire_step(graph, c)
        if once != c and fire_step(graph, once) == c:
            count += 1
    return count


def test_bridge_count_matches_naive_windowing():
    # window 3 misses configurations here (the triangle admits differences of 4
    # along the tree), so the escalation to a stable window is load-bearing
    naive = {w: _naive_bridge_count(TRIANGLE, 1, 2, w) for w in (3, 4, 5)}
    assert naive[3] < naive[4] == naive[5]
    assert enumerate_p2_on_bridge_graph(TRIANGLE, 1, 2) == naive[4]


def test_bridge_requires_connected_g0():
    disconnected = SimpleGraph(vertex_count=3, edges=frozenset({(1, 2)}))
    with pytest.raises(DomainError):
        enumerate_p2_on_bridge_graph(disconnected, 1, 3)


def test_bridge_base_vertex_range():
    with pytest.raises(DomainError):
        enumerate_p2_on_bridge_graph(TRIANGLE, 4, 3)


def test_bridge_vertex_ceiling(monkeypatch):
    with pytest.raises(CeilingError):
        enumerate_p2_on_bridge_graph(TRIANGLE, 1, 10)
    monkeypatch.setenv("PARDIFF_BRIDGE_CEILING", "12")
    with pytest.raises(CeilingError):
        enumerate_p2_on_bridge_graph(TRIANGLE, 1, 10)


def test_bridge_escalation_budget(monkeypatch):
    monkeypatch.setattr(oracle, "_MAX_ESCALATIONS", 0)
    with pytest.raises(WindowNotStabilizedError):
        enumerate_p2_on_bridge_graph(TRIANGLE, 1, 2)


def test_oracle_rejects_tiny_n():
    with pytest.raises(ValueError):
        enumerate_p2_configurations(1)
