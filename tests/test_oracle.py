"""Brute-force oracle: pruning soundness, theory cross-checks, bridge graphs."""

from collections import deque
from itertools import product

import pytest

from pardiff import oracle, pathcount
from pardiff.counting import count_T_recurrence
from pardiff.engine import fire_each
from pardiff.errors import CeilingError, DomainError
from pardiff.graphs import PathGraph, SimpleGraph
from pardiff.oracle import (
    build_bridge_graph,
    enumerate_p2_configurations,
    enumerate_p2_on_bridge_graph,
)
from pardiff.pathcount import count_p2_configurations, count_p2_sequence

from conftest import naive_p2_path

TRIANGLE = SimpleGraph.from_edge_list([(1, 2), (2, 3), (1, 3)])
STAR4 = SimpleGraph.from_edge_list([(1, 2), (1, 3), (1, 4)])
C5_PENDANT = SimpleGraph.from_edge_list([(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 6)])
K4 = SimpleGraph.from_edge_list([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])


def test_pruned_search_equals_full_iteration():
    for n in range(2, 7):
        naive = naive_p2_path(n)
        pruned = list(enumerate_p2_configurations(n).configurations)
        assert sorted(pruned) == sorted(naive)
        assert len(pruned) == len(set(pruned))


def test_two_vertex_members():
    result = enumerate_p2_configurations(2)
    assert result.count == 2
    assert set(result.configurations) == {(0, 1), (0, -1)}


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
        assert c[0] == 0
        assert all(abs(c[i + 1] - c[i]) <= 3 for i in range(4))
        (once,) = fire_each(graph, (c,))
        assert once != c and fire_each(graph, (once,)) == [c]
    assert result.count == len(result.configurations)


def test_members_ordered_by_difference_vector(oracle_runs):
    result = oracle_runs(5)
    diffs = [
        tuple(c[i + 1] - c[i] for i in range(4)) for c in result.configurations
    ]
    assert diffs == sorted(diffs)


@pytest.mark.parametrize("diff_bound", [1, 2, 3, 4])
def test_capped_windows_list_what_the_plain_window_lists(diff_bound, monkeypatch):
    # capping each edge at its proven bound (2 on a leaf edge) drops no
    # configuration and keeps the order, whatever diff_bound is
    listed = {n: enumerate_p2_configurations(n, diff_bound).configurations for n in range(2, 9)}
    # the plain window: the same search with every proven bound replaced by diff_bound
    real_plan = oracle._bfs_plan

    def plain_plan(graph, root, cap=None):
        return (*real_plan(graph, root, cap)[:-1], [diff_bound] * graph.vertex_count)

    monkeypatch.setattr(oracle, "_bfs_plan", plain_plan)
    for n, configurations in listed.items():
        plain = oracle._window_search(oracle._bfs_plan(PathGraph(n), 0, diff_bound), True)[1]
        assert list(configurations) == plain, n


@pytest.mark.parametrize("diff_bound", [2, 3, 4])
def test_count_sequence_matches_single_counts(diff_bound):
    sequence = count_p2_sequence(60, diff_bound)
    assert sequence == [count_p2_configurations(n, diff_bound) for n in range(2, 61)]


def test_search_off_a_path_lists_vertex_ordered_two_periods():
    # the search runs in breadth-first positions; each configuration it lists,
    # mapped back to vertex order, must fire to another one and back
    graph = build_bridge_graph(TRIANGLE, 1, 4)
    count, found = oracle._window_search(oracle._bfs_plan(graph, 6), True)
    assert count == len(found) == len(set(found)) > 0
    once = fire_each(graph, found)
    for stacks, fired, twice in zip(found, once, fire_each(graph, once)):
        assert stacks[6] == 0 and fired != stacks and twice == stacks, stacks


def test_candidate_ceiling():
    with pytest.raises(CeilingError):
        enumerate_p2_configurations(12)
    # the ceiling counts the window searched, each edge capped at its proven
    # bound: 5^2 7^9 > 7^10 at n = 12, whatever b >= 3 is
    with pytest.raises(CeilingError):
        enumerate_p2_configurations(12, diff_bound=4)
    assert enumerate_p2_configurations(9, diff_bound=4).count == count_T_recurrence(9)
    # no edge of a path is searched past 3, so b = 4 lists the b = 3 list
    wide = enumerate_p2_configurations(10, diff_bound=4).configurations
    assert wide == enumerate_p2_configurations(10, diff_bound=3).configurations


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
        # b = 2 undercounts T_n, so agreement there shows the automaton counts the
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


# Every difference the b = 3 and b = 4 automata hand the rule, before or after
# one firing, lies in -8..8: a firing changes a difference by at most 4.
ONE_FIRING_KEYS = [(before, after) for before in (*range(-8, 9), None) for after in (*range(-8, 9), None)]


def test_one_firing_rule_matches_the_engine():
    # the reference fires the sub-path v_{i-1}..v_{i+1}, which holds every
    # neighbour of v_i, through engine.fire_each
    for before, after in ONE_FIRING_KEYS:
        stacks = ([] if before is None else [-before]) + [0] + ([] if after is None else [after])
        fired = fire_each(PathGraph(len(stacks)), (tuple(stacks),))[0]
        assert pathcount._one_firing(before, after) == fired[before is not None], (before, after)


@pytest.mark.parametrize("diff_bound", [3, 4])
def test_path_automaton_reads_the_rule_only_where_the_engine_pins_it(monkeypatch, diff_bound):
    read = set()
    real = pathcount._one_firing

    def recorded(before, after):
        read.add((before, after))
        return real(before, after)

    monkeypatch.setattr(pathcount, "_one_firing", recorded)
    assert count_p2_sequence(12, diff_bound) == [count_T_recurrence(n) for n in range(2, 13)]
    assert read and read <= set(ONE_FIRING_KEYS)


@pytest.mark.parametrize("diff_bound", [1, 2, 3, 4, 5])
def test_path_automaton_arcs_follow_the_window_verdicts(diff_bound):
    # the reference reads each arc and final weight off _window_verdict on
    # the whole window, working out nothing once per state; a target keeps
    # only the sign of its oldest difference, 0 where that is missing
    automaton = pathcount._path_automaton(diff_bound)
    automaton._explore()
    verdict = pathcount._window_verdict
    for state, arcs, final in zip(automaton.states, automaton.arcs, automaton.final):
        tail, moved = state
        b, c = tail[1:]
        oldest = 0 if b is None else (b > 0) - (b < 0)
        want = []
        for d in range(-diff_bound, diff_bound + 1):
            stays, moves = verdict((*tail, d))
            if stays:
                want.append(("R" if d > 0 else "L" if d < 0 else "F", ((oldest, c, d), moved or moves), 1))
        assert [(letter, automaton.states[t], w) for letter, t, w in arcs] == want, state
        last_stays, last_moves = verdict((*tail, None))
        end_stays, end_moves = verdict((*tail[1:], None, None))
        assert final == int(last_stays and end_stays and (moved or last_moves or end_moves)), state


def test_bridge_graph_shape():
    g = build_bridge_graph(TRIANGLE, 1, 3)
    assert g.vertex_count == 6
    assert (1, 4) in g.edges and (4, 5) in g.edges and (5, 6) in g.edges


@pytest.mark.parametrize(
    "g0,base_vertex,k,error",
    [
        (SimpleGraph.from_edge_list([(1, 2), (3, 4)]), 1, 3, DomainError),
        (TRIANGLE, 4, 3, DomainError),
        (TRIANGLE, 1, 10, CeilingError),
    ],
    ids=["disconnected", "base-vertex-4", "ceiling"],
)
def test_bridge_graph_checks_before_building(monkeypatch, g0, base_vertex, k, error):
    # the one constructor makes every check a bridge search makes, and all of
    # them before the graph, whose edge set grows with k, is built
    monkeypatch.setattr(oracle, "SimpleGraph", _no_build)
    with pytest.raises(error):
        build_bridge_graph(g0, base_vertex, k)


def test_path_search_plans_once(monkeypatch):
    # the candidate ceiling and the search read one plan
    plans = []
    real = oracle._bfs_plan

    def counted(*args, **kwargs):
        plans.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "_bfs_plan", counted)
    assert enumerate_p2_configurations(8).count == count_T_recurrence(8)
    assert len(plans) == 1


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
    for first in range(-window, window + 1):  # one batch of candidates per first difference
        batch = []
        for rest in product(range(-window, window + 1), repeat=len(order) - 2):
            stacks = {root: 0}
            for v, d in zip(order[1:], (first, *rest)):
                stacks[v] = stacks[parent[v]] + d
            batch.append(tuple(stacks[v] for v in range(1, graph.vertex_count + 1)))
        once = fire_each(graph, batch)
        count += sum(a != b and c == a for a, b, c in zip(batch, once, fire_each(graph, once)))
    return count


def test_bridge_count_matches_naive_windowing():
    # the proven bound of the bridge here is 4, and some configurations use
    # it, so a uniform window of 3 undercounts while the proven one does not
    naive = {w: _naive_bridge_count(TRIANGLE, 1, 2, w) for w in (3, 4, 5)}
    assert naive[3] < naive[4] == naive[5]
    assert enumerate_p2_on_bridge_graph(TRIANGLE, 1, 2) == naive[4]


def _proven_bounds(g0, k):
    graph = build_bridge_graph(g0, 1, k)
    root0 = graph.vertex_count - 1
    plan = oracle._bfs_plan(graph, root0)
    order, parent_pos, _, _, bounds = plan
    return graph, plan, order, parent_pos, bounds


@pytest.mark.parametrize(
    "g0,k,short",
    [(TRIANGLE, 3, {(1, 2), (1, 3)}), (STAR4, 2, set())],
    ids=["triangle-k3", "star4-centre-k2"],
)
def test_bridge_bounds_are_reached(g0, k, short):
    # some configuration meets the bound of every tree edge on the path, the
    # bridge and the star, so a smaller bound there would undercount; the
    # triangle's own edges stop one short of theirs
    graph, plan, order, parent_pos, bounds = _proven_bounds(g0, k)
    _, found = oracle._window_search(plan, True)
    for p in range(1, graph.vertex_count):
        u, v = order[p], order[parent_pos[p]]
        edge = (min(u, v) + 1, max(u, v) + 1)
        assert max(abs(s[u] - s[v]) for s in found) == bounds[p] - (edge in short), edge


@pytest.mark.parametrize("g0,k", [(TRIANGLE, 3), (STAR4, 2)], ids=["triangle-k3", "star4-centre-k2"])
def test_bridge_count_matches_naive_window_past_the_bounds(g0, k):
    # a uniform window one wider than the largest bound finds nothing more
    widest = max(_proven_bounds(g0, k)[-1])
    assert enumerate_p2_on_bridge_graph(g0, 1, k) == _naive_bridge_count(g0, 1, k, widest + 1)


@pytest.mark.parametrize(
    "g0,base_vertex,k",
    [(TRIANGLE, 1, 2), (STAR4, 2, 1), (C5_PENDANT, 6, 1), (K4, 1, 1)],
    ids=["triangle-k2", "star4-leaf-k1", "c5-pendant-k1", "k4-k1"],
)
def test_bridge_count_is_the_same_from_every_root(g0, base_vertex, k):
    # adding a constant to every stack commutes with firing, so the vertex
    # pinned at zero changes no count
    graph = build_bridge_graph(g0, base_vertex, k)
    got = enumerate_p2_on_bridge_graph(g0, base_vertex, k)
    for root0 in range(graph.vertex_count):
        assert oracle._window_search(oracle._bfs_plan(graph, root0), False)[0] == got, root0


def test_bridge_requires_connected_g0(monkeypatch):
    disconnected = SimpleGraph(vertex_count=3, edges=frozenset({(1, 2)}))
    with pytest.raises(DomainError):
        enumerate_p2_on_bridge_graph(disconnected, 1, 3)
    two_edges = SimpleGraph.from_edge_list([(1, 2), (3, 4)])
    with pytest.raises(DomainError, match="^graph is not connected$"):
        enumerate_p2_on_bridge_graph(two_edges, 1, 3)
    # connectivity is checked before the vertex ceiling, and before any search
    monkeypatch.setenv("PARDIFF_BRIDGE_CEILING", "1")
    monkeypatch.setattr(oracle, "_window_search", _no_search)
    with pytest.raises(DomainError, match="^graph is not connected$"):
        enumerate_p2_on_bridge_graph(two_edges, 1, 3)


def test_bridge_base_vertex_range():
    with pytest.raises(DomainError):
        enumerate_p2_on_bridge_graph(TRIANGLE, 4, 3)


def _no_search(*args, **kwargs):
    raise AssertionError("a search ran")


def _no_build(*args, **kwargs):
    raise AssertionError("a graph was built")


def test_bridge_vertex_ceiling(monkeypatch):
    with pytest.raises(CeilingError):
        enumerate_p2_on_bridge_graph(TRIANGLE, 1, 10)
    monkeypatch.setenv("PARDIFF_BRIDGE_CEILING", "12")
    with pytest.raises(CeilingError):
        enumerate_p2_on_bridge_graph(TRIANGLE, 1, 10)


def test_oracle_rejects_tiny_n():
    with pytest.raises(ValueError):
        enumerate_p2_configurations(1)
