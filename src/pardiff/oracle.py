"""Brute-force ground truth for 2-periodic configuration counts.

Nothing here uses the orientation or multiplier theory; membership is decided
by firing alone (two firings must reproduce the configuration exactly, one
firing must not). Configurations are generated from the pinned root outward
as bounded stack differences along a breadth-first spanning tree.

The search prunes: once every vertex within distance two of v has a stack,
the second-firing value at v is fixed, so a prefix that already breaks
periodicity at v is abandoned. That check is a direct consequence of the
firing rule, which only reads a radius-two neighbourhood, so the pruned walk
visits exactly the survivors of the full iteration over every difference in
its window. On a path the window is a uniform bound b; off the path each tree
edge uv gets deg(u) + deg(v) - 1, which every configuration with fire^2 = id
obeys (see _bfs_plan), so one search there is complete.

On paths the same locality lets one weighted automaton over the signs of
the differences, built from the firing of windows of four differences,
count every length (count_p2_sequence), linear in n. The search stays as
the producer of configuration lists and the automaton's small-n certificate.
"""

from __future__ import annotations

import math
import os
from collections import deque

from pardiff.errors import CeilingError, DomainError, _bridge_ceiling, _candidate_ceiling
from pardiff.graphs import (
    Configuration,
    Graph,
    PathGraph,
    Record,
    SimpleGraph,
    frozen_edges,
)
from pardiff.engine import fire_step, orientation_of_stacks
from pardiff.transfer import Automaton

# Raw candidates, the product of 2b+1 over the searched positions, from which
# a search is split over a process pool: below it, starting the workers costs
# about what they save.
_POOL_THRESHOLD = 10**6


class OracleResult(Record):
    """Every canonical 2-periodic configuration found within the difference bound."""

    __slots__ = _fields = ("n", "diff_bound", "configurations", "count")

    def __init__(self, n: int, diff_bound: int, configurations: tuple[Configuration, ...], count: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "diff_bound", diff_bound)
        object.__setattr__(self, "configurations", configurations)
        object.__setattr__(self, "count", count)


def _bfs_plan(graph: Graph, root: int):
    """BFS order plus per-prefix-length firing and checking schedules, and
    the proven difference bound of each tree edge.

    Everything is remapped into BFS-position space. ready1[p] is the prefix
    length at which the one-step value of the vertex at position p is fixed;
    ready2[p] the length at which its two-step value can be tested.
    bounds[p], for p >= 1, is deg(u) + deg(v) - 1 for the tree edge uv that
    reaches position p (bounds[0] = 0). In a configuration with fire^2 = id,
    one firing reverses the sign of every edge's difference and keeps a flat
    edge flat (README, "conjecture"); a firing moves s_u - s_v by at most
    deg(u) + deg(v), so |s_u - s_v| <= deg(u) + deg(v) - 1.
    """
    V = graph.vertex_count
    adj0 = [[] for _ in range(V)]
    for u, w in frozen_edges(graph):  # sorted pairs, so each list comes out sorted
        adj0[u].append(w)
        adj0[w].append(u)
    pos = [-1] * V
    order = [root]
    parent_pos = [0] * V
    pos[root] = 0
    dq = deque([root])
    while dq:
        u = dq.popleft()
        for w in adj0[u]:
            if pos[w] < 0:
                pos[w] = len(order)
                parent_pos[pos[w]] = pos[u]
                order.append(w)
                dq.append(w)
    if len(order) != V:
        raise DomainError("graph is not connected")
    adj_pos = [tuple(sorted(pos[w] for w in adj0[order[p]])) for p in range(V)]
    ready1 = [max(p, *adj_pos[p]) if adj_pos[p] else p for p in range(V)]
    ready2 = [max(ready1[p], *(ready1[q] for q in adj_pos[p])) if adj_pos[p] else p for p in range(V)]
    fires_at = [[] for _ in range(V)]
    checks_at = [[] for _ in range(V)]
    for p in range(V):
        fires_at[ready1[p]].append((p, adj_pos[p]))
        checks_at[ready2[p]].append((p, adj_pos[p]))
    fires_at = [tuple(row) for row in fires_at]
    checks_at = [tuple(row) for row in checks_at]
    bounds = [0] + [len(adj_pos[p]) + len(adj_pos[parent_pos[p]]) - 1 for p in range(1, V)]
    return order, parent_pos, fires_at, checks_at, bounds


def _window_search(graph, root0, bounds, collect, prefix=()):
    """Count (and optionally collect) 2-periodic configurations with the root
    pinned at zero and the stack difference along the tree edge into each BFS
    position p >= 1 in [-bounds[p], bounds[p]].

    ``prefix`` fixes the differences of the first BFS positions, each within
    its bound, which is how the search space is split across worker
    processes.
    """
    order, parent_pos, fires_at, checks_at, _ = _bfs_plan(graph, root0)
    V = graph.vertex_count
    if V == 1:
        return 0, []
    stacks = [0] * V
    f1 = [0] * V
    out: list[tuple[int, ...]] = []
    at = [0] * V  # at[v] is the BFS position of vertex v
    for p, v in enumerate(order):
        at[v] = p

    # Position p takes its difference from the prefix below floor, and tries
    # -bounds[p]..bounds[p] from floor on; leaving a prefix position, by
    # backtracking to it or by failing its check, ends the search.
    floor = len(prefix) + 1
    pending = [-b for b in bounds]
    pending[1:floor] = prefix
    last = V - 1
    count = 0
    p = 1
    while True:
        d = pending[p]
        hi = bounds[p]
        if d > hi:
            pending[p] = -hi
            p -= 1
            if p < floor:
                break
            continue
        pending[p] = d + 1 if p >= floor else hi + 1
        stacks[p] = stacks[parent_pos[p]] + d
        # Fix the one-step values that position p completes, then test the
        # two-step value of every position it completes.
        for u, nbrs in fires_at[p]:
            su = stacks[u]
            f = su
            for w in nbrs:
                sw = stacks[w]
                if sw > su:
                    f += 1
                elif sw < su:
                    f -= 1
            f1[u] = f
        for x, nbrs in checks_at[p]:
            fx = f1[x]
            g = fx
            for w in nbrs:
                fw = f1[w]
                if fw > fx:
                    g += 1
                elif fw < fx:
                    g -= 1
            if g != stacks[x]:
                break
        else:
            if p == last:
                if f1 != stacks:  # fire^2 is the identity here; keep only genuine 2-periods
                    count += 1
                    if collect:
                        out.append(tuple([stacks[q] for q in at]))
            else:
                p += 1
    return count, out


def _search_task(args):
    return _window_search(*args)


def _run_search(graph: Graph, root0: int, bounds, collect: bool, workers: int | None):
    """_window_search, split by first difference over ``workers`` processes
    (every core when None) once the raw candidates reach _POOL_THRESHOLD."""
    if workers is None:
        workers = os.cpu_count() or 1
    V = graph.vertex_count
    if workers <= 1 or V < 3 or math.prod(2 * b + 1 for b in bounds[1:]) < _POOL_THRESHOLD:
        return _window_search(graph, root0, bounds, collect)
    from concurrent.futures import ProcessPoolExecutor

    tasks = [(graph, root0, bounds, collect, (d,)) for d in range(-bounds[1], bounds[1] + 1)]
    count = 0
    configs: list[tuple[int, ...]] = []
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        for c, cfgs in pool.map(_search_task, tasks):
            count += c
            if collect:
                configs.extend(cfgs)
    return count, configs


class _OneFiring(dict):
    """Memo from (d_{i-1}, d_i) to the change one firing makes to v_i, where
    d_{i-1} = s_i - s_{i-1}, d_i = s_{i+1} - s_i and None stands for a
    missing neighbour. Each entry is read off engine.fire_step on the
    sub-path v_{i-1}..v_{i+1}, which holds every neighbour of v_i.
    """

    def __missing__(self, key: tuple) -> int:
        before, after = key
        stacks = [0]
        if before is not None:
            stacks.insert(0, -before)
        if after is not None:
            stacks.append(after)
        graph = PathGraph(len(stacks))
        fired = fire_step(graph, Configuration(tuple(stacks), graph))
        self[key] = change = fired.stacks[before is not None]
        return change


# Read by every _path_automaton build: it holds nothing but the firing rule's answers.
_ONE_FIRING = _OneFiring()


def _window_verdict(window: tuple, one_firing: _OneFiring) -> tuple[bool, bool]:
    """(two firings restore the centre, one firing moves it) on a path window.

    ``window`` is (d_{i-2}, d_{i-1}, d_i, d_{i+1}) around the centre v_i, with
    None where the path ends. One firing moves v_{i-1}, v_i and v_{i+1} by
    the changes their own differences give; the second firing at v_i then
    reads the differences between those new stacks.
    """
    a, b, c, e = window
    mid = one_firing[b, c]
    before = None if b is None else b + mid - one_firing[a, b]
    after = None if c is None else c + one_firing[c, e] - mid
    return mid + one_firing[before, after] == 0, mid != 0


def _path_automaton(diff_bound: int) -> Automaton:
    """Weighs each orientation by how many configurations
    enumerate_p2_configurations(n, diff_bound) lists with it, at every n.

    A state is the last three differences, None-padded at the front, and
    whether a settled vertex moves under one firing. Appending d reads its
    sign (R for d > 0, as in orientation_of_stacks) and settles the vertex two
    back, which must pass fire^2 = id (the first append's window holds none).
    The final weight settles the last two: 1 if both pass and a vertex moves.
    """
    diffs = range(-diff_bound, diff_bound + 1)
    one_firing = _ONE_FIRING

    def arcs_of(state):
        tail, moved = state
        for d in diffs:
            stays, moves = _window_verdict((*tail, d), one_firing)
            if stays:
                yield "R" if d > 0 else "L" if d < 0 else "F", ((*tail[1:], d), moved or moves), 1

    def final_of(state):
        tail, moved = state
        last_stays, last_moves = _window_verdict((*tail, None), one_firing)
        end_stays, end_moves = _window_verdict((*tail[1:], None, None), one_firing)
        return int(last_stays and end_stays and (moved or last_moves or end_moves))

    return Automaton(((None, None, None), False), arcs_of, final_of)


def count_p2_sequence(n: int, diff_bound: int = 3) -> list[int]:
    """How many configurations enumerate_p2_configurations(m, diff_bound) lists,
    for every m = 2..n (entry m - 2): the totals of _path_automaton, with no
    search. Work is at most (n-1)(2b+1)^4 window steps, held to the oracle
    ceiling.
    """
    if n < 2:
        raise DomainError("the oracle needs n >= 2")
    if diff_bound < 1:
        raise DomainError("diff_bound must be positive")
    ceiling = _candidate_ceiling()
    work = (n - 1) * (2 * diff_bound + 1) ** 4
    if work > ceiling:
        raise CeilingError(f"{work} window steps exceed the oracle ceiling {ceiling}")
    return list(_path_automaton(diff_bound).totals(n - 1))[1:]  # from n = 2 on


def count_p2_configurations(n: int, diff_bound: int = 3) -> int:
    """How many configurations enumerate_p2_configurations(n, diff_bound) lists:
    the last entry of count_p2_sequence(n, diff_bound)."""
    return count_p2_sequence(n, diff_bound)[-1]


def enumerate_p2_configurations(
    n: int, diff_bound: int = 3, workers: int | None = None
) -> OracleResult:
    """All 2-periodic configurations on the n-path with v_1 = 0 and adjacent
    stack differences within diff_bound, ordered by difference vector.

    This search materializes the list and certifies count_p2_configurations
    at small n; counts alone should come from there. ``workers`` defaults
    to every core and matters only from _POOL_THRESHOLD raw candidates on.
    No program caller sets it; it stays for perfbench/run.py's pool_probe,
    which times this function at workers = 1 and 2 and, if the parameter
    is missing, records a failed operation in every traced run.
    """
    if n < 2:
        raise DomainError("the oracle needs n >= 2")
    if diff_bound < 1:
        raise DomainError("diff_bound must be positive")
    ceiling = _candidate_ceiling()
    candidates = (2 * diff_bound + 1) ** (n - 1)
    if candidates > ceiling:
        raise CeilingError(
            f"{candidates} raw candidates exceed the oracle ceiling {ceiling}"
        )
    graph = PathGraph(n)
    count, raw = _run_search(graph, 0, [diff_bound] * n, collect=True, workers=workers)
    configs = tuple(Configuration(s, graph) for s in raw)
    return OracleResult(n=n, diff_bound=diff_bound, configurations=configs, count=count)


def orientations_realized(result: OracleResult) -> set[str]:
    """Distinct orientations induced by the oracle's configurations."""
    return {orientation_of_stacks(c.stacks) for c in result.configurations}


def build_bridge_graph(g0: Graph, base_vertex: int, k: int) -> SimpleGraph:
    """Attach a k-vertex path to base_vertex of g0 through a bridge edge.

    The attachment vertices are numbered m+1..m+k beyond g0's m vertices,
    with m+1 on the bridge and m+k the far-end leaf.
    """
    m = g0.vertex_count
    if not 1 <= base_vertex <= m:
        raise DomainError(f"base vertex {base_vertex} outside [1, {m}]")
    if k < 1:
        raise DomainError("path length k must be >= 1")
    edges = set(g0.edges)
    edges.add((base_vertex, m + 1))
    for i in range(1, k):
        edges.add((m + i, m + i + 1))
    return SimpleGraph(vertex_count=m + k, edges=frozenset(edges))


def checked_bridge_graph(g0: Graph, base_vertex: int, k: int) -> SimpleGraph:
    """The bridge graph of build_bridge_graph, after every check a bridge search makes.

    In order: g0's connectivity, the base vertex and k, and the vertex
    ceiling. Callers run it before any search starts.
    """
    _bfs_plan(g0, 0)  # raises DomainError if g0 is not connected
    ceiling = _bridge_ceiling()
    graph = build_bridge_graph(g0, base_vertex, k)
    if graph.vertex_count > ceiling:
        raise CeilingError(
            f"{graph.vertex_count} vertices exceed the bridge-oracle ceiling {ceiling}"
        )
    return graph


def enumerate_p2_on_bridge_graph(
    g0: Graph,
    base_vertex: int,
    k: int,
    diff_bound: int = 3,
    workers: int | None = None,
) -> int:
    """Count of 2-periodic configurations on g0 plus a bridged path.

    The far-end path leaf is pinned at zero, and the difference along each
    edge uv of a breadth-first spanning tree ranges over its proven bound
    deg(u) + deg(v) - 1 (_bfs_plan), so one search finds every configuration.
    ``diff_bound`` is ignored, and ``workers`` is as in
    enumerate_p2_configurations. No program caller passes either; both stay
    for perfbench/run.py's pool_probe, which passes them and would stop
    every traced run with a TypeError without them.
    """
    graph = checked_bridge_graph(g0, base_vertex, k)
    root0 = graph.vertex_count - 1  # far-end leaf, 0-based
    bounds = _bfs_plan(graph, root0)[-1]
    return _run_search(graph, root0, bounds, collect=False, workers=workers)[0]
