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
its window. Each tree edge uv gets deg(u) + deg(v) - 1, which every
configuration with fire^2 = id obeys (see _bfs_plan), so one search is
complete; on a path that window is further capped by the caller's bound b.

On paths, counts come from the automaton in pardiff.pathcount; this search
produces the configuration lists, as plain stack tuples in vertex order,
and certifies that automaton at small n.
"""

import math
from collections import deque
from operator import itemgetter

from pardiff.errors import CeilingError, DomainError, _bridge_ceiling, _candidate_ceiling
from pardiff.graphs import Graph, PathGraph, SimpleGraph, frozen_edges
from pardiff.records import Record


class OracleResult(Record):
    """Every canonical 2-periodic configuration found within the difference
    bound, each as its stack tuple."""

    __slots__ = _fields = ("n", "diff_bound", "configurations", "count")

    def __init__(self, n: int, diff_bound: int, configurations: tuple[tuple[int, ...], ...], count: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "diff_bound", diff_bound)
        object.__setattr__(self, "configurations", configurations)
        object.__setattr__(self, "count", count)


def _bfs_plan(graph: Graph, root: int | None, cap: int | None = None):
    """BFS order plus per-prefix-length firing and checking schedules, and
    the window of each tree edge: its proven difference bound, capped at
    ``cap`` unless that is None.

    The BFS starts at 0-based vertex ``root``, or at a vertex of maximum
    degree, the lowest-numbered on ties, if ``root`` is None.

    Everything is remapped into BFS-position space. ready1[p] is the prefix
    length at which the one-step value of the vertex at position p is fixed;
    ready2[p] the length at which its two-step value can be tested.
    bounds[p], for p >= 1, is deg(u) + deg(v) - 1 for the tree edge uv that
    reaches position p (bounds[0] = 0). In a configuration with fire^2 = id,
    one firing reverses the sign of every edge's difference and keeps a flat
    edge flat (README, "conjecture"); a firing moves s_u - s_v by at most
    deg(u) + deg(v), so |s_u - s_v| <= deg(u) + deg(v) - 1. A cap replaces
    each bound b by min(cap, b), so ``bounds`` is exactly the window that
    _window_search walks.
    """
    V = graph.vertex_count
    adj0 = [[] for _ in range(V)]
    for u, w in frozen_edges(graph):  # sorted pairs, so each list comes out sorted
        adj0[u].append(w)
        adj0[w].append(u)
    if root is None:
        root = max(range(V), key=lambda v: len(adj0[v]))  # max keeps the first maximum
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
    if cap is not None:
        bounds = [min(cap, b) for b in bounds]
    return order, parent_pos, fires_at, checks_at, bounds


def _window_search(plan, collect):
    """Count (and optionally collect) 2-periodic configurations with the root
    of ``plan``, a _bfs_plan, pinned at zero and the stack difference along
    the tree edge into each BFS position p >= 1 within the plan's bound.

    Differences are tried in increasing order, position 1 first, so the
    configurations come out ordered by their BFS difference vector.
    """
    order, parent_pos, fires_at, checks_at, bounds = plan
    V = len(order)
    if V == 1:
        return 0, []
    stacks = [0] * V
    f1 = [0] * V
    out: list[tuple[int, ...]] = []
    at = [0] * V  # at[v] is the BFS position of vertex v
    for p, v in enumerate(order):
        at[v] = p
    in_vertex_order = itemgetter(*at)  # V >= 2, so it returns a tuple

    # pending[p] is the next difference position p tries; backtracking past
    # position 1 ends the search.
    pending = [-b for b in bounds]
    last = V - 1
    count = 0
    p = 1
    while True:
        d = pending[p]
        hi = bounds[p]
        if d > hi:
            pending[p] = -hi
            p -= 1
            if p == 0:
                break
            continue
        pending[p] = d + 1
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
                        out.append(in_vertex_order(stacks))
            else:
                p += 1
    return count, out


def enumerate_p2_configurations(
    n: int, diff_bound: int = 3, workers: int | None = None
) -> OracleResult:
    """All 2-periodic configurations on the n-path with v_1 = 0 and adjacent
    stack differences within diff_bound, ordered by difference vector.

    This search materializes the list and certifies
    pathcount.count_p2_configurations at small n; counts alone should come
    from there. Each edge uv is searched within min(diff_bound, deg(u) +
    deg(v) - 1), at most 2 on a leaf edge. No configuration lies outside
    deg(u) + deg(v) - 1 (the edge-reversal lemma, _bfs_plan), so this lists
    exactly what the plain window of diff_bound would, in the same order.
    The candidate ceiling counts that capped window: the product of 2b + 1
    over the plan's bounds b.
    ``workers`` is accepted and ignored. No program caller sets it; it stays
    for perfbench/run.py::pool_probe, whose branch without ``workers`` would
    compare this function's OracleResult with an int and record a failed
    operation in every traced run.
    """
    if n < 2:
        raise DomainError("the oracle needs n >= 2")
    if diff_bound < 1:
        raise DomainError("diff_bound must be positive")
    ceiling = _candidate_ceiling()
    # Every edge tries at least 3 differences, so a path too long even for
    # that is refused before its plan, which grows with n, is built (3^k
    # exceeds the ceiling once k reaches its bit length).
    if 3 ** min(n - 1, ceiling.bit_length()) > ceiling:
        raise CeilingError(f"at least 3^{n - 1} raw candidates exceed the oracle ceiling {ceiling}")
    plan = _bfs_plan(PathGraph(n), 0, diff_bound)
    candidates = math.prod([2 * b + 1 for b in plan[-1]])
    if candidates > ceiling:
        raise CeilingError(f"{candidates} raw candidates in the capped window exceed the oracle ceiling {ceiling}")
    count, found = _window_search(plan, True)
    return OracleResult(n=n, diff_bound=diff_bound, configurations=tuple(found), count=count)


def build_bridge_graph(g0: Graph, base_vertex: int, k: int) -> SimpleGraph:
    """Attach a k-vertex path to base_vertex of g0 through a bridge edge,
    after every check a bridge search makes.

    In order: g0 is connected, the ceiling variable parses, the base vertex
    and k are in range, and the vertex count is within the ceiling. Every
    check runs before the edge set, which grows with k, is built. The
    attachment vertices are numbered m+1..m+k beyond g0's m vertices, with
    m+1 on the bridge and m+k the far-end leaf.
    """
    _bfs_plan(g0, 0)  # raises DomainError if g0 is not connected
    ceiling = _bridge_ceiling()
    m = g0.vertex_count
    if not 1 <= base_vertex <= m:
        raise DomainError(f"base vertex {base_vertex} outside [1, {m}]")
    if k < 1:
        raise DomainError("path length k must be >= 1")
    if m + k > ceiling:
        raise CeilingError(f"{m + k} vertices exceed the bridge-oracle ceiling {ceiling}")
    edges = set(g0.edges)
    edges.add((base_vertex, m + 1))
    for i in range(1, k):
        edges.add((m + i, m + i + 1))
    return SimpleGraph(vertex_count=m + k, edges=frozenset(edges))


def enumerate_p2_on_bridge_graph(g0: Graph, base_vertex: int, k: int, diff_bound: int = 3) -> int:
    """Count of 2-periodic configurations on g0 plus a bridged path.

    A vertex of maximum degree (the lowest-numbered on ties) is pinned at
    zero, and the difference along each edge uv of a breadth-first spanning
    tree ranges over its proven bound deg(u) + deg(v) - 1 (_bfs_plan), so one
    search finds every configuration. The pinned vertex changes no count:
    firing commutes with adding a constant to every stack, so each
    configuration has exactly one shift with that vertex at zero. Rooting at
    the widest vertex fixes the widest windows while few prefixes exist,
    which prunes early.
    ``diff_bound`` is accepted and ignored. No program caller passes it; it
    stays for perfbench/run.py::pool_probe, which passes it and would stop
    every traced run with a TypeError without it.
    """
    graph = build_bridge_graph(g0, base_vertex, k)
    return _window_search(_bfs_plan(graph, None), False)[0]
