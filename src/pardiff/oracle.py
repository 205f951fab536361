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


def _bfs_plan(graph: Graph, root: int | None):
    """BFS order plus per-prefix-length firing and checking schedules, and
    the proven difference bound of each tree edge.

    The BFS starts at 0-based vertex ``root``, or at a vertex of maximum
    degree, the lowest-numbered on ties, if ``root`` is None.

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
    return order, parent_pos, fires_at, checks_at, bounds


def _window_search(graph, root0, collect, cap=None):
    """Count (and optionally collect) 2-periodic configurations with the root
    (as _bfs_plan picks it from ``root0``) pinned at zero and the stack
    difference along the tree edge into each BFS position p >= 1 within its
    proven bound, itself capped at ``cap`` unless that is None.

    Differences are tried in increasing order, position 1 first, so the
    configurations come out ordered by their BFS difference vector.
    """
    order, parent_pos, fires_at, checks_at, bounds = _bfs_plan(graph, root0)
    if cap is not None:
        bounds = [min(cap, b) for b in bounds]
    V = graph.vertex_count
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
    The candidate ceiling counts that capped window: the product of
    2 min(diff_bound, bound) + 1 over the edges.
    ``workers`` is accepted and ignored. No program caller sets it; it stays
    for perfbench/run.py's pool_probe, which times this function at
    workers = 1 and 2 and, if the parameter is missing, records a failed
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
    bounds = _bfs_plan(PathGraph(n), 0)[-1][1:]
    candidates = math.prod([2 * min(diff_bound, b) + 1 for b in bounds])
    if candidates > ceiling:
        raise CeilingError(f"{candidates} raw candidates in the capped window exceed the oracle ceiling {ceiling}")
    count, found = _window_search(PathGraph(n), 0, True, diff_bound)
    return OracleResult(n=n, diff_bound=diff_bound, configurations=tuple(found), count=count)


def _check_bridge_domain(g0: Graph, base_vertex: int, k: int):
    """Raise DomainError unless base_vertex is a vertex of g0 and k >= 1."""
    m = g0.vertex_count
    if not 1 <= base_vertex <= m:
        raise DomainError(f"base vertex {base_vertex} outside [1, {m}]")
    if k < 1:
        raise DomainError("path length k must be >= 1")


def build_bridge_graph(g0: Graph, base_vertex: int, k: int) -> SimpleGraph:
    """Attach a k-vertex path to base_vertex of g0 through a bridge edge.

    The attachment vertices are numbered m+1..m+k beyond g0's m vertices,
    with m+1 on the bridge and m+k the far-end leaf.
    """
    _check_bridge_domain(g0, base_vertex, k)
    m = g0.vertex_count
    edges = set(g0.edges)
    edges.add((base_vertex, m + 1))
    for i in range(1, k):
        edges.add((m + i, m + i + 1))
    return SimpleGraph(vertex_count=m + k, edges=frozenset(edges))


def checked_bridge_graph(g0: Graph, base_vertex: int, k: int) -> SimpleGraph:
    """The bridge graph of build_bridge_graph, after every check a bridge search makes.

    In order: g0's connectivity, the base vertex and k, and the vertex
    ceiling. Callers run it before any search starts; the ceiling is checked
    before the graph is built, whose edge set grows with k.
    """
    _bfs_plan(g0, 0)  # raises DomainError if g0 is not connected
    ceiling = _bridge_ceiling()
    _check_bridge_domain(g0, base_vertex, k)
    vertex_count = g0.vertex_count + k
    if vertex_count > ceiling:
        raise CeilingError(f"{vertex_count} vertices exceed the bridge-oracle ceiling {ceiling}")
    return build_bridge_graph(g0, base_vertex, k)


def enumerate_p2_on_bridge_graph(
    g0: Graph,
    base_vertex: int,
    k: int,
    diff_bound: int = 3,
    workers: int | None = None,
) -> int:
    """Count of 2-periodic configurations on g0 plus a bridged path.

    A vertex of maximum degree (the lowest-numbered on ties) is pinned at
    zero, and the difference along each edge uv of a breadth-first spanning
    tree ranges over its proven bound deg(u) + deg(v) - 1 (_bfs_plan), so one
    search finds every configuration. The pinned vertex changes no count:
    firing commutes with adding a constant to every stack, so each
    configuration has exactly one shift with that vertex at zero. Rooting at
    the widest vertex fixes the widest windows while few prefixes exist,
    which prunes early.
    ``diff_bound`` and ``workers`` are accepted and ignored. No program
    caller passes either; both stay for perfbench/run.py's pool_probe,
    which passes them and would stop every traced run with a TypeError
    without them.
    """
    graph = checked_bridge_graph(g0, base_vertex, k)
    return _window_search(graph, None, False)[0]
