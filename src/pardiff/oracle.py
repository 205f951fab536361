"""Brute-force ground truth for 2-periodic configuration counts.

Nothing here uses the orientation or multiplier theory; membership is decided
by firing alone (two firings must reproduce the configuration exactly, one
firing must not). Configurations are generated from the pinned root outward
as bounded stack differences along a breadth-first spanning tree.

The search prunes: once every vertex within distance two of v has a stack,
the second-firing value at v is fixed, so a prefix that already breaks
periodicity at v is abandoned. That check is a direct consequence of the
firing rule, which only reads a radius-two neighbourhood, so the pruned walk
visits exactly the survivors of the full (2b+1)^(V-1) iteration.

On paths the same locality makes the count a transfer-matrix sum over a
sliding window of differences (count_p2_configurations), linear in n. The
search stays as the producer of configuration lists and as the DP's
small-n certificate.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass

from pardiff.errors import CeilingError, DomainError, WindowNotStabilizedError, env_ceiling
from pardiff.graphs import (
    Configuration,
    Graph,
    PathGraph,
    PathOrientation,
    SimpleGraph,
    adjacency,
    is_connected,
)
from pardiff.engine import fire_step, orientation_of_stacks

DEFAULT_CANDIDATE_CEILING = 7**10
DEFAULT_BRIDGE_VERTEX_CEILING = 12
_CANDIDATE_CEILING_ENV = "PARDIFF_ORACLE_CEILING"
_BRIDGE_CEILING_ENV = "PARDIFF_BRIDGE_CEILING"
# Raw candidates (2b+1)^(V-1) from which a search is split over a process
# pool: below it, starting the workers costs about what they save.
_POOL_THRESHOLD = 10**6
# Window widenings the bridge oracle tries before giving up.
_MAX_ESCALATIONS = 4


@dataclass(frozen=True)
class OracleResult:
    """Every canonical 2-periodic configuration found within the difference bound."""

    n: int
    diff_bound: int
    configurations: tuple[Configuration, ...]
    count: int

    def to_dict(self, include_configurations: bool = True) -> dict:
        out = {"n": self.n, "diff_bound": self.diff_bound, "count": self.count}
        if include_configurations:
            out["configurations"] = [list(c.stacks) for c in self.configurations]
        return out


def _bfs_plan(adj0: list[list[int]], root: int):
    """BFS order plus per-prefix-length firing and checking schedules.

    Everything is remapped into BFS-position space. ready1[p] is the prefix
    length at which the one-step value of the vertex at position p is fixed;
    ready2[p] the length at which its two-step value can be tested.
    """
    V = len(adj0)
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
    return order, parent_pos, fires_at, checks_at


def _window_search(graph, root0, window, collect, prefix=()):
    """Count (and optionally collect) 2-periodic configurations with the root
    pinned at zero and every tree-edge stack difference in [-window, window].

    ``prefix`` fixes the differences of the first BFS positions, which is how
    the search space is split across worker processes.
    """
    order, parent_pos, fires_at, checks_at = _bfs_plan(adjacency(graph), root0)
    V = graph.vertex_count
    if V == 1:
        return 0, []
    stacks = [0] * V
    f1 = [0] * V
    lo, hi = -window, window
    out: list[tuple[int, ...]] = []

    def apply_level(p: int) -> bool:
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
                return False
        return True

    def record() -> int:
        # fire^2 is the identity here; keep only genuine 2-periods.
        for q in range(V):
            if f1[q] != stacks[q]:
                if collect:
                    by_vertex = [0] * V
                    for p in range(V):
                        by_vertex[order[p]] = stacks[p]
                    out.append(tuple(by_vertex))
                return 1
        return 0

    for idx, d in enumerate(prefix, start=1):
        stacks[idx] = stacks[parent_pos[idx]] + d
        if not apply_level(idx):
            return 0, []
    floor = len(prefix) + 1
    if floor > V - 1:
        return record(), out

    count = 0
    pending = [lo] * V
    p = floor
    while p >= floor:
        d = pending[p]
        if d > hi:
            pending[p] = lo
            p -= 1
            continue
        pending[p] = d + 1
        stacks[p] = stacks[parent_pos[p]] + d
        if not apply_level(p):
            continue
        if p == V - 1:
            count += record()
            continue
        p += 1
    return count, out


def _search_task(args):
    return _window_search(*args)


def _run_search(graph: Graph, root0: int, window: int, collect: bool, workers: int | None):
    """_window_search, split by first difference over ``workers`` processes
    (every core when None) once the raw candidates reach _POOL_THRESHOLD."""
    if workers is None:
        workers = os.cpu_count() or 1
    V = graph.vertex_count
    branches = 2 * window + 1
    if workers <= 1 or V < 3 or branches ** (V - 1) < _POOL_THRESHOLD:
        return _window_search(graph, root0, window, collect)
    from concurrent.futures import ProcessPoolExecutor

    tasks = [
        (graph, root0, window, collect, (d,)) for d in range(-window, window + 1)
    ]
    count = 0
    configs: list[tuple[int, ...]] = []
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        for c, cfgs in pool.map(_search_task, tasks):
            count += c
            if collect:
                configs.extend(cfgs)
    return count, configs


def _candidate_ceiling() -> int:
    return env_ceiling(_CANDIDATE_CEILING_ENV, DEFAULT_CANDIDATE_CEILING)


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


def _path_transfer(diff_bound: int, steps: int):
    """Transfer table over difference tails for one bound and ``steps``
    appended differences.

    A tail is the last three differences, None-padded at the front until the
    path has three edges; tail i is reachable from the first edge within
    ``steps`` appends, and the first 2b+1 tails are those single edges.
    ``stay[i]`` and ``move[i]`` list the successor tails whose newly settled
    vertex passes fire^2 = id, split by whether one firing leaves it in
    place or moves it; they stay empty for tails first reached at the last
    step. ``close[i]`` is None if the path cannot end after tail i, else
    whether settling its last two vertices moves one of them.
    """
    diffs = range(-diff_bound, diff_bound + 1)
    one_firing = _OneFiring()
    tails = [(None, None, d) for d in diffs]
    index = {t: i for i, t in enumerate(tails)}
    depth = [0] * len(tails)
    stay: list[list[int]] = []
    move: list[list[int]] = []
    close: list[bool | None] = []
    for i, tail in enumerate(tails):  # grows while it is walked, breadth first
        stay.append([])
        move.append([])
        for d in diffs if depth[i] < steps else ():
            stays, moves = _window_verdict(tail + (d,), one_firing)
            if stays:
                nxt = tail[1:] + (d,)
                if nxt not in index:
                    index[nxt] = len(tails)
                    tails.append(nxt)
                    depth.append(depth[i] + 1)
                (move if moves else stay)[-1].append(index[nxt])
        last_stays, last_moves = _window_verdict(tail + (None,), one_firing)
        end_stays, end_moves = _window_verdict(tail[1:] + (None, None), one_firing)
        close.append((last_moves or end_moves) if last_stays and end_stays else None)
    return len(diffs), stay, move, close


def count_p2_configurations(n: int, diff_bound: int = 3) -> int:
    """How many configurations enumerate_p2_configurations(n, diff_bound) lists,
    counted by a transfer DP over difference windows instead of a search.

    Whether v_i lies in a 2-period, and whether one firing moves it, depends
    only on the four differences d_{i-2}..d_{i+1}, so appending a difference
    settles the vertex two places back (_path_transfer). Each tail carries
    two weights: configurations in which no vertex has moved yet, and those
    in which one has. Only the moved weight is counted, since fire = id is
    not a 2-period. Work is at most (n-1)(2b+1)^4 window steps, held to the
    oracle ceiling.
    """
    if n < 2:
        raise DomainError("the oracle needs n >= 2")
    if diff_bound < 1:
        raise DomainError("diff_bound must be positive")
    ceiling = _candidate_ceiling()
    work = (n - 1) * (2 * diff_bound + 1) ** 4
    if work > ceiling:
        raise CeilingError(f"{work} window steps exceed the oracle ceiling {ceiling}")
    starts, stay, move, close = _path_transfer(diff_bound, n - 2)
    size = len(close)
    still = [1] * starts + [0] * (size - starts)
    moved = [0] * size
    for _ in range(n - 2):
        next_still = [0] * size
        next_moved = [0] * size
        for i in range(size):
            s, m = still[i], moved[i]
            if not (s or m):
                continue
            for k in stay[i]:
                next_still[k] += s
                next_moved[k] += m
            for k in move[i]:
                next_moved[k] += s + m
        still, moved = next_still, next_moved
    return sum(
        moved[i] + (still[i] if moves else 0)
        for i, moves in enumerate(close)
        if moves is not None
    )


def enumerate_p2_configurations(
    n: int, diff_bound: int = 3, workers: int | None = None
) -> OracleResult:
    """All 2-periodic configurations on the n-path with v_1 = 0 and adjacent
    stack differences within diff_bound, ordered by difference vector.

    This search materializes the list and certifies count_p2_configurations
    at small n; counts alone should come from that DP. ``workers`` defaults
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
    count, raw = _run_search(graph, 0, diff_bound, collect=True, workers=workers)
    configs = tuple(Configuration(s, graph) for s in raw)
    return OracleResult(n=n, diff_bound=diff_bound, configurations=configs, count=count)


def orientations_realized(result: OracleResult) -> set[PathOrientation]:
    """Distinct orientations induced by the oracle's configurations."""
    return {orientation_of_stacks(c.stacks) for c in result.configurations}


def bound_stability_check(n: int, diff_bound: int = 3) -> bool:
    """True iff count_p2_configurations finds nothing new when the
    difference bound widens by one."""
    return count_p2_configurations(n, diff_bound) == count_p2_configurations(n, diff_bound + 1)


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


def enumerate_p2_on_bridge_graph(
    g0: Graph,
    base_vertex: int,
    k: int,
    diff_bound: int = 3,
    workers: int | None = None,
) -> int:
    """Exploratory count of 2-periodic configurations on g0 plus a bridged path.

    The far-end path leaf is pinned at zero and stacks are windowed along a
    breadth-first spanning tree. Off the path no bound on stack differences
    is proven, so the window is widened, up to _MAX_ESCALATIONS times, until
    two consecutive sizes agree; failing to stabilize raises instead of
    returning a silently low count. ``workers`` is as in
    enumerate_p2_configurations, and kept for the same pool_probe.
    """
    if not is_connected(g0):
        raise DomainError("g0 must be connected")
    ceiling = env_ceiling(_BRIDGE_CEILING_ENV, DEFAULT_BRIDGE_VERTEX_CEILING)
    graph = build_bridge_graph(g0, base_vertex, k)
    if graph.vertex_count > ceiling:
        raise CeilingError(
            f"{graph.vertex_count} vertices exceed the bridge-oracle ceiling {ceiling}"
        )
    root0 = graph.vertex_count - 1  # far-end leaf, 0-based
    window = diff_bound
    prev, _ = _run_search(graph, root0, window, collect=False, workers=workers)
    for _ in range(_MAX_ESCALATIONS):
        cur, _ = _run_search(graph, root0, window + 1, collect=False, workers=workers)
        if cur == prev:
            return cur
        prev = cur
        window += 1
    raise WindowNotStabilizedError(
        f"count still changing at window {window} after {_MAX_ESCALATIONS} widenings"
    )
