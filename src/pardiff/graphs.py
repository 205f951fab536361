"""Graphs, configurations, and path-edge senses.

Conventions used throughout the package:

* Vertices are 1-based at every interface. Internal arrays are 0-based.
* A path on n vertices is drawn along a horizontal axis with v_1 the
  RIGHTMOST vertex, so edge e_i joins v_i and v_{i+1}. A directed edge
  whose head is the lower-indexed endpoint points toward the right of
  the drawing and has sense Right; head toward the higher index is Left;
  equal stacks give Flat.
* Configuration strings are comma-separated stack sizes ordered v_1..v_n.
* Orientation strings are letters over {R, L, F}, e_1 first. Every layer
  passes an orientation as that plain string.

Stack sizes are plain Python integers at the interfaces; the firing engine
promises signed 64-bit behaviour and rejects values outside that range.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from pardiff.errors import (
    ConfigMismatchError,
    DuplicateEdgeError,
    GraphFormatError,
    SelfLoopError,
    VertexIndexError,
)

I64_MAX = 2**63 - 1

_PATH_FORM = re.compile(r"^path:(\d+)$")

# Edge-sense letters in the enumerator's lexicographic rank: Right < Left < Flat.
SENSE_ORDER = "RLF"

# str.translate table swapping Right and Left; Flat stays Flat.
SENSE_FLIP = str.maketrans("RL", "LR")


def flipped(orient: str) -> str:
    """Swap Right and Left on every edge (the orbit partner's orientation)."""
    return orient.translate(SENSE_FLIP)


def mirrored(orient: str) -> str:
    """Relabel the path from the other end: reverse edge order and swap R/L."""
    return orient[::-1].translate(SENSE_FLIP)


@dataclass(frozen=True)
class SimpleGraph:
    """Finite simple undirected graph; edges stored as (u, v) pairs with u < v."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.vertex_count < 1:
            raise VertexIndexError("vertex_count must be positive")
        for u, v in self.edges:
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            if u > v:
                raise VertexIndexError(f"edge ({u}, {v}) not normalized as u < v")
            if not (1 <= u <= self.vertex_count and 1 <= v <= self.vertex_count):
                raise VertexIndexError(f"edge ({u}, {v}) outside [1, {self.vertex_count}]")

    @classmethod
    def from_edge_list(cls, pairs, vertex_count=None) -> "SimpleGraph":
        """Build from (u, v) pairs, checking loops and duplicates with named errors."""
        seen = set()
        norm = []
        maxv = 0
        for u, v in pairs:
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            if u < 1 or v < 1:
                raise VertexIndexError(f"vertex index below 1 in edge ({u}, {v})")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise DuplicateEdgeError(f"duplicate edge {key}")
            seen.add(key)
            norm.append(key)
            maxv = max(maxv, key[1])
        if vertex_count is None:
            vertex_count = maxv if maxv else 1
        elif maxv > vertex_count:
            raise VertexIndexError(f"edge endpoint {maxv} exceeds vertex_count {vertex_count}")
        return cls(vertex_count=vertex_count, edges=frozenset(norm))


@dataclass(frozen=True)
class PathGraph:
    """Path on n vertices, v_1 rightmost; edge e_i joins v_i and v_{i+1}."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise VertexIndexError("path needs at least one vertex")

    @property
    def vertex_count(self) -> int:
        return self.n

    @property
    def edge_count(self) -> int:
        return self.n - 1

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, i + 1) for i in range(1, self.n))


Graph = Union[SimpleGraph, PathGraph]


def adjacency(graph: Graph) -> list[list[int]]:
    """0-based adjacency lists, neighbour lists sorted."""
    adj: list[list[int]] = [[] for _ in range(graph.vertex_count)]
    for u, v in graph.edges:
        adj[u - 1].append(v - 1)
        adj[v - 1].append(u - 1)
    for row in adj:
        row.sort()
    return adj


@lru_cache(maxsize=64)
def frozen_adjacency(graph: Graph) -> tuple[tuple[int, ...], ...]:
    """``adjacency(graph)`` as tuples, built once per distinct graph and shared.

    Graphs are frozen, so equal graphs share one entry; tuples keep any
    caller from changing what the others read.
    """
    return tuple(map(tuple, adjacency(graph)))


def is_connected(graph: Graph) -> bool:
    adj = adjacency(graph)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == graph.vertex_count


@dataclass(frozen=True)
class Configuration:
    """Integer stack sizes indexed v_1..v_n; negative values (debt) are legal."""

    stacks: tuple[int, ...]
    graph: Graph

    def __post_init__(self):
        if len(self.stacks) != self.graph.vertex_count:
            raise ConfigMismatchError(
                f"{len(self.stacks)} stacks for {self.graph.vertex_count} vertices"
            )

    def stack(self, vertex: int) -> int:
        """Stack size of 1-based vertex index."""
        if not 1 <= vertex <= len(self.stacks):
            raise VertexIndexError(f"vertex {vertex} outside [1, {len(self.stacks)}]")
        return self.stacks[vertex - 1]


def parse_graph(text: str) -> Graph:
    """Parse ``path:<n>`` or an edge-list body with one ``u v`` pair per line."""
    body = text.strip()
    m = _PATH_FORM.match(body)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise VertexIndexError("path:<n> needs n >= 1")
        return PathGraph(n)
    if not body:
        raise GraphFormatError("empty graph description")
    pairs = []
    for lineno, line in enumerate(body.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer endpoint in {line!r}") from None
        pairs.append((u, v))
    return SimpleGraph.from_edge_list(pairs)


def render_graph(graph: Graph) -> str:
    """Inverse of parse_graph (edge-list graphs round-trip up to vertex relabelling-free form)."""
    if isinstance(graph, PathGraph):
        return f"path:{graph.n}"
    return "\n".join(f"{u} {v}" for u, v in sorted(graph.edges))


def config_from_string(text: str, graph: Graph) -> Configuration:
    try:
        stacks = tuple(int(tok) for tok in text.strip().split(","))
    except ValueError:
        raise GraphFormatError(f"configuration {text!r} is not comma-separated integers") from None
    return Configuration(stacks, graph)


def config_to_string(config: Configuration) -> str:
    return ",".join(str(x) for x in config.stacks)


def shift(config: Configuration, k: int) -> Configuration:
    """Add k to every stack size."""
    return Configuration(tuple(x + k for x in config.stacks), config.graph)


def canonicalize(config: Configuration, base: int = 1) -> Configuration:
    """Shift so the base vertex (v_1 by default) holds zero chips."""
    return shift(config, -config.stack(base))
