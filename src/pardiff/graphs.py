"""Graphs and configurations.

Conventions used throughout the package:

* A configuration is a plain tuple of integer stack sizes ordered v_1..v_n;
  negative values (debt) are legal. It carries no graph: every engine call
  takes the graph as its own argument.
* Vertices are 1-based at every interface. Internal arrays are 0-based.
* A path on n vertices is drawn along a horizontal axis with v_1 the
  RIGHTMOST vertex, so edge e_i joins v_i and v_{i+1}. The senses of its
  edges, and orientation strings, are defined in pardiff.orientations.
* Configuration strings are comma-separated stack sizes ordered v_1..v_n.

Stack sizes are plain Python integers at the interfaces; the firing engine
promises signed 64-bit behaviour and rejects values outside that range.
"""

import os
import re
from functools import lru_cache
from typing import Union

from pardiff.errors import (
    ConfigMismatchError,
    DuplicateEdgeError,
    GraphFormatError,
    SelfLoopError,
    VertexIndexError,
)
from pardiff.records import Record

I64_MAX = 2**63 - 1

_PATH_FORM = re.compile(r"^path:(\d+)$")


class SimpleGraph(Record):
    """Finite simple undirected graph; edges stored as (u, v) pairs with u < v."""

    __slots__ = _fields = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges: frozenset[tuple[int, int]]):
        if vertex_count < 1:
            raise VertexIndexError("vertex_count must be positive")
        for u, v in edges:
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            if u > v:
                raise VertexIndexError(f"edge ({u}, {v}) not normalized as u < v")
            if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
                raise VertexIndexError(f"edge ({u}, {v}) outside [1, {vertex_count}]")
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", edges)

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


class PathGraph(Record):
    """Path on n vertices, v_1 rightmost; edge e_i joins v_i and v_{i+1}."""

    __slots__ = _fields = ("n",)

    def __init__(self, n: int):
        if n < 1:
            raise VertexIndexError("path needs at least one vertex")
        object.__setattr__(self, "n", n)

    @property
    def vertex_count(self) -> int:
        return self.n

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, i + 1) for i in range(1, self.n))


Graph = Union[SimpleGraph, PathGraph]


@lru_cache(maxsize=64)
def frozen_edges(graph: Graph) -> tuple[tuple[int, int], ...]:
    """Sorted 0-based ``(u, w)`` edge pairs, u < w, built once per distinct graph and shared.

    Graphs are frozen, so equal graphs share one entry; tuples keep any
    caller from changing what the others read.
    """
    return tuple(sorted((u - 1, w - 1) for u, w in graph.edges))


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


def _read_graph_file(path: str) -> Graph:
    """Graph from the file at ``path``; a file that is not UTF-8 is a file error."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: {exc}") from None
    return parse_graph(text)


def _load_graph(text: str) -> Graph:
    """Graph from a literal ``path:<n>``, a file path, or inline edge text.

    Inline edge text always holds whitespace, so a value without any names a
    file, and one that names no file ends in a file error, not a parse error.
    """
    if text.startswith("path:"):
        return parse_graph(text)
    if os.path.exists(text) or not any(ch.isspace() for ch in text):
        return _read_graph_file(text)
    return parse_graph(text.replace(",", "\n"))


def render_graph(graph: Graph) -> str:
    """Inverse of parse_graph (edge-list graphs round-trip up to vertex relabelling-free form)."""
    if isinstance(graph, PathGraph):
        return f"path:{graph.n}"
    return "\n".join(f"{u} {v}" for u, v in sorted(graph.edges))


def config_from_string(text: str, graph: Graph) -> tuple[int, ...]:
    """The stacks in ``text``, checked to hold one per vertex of ``graph``."""
    try:
        stacks = tuple(int(tok) for tok in text.strip().split(","))
    except ValueError:
        raise GraphFormatError(f"configuration {text!r} is not comma-separated integers") from None
    if len(stacks) != graph.vertex_count:
        raise ConfigMismatchError(f"{len(stacks)} stacks for {graph.vertex_count} vertices")
    return stacks


def shift(stacks: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Add k to every stack size."""
    return tuple([x + k for x in stacks])


def canonical_stacks(stacks: tuple[int, ...]) -> tuple[int, ...]:
    """The stacks shifted so v_1 holds zero chips."""
    base = stacks[0]
    return tuple([x - base for x in stacks])
