"""Graph parsing, configurations, and sense vectors."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pardiff.engine import orientation_of_stacks
from pardiff.errors import (
    ConfigMismatchError,
    DuplicateEdgeError,
    GraphFormatError,
    SelfLoopError,
    VertexIndexError,
)
from pardiff.graphs import (
    PathGraph,
    SimpleGraph,
    canonical_stacks,
    config_from_string,
    parse_graph,
    render_graph,
    shift,
)
from pardiff.orientations import check_p2_orientation, flipped, mirrored, witness_configuration


def test_parse_path():
    g = parse_graph("path:3")
    assert g == PathGraph(3)
    assert g.edges == frozenset({(1, 2), (2, 3)})


def test_parse_edge_list_triangle():
    g = parse_graph("1 2\n2 3\n3 1")
    assert g == SimpleGraph(vertex_count=3, edges=frozenset({(1, 2), (2, 3), (1, 3)}))


@pytest.mark.parametrize(
    "text,exc",
    [
        ("1 1", SelfLoopError),
        ("1 2\n2 1", DuplicateEdgeError),
        ("1 2 3", GraphFormatError),
        ("a b", GraphFormatError),
        ("0 2", VertexIndexError),
        ("", GraphFormatError),
        ("path:0", VertexIndexError),
    ],
)
def test_parse_errors_are_named(text, exc):
    with pytest.raises(exc):
        parse_graph(text)


def test_shift_examples():
    assert shift((0, 1), -1) == (-1, 0)
    assert shift((0, 2, -1, 2, 0), -1) == (-1, 1, -2, 1, -1)
    c = (4, -3, 7)
    assert shift(c, 0) == c


def test_canonicalize_examples():
    assert canonical_stacks((3, 4, 4)) == (0, 1, 1)
    fixed = (0, -1)
    assert canonical_stacks(fixed) == fixed
    c = (1, 0, 1, 0, 1)
    expected = tuple(x - c[0] for x in c)
    assert canonical_stacks(c) == expected == (0, -1, 0, -1, 0)


def test_configuration_length_checked():
    # outside input is checked against its graph when it is parsed
    with pytest.raises(ConfigMismatchError, match="^3 stacks for 2 vertices$"):
        config_from_string("0,1,2", PathGraph(2))


def test_config_string_round_trip():
    g = PathGraph(4)
    c = config_from_string("0,-2,5,1", g)
    assert c == (0, -2, 5, 1)
    with pytest.raises(GraphFormatError):
        config_from_string("0,x,1,2", g)


def test_orientation_string_round_trip():
    # a sense string, built into its witness and read back off the stacks
    assert orientation_of_stacks(witness_configuration("RLFRL")) == "RLFRL"
    with pytest.raises(GraphFormatError):
        check_p2_orientation("RLX")


def test_orientation_mirror_and_flip():
    o = "RLF"
    assert flipped(o) == "LRF"
    assert mirrored(o) == "FRL"
    assert mirrored(mirrored(o)) == o
    assert flipped(flipped(o)) == o


def test_self_loop_rejected_in_constructor():
    with pytest.raises(SelfLoopError):
        SimpleGraph(vertex_count=2, edges=frozenset({(1, 1)}))


configs = st.builds(tuple, st.lists(st.integers(-50, 50), min_size=1, max_size=12))


@given(configs)
def test_canonicalize_idempotent(c):
    once = canonical_stacks(c)
    assert canonical_stacks(once) == once
    assert once[0] == 0


@given(configs, st.integers(-20, 20), st.integers(-20, 20))
def test_shift_composes(c, a, b):
    assert shift(shift(c, a), b) == shift(c, a + b)


edge_graphs = st.builds(
    lambda pairs: SimpleGraph.from_edge_list(sorted({(min(u, v), max(u, v)) for u, v in pairs})),
    st.lists(
        st.tuples(st.integers(1, 9), st.integers(1, 9)).filter(lambda p: p[0] != p[1]),
        min_size=1,
        max_size=15,
    ),
)


@given(st.one_of(edge_graphs, st.builds(PathGraph, st.integers(1, 15))))
def test_parse_render_round_trip(g):
    assert parse_graph(render_graph(g)) == g
