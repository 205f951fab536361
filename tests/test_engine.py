"""Firing engine: stepping, traces, period detection, induced senses.

Configurations are plain stack tuples; the graph is always its own argument.

The 5-vertex demo run used throughout (initial stacks 0,2,0,4,1) settles into
a 2-cycle after three steps; its seven configurations are frozen here from a
hand simulation of the firing rule.
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pardiff.engine import (
    PeriodReport,
    default_max_steps,
    detect_period,
    fire_each,
    orientation_of_stacks,
    run_sequence,
)
from pardiff import engine, graphs
from pardiff.errors import (
    ConfigMismatchError,
    InternalInconsistencyError,
    PeriodNotFoundError,
    StackLimitError,
)
from pardiff.graphs import PathGraph, SimpleGraph, canonical_stacks, shift
from pardiff.orientations import flipped

P5 = PathGraph(5)
DEMO_START = (0, 2, 0, 4, 1)
DEMO_TRACE = [
    (0, 2, 0, 4, 1),
    (1, 0, 2, 2, 2),
    (0, 2, 1, 2, 2),
    (1, 0, 3, 1, 2),
    (0, 2, 1, 3, 1),
    (1, 0, 3, 1, 2),
    (0, 2, 1, 3, 1),
]


def _fire(graph, stacks):
    """One firing of one configuration: fire_each on a batch of one."""
    return fire_each(graph, (stacks,))[0]


def test_fire_step_demo():
    assert _fire(P5, DEMO_START) == (1, 0, 2, 2, 2)


@pytest.mark.parametrize("stacks", [(0, 0, 0), (7, 7, 7, 7), (-2, -2)])
def test_fire_step_all_equal_is_fixed(stacks):
    g = PathGraph(len(stacks))
    assert _fire(g, stacks) == stacks


def test_fire_step_star_goes_into_debt():
    star = SimpleGraph.from_edge_list([(1, 2), (1, 3), (1, 4)])
    assert _fire(star, (2, 0, 0, 0)) == (-1, 1, 1, 1)


def test_fire_step_length_mismatch():
    calls = (
        _fire,
        lambda g, c: run_sequence(g, c, 3),
        lambda g, c: detect_period(g, c, 10),
        lambda g, c: fire_each(g, fire_each(g, (c,))),
    )
    for call in calls:
        with pytest.raises(ConfigMismatchError, match="2 stacks for 5 vertices"):
            call(P5, (0, 1))
    # in a batch, the first tuple of the wrong length raises, wherever it stands
    with pytest.raises(ConfigMismatchError, match="^2 stacks for 5 vertices$"):
        fire_each(P5, [(0, 2, 0, 4, 1), (0, 1), (9, 9, 9)])


def test_fire_each_fires_every_tuple_in_order():
    assert fire_each(P5, []) == []
    assert fire_each(P5, DEMO_TRACE[:3]) == DEMO_TRACE[1:4]


def test_edges_built_once_per_graph(monkeypatch):
    builds = []
    read = graphs.PathGraph.edges.fget

    def counted(graph):
        builds.append(graph)
        return read(graph)

    monkeypatch.setattr(graphs.PathGraph, "edges", property(counted))
    graphs.frozen_edges.cache_clear()
    g = PathGraph(6)
    c = (0, 3, 1, 4, 1, 5)
    for _ in range(50):
        c = _fire(g, c)
    detect_period(PathGraph(6), c, 100)
    fire_each(g, fire_each(g, (c,)))
    assert builds == [g]
    assert graphs.frozen_edges(g) == ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))


def test_stack_limit_guard():
    big = 2**63 - 1
    p2 = PathGraph(2)
    with pytest.raises(StackLimitError):
        _fire(p2, (big + 1, 0))
    star = SimpleGraph.from_edge_list([(1, 2), (1, 3), (1, 4)])
    # the centre gains three chips and leaves the signed 64-bit range
    with pytest.raises(StackLimitError):
        _fire(star, (big - 1, big, big, big))
    low = -(2**63)
    with pytest.raises(StackLimitError, match=str(low - 1)):
        _fire(p2, (0, low - 1))
    # the centre sends a chip to each of three poorer leaves and drops below the range
    with pytest.raises(StackLimitError, match=str(low - 2)):
        _fire(star, (low + 1, low, low, low))
    # the first of the two firings already leaves the range
    with pytest.raises(StackLimitError, match=str(big + 2)):
        fire_each(star, fire_each(star, ((big - 1, big, big, big),)))


def _reference_step(graph, stacks):
    """The per-vertex rule: each vertex compares itself with every neighbour."""
    adj = [[] for _ in stacks]
    for u, w in graph.edges:
        adj[u - 1].append(w - 1)
        adj[w - 1].append(u - 1)
    return tuple(
        sv + sum((stacks[w] > sv) - (stacks[w] < sv) for w in adj[v])
        for v, sv in enumerate(stacks)
    )


I64_LOW, I64_HIGH = -(2**63), 2**63 - 1
STAR4 = SimpleGraph.from_edge_list([(1, 2), (1, 3), (1, 4)])


def _limit_cases():
    # offsets from a limit, centre (or v_1) first; n = 4 for both graphs
    shapes = {
        PathGraph(4): [(4, 4, 4, 4), (4, 5, 6, 7), (3, 4, 4, 4), (4, 3, 4, 3), (1, 0, 1, 0),
                       (0, 1, 0, 1), (2, 0, 2, 0), (0, 0, 0, 0), (-1, 4, 4, 4)],
        STAR4: [(4, 4, 4, 4), (4, 5, 6, 7), (3, 4, 4, 4), (3, 0, 0, 0), (2, 0, 0, 0),
                (3, 1, 1, 1), (2, 1, 1, 1), (0, 3, 3, 3), (4, 4, 4, -1)],
    }
    for graph, offsets in shapes.items():
        name = "path" if isinstance(graph, PathGraph) else "star"
        for d in offsets:
            tag = ",".join(map(str, d))
            yield pytest.param(graph, tuple(I64_HIGH - x for x in d), id=f"{name}-high-{tag}")
            yield pytest.param(graph, tuple(I64_LOW + x for x in d), id=f"{name}-low-{tag}")


@pytest.mark.parametrize("graph,stacks", list(_limit_cases()))
def test_stack_limit_boundary(graph, stacks):
    # raised exactly when input or output leaves the range, naming the first
    # offending value in the order input high, input low, output high, output low
    out = _reference_step(graph, stacks)
    offending = [
        v
        for v in (max(stacks), min(stacks), max(out), min(out))
        if not I64_LOW <= v <= I64_HIGH
    ]
    # the batch kernel gives the same verdict on the tuple when it comes second
    quiet = (0, 1, 0, 1)
    if offending:
        with pytest.raises(StackLimitError, match=f"^stack size {offending[0]} outside"):
            _fire(graph, stacks)
        with pytest.raises(StackLimitError, match=f"^stack size {offending[0]} outside"):
            fire_each(graph, [quiet, stacks])
    else:
        assert _fire(graph, stacks) == out
        assert fire_each(graph, [quiet, stacks]) == [_reference_step(graph, quiet), out]


def test_run_sequence_demo():
    trace = run_sequence(P5, DEMO_START, 6)
    assert list(trace) == DEMO_TRACE
    assert trace[0] == DEMO_START


def test_run_sequence_constant():
    g = PathGraph(3)
    trace = run_sequence(g, (0, 0, 0), 4)
    assert len(trace) == 5 and all(c == (0, 0, 0) for c in trace)


def test_run_sequence_two_cycle():
    g = PathGraph(2)
    trace = run_sequence(g, (0, 1), 2)
    assert trace == ((0, 1), (1, 0), (0, 1))


def test_detect_period_demo():
    report = detect_period(P5, DEMO_START, 100)
    assert (report.preperiod, report.period) == (3, 2)
    assert report.orbit == ((1, 0, 3, 1, 2), (0, 2, 1, 3, 1))


def test_detect_period_fixed_point():
    g = PathGraph(4)
    report = detect_period(g, (0, 0, 0, 0), 10)
    assert (report.preperiod, report.period) == (0, 1)
    assert report.orbit == ((0, 0, 0, 0),)


def test_detect_period_preperiod_one():
    g = PathGraph(2)
    report = detect_period(g, (0, 3), 50)
    assert (report.preperiod, report.period) == (1, 2)
    assert report.orbit == ((1, 2), (2, 1))


def test_detect_period_budget_too_small():
    g = PathGraph(2)
    with pytest.raises(PeriodNotFoundError):
        detect_period(g, (0, 3), 2)
    with pytest.raises(ValueError):
        detect_period(g, (0, 3), 1)


def test_default_budget_is_capped(monkeypatch):
    assert default_max_steps(P5) == engine.PERIOD_STEP_CAP // 5
    g = PathGraph(3)
    c = (10**5, 0, 0)
    assert default_max_steps(g) == engine.PERIOD_STEP_CAP // 3
    report = detect_period(g, c, default_max_steps(g))  # a preperiod of about 2/3 of the spread
    assert 60000 < report.preperiod < 70000
    monkeypatch.setattr(engine, "PERIOD_STEP_CAP", 1000)
    assert default_max_steps(g) == 333
    with pytest.raises(PeriodNotFoundError, match="^no repeat within 333 steps"):
        detect_period(g, c, default_max_steps(g))
    monkeypatch.setattr(engine, "PERIOD_STEP_CAP", 3)  # the floor of four steps still holds
    assert default_max_steps(g) == 4


def test_longer_cycles_flagged_as_engine_bug(monkeypatch):
    # a dynamics with a cycle longer than 2 is impossible for the real rule;
    # the detector must refuse to report it rather than return a wrong period
    monkeypatch.setattr(engine, "_fire_raw", lambda stacks, adj: stacks[1:] + stacks[:1])
    g = PathGraph(3)
    with pytest.raises(InternalInconsistencyError, match="^repeat at offset 3;"):
        detect_period(g, (0, 1, 2), 50)
    # a tail of mu steps into a cycle of lam states; mu = 0 returns to C_0.
    # Brent's mark catches the cycle by step 3 * max(mu, lam), at offset lam.
    g = PathGraph(1)
    for mu in (0, 3):
        for lam in (3, 4, 5, 8):
            step = lambda stacks, adj: (stacks[0] + 1 if stacks[0] < mu + lam - 1 else mu,)
            monkeypatch.setattr(engine, "_fire_raw", step)
            with pytest.raises(InternalInconsistencyError, match=f"^repeat at offset {lam};"):
                detect_period(g, (0,), 3 * (mu + lam))


def test_detect_period_memory_does_not_grow_with_steps():
    g = PathGraph(3)
    c = (30000, 0, 0)
    budget = default_max_steps(g)
    tracemalloc.start()
    try:
        report = detect_period(g, c, budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.preperiod > 19000  # about 2/3 of the spread
    assert peak < 64 * 1024


def test_period_report_json_shape():
    report = detect_period(P5, DEMO_START, 100)
    assert PeriodReport._fields == ("preperiod", "period", "orbit")
    assert (report.preperiod, report.period) == (3, 2)
    assert report.orbit == ((1, 0, 3, 1, 2), (0, 2, 1, 3, 1))


def test_induced_orientation_examples():
    assert orientation_of_stacks((12, 2, 8, 9, 15)) == "LRRR"
    assert orientation_of_stacks((4, 4, 4, 4, 4)) == "FFFF"
    assert orientation_of_stacks((0, 1, 2)) == "RR"


def test_two_firings_return_examples():
    # two firings return a configuration of period 1 or 2 exactly, and no other
    assert fire_each(P5, fire_each(P5, ((1, 0, 3, 1, 2),))) == [(1, 0, 3, 1, 2)]
    assert fire_each(P5, fire_each(P5, ((0, 0, 0, 0, 0),))) == [(0, 0, 0, 0, 0)]
    assert fire_each(PathGraph(2), fire_each(PathGraph(2), ((0, 3),))) != [(0, 3)]


@st.composite
def connected_graphs(draw):
    # random spanning tree plus a few extra edges
    m = draw(st.integers(2, 10))
    edges = set()
    for v in range(2, m + 1):
        u = draw(st.integers(1, v - 1))
        edges.add((u, v))
    for a, b in draw(st.lists(st.tuples(st.integers(1, m), st.integers(1, m)), max_size=6)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return SimpleGraph(vertex_count=m, edges=frozenset(edges))


@st.composite
def graph_and_config(draw):
    if draw(st.booleans()):
        graph = PathGraph(draw(st.integers(1, 10)))
    else:
        graph = draw(connected_graphs())
    stacks = draw(
        st.lists(
            st.integers(-5, 5), min_size=graph.vertex_count, max_size=graph.vertex_count
        )
    )
    return graph, tuple(stacks)


@st.composite
def branching_cyclic_configs(draw):
    # a triangle with a pendant edge at one corner gives a cycle and a vertex
    # of degree 3; the rest hangs off it as a random tree plus random chords,
    # and a random relabelling moves the core around
    m = draw(st.integers(4, 12))
    edges = {(1, 2), (1, 3), (2, 3), (1, 4)}
    for v in range(5, m + 1):
        edges.add((draw(st.integers(1, v - 1)), v))
    for a, b in draw(st.lists(st.tuples(st.integers(1, m), st.integers(1, m)), max_size=8)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    label = [0] + draw(st.permutations(range(1, m + 1)))
    graph = SimpleGraph.from_edge_list([(label[a], label[b]) for a, b in edges], m)
    stacks = draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m))
    return graph, tuple(stacks)


@given(branching_cyclic_configs())
def test_fire_step_matches_per_vertex_rule(gs):
    graph, stacks = gs
    assert _fire(graph, stacks) == _reference_step(graph, stacks)


@given(branching_cyclic_configs(), st.data())
def test_fire_each_matches_fire_step(gs, data):
    graph, first = gs
    m = graph.vertex_count
    rest = data.draw(st.lists(st.tuples(*[st.integers(-4, 4)] * m), max_size=4))
    batch = [first, *rest]
    assert fire_each(graph, batch) == [_fire(graph, s) for s in batch]


@given(graph_and_config())
def test_chip_conservation(gc):
    graph, c = gc
    assert sum(_fire(graph, c)) == sum(c)


@given(graph_and_config(), st.integers(-10, 10))
def test_shift_equivariance(gc, k):
    graph, c = gc
    assert _fire(graph, shift(c, k)) == shift(_fire(graph, c), k)


@given(graph_and_config())
@settings(max_examples=60)
def test_period_is_one_or_two(gc):
    graph, c = gc
    report = detect_period(graph, c, default_max_steps(graph))
    assert report.period in (1, 2)
    if report.period == 1:
        # the only fixed points on a connected graph are the flat configurations
        assert len(set(report.orbit[0])) == 1
        assert set(canonical_stacks(report.orbit[0])) == {0}
    else:
        again = _fire(graph, _fire(graph, report.orbit[0]))
        assert again == report.orbit[0]


@given(graph_and_config())
@settings(max_examples=60)
def test_orbit_orientation_reverses_on_paths(gc):
    graph, c = gc
    if not isinstance(graph, PathGraph):
        return
    report = detect_period(graph, c, default_max_steps(graph))
    inside = report.orbit[0]
    fired = _fire(graph, inside)
    assert orientation_of_stacks(fired) == flipped(orientation_of_stacks(inside))


@given(graph_and_config())
@settings(max_examples=60)
def test_fixed_iff_all_equal_on_connected(gc):
    graph, c = gc
    assert (_fire(graph, c) == c) == (len(set(c)) == 1)
