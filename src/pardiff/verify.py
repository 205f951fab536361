"""Runnable invariant suites behind the ``verify`` command.

Each check exercises one documented invariant at desk scale and reports the
first counterexample it finds. Checks call through module namespaces so a
deliberately broken function (for testing the tester) is caught by name.
Inputs that several checks read (orientation lists, the oracle's
configuration lists and their orientation tallies, legality verdicts,
per-orientation counts, the path-automaton count sequences and the period
reports of random graphs) are built at most once per run_suites call, in a
_RunInputs object that the call creates and drops.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from functools import cache
from itertools import product

from pardiff import counting, engine, oracle, orientations, pathcount
from pardiff.errors import CeilingError, DomainError, _enum_ceiling
from pardiff.graphs import (
    Configuration,
    PathGraph,
    SENSE_ORDER,
    Record,
    SimpleGraph,
    canonical_stacks,
    canonicalize,
    flipped,
    frozen_edges,
    mirrored,
    parse_graph,
    render_graph,
    shift,
)


# The smallest n each depth's checks start from; a smaller depth checks nothing.
DEPTH_MINIMUMS = {"max_n_oracle": 2, "max_n_witness": 2, "max_n_routes": 2, "max_n_structure": 4}


class VerifyConfig(Record):
    """The suites' depths, one per CLI option; defaults keep a full run under a minute."""

    __slots__ = _fields = ("max_n_oracle", "max_n_witness", "max_n_routes", "max_n_structure")

    def __init__(
        self,
        max_n_oracle: int = 8,
        max_n_witness: int = 14,
        max_n_routes: int = 16,
        max_n_structure: int = 12,
    ):
        object.__setattr__(self, "max_n_oracle", max_n_oracle)
        object.__setattr__(self, "max_n_witness", max_n_witness)
        object.__setattr__(self, "max_n_routes", max_n_routes)
        object.__setattr__(self, "max_n_structure", max_n_structure)
        for name, least in DEPTH_MINIMUMS.items():
            if getattr(self, name) < least:
                raise DomainError(f"{name} must be at least {least} (got {getattr(self, name)})")


class CheckResult(Record):
    __slots__ = _fields = ("suite", "name", "passed", "detail", "seconds")

    def __init__(self, suite: str, name: str, passed: bool, detail: str = "", seconds: float = 0.0):
        object.__setattr__(self, "suite", suite)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)
        # Wall time of the check, including any shared input it was first to read.
        object.__setattr__(self, "seconds", seconds)


_REGISTRY: dict[str, list[tuple[str, object]]] = {}

# The count checks read the path automaton's totals at every path length 2.._DP_MAX.
_DP_MAX = 60

# Each randomized check draws _RANDOM_TRIALS cases from a fixed seed of its own.
_RANDOM_TRIALS = 150
_RNG_SEED = 987
# Random connected graphs have 2.._RANDOM_MAX_VERTICES vertices.
_RANDOM_MAX_VERTICES = 10


class _RunInputs:
    """Inputs shared by the checks of one run_suites call, each built on
    first use. Every build goes through the module attribute at call time,
    so a patched or wrapped function is the one that runs; nothing outlives
    the call.
    """

    def __init__(self, config: VerifyConfig):
        self.orientations = cache(lambda n: orientations.enumerate_p2_orientations(n))
        # The path oracle's configuration lists for n = 2..max_n_oracle.
        self.oracle_lists = cache(
            lambda: [oracle.enumerate_p2_configurations(n) for n in range(2, config.max_n_oracle + 1)]
        )
        # (n, Counter of orientations) for each of those lists, in the same order.
        self.oracle_tallies = cache(
            lambda: [
                (r.n, Counter(engine.orientation_of_stacks(c.stacks) for c in r.configurations))
                for r in self.oracle_lists()
            ]
        )
        self.legal = cache(lambda orient: not orientations.check_p2_orientation(orient))
        self.count = cache(lambda orient: counting.count_configs_on_orientation(orient))
        # Path-automaton counts at n = 2.._DP_MAX (entry n - 2).
        self.dp_counts = cache(lambda diff_bound: pathcount.count_p2_sequence(_DP_MAX, diff_bound))
        # (graph, configuration, detect_period report) for each random case.
        self.random_periods = cache(_random_period_reports)


def _check(suite: str, name: str):
    """Register a check, called as fn(config, inputs) with the run's _RunInputs."""

    def deco(fn):
        _REGISTRY.setdefault(suite, []).append((name, fn))
        return fn

    return deco


def suite_names() -> list[str]:
    return list(_REGISTRY)


def run_suites(config: VerifyConfig = VerifyConfig(), suites=None) -> list[CheckResult]:
    """Run the selected suites (all by default) and collect per-check results."""
    if suites is None:
        selected = list(_REGISTRY)
    else:
        selected = list(suites)
        unknown = [s for s in selected if s not in _REGISTRY]
        if unknown:
            raise DomainError(f"unknown suites {unknown}; available: {list(_REGISTRY)}")
        twice = [s for s in _REGISTRY if selected.count(s) > 1]
        if twice:
            raise DomainError(f"suite {twice[0]!r} named twice")
    inputs = _RunInputs(config)
    results = []
    for suite in selected:
        for name, fn in _REGISTRY[suite]:
            t0 = time.perf_counter()
            try:
                detail = fn(config, inputs)
            except CeilingError:  # a resource limit, not a verdict on the invariant
                raise
            except Exception as exc:  # a crashing check is a failing check
                detail = f"raised {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            results.append(CheckResult(suite, name, detail is None, detail or "", seconds))
    return results


# ---------------------------------------------------------------------------
# helpers


def _random_connected_graph(rng: random.Random) -> SimpleGraph:
    m = rng.randint(2, _RANDOM_MAX_VERTICES)
    edges = set()
    for v in range(2, m + 1):
        u = rng.randint(1, v - 1)
        edges.add((u, v))
    for _ in range(rng.randint(0, m)):
        u, v = rng.randint(1, m), rng.randint(1, m)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return SimpleGraph(vertex_count=m, edges=frozenset(edges))


def _random_config(rng: random.Random, graph) -> Configuration:
    return Configuration(tuple(rng.randint(-5, 5) for _ in range(graph.vertex_count)), graph)


def _random_graph_and_config(rng):
    if rng.random() < 0.5:
        graph = PathGraph(rng.randint(1, 10))
    else:
        graph = _random_connected_graph(rng)
    return graph, _random_config(rng, graph)


def _random_period_reports():
    rng = random.Random(_RNG_SEED + 5)
    cases = []
    for _ in range(_RANDOM_TRIALS):
        graph, c = _random_graph_and_config(rng)
        cases.append((graph, c, engine.detect_period(graph, c, engine.default_max_steps(graph))))
    return cases


# ---------------------------------------------------------------------------
# suite: graph


@_check("graph", "canonicalize-idempotent")
def _chk_canonical_idempotent(cfg: VerifyConfig, inputs: _RunInputs):
    rng = random.Random(_RNG_SEED)
    for _ in range(_RANDOM_TRIALS):
        _, c = _random_graph_and_config(rng)
        once = canonicalize(c)
        if canonicalize(once) != once:
            return f"not idempotent on stacks {c.stacks}"
    return None


@_check("graph", "shift-composition")
def _chk_shift_composition(cfg: VerifyConfig, inputs: _RunInputs):
    rng = random.Random(_RNG_SEED + 1)
    for _ in range(_RANDOM_TRIALS):
        _, c = _random_graph_and_config(rng)
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        if shift(shift(c, a), b) != shift(c, a + b):
            return f"shift composition broke on stacks {c.stacks}, a={a}, b={b}"
    return None


@_check("graph", "parse-render-round-trip")
def _chk_round_trip(cfg: VerifyConfig, inputs: _RunInputs):
    rng = random.Random(_RNG_SEED + 2)
    for _ in range(_RANDOM_TRIALS):
        graph = PathGraph(rng.randint(1, 12)) if rng.random() < 0.4 else _random_connected_graph(rng)
        if parse_graph(render_graph(graph)) != graph:
            return f"round trip failed for {render_graph(graph)!r}"
    return None


# ---------------------------------------------------------------------------
# suite: engine


@_check("engine", "chip-conservation")
def _chk_conservation(cfg: VerifyConfig, inputs: _RunInputs):
    rng = random.Random(_RNG_SEED + 3)
    for _ in range(_RANDOM_TRIALS):
        graph, c = _random_graph_and_config(rng)
        fired = engine.fire_step(graph, c)
        if sum(fired.stacks) != sum(c.stacks):
            return f"chip total changed on {render_graph(graph)!r} stacks {c.stacks}"
    return None


@_check("engine", "shift-equivariance")
def _chk_equivariance(cfg: VerifyConfig, inputs: _RunInputs):
    rng = random.Random(_RNG_SEED + 4)
    for _ in range(_RANDOM_TRIALS):
        graph, c = _random_graph_and_config(rng)
        k = rng.randint(-7, 7)
        if engine.fire_step(graph, shift(c, k)) != shift(engine.fire_step(graph, c), k):
            return f"firing does not commute with shift {k} on stacks {c.stacks}"
    return None


@_check("engine", "period-reversal")
def _chk_period_reversal(cfg: VerifyConfig, inputs: _RunInputs):
    for n in range(3, 11):
        graph = PathGraph(n)
        for orient in inputs.orientations(n):
            c = orientations._witness(orient)  # enumerator output, legal already
            fired = engine.fire_step(graph, c)
            if engine.induced_orientation(graph, fired) != flipped(orient):
                return f"orientation {orient} not reversed after firing"
    return None


@_check("engine", "random-period-detection")
def _chk_random_period(cfg: VerifyConfig, inputs: _RunInputs):
    for graph, c, report in inputs.random_periods():
        if report.period not in (1, 2):
            return f"period {report.period} on {render_graph(graph)!r} stacks {c.stacks}"
    return None


@_check("engine", "edge-reversal")
def _chk_edge_reversal(cfg: VerifyConfig, inputs: _RunInputs):
    """In each period-2 orbit, one firing reverses the sign of every edge's
    difference, a flat edge staying flat, and |s_u - s_v| <= deg(u) + deg(v) - 1:
    the lemma behind the bridge oracle's window."""
    for graph, _, report in inputs.random_periods():
        if report.period != 2:
            continue
        edges = frozen_edges(graph)
        degree = Counter(v for edge in edges for v in edge)
        a, b = (c.stacks for c in report.orbit)
        for u, w in edges:
            before, after = a[u] - a[w], b[u] - b[w]
            if (before > 0) - (before < 0) != (after < 0) - (after > 0):
                fault = f"difference {before} became {after}"
            elif max(abs(before), abs(after)) > degree[u] + degree[w] - 1:
                fault = f"|difference| {max(abs(before), abs(after))} exceeds deg(u) + deg(v) - 1"
            else:
                continue
            return f"{fault} on edge {u + 1}-{w + 1} of {render_graph(graph)!r}, orbit {a}"
    return None


@_check("engine", "fixed-point-iff-all-equal")
def _chk_fixed_points(cfg: VerifyConfig, inputs: _RunInputs):
    rng = random.Random(_RNG_SEED + 6)
    for _ in range(_RANDOM_TRIALS):
        graph = _random_connected_graph(rng)
        c = _random_config(rng, graph)
        fixed = engine.fire_step(graph, c) == c
        equal = len(set(c.stacks)) == 1
        if fixed != equal:
            return f"fixed={fixed} but all-equal={equal} on {render_graph(graph)!r} stacks {c.stacks}"
        report = engine.detect_period(graph, c, engine.default_max_steps(graph))
        if report.period == 1 and set(canonicalize(report.orbit[0]).stacks) != {0}:
            return f"period-1 orbit {report.orbit[0].stacks} does not canonicalize to zero"
    return None


# ---------------------------------------------------------------------------
# suite: orientation


@_check("orientation", "realized-equals-enumerated")
def _chk_realized(cfg: VerifyConfig, inputs: _RunInputs):
    for n, tally in inputs.oracle_tallies():
        realized = set(tally)
        enumerated = set(inputs.orientations(n))
        if realized != enumerated:
            extra = realized - enumerated
            missing = enumerated - realized
            return f"n={n}: extra {sorted(extra)}, missing {sorted(missing)}"
    return None


@_check("orientation", "count-matches-recurrence")
def _chk_orientation_counts(cfg: VerifyConfig, inputs: _RunInputs):
    """R_n against one totals pass of _LEGAL for n = 1..18, and against the
    orientations of one listing pass, checked distinct, up to the enumeration
    ceiling."""
    listed = min(18, _enum_ceiling())
    listings = orientations._LEGAL.listings(listed - 1)
    for n, total in enumerate(orientations._LEGAL.totals(17), start=1):
        want = orientations.count_p2_orientations_recurrence(n)
        if total != want:
            return f"n={n}: transfer {total}, recurrence {want}"
        if n > listed:
            continue
        senses, _ = next(listings)
        got = len(set(senses))
        if got != len(senses):
            return f"n={n}: {len(senses) - got} orientations enumerated twice"
        if got != want:
            return f"n={n}: enumerated {got}, recurrence {want}"
    return None


@_check("orientation", "witness-valid")
def _chk_witness(cfg: VerifyConfig, inputs: _RunInputs):
    for n in range(2, cfg.max_n_witness + 1):
        graph = PathGraph(n)
        listed = inputs.orientations(n)  # enumerator output, legal already
        witnesses = [orientations._witness_stacks(orient) for orient in listed]
        once = engine.fire_each(graph, witnesses)
        twice = engine.fire_each(graph, once)
        for orient, c, c1, c2 in zip(listed, witnesses, once, twice):
            if c1 == c or c2 != c:
                return f"witness for {orient} is not exactly 2-periodic"
            if engine.orientation_of_stacks(c) != orient:
                return f"witness for {orient} induces a different orientation"
    return None


def _legality_kept_by(transform, name: str):
    def check(cfg: VerifyConfig, inputs: _RunInputs):
        for e in range(1, 8):
            for o in map("".join, product(SENSE_ORDER, repeat=e)):
                if inputs.legal(o) != inputs.legal(transform(o)):
                    return f"legality changed under {name} for {o}"
        return None

    return check


_check("orientation", "mirror-symmetry")(_legality_kept_by(mirrored, "mirroring"))
_check("orientation", "flip-symmetry")(_legality_kept_by(flipped, "direction flip"))


# ---------------------------------------------------------------------------
# suite: counting


@_check("counting", "route-agreement")
def _chk_routes(cfg: VerifyConfig, inputs: _RunInputs):
    for n in range(2, cfg.max_n_routes + 1):
        rec = counting.count_T_recurrence(n)
        summ = counting.count_T_summation(n)
        direct = counting.count_T_direct(n)
        if not rec == summ == direct:
            return f"n={n}: recurrence {rec}, summation {summ}, direct {direct}"
    return None


@_check("counting", "severing-multiplicative")
def _chk_severing(cfg: VerifyConfig, inputs: _RunInputs):
    for n in range(2, cfg.max_n_structure + 1):
        for orient in inputs.orientations(n):
            if "F" not in orient:
                continue
            whole = inputs.count(orient)
            prod = 1
            for part in counting.sever_at_flats(orient):
                prod *= inputs.count(part)
            if whole != prod:
                return f"{orient}: whole {whole} != product {prod}"
    return None


@_check("counting", "contraction-invariant")
def _chk_contraction(cfg: VerifyConfig, inputs: _RunInputs):
    for n in range(4, cfg.max_n_structure + 1):
        for orient in inputs.orientations(n):
            before = inputs.count(orient)
            for i in counting.agreeing_pair_positions(orient):
                smaller = counting.contract_agreeing(orient, i)
                if not inputs.legal(smaller):
                    return f"{orient} contracted at {i} is illegal"
                if inputs.count(smaller) != before:
                    return f"{orient} contracted at {i} changed the count"
    return None


@_check("counting", "alternating-sequence")
def _chk_alternating(cfg: VerifyConfig, inputs: _RunInputs):
    for n in range(3, 14):
        if counting.alternating_count(n + 1) != 3 * counting.alternating_count(n):
            return f"A_{n + 1} != 3 A_{n}"
    for n in range(2, 15):
        direct = sum(inputs.count(o) for o in counting.alternating_orientations(n))
        if direct != counting.alternating_count(n):
            return f"n={n}: direct alternating {direct} != closed form {counting.alternating_count(n)}"
    return None


@_check("counting", "stage-claims")
def _chk_stage(cfg: VerifyConfig, inputs: _RunInputs):
    for n in range(2, 11):
        t_n = counting.count_T_recurrence(n)
        a_n = counting.alternating_count(n)
        prev = 0
        for k in range(0, n + 1):
            cur = counting.stage(n, k)
            if cur < prev:
                return f"stage({n}, {k}) = {cur} dropped below stage({n}, {k - 1}) = {prev}"
            prev = cur
        if counting.stage(n, n - 1) != t_n:
            return f"stage({n}, {n - 1}) != T_{n}"
        if n >= 3 and not counting.stage(n, n - 2) == counting.stage(n, n - 3) == t_n - a_n:
            return f"stage({n}, n-2/n-3) != T_n - A_n"
    return None


@_check("counting", "ratio-convergence")
def _chk_ratio(cfg: VerifyConfig, inputs: _RunInputs):
    model = counting.characteristic_roots()
    ratio = counting.count_T_recurrence(31) / counting.count_T_recurrence(30)
    if abs(ratio - model.dominant_root) > 1e-3:
        return f"T_31/T_30 = {ratio} vs dominant root {model.dominant_root}"
    return None


@_check("counting", "summation-erratum-detectable")
def _chk_erratum(cfg: VerifyConfig, inputs: _RunInputs):
    printed = counting.count_T_summation(5, use_printed_limit=True)
    if printed != 88:
        return f"printed-limit value at n=5 is {printed}, expected the known-bad 88"
    if counting.count_T_summation(5) != 96:
        return "corrected limit no longer gives 96 at n=5"
    return None


@_check("counting", "characteristic-roots")
def _chk_roots(cfg: VerifyConfig, inputs: _RunInputs):
    model = counting.characteristic_roots()
    for r in model.roots:
        residual = ((r - 3) * r - 2) * r * r - r + 1
        if abs(residual) > 1e-9:
            return f"root {r} has residual {abs(residual)}"
    if abs(model.dominant_root - 3.6096) > 1e-4:
        return f"dominant root {model.dominant_root}"
    second = sorted((z.real for z in model.roots if abs(z.imag) < 1e-9))[0]
    if abs(second - 0.4290) > 1e-4:
        return f"second real root {second}"
    if abs(model.dominant_coefficient - 0.1564) > 1e-3:
        return f"fitted coefficient {model.dominant_coefficient}"
    return None


# ---------------------------------------------------------------------------
# suite: oracle


@_check("oracle", "count-vs-recurrence")
def _chk_oracle_counts(cfg: VerifyConfig, inputs: _RunInputs):
    """Path-automaton count at b = 3 against T_n for every n = 2..60."""
    for n, got in enumerate(inputs.dp_counts(3), start=2):
        want = counting.count_T_recurrence(n)
        if got != want:
            return f"n={n}: oracle {got}, recurrence {want}"
    return None


@_check("oracle", "per-orientation-refinement")
def _chk_refinement(cfg: VerifyConfig, inputs: _RunInputs):
    for n, tally in inputs.oracle_tallies():
        for orient in inputs.orientations(n):
            want = inputs.count(orient)
            got = tally[orient]
            if got != want:
                return f"n={n} {orient}: oracle {got}, multipliers {want}"
    return None


@_check("oracle", "orbit-pairing")
def _chk_orbit_pairing(cfg: VerifyConfig, inputs: _RunInputs):
    for result in inputs.oracle_lists():
        n = result.n
        listed = [c.stacks for c in result.configurations]
        members = set(listed)  # the oracle lists each with v_1 = 0
        for stacks, fired in zip(listed, engine.fire_each(PathGraph(n), listed)):
            if canonical_stacks(fired) not in members:
                return f"n={n}: partner of {stacks} missing from the oracle set"
    return None


@_check("oracle", "bound-stability")
def _chk_bound_stability(cfg: VerifyConfig, inputs: _RunInputs):
    """Path-automaton counts at b = 3 and b = 4 agree for every n = 2..60."""
    for n, (at3, at4) in enumerate(zip(inputs.dp_counts(3), inputs.dp_counts(4)), start=2):
        if at3 != at4:
            return f"n={n}: counts differ between bounds 3 and 4"
    return None


@_check("oracle", "bridge-degenerate-cases")
def _chk_bridge_degenerate(cfg: VerifyConfig, inputs: _RunInputs):
    single = PathGraph(1)
    for k in range(3, 6):
        got = oracle.enumerate_p2_on_bridge_graph(single, 1, k)
        want = counting.count_T_recurrence(k + 1)
        if got != want:
            return f"single vertex, k={k}: bridge count {got} != path count {want}"
    edge = PathGraph(2)
    for k in range(2, 5):
        got = oracle.enumerate_p2_on_bridge_graph(edge, 1, k)
        want = counting.count_T_recurrence(k + 2)
        if got != want:
            return f"single edge, k={k}: bridge count {got} != path count {want}"
    return None
