"""Runnable invariant suites behind the ``verify`` command.

Each check exercises one documented invariant at desk scale and reports the
first counterexample it finds. Checks call through module namespaces so a
deliberately broken function (for testing the tester) is caught by name.
Checks that read the path oracle's configuration lists share one search per
n within a run_suites call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from pardiff import counting, engine, oracle, orientations
from pardiff.errors import DomainError
from pardiff.graphs import (
    Configuration,
    PathGraph,
    SimpleGraph,
    canonicalize,
    parse_graph,
    render_graph,
    shift,
)


@dataclass(frozen=True)
class VerifyConfig:
    """Depth knobs for the suites; defaults keep a full run under a minute."""

    max_n_oracle: int = 8
    max_n_witness: int = 14
    max_n_routes: int = 16
    max_n_structure: int = 12
    random_trials: int = 150
    rng_seed: int = 987


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"suite": self.suite, "name": self.name, "passed": self.passed, "detail": self.detail}


_REGISTRY: dict[str, list[tuple[str, object, bool]]] = {}

# Path lengths at which the count checks run the window DP.
_DP_REACH = (*range(2, 13), 30, 60)


def _check(suite: str, name: str, uses_oracle_lists: bool = False):
    """Register a check; with ``uses_oracle_lists`` it also receives the
    OracleResults for n = 2..max_n_oracle."""

    def deco(fn):
        _REGISTRY.setdefault(suite, []).append((name, fn, uses_oracle_lists))
        return fn

    return deco


def suite_names() -> list[str]:
    return list(_REGISTRY)


def run_suites(config: VerifyConfig = VerifyConfig(), suites=None) -> list[CheckResult]:
    """Run the selected suites (all by default) and collect per-check results."""
    if suites is None:
        selected = list(_REGISTRY)
    else:
        unknown = [s for s in suites if s not in _REGISTRY]
        if unknown:
            raise DomainError(f"unknown suites {unknown}; available: {list(_REGISTRY)}")
        selected = list(suites)
    results = []
    oracle_lists = None
    for suite in selected:
        for name, fn, uses_oracle_lists in _REGISTRY[suite]:
            try:
                if uses_oracle_lists:
                    if oracle_lists is None:
                        oracle_lists = [
                            oracle.enumerate_p2_configurations(n)
                            for n in range(2, config.max_n_oracle + 1)
                        ]
                    detail = fn(config, oracle_lists)
                else:
                    detail = fn(config)
            except Exception as exc:  # a crashing check is a failing check
                detail = f"raised {type(exc).__name__}: {exc}"
            results.append(CheckResult(suite, name, detail is None, detail or ""))
    return results


# ---------------------------------------------------------------------------
# helpers


def _random_connected_graph(rng: random.Random, max_vertices: int = 10) -> SimpleGraph:
    m = rng.randint(2, max_vertices)
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


def _all_sense_vectors(edge_count: int):
    from itertools import product

    from pardiff.graphs import SENSE_ORDER

    for senses in product(SENSE_ORDER, repeat=edge_count):
        yield "".join(senses)


# ---------------------------------------------------------------------------
# suite: graph


@_check("graph", "canonicalize-idempotent")
def _chk_canonical_idempotent(cfg: VerifyConfig):
    rng = random.Random(cfg.rng_seed)
    for _ in range(cfg.random_trials):
        _, c = _random_graph_and_config(rng)
        once = canonicalize(c)
        if canonicalize(once) != once:
            return f"not idempotent on stacks {c.stacks}"
    return None


@_check("graph", "shift-composition")
def _chk_shift_composition(cfg: VerifyConfig):
    rng = random.Random(cfg.rng_seed + 1)
    for _ in range(cfg.random_trials):
        _, c = _random_graph_and_config(rng)
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        if shift(shift(c, a), b) != shift(c, a + b):
            return f"shift composition broke on stacks {c.stacks}, a={a}, b={b}"
    return None


@_check("graph", "parse-render-round-trip")
def _chk_round_trip(cfg: VerifyConfig):
    rng = random.Random(cfg.rng_seed + 2)
    for _ in range(cfg.random_trials):
        graph = PathGraph(rng.randint(1, 12)) if rng.random() < 0.4 else _random_connected_graph(rng)
        if parse_graph(render_graph(graph)) != graph:
            return f"round trip failed for {render_graph(graph)!r}"
    return None


# ---------------------------------------------------------------------------
# suite: engine


@_check("engine", "chip-conservation")
def _chk_conservation(cfg: VerifyConfig):
    rng = random.Random(cfg.rng_seed + 3)
    for _ in range(cfg.random_trials):
        graph, c = _random_graph_and_config(rng)
        fired = engine.fire_step(graph, c)
        if sum(fired.stacks) != sum(c.stacks):
            return f"chip total changed on {render_graph(graph)!r} stacks {c.stacks}"
    return None


@_check("engine", "shift-equivariance")
def _chk_equivariance(cfg: VerifyConfig):
    rng = random.Random(cfg.rng_seed + 4)
    for _ in range(cfg.random_trials):
        graph, c = _random_graph_and_config(rng)
        k = rng.randint(-7, 7)
        if engine.fire_step(graph, shift(c, k)) != shift(engine.fire_step(graph, c), k):
            return f"firing does not commute with shift {k} on stacks {c.stacks}"
    return None


@_check("engine", "period-reversal")
def _chk_period_reversal(cfg: VerifyConfig):
    for n in range(3, 11):
        graph = PathGraph(n)
        for orient in orientations.enumerate_p2_orientations(n):
            c = orientations.witness_configuration(orient)
            fired = engine.fire_step(graph, c)
            if engine.induced_orientation(graph, fired) != orient.flipped():
                return f"orientation {orient.to_string()} not reversed after firing"
    return None


@_check("engine", "random-period-detection")
def _chk_random_period(cfg: VerifyConfig):
    rng = random.Random(cfg.rng_seed + 5)
    for _ in range(cfg.random_trials):
        graph, c = _random_graph_and_config(rng)
        report = engine.detect_period(graph, c, engine.default_max_steps(graph, c))
        if report.period not in (1, 2):
            return f"period {report.period} on {render_graph(graph)!r} stacks {c.stacks}"
    return None


@_check("engine", "fixed-point-iff-all-equal")
def _chk_fixed_points(cfg: VerifyConfig):
    rng = random.Random(cfg.rng_seed + 6)
    for _ in range(cfg.random_trials):
        graph = _random_connected_graph(rng)
        c = _random_config(rng, graph)
        fixed = engine.fire_step(graph, c) == c
        equal = len(set(c.stacks)) == 1
        if fixed != equal:
            return f"fixed={fixed} but all-equal={equal} on {render_graph(graph)!r} stacks {c.stacks}"
        report = engine.detect_period(graph, c, engine.default_max_steps(graph, c))
        if report.period == 1 and set(canonicalize(report.orbit[0]).stacks) != {0}:
            return f"period-1 orbit {report.orbit[0].stacks} does not canonicalize to zero"
    return None


# ---------------------------------------------------------------------------
# suite: orientation


@_check("orientation", "realized-equals-enumerated", uses_oracle_lists=True)
def _chk_realized(cfg: VerifyConfig, oracle_lists):
    for result in oracle_lists:
        n = result.n
        realized = oracle.orientations_realized(result)
        enumerated = set(orientations.enumerate_p2_orientations(n))
        if realized != enumerated:
            extra = {o.to_string() for o in realized - enumerated}
            missing = {o.to_string() for o in enumerated - realized}
            return f"n={n}: extra {sorted(extra)}, missing {sorted(missing)}"
    return None


@_check("orientation", "count-matches-recurrence")
def _chk_orientation_counts(cfg: VerifyConfig):
    for n in range(1, 19):
        got = len(orientations.enumerate_p2_orientations(n))
        want = orientations.count_p2_orientations_recurrence(n)
        if got != want:
            return f"n={n}: enumerated {got}, recurrence {want}"
    return None


@_check("orientation", "witness-valid")
def _chk_witness(cfg: VerifyConfig):
    for n in range(2, cfg.max_n_witness + 1):
        graph = PathGraph(n)
        for orient in orientations.enumerate_p2_orientations(n):
            c = orientations.witness_configuration(orient)
            once = engine.fire_step(graph, c)
            if once == c or engine.fire_step(graph, once) != c:
                return f"witness for {orient.to_string()} is not exactly 2-periodic"
            if engine.induced_orientation(graph, c) != orient:
                return f"witness for {orient.to_string()} induces a different orientation"
    return None


@_check("orientation", "mirror-symmetry")
def _chk_mirror(cfg: VerifyConfig):
    from pardiff.graphs import PathOrientation

    for e in range(1, 8):
        for senses in _all_sense_vectors(e):
            o = PathOrientation(senses)
            if orientations.check_p2_orientation(o).legal != orientations.check_p2_orientation(o.mirrored()).legal:
                return f"legality changed under mirroring for {o.to_string()}"
    return None


@_check("orientation", "flip-symmetry")
def _chk_flip(cfg: VerifyConfig):
    from pardiff.graphs import PathOrientation

    for e in range(1, 8):
        for senses in _all_sense_vectors(e):
            o = PathOrientation(senses)
            if orientations.check_p2_orientation(o).legal != orientations.check_p2_orientation(o.flipped()).legal:
                return f"legality changed under direction flip for {o.to_string()}"
    return None


# ---------------------------------------------------------------------------
# suite: counting


@_check("counting", "route-agreement")
def _chk_routes(cfg: VerifyConfig):
    for n in range(2, cfg.max_n_routes + 1):
        rec = counting.count_T_recurrence(n)
        summ = counting.count_T_summation(n)
        direct = counting.count_T_direct(n)
        if not rec == summ == direct:
            return f"n={n}: recurrence {rec}, summation {summ}, direct {direct}"
    return None


@_check("counting", "severing-multiplicative")
def _chk_severing(cfg: VerifyConfig):
    for n in range(2, cfg.max_n_structure + 1):
        for orient in orientations.enumerate_p2_orientations(n):
            if "F" not in orient.senses:
                continue
            whole = counting.count_configs_on_orientation(orient)
            prod = 1
            for part in counting.sever_at_flats(orient):
                prod *= counting.count_configs_on_orientation(part)
            if whole != prod:
                return f"{orient.to_string()}: whole {whole} != product {prod}"
    return None


@_check("counting", "contraction-invariant")
def _chk_contraction(cfg: VerifyConfig):
    for n in range(4, cfg.max_n_structure + 1):
        for orient in orientations.enumerate_p2_orientations(n):
            before = counting.count_configs_on_orientation(orient)
            for i in counting.agreeing_pair_positions(orient):
                smaller = counting.contract_agreeing(orient, i)
                if not orientations.check_p2_orientation(smaller).legal:
                    return f"{orient.to_string()} contracted at {i} is illegal"
                if counting.count_configs_on_orientation(smaller) != before:
                    return f"{orient.to_string()} contracted at {i} changed the count"
    return None


@_check("counting", "alternating-sequence")
def _chk_alternating(cfg: VerifyConfig):
    for n in range(3, 14):
        if counting.alternating_count(n + 1) != 3 * counting.alternating_count(n):
            return f"A_{n + 1} != 3 A_{n}"
    for n in range(2, 15):
        direct = sum(
            counting.count_configs_on_orientation(o) for o in counting.alternating_orientations(n)
        )
        if direct != counting.alternating_count(n):
            return f"n={n}: direct alternating {direct} != closed form {counting.alternating_count(n)}"
    return None


@_check("counting", "stage-claims")
def _chk_stage(cfg: VerifyConfig):
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
def _chk_ratio(cfg: VerifyConfig):
    model = counting.characteristic_roots()
    ratio = counting.count_T_recurrence(31) / counting.count_T_recurrence(30)
    if abs(ratio - model.dominant_root) > 1e-3:
        return f"T_31/T_30 = {ratio} vs dominant root {model.dominant_root}"
    return None


@_check("counting", "summation-erratum-detectable")
def _chk_erratum(cfg: VerifyConfig):
    printed = counting.count_T_summation(5, use_printed_limit=True)
    if printed != 88:
        return f"printed-limit value at n=5 is {printed}, expected the known-bad 88"
    if counting.count_T_summation(5) != 96:
        return "corrected limit no longer gives 96 at n=5"
    return None


@_check("counting", "characteristic-roots")
def _chk_roots(cfg: VerifyConfig):
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
def _chk_oracle_counts(cfg: VerifyConfig):
    """Window-DP count at b = 3 against T_n for n = 2..12, 30 and 60."""
    for n in _DP_REACH:
        got = oracle.count_p2_configurations(n)
        want = counting.count_T_recurrence(n)
        if got != want:
            return f"n={n}: oracle {got}, recurrence {want}"
    return None


@_check("oracle", "per-orientation-refinement", uses_oracle_lists=True)
def _chk_refinement(cfg: VerifyConfig, oracle_lists):
    from collections import Counter

    for result in oracle_lists:
        n = result.n
        grouped = Counter(
            engine.orientation_of_stacks(c.stacks).to_string() for c in result.configurations
        )
        for orient in orientations.enumerate_p2_orientations(n):
            want = counting.count_configs_on_orientation(orient)
            got = grouped.get(orient.to_string(), 0)
            if got != want:
                return f"n={n} {orient.to_string()}: oracle {got}, multipliers {want}"
    return None


@_check("oracle", "orbit-pairing", uses_oracle_lists=True)
def _chk_orbit_pairing(cfg: VerifyConfig, oracle_lists):
    for result in oracle_lists:
        n = result.n
        graph = PathGraph(n)
        members = set(result.configurations)
        for c in result.configurations:
            partner = canonicalize(engine.fire_step(graph, c))
            if partner not in members:
                return f"n={n}: partner of {c.stacks} missing from the oracle set"
    return None


@_check("oracle", "bound-stability")
def _chk_bound_stability(cfg: VerifyConfig):
    """Window-DP counts at b = 3 and b = 4 agree for n = 2..12, 30 and 60."""
    for n in _DP_REACH:
        if not oracle.bound_stability_check(n):
            return f"n={n}: counts differ between bounds 3 and 4"
    return None


@_check("oracle", "bridge-degenerate-cases")
def _chk_bridge_degenerate(cfg: VerifyConfig):
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
