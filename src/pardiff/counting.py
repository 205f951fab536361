"""Configuration counts per orientation and their aggregates on paths.

Given a legal orientation, each vertex admits 1, 2, or 3 initial stack sizes
once everything to its right is chosen, and the product of these multipliers
is the number of 2-periodic configurations inducing the orientation (v_1
pinned at zero). Totals are computed by three independent routes, a linear
recurrence, a severing/stage summation, and the direct multiplier sum, which
must all agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from pardiff.errors import (
    CeilingError,
    DomainError,
    IllegalLocalPatternError,
    IllegalOrientationError,
    InternalInconsistencyError,
    NotAnAgreeingPairError,
    VertexIndexError,
)
from pardiff.graphs import SENSE_FLIP, PathOrientation
from pardiff.orientations import _enum_ceiling, check_p2_orientation, enumerate_p2_orientations

# Multiplier of v_k from the senses of (e_{k-2}, e_{k-1}, e_k), for interior
# vertices where both v_k and v_{k-1} have two neighbours. All 27 triples are
# listed; direction-flipped patterns share values, and None marks a triple no
# legal orientation contains.
MULTIPLIER_TABLE: dict[str, int | None] = {
    # middle edge disagrees with both neighbours (fully alternating)
    "LRL": 3,
    "RLR": 3,
    # disagreeing directed pair next to one flat edge
    "FRL": 2,
    "FLR": 2,
    "LRF": 2,
    "RLF": 2,
    # agreeing pair touching v_k or v_{k-1}
    "RRL": 1,
    "LLR": 1,
    "RLL": 1,
    "LRR": 1,
    # directed edge between two flats
    "FRF": 1,
    "FLF": 1,
    # flat between disagreeing directed edges
    "RFL": 1,
    "LFR": 1,
    # adjacent flats
    "FFF": None,
    "FFR": None,
    "FFL": None,
    "RFF": None,
    "LFF": None,
    # flat straddled by agreeing directed edges
    "RFR": None,
    "LFL": None,
    # agreeing pair against a flat or a third agreeing edge
    "RRF": None,
    "LLF": None,
    "FRR": None,
    "FLL": None,
    "RRR": None,
    "LLL": None,
}


@dataclass(frozen=True)
class MultiplierVector:
    """Per-vertex multipliers, v_1 first; entry 1 is always 1."""

    values: tuple[int, ...]

    def product(self) -> int:
        p = 1
        for v in self.values:
            p *= v
        return p


@dataclass(frozen=True)
class CountLedger:
    """Per-orientation products and the aggregate counts for one path length."""

    n: int
    per_orientation: dict[str, int]
    totals: dict[str, int]

    def to_dict(self) -> dict:
        return {"n": self.n, "per_orientation": dict(self.per_orientation), "totals": dict(self.totals)}


@dataclass(frozen=True)
class AsymptoticModel:
    """Roots of x^4 - 3x^3 - 2x^2 - x + 1 and the fitted dominant term."""

    roots: tuple[complex, ...]
    dominant_root: float
    dominant_coefficient: float


def vertex_multiplier(orient: PathOrientation, k: int) -> int:
    """Number of admissible stack sizes for v_k given all stacks to its right.

    Assumes the orientation is legal overall; a locally impossible sense
    triple still raises IllegalLocalPatternError.
    """
    n = orient.n
    if not 1 <= k <= n:
        raise VertexIndexError(f"vertex {k} outside [1, {n}]")
    if k == 1:
        return 1
    if n == 2:
        # Both stacks of a 2-periodic pair on one edge are forced once v_1 is
        # pinned, so the single leaf neighbour contributes no freedom.
        return 1
    if k == 2:
        return 1 if orient.senses[1] == "F" else 2
    if k == n:
        return 1 if orient.senses[n - 3] == "F" else 2
    triple = orient.senses[k - 3 : k]
    value = MULTIPLIER_TABLE[triple]
    if value is None:
        raise IllegalLocalPatternError(f"senses {triple} around v_{k} occur in no legal orientation")
    return value


def multiplier_vector(orient: PathOrientation) -> MultiplierVector:
    return MultiplierVector(tuple(vertex_multiplier(orient, k) for k in range(1, orient.n + 1)))


def count_configs_on_orientation(orient: PathOrientation) -> int:
    """Product of the vertex multipliers; the orientation must be legal."""
    report = check_p2_orientation(orient)
    if not report.legal:
        raise IllegalOrientationError(
            f"orientation {orient.to_string()!r} violates {report.violations[0][0]}"
        )
    return multiplier_vector(orient).product()


def alternating_count(n: int) -> int:
    """Configurations on the two fully alternating orientations: 8 * 3^(n-3)."""
    if n < 1:
        raise DomainError("n must be positive")
    if n == 1:
        return 0
    if n == 2:
        return 2
    return 8 * 3 ** (n - 3)


def alternating_orientations(n: int) -> list[PathOrientation]:
    """The two flat-free orientations in which every adjacent edge pair disagrees."""
    if n < 2:
        return []
    return [PathOrientation((pair * n)[: n - 1]) for pair in ("RL", "LR")]


def count_T_recurrence(n: int) -> int:
    """T_n from T_n = 3 T_{n-1} + 2 T_{n-2} + T_{n-3} - T_{n-4}, seeded 0, 2, 8, 26."""
    if n < 1:
        raise DomainError("n must be positive")
    a, b, c, d = 0, 2, 8, 26  # T_1..T_4, then a rolling window T_{m-3}..T_m
    if n <= 4:
        return (a, b, c, d)[n - 1]
    for _ in range(n - 4):
        a, b, c, d = b, c, d, 3 * d + 2 * c + b - a
    return d


def count_T_direct(n: int) -> int:
    """Sum of per-orientation products over every enumerated legal orientation."""
    if n == 1:
        return 0
    return sum(multiplier_vector(o).product() for o in enumerate_p2_orientations(n))


def _first_hit_buckets(m: int) -> list[int]:
    """Configuration totals on the m-path, bucketed by where the orientation
    first shows a flat edge or an agreeing pair.

    Bucket j (0-based edge index) collects the orientations whose first flat
    edge is e_{j+1}, or whose first agreeing pair is (e_j, e_{j+1}), whichever
    comes first. The alternating orientations show neither and fill the last
    bucket, j = m - 1, one past the last edge.
    """
    buckets = [0] * m
    for o in enumerate_p2_orientations(m):
        s = o.senses
        j = 0
        while j < len(s) and s[j] != "F" and (j == 0 or s[j] != s[j - 1]):
            j += 1
        buckets[j] += multiplier_vector(o).product()
    return buckets


def stage(n: int, k: int) -> int:
    """Configurations whose orientation shows a flat or an agreeing pair early.

    Early means a flat edge among e_1..e_{k+1} or an agreeing directed pair
    (e_{i-1}, e_i) with i <= k+1. When the window k+1 runs past the last edge
    every orientation counts, which makes stage(n, k) = T_n for k >= n-1.
    """
    if n < 2:
        raise DomainError("stage needs n >= 2")
    if k < 0:
        raise DomainError("stage needs k >= 0")
    return sum(_first_hit_buckets(n)[: k + 1])


def _half_alternating(k: int) -> int:
    a = alternating_count(k)
    if a % 2:
        raise InternalInconsistencyError(f"alternating count {a} for n={k} is odd")
    return a // 2


def count_T_summation(n: int, use_printed_limit: bool = False) -> int:
    """T_n as alternating + flat-first + agreeing-first contributions.

    T_2..T_n are built bottom-up, each from the earlier ones, so the route
    never consults the recurrence. The agreeing-first term of T_m adds
    T_{m-2} - stage(m-2, k-2) for k = 3..m-2, read as suffix sums of the
    first-hit buckets of the (m-2)-path. The printed form of that upper limit
    is m-3, which undercounts (88 instead of 96 at n = 5); it is kept behind
    ``use_printed_limit``, applied to T_n alone, purely as a regression
    reference.
    """
    if n < 2:
        raise DomainError("summation route needs n >= 2")
    limit = _enum_ceiling()
    if n - 2 > limit:
        raise CeilingError(
            f"summation route at n = {n} enumerates orientations at n - 2 = {n - 2},"
            f" capped at n = {limit}"
        )
    t = [0, 0]  # t[m] = T_m; t[0] and t[1] are never read
    for m in range(2, n + 1):
        total = alternating_count(m)
        for k in range(2, m - 1):
            total += _half_alternating(k) * t[m - k]
        if m >= 5:
            buckets = _first_hit_buckets(m - 2)
            agree_upper = m - 3 if use_printed_limit and m == n else m - 2
            for k in range(3, agree_upper + 1):
                total += sum(buckets[k - 1 :])
        t.append(total)
    return t[n]


def build_count_ledger(n: int) -> CountLedger:
    """All three total routes plus per-orientation products for one n."""
    per = {}
    for o in enumerate_p2_orientations(n) if n > 1 else []:
        per[o.to_string()] = multiplier_vector(o).product()
    totals = {
        "R_n": len(per),
        "A_n": alternating_count(n),
        "T_recurrence": count_T_recurrence(n),
        "T_summation": count_T_summation(n) if n >= 2 else 0,
        "T_direct": sum(per.values()),
    }
    return CountLedger(n=n, per_orientation=per, totals=totals)


def sever_at_flats(orient: PathOrientation) -> list[PathOrientation]:
    """Suborientations on the maximal flat-free segments (flat edges deleted).

    For a legal input every segment is itself legal, and the product of the
    segment counts equals the whole orientation's count.
    """
    report = check_p2_orientation(orient)
    if not report.legal:
        raise IllegalOrientationError(
            f"orientation {orient.to_string()!r} violates {report.violations[0][0]}"
        )
    return [PathOrientation(part) for part in orient.senses.split("F")]


def contract_agreeing(orient: PathOrientation, i: int) -> PathOrientation:
    """Remove the agreeing pair (e_{i-1}, e_i) and flip every later directed edge.

    The result lives on a path with two fewer vertices and is induced by
    exactly as many configurations as the input.
    """
    report = check_p2_orientation(orient)
    if not report.legal:
        raise IllegalOrientationError(
            f"orientation {orient.to_string()!r} violates {report.violations[0][0]}"
        )
    s = orient.senses
    if not 2 <= i <= len(s):
        raise NotAnAgreeingPairError(f"no edge pair (e_{i - 1}, e_{i}) on this path")
    if s[i - 2] == "F" or s[i - 2] != s[i - 1]:
        raise NotAnAgreeingPairError(f"edges e_{i - 1}, e_{i} are not an agreeing directed pair")
    return PathOrientation(s[: i - 2] + s[i:].translate(SENSE_FLIP))


def agreeing_pair_positions(orient: PathOrientation) -> list[int]:
    """Indices i such that (e_{i-1}, e_i) is an agreeing directed pair."""
    s = orient.senses
    return [i for i in range(2, len(s) + 1) if s[i - 2] != "F" and s[i - 2] == s[i - 1]]


_CHAR_POLY = (1, -3, -2, -1, 1)  # x^4 - 3x^3 - 2x^2 - x + 1, leading coefficient first


def _char_poly(z: complex) -> complex:
    value = 0j
    for c in _CHAR_POLY:
        value = value * z + c
    return value


def characteristic_roots(fit_range: tuple[int, int] = (20, 30)) -> AsymptoticModel:
    """Roots of the T-recurrence polynomial by Durand-Kerner, plus a fitted c_1.

    Durand-Kerner refines all four roots at once: each moves by p(z_i) over
    the product of its distances to the others, from the standard distinct
    seeds (0.4 + 0.9i)^i. The leading coefficient is a one-parameter
    least-squares fit of T_n against alpha_1^n over the given inclusive n range.
    """
    zs = [(0.4 + 0.9j) ** i for i in range(4)]
    for _ in range(500):
        moved = 0.0
        for i, z in enumerate(zs):
            denom = 1 + 0j
            for j, w in enumerate(zs):
                if j != i:
                    denom *= z - w
            step = _char_poly(z) / denom
            zs[i] = z - step
            moved = max(moved, abs(step))
        if moved < 1e-15:
            break
    roots = tuple(sorted(zs, key=lambda z: -abs(z)))
    real_roots = sorted((z.real for z in roots if abs(z.imag) < 1e-9), reverse=True)
    dominant = real_roots[0]
    lo, hi = fit_range
    num = sum(count_T_recurrence(m) * dominant**m for m in range(lo, hi + 1))
    den = sum(dominant ** (2 * m) for m in range(lo, hi + 1))
    return AsymptoticModel(roots=roots, dominant_root=dominant, dominant_coefficient=num / den)


def conjecture_recurrence_check(counts: list[int]) -> list[int]:
    """Residual of each count against the order-4 recurrence, for indices >= 4."""
    if len(counts) < 5:
        raise DomainError("need at least five consecutive counts")
    return [
        counts[k] - (3 * counts[k - 1] + 2 * counts[k - 2] + counts[k - 3] - counts[k - 4])
        for k in range(4, len(counts))
    ]


def sequence_rows(n_max: int) -> list[tuple[int, int, int, int]]:
    """CSV-ready rows (n, R_n, A_n, T_n) for n = 1..n_max."""
    from pardiff.orientations import count_p2_orientations_recurrence

    return [
        (n, count_p2_orientations_recurrence(n), alternating_count(n), count_T_recurrence(n))
        for n in range(1, n_max + 1)
    ]
