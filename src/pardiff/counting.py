"""Configuration counts per orientation and their aggregates on paths.

Given a legal orientation, each vertex admits 1, 2, or 3 initial stack sizes
once everything to its right is chosen, and the product of these multipliers
is the number of 2-periodic configurations inducing the orientation (v_1
pinned at zero). Totals are computed by three independent routes, a linear
recurrence, a severing/stage summation, and the direct multiplier sum, which
must all agree. The lemmas behind the summation (severing, contraction,
stage) and the asymptotics of T_n live in pardiff.lemmas, which no count
runs.
"""

import math
from itertools import accumulate

from pardiff.errors import DomainError, IllegalLocalPatternError, VertexIndexError
from pardiff.orientations import (
    _legal_arcs,
    _listed,
    _may_follow,
    _require_legal,
    _require_senses,
)
from pardiff.transfer import Automaton

# Multiplier of v_k from the senses of (e_{k-2}, e_{k-1}, e_k), for interior
# vertices where both v_k and v_{k-1} have two neighbours; direction-flipped
# patterns share values. The 13 triples left out occur in no legal
# orientation: adjacent flats, a flat straddled by agreeing directed edges,
# and an agreeing pair against a flat or a third agreeing edge.
MULTIPLIER_TABLE: dict[str, int] = {
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
}


def vertex_multiplier(orient: str, k: int) -> int:
    """Number of admissible stack sizes for v_k given all stacks to its right.

    Assumes the orientation is legal overall, and reads only the senses of
    e_{k-2}, e_{k-1} and e_k, those that exist. At v_1, v_2 and v_n a letter
    outside "RLF" among them raises GraphFormatError. At an interior vertex
    a locally impossible sense triple, including one with such a letter,
    raises IllegalLocalPatternError.
    """
    n = len(orient) + 1
    if not 1 <= k <= n:
        raise VertexIndexError(f"vertex {k} outside [1, {n}]")
    if k <= 2 or k == n:
        _require_senses(orient[max(k - 3, 0) : k])
    return _vertex_factor(orient[max(k - 3, 0) : min(k, n - 1)], k, n)


def _vertex_factor(senses: str, k: int, n: int) -> int:
    """Multiplier of v_k on the n-path, read from ``senses``: the senses of e_{k-2},
    e_{k-1} and e_k that exist. ``vertex_multiplier`` and ``_COUNTS`` both use it."""
    if k == 1 or n == 2:
        # v_1 is pinned; and both stacks of a 2-periodic pair on one edge are
        # forced once v_1 is, so the single leaf neighbour adds no freedom.
        return 1
    if k == 2:
        return 1 if senses[1] == "F" else 2
    if k == n:
        return 1 if senses[0] == "F" else 2  # from e_{n-2}
    value = MULTIPLIER_TABLE.get(senses)
    if value is None:
        raise IllegalLocalPatternError(f"senses {senses} around v_{k} occur in no legal orientation")
    return value


def multiplier_vector(orient: str) -> tuple[int, ...]:
    """Per-vertex multipliers, v_1 first; entry 1 is always 1."""
    _require_senses(orient)
    return tuple(vertex_multiplier(orient, k) for k in range(1, len(orient) + 2))


def count_configs_on_orientation(orient: str) -> int:
    """Product of the vertex multipliers; the orientation must be legal.

    Once legal, the letters need no second look, so each vertex's factor is
    read straight off its slice of senses, vertex by vertex.
    """
    _require_legal(orient)
    n = len(orient) + 1
    return math.prod([_vertex_factor(orient[max(k - 3, 0) : k], k, n) for k in range(1, n + 1)])


def alternating_count(n: int) -> int:
    """Configurations on the two fully alternating orientations: 8 * 3^(n-3)."""
    if n < 1:
        raise DomainError("n must be positive")
    if n == 1:
        return 0
    if n == 2:
        return 2
    return 8 * 3 ** (n - 3)


def alternating_orientations(n: int) -> list[str]:
    """The two flat-free orientations in which every adjacent edge pair disagrees."""
    if n < 2:
        return []
    return [(pair * n)[: n - 1] for pair in ("RL", "LR")]


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


def _count_arcs(tail: str) -> list[tuple[str, str, int]]:
    """The arcs of _legal_arcs weighted by the multiplier of v_p, e_p being the edge
    placed: v_p is no leaf, and from p = 3 on its multiplier reads senses alone."""
    p = min(len(tail) + 1, 3)
    return [(sense, target, _vertex_factor(tail + sense, p, p + 1))
            for sense, target, _ in _legal_arcs(tail)]


def _count_final(tail: str) -> int:
    """The leaf v_n's multiplier where the path may end (a flat may follow), else 0."""
    n = len(tail) + 1  # from n = 3 on, the multiplier reads the senses alone
    return _vertex_factor(tail, n, n) if _may_follow(tail, "F") else 0


# Every orientation of every path as a word over RLF, weighing its count (0 if illegal).
_COUNTS = Automaton("", _count_arcs, _count_final)


def count_T_direct(n: int) -> int:
    """Sum of the configuration counts of every legal orientation, listing none:
    the total weight of the (n-1)-letter words of _COUNTS, at any n."""
    if n < 1:
        raise DomainError("n must be positive")
    for total in _COUNTS.totals(n - 1):
        pass  # keep only the last, that of n - 1 letters
    return total


def _first_hit_buckets(m: int, after: list[list[int]]) -> list[int]:
    """Configuration totals on the m-path, bucketed by where the orientation
    first shows a flat edge or an agreeing pair.

    Bucket j (0-based edge index) collects the orientations whose first flat
    edge is e_{j+1}, or whose first agreeing pair is (e_j, e_{j+1}), whichever
    comes first; the alternating ones show neither and fill bucket m - 1.
    Bucket j < m - 1 sums, over the arcs of _COUNTS that break an alternating
    prefix at e_{j+1}, the prefix's weight times the arc's times the
    completions where it leads, read from ``after`` = list(_COUNTS.completions(r)), r >= m - 2.
    """
    buckets = [0] * m
    for alternating in alternating_orientations(m):
        state, weight = 0, 1
        for p, letter in enumerate(alternating, start=1):
            for sense, target, factor in _COUNTS.arcs[state]:
                if sense == letter:
                    next_state, next_weight = target, weight * factor
                elif p > 1:  # a flat or an agreeing pair; at e_1, the other alternation
                    buckets[p - 1] += weight * factor * after[m - 1 - p][target]
            state, weight = next_state, next_weight
        buckets[m - 1] += weight * _COUNTS.final[state]
    return buckets


def count_T_summation(n: int, use_printed_limit: bool = False) -> int:
    """T_n as alternating + flat-first + agreeing-first contributions.

    T_2..T_n are built bottom-up, each from the earlier ones, so the route
    never consults the recurrence. The agreeing-first term of T_m adds
    T_{m-2} - stage(m-2, k-2) for k = 3..m-2, read as suffix sums of the
    first-hit buckets of the (m-2)-path, all off one list of completion
    vectors. The printed form of that upper limit is m-3, which
    undercounts (88 instead of 96 at n = 5); it is kept behind
    ``use_printed_limit``, applied to T_n alone, as a regression reference.
    """
    if n < 1:
        raise DomainError("n must be positive")
    after = list(_COUNTS.completions(n - 4)) if n >= 5 else []  # read up to n - 4 letters
    t = [0, 0]  # t[m] = T_m from T_1 = 0; t[0] is never read
    for m in range(2, n + 1):
        total = alternating_count(m)
        for k in range(2, m - 1):
            total += alternating_count(k) // 2 * t[m - k]
        if m >= 5:
            suffix = list(accumulate(reversed(_first_hit_buckets(m - 2, after))))[::-1]
            agree_upper = m - 3 if use_printed_limit and m == n else m - 2
            total += sum(suffix[2:agree_upper])  # sum(buckets[k - 1:]) for k = 3..agree_upper
        t.append(total)
    return t[n]


def build_count_ledger(n: int) -> dict:
    """All three total routes plus per-orientation products for one n, as the
    count body's ledger: {"n", "per_orientation", "totals"}.
    """
    per = dict(zip(*_listed(_COUNTS, n)))
    totals = {
        "R_n": len(per),
        "A_n": alternating_count(n),
        "T_recurrence": count_T_recurrence(n),
        "T_summation": count_T_summation(n),
        "T_direct": sum(per.values()),
    }
    return {"n": n, "per_orientation": per, "totals": totals}


_CHAR_POLY = (1, -3, -2, -1, 1)  # x^4 - 3x^3 - 2x^2 - x + 1, leading coefficient first


def conjecture_recurrence_check(counts: list[int]) -> list[int]:
    """Residual of each count against the order-4 recurrence, for indices >= 4."""
    if len(counts) < 5:
        raise DomainError("need at least five consecutive counts")
    return [
        counts[k] - (3 * counts[k - 1] + 2 * counts[k - 2] + counts[k - 3] - counts[k - 4])
        for k in range(4, len(counts))
    ]
