"""Classification and enumeration of path orientations realizable inside a 2-period.

A path orientation is realizable iff it avoids four local patterns:

  (a) two adjacent flat edges;
  (b) a flat edge on a leaf edge (e_1 or e_{n-1});
  (c) a flat edge whose two neighbours are not a disagreeing directed pair;
  (d) an agreeing directed pair not bookended on both sides by directed
      edges disagreeing with the pair.

Rule (d) applies to each agreeing pair individually, so runs of three or
more agreeing edges fail automatically (the middle edge cannot be
bookended). Two pairs may share a bookend as long as each pair passes.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from pardiff.errors import (
    CeilingError,
    DomainError,
    GraphFormatError,
    IllegalOrientationError,
    env_ceiling,
)
from pardiff.graphs import Configuration, PathGraph, Record, SENSE_ORDER

RULE_ADJACENT_FLATS = "AdjacentFlats"
RULE_FLAT_AT_LEAF = "FlatAtLeaf"
RULE_FLAT_NOT_BOOKENDED = "FlatNotBookendedByDisagreeing"
RULE_PAIR_NOT_BOOKENDED = "AgreeingPairNotBookended"

DEFAULT_ENUM_CEILING = 20
_ENUM_CEILING_ENV = "PARDIFF_ENUM_CEILING"

_STEP = {"R": 1, "L": -1, "F": 0}  # witness stack change across each sense


class ForbiddenPatternReport(Record):
    """Checker verdict; each violation is (rule id, inclusive 1-based edge span)."""

    __slots__ = _fields = ("legal", "violations")

    def __init__(self, legal: bool, violations: tuple[tuple[str, tuple[int, int]], ...]):
        object.__setattr__(self, "legal", legal)
        object.__setattr__(self, "violations", violations)


def _require_senses(orient: str) -> None:
    """Raise GraphFormatError naming the first letter outside "RLF", if there is one."""
    bad = orient.lstrip(SENSE_ORDER)
    if bad:
        raise GraphFormatError(f"unknown sense letter {bad[0]!r}")


def check_p2_orientation(s: str) -> ForbiddenPatternReport:
    """Report every forbidden-pattern violation in the orientation (n >= 2).

    Raises GraphFormatError on the first letter outside "RLF".
    """
    e = len(s)
    if e < 1:
        raise DomainError("orientation checking needs a path with at least one edge")
    _require_senses(s)
    violations = []
    if s[0] == "F":
        violations.append((RULE_FLAT_AT_LEAF, (1, 1)))
    if e > 1 and s[e - 1] == "F":
        violations.append((RULE_FLAT_AT_LEAF, (e, e)))
    for i in range(e - 1):
        if s[i] == "F" and s[i + 1] == "F":
            violations.append((RULE_ADJACENT_FLATS, (i + 1, i + 2)))
    for i in range(1, e - 1):
        if s[i] == "F" and s[i - 1] != "F" and s[i - 1] == s[i + 1]:
            violations.append((RULE_FLAT_NOT_BOOKENDED, (i, i + 2)))
    for i in range(e - 1):
        if s[i] == "F" or s[i] != s[i + 1]:
            continue
        left_ok = i >= 1 and s[i - 1] != "F" and s[i - 1] != s[i]
        right_ok = i + 2 < e and s[i + 2] != "F" and s[i + 2] != s[i]
        if not (left_ok and right_ok):
            violations.append((RULE_PAIR_NOT_BOOKENDED, (i + 1, i + 2)))
    return ForbiddenPatternReport(legal=not violations, violations=tuple(violations))


def _require_legal(orient: str) -> None:
    """Raise IllegalOrientationError naming the first violation, if there is one."""
    report = check_p2_orientation(orient)
    if not report.legal:
        raise IllegalOrientationError(f"orientation {orient!r} violates {report.violations[0][0]}")


def _enum_ceiling() -> int:
    return env_ceiling(_ENUM_CEILING_ENV, DEFAULT_ENUM_CEILING)


def _may_follow(tail: str, sense: str, p: int, edge_count: int) -> bool:
    """Whether e_p may take ``sense`` after ``tail``, the senses of e_{p-2}, e_{p-1}.

    This is the one legality rule the builder applies. Each side of each
    pattern (a)-(d) is settled by a sense and the two before it, or by the
    edge being a leaf edge, so a sense vector in which every sense passes
    here avoids all four patterns.
    """
    if sense == "F":
        if p == 1 or p == edge_count or tail[-1] == "F":
            return False
        return p < 3 or tail[0] != tail[1]  # else a directed pair right-bookended by a flat
    if p == 1:
        return True
    last = tail[-1]
    if last == "F":
        # a flat is never e_1, so tail holds two senses and tail[0] is directed
        return tail[0] != sense  # else a flat straddled by agreeing directed edges
    if last == sense:
        # the agreeing pair (e_{p-1}, e_p) needs a disagreeing bookend on each side
        return p != 2 and p != edge_count and tail[0] != "F" and tail[0] != sense
    return True


def grow_p2_orientations(
    n: int, step_factor: Callable[[str, int], int]
) -> tuple[list[str], list[int]]:
    """Every legal orientation of the n-vertex path with a weight, in no set order.

    Returns parallel lists of sense strings and weights. A prefix's weight is
    the product of ``step_factor(window, p)`` over its placements, where
    ``window`` holds the senses of e_{p-2}, e_{p-1}, e_p (fewer at the start)
    and e_p is the edge just placed. The prefixes are built one edge at a
    time and kept grouped by their last two senses, which is all that
    ``_may_follow`` and the factor read. So each sense is tested and its
    factor taken once per group, and only the string and the weight are
    extended per prefix. Each level is consumed group by group while the
    next one is built, and the last level is returned ungrouped.
    """
    if n < 1:
        raise DomainError("n must be positive")
    limit = _enum_ceiling()
    if n > limit:
        raise CeilingError(f"orientation enumeration capped at n = {limit} (asked for {n})")
    if n == 1:
        # A single vertex has only the empty orientation, which belongs to the
        # all-equal fixed configuration, never to a 2-period.
        return [], []
    edge_count = n - 1
    level: dict[str, tuple[list[str], list[int]]] = {"": ([""], [1])}
    for p in range(1, edge_count + 1):
        grown: dict[str, tuple[list[str], list[int]]] = {}
        while level:
            tail, (prefixes, weights) = level.popitem()
            for sense in SENSE_ORDER:
                if not _may_follow(tail, sense, p, edge_count):
                    continue
                window = tail + sense
                factor = step_factor(window, p)
                key = window[-2:] if p < edge_count else ""
                grown_prefixes, grown_weights = grown.setdefault(key, ([], []))
                grown_prefixes.extend([q + sense for q in prefixes])
                grown_weights.extend(weights if factor == 1 else [w * factor for w in weights])
        level = grown
    return level[""]


def p2_completion_weights(n: int, step_factor: Callable[[str, int], int]) -> Iterator[dict[str, int]]:
    """The weights of ``grow_p2_orientations(n, step_factor)`` summed per group, listing nothing.

    Yields, for r = 0, 1, ..., n - 1 in turn, a dict from each tail (last two
    senses) of a legal prefix of n - 1 - r edges to the total weight of the
    prefix's legal r-edge completions, ending with ``{"": total weight}``.
    This is the builder's pass run backward with one integer per group, the
    transfer-matrix method (Stanley, Enumerative Combinatorics I, section
    4.7): O(n) steps, no ceiling, and two entries held at a time.
    """
    if n < 1:
        raise DomainError("n must be positive")
    if n == 1:
        yield {"": 0}  # as in the builder, the empty orientation is no 2-period
        return
    edge_count = n - 1
    tails = [{""}]  # tails[i]: the tails of the legal prefixes of i edges
    for p in range(1, edge_count + 1):
        grown = {(t + s)[-2:] for t in tails[-1] for s in SENSE_ORDER if _may_follow(t, s, p, edge_count)}
        tails.append(tails[-1] if grown == tails[-1] else grown)  # one set for the long stable run
    rest = dict.fromkeys(tails[edge_count], 1)
    yield rest
    for p in range(edge_count, 0, -1):
        rest = {t: sum(step_factor(t + s, p) * rest[(t + s)[-2:]] for s in SENSE_ORDER
                       if _may_follow(t, s, p, edge_count)) for t in tails[p - 1]}
        yield rest


def _unit_factor(window: str, p: int) -> int:
    return 1


def enumerate_p2_orientations(n: int) -> list[str]:
    """All legal orientations of the n-vertex path, lexicographic with R < L < F.

    Read off ``grow_p2_orientations`` with unit weights, then sorted, since
    the builder's grouping by tail does not keep that order. All the strings
    have n - 1 letters and "R" > "L" > "F" in code points, so descending
    string order is R < L < F order. The builder makes each prefix that
    passes ``_may_follow`` once, about 3.1 R_n of them over all levels
    (371726 for the 119728 orientations at n = 20), instead of testing all
    3^(n-1) sense vectors.
    """
    senses, _ = grow_p2_orientations(n, _unit_factor)
    senses.sort(reverse=True)
    return senses


def count_p2_orientations_recurrence(n: int) -> int:
    """R_n from R_n = R_{n-1} + 2 R_{n-2} - R_{n-4}, seeded 0, 2, 2, 4."""
    if n < 1:
        raise DomainError("n must be positive")
    vals = [0, 0, 2, 2, 4]  # vals[i] = R_i, dummy at index 0
    while len(vals) <= n:
        m = len(vals)
        vals.append(vals[m - 1] + 2 * vals[m - 2] - vals[m - 4])
    return vals[n]


def witness_configuration(orient: str) -> Configuration:
    """A configuration inducing the orientation and already inside a 2-period.

    Built right to left from v_1 = 0: one chip more than the previous vertex
    across a Right edge, one less across a Left edge, equal across a Flat edge.
    """
    _require_legal(orient)
    stacks = [0]
    for sense in orient:
        stacks.append(stacks[-1] + _STEP[sense])
    return Configuration(tuple(stacks), PathGraph(len(stacks)))
