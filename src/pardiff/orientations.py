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

from dataclasses import dataclass

from pardiff.errors import CeilingError, DomainError, IllegalOrientationError, env_ceiling
from pardiff.graphs import Configuration, PathGraph, PathOrientation, SENSE_ORDER

RULE_ADJACENT_FLATS = "AdjacentFlats"
RULE_FLAT_AT_LEAF = "FlatAtLeaf"
RULE_FLAT_NOT_BOOKENDED = "FlatNotBookendedByDisagreeing"
RULE_PAIR_NOT_BOOKENDED = "AgreeingPairNotBookended"

DEFAULT_ENUM_CEILING = 20
_ENUM_CEILING_ENV = "PARDIFF_ENUM_CEILING"

_STEP = {"R": 1, "L": -1, "F": 0}  # witness stack change across each sense


@dataclass(frozen=True)
class ForbiddenPatternReport:
    """Checker verdict; each violation is (rule id, inclusive 1-based edge span)."""

    legal: bool
    violations: tuple[tuple[str, tuple[int, int]], ...]


def check_p2_orientation(orient: PathOrientation) -> ForbiddenPatternReport:
    """Report every forbidden-pattern violation in the orientation (n >= 2)."""
    s = orient.senses
    e = len(s)
    if e < 1:
        raise DomainError("orientation checking needs a path with at least one edge")
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


def _enum_ceiling() -> int:
    return env_ceiling(_ENUM_CEILING_ENV, DEFAULT_ENUM_CEILING)


def enumerate_p2_orientations(n: int) -> list[PathOrientation]:
    """All legal orientations of the n-vertex path, lexicographic with R < L < F.

    Depth-first construction over e_1..e_{n-1}; a sense is placed only when no
    forbidden pattern is already forced, which keeps the visit count near the
    output count instead of 3^(n-1).
    """
    if n < 1:
        raise DomainError("n must be positive")
    limit = _enum_ceiling()
    if n > limit:
        raise CeilingError(f"orientation enumeration capped at n = {limit} (asked for {n})")
    if n == 1:
        # A single vertex has only the empty orientation, which belongs to the
        # all-equal fixed configuration, never to a 2-period.
        return []
    edge_count = n - 1
    out: list[PathOrientation] = []
    prefix: list[str] = []

    def extend(p: int):
        # p is the 1-based index of the edge being placed.
        for sense in SENSE_ORDER:
            if sense == "F":
                if p == 1 or p == edge_count:
                    continue
                if prefix[-1] == "F":
                    continue
                if p >= 3 and prefix[-2] == prefix[-1]:
                    continue  # directed pair would be right-bookended by a flat
            elif p >= 2:
                last = prefix[-1]
                if last == "F":
                    # flat can't be at e_1, so prefix[-2] exists and is directed
                    if prefix[-2] == sense:
                        continue  # flat straddled by agreeing directed edges
                elif last == sense:
                    if p == 2 or p == edge_count:
                        continue  # pair missing a bookend at the boundary
                    if prefix[-2] == "F" or prefix[-2] == sense:
                        continue
            prefix.append(sense)
            if p == edge_count:
                out.append(PathOrientation("".join(prefix)))
            else:
                extend(p + 1)
            prefix.pop()

    extend(1)
    return out


def count_p2_orientations_recurrence(n: int) -> int:
    """R_n from R_n = R_{n-1} + 2 R_{n-2} - R_{n-4}, seeded 0, 2, 2, 4."""
    if n < 1:
        raise DomainError("n must be positive")
    vals = [0, 0, 2, 2, 4]  # vals[i] = R_i, dummy at index 0
    while len(vals) <= n:
        m = len(vals)
        vals.append(vals[m - 1] + 2 * vals[m - 2] - vals[m - 4])
    return vals[n]


def witness_configuration(orient: PathOrientation) -> Configuration:
    """A configuration inducing the orientation and already inside a 2-period.

    Built right to left from v_1 = 0: one chip more than the previous vertex
    across a Right edge, one less across a Left edge, equal across a Flat edge.
    """
    report = check_p2_orientation(orient)
    if not report.legal:
        raise IllegalOrientationError(
            f"orientation {orient.to_string()!r} violates {report.violations[0][0]}"
        )
    stacks = [0]
    for sense in orient.senses:
        stacks.append(stacks[-1] + _STEP[sense])
    return Configuration(tuple(stacks), PathGraph(orient.n))
