"""Orientation words, and the classification and enumeration of the path
orientations realizable inside a 2-period. The enumeration lists the words
of a pardiff.transfer automaton with listings and words, which live here
rather than in transfer so that the oracle count, which lists no word,
compiles none of them.

On a path drawn with v_1 the RIGHTMOST vertex (see pardiff.graphs), a
directed edge whose head is the lower-indexed endpoint points toward the
right of the drawing and has sense Right; head toward the higher index is
Left; equal stacks give Flat. An orientation string is one letter over
{R, L, F} per edge, e_1 first. Every layer passes an orientation as that
plain string.

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

from itertools import accumulate

from pardiff.errors import (
    CeilingError,
    DomainError,
    GraphFormatError,
    IllegalOrientationError,
    _enum_ceiling,
)
from pardiff.transfer import Automaton

# Edge-sense letters in the enumerator's lexicographic rank: Right < Left < Flat.
SENSE_ORDER = "RLF"

# str.translate table swapping Right and Left; Flat stays Flat.
SENSE_FLIP = str.maketrans("RL", "LR")

RULE_ADJACENT_FLATS = "AdjacentFlats"
RULE_FLAT_AT_LEAF = "FlatAtLeaf"
RULE_FLAT_NOT_BOOKENDED = "FlatNotBookendedByDisagreeing"
RULE_PAIR_NOT_BOOKENDED = "AgreeingPairNotBookended"

_STEP = {"R": 1, "L": -1, "F": 0}  # witness stack change across each sense


def flipped(orient: str) -> str:
    """Swap Right and Left on every edge (the orbit partner's orientation)."""
    return orient.translate(SENSE_FLIP)


def mirrored(orient: str) -> str:
    """Relabel the path from the other end: reverse edge order and swap R/L."""
    return orient[::-1].translate(SENSE_FLIP)


def _require_senses(orient: str) -> None:
    """Raise GraphFormatError naming the first letter outside "RLF", if there is one."""
    bad = orient.lstrip(SENSE_ORDER)
    if bad:
        raise GraphFormatError(f"unknown sense letter {bad[0]!r}")


def check_p2_orientation(s: str) -> tuple[tuple[str, tuple[int, int]], ...]:
    """Every forbidden-pattern violation in the orientation (n >= 2), each as
    (rule id, inclusive 1-based edge span); empty iff the orientation is legal.

    Raises GraphFormatError on the first letter outside "RLF".
    """
    e = len(s)
    if e < 1:
        raise DomainError("orientation checking needs a path with at least one edge")
    _require_senses(s)
    leaves, flats, straddled, pairs = [], [], [], []
    if s[0] == "F":
        leaves.append((RULE_FLAT_AT_LEAF, (1, 1)))
    if e > 1 and s[-1] == "F":
        leaves.append((RULE_FLAT_AT_LEAF, (e, e)))
    # One scan over the adjacent edges (e_k, e_{k+1}); a path's end reads as a flat.
    padded = f"F{s}F"
    for k in range(1, e):
        a, b = padded[k], padded[k + 1]
        if a == "F":
            if b == "F":
                flats.append((RULE_ADJACENT_FLATS, (k, k + 1)))
        elif b == a:
            if padded[k - 1] in ("F", a) or padded[k + 2] in ("F", a):
                pairs.append((RULE_PAIR_NOT_BOOKENDED, (k, k + 1)))
        elif b == "F" and padded[k + 2] == a:
            straddled.append((RULE_FLAT_NOT_BOOKENDED, (k, k + 2)))
    return (*leaves, *flats, *straddled, *pairs)


def _require_legal(orient: str) -> None:
    """Raise IllegalOrientationError naming the first violation, if there is one."""
    violations = check_p2_orientation(orient)
    if violations:
        raise IllegalOrientationError(f"orientation {orient!r} violates {violations[0][0]}")


def _may_follow(tail: str, sense: str) -> bool:
    """Whether the next edge may take ``sense`` after ``tail``, the senses of the
    two edges before it: one at e_2, none at e_1.

    This is the one legality rule of the automata. Each side of each pattern
    (a)-(d) is settled by a sense and the two before it, or by the edge being
    a leaf edge. A path's end acts as a flat edge would, so a legal prefix may
    end where a flat may follow it, and a sense vector that passes here at
    every edge and at its end avoids all four patterns.
    """
    if sense == "F":
        if not tail or tail[-1] == "F":
            return False
        return len(tail) < 2 or tail[0] != tail[1]  # else a directed pair right-bookended by a flat
    if not tail:
        return True
    last = tail[-1]
    if last == "F":
        # a flat is never e_1, so tail holds two senses and tail[0] is directed
        return tail[0] != sense  # else a flat straddled by agreeing directed edges
    if last == sense:
        # the agreeing pair (e_{p-1}, e_p) needs a disagreeing bookend on each side
        return len(tail) == 2 and tail[0] != "F" and tail[0] != sense
    return True


def _legal_arcs(tail: str) -> list[tuple[str, str, int]]:
    """The arcs, of weight 1, out of a legal prefix's state: its last two senses."""
    return [(sense, (tail + sense)[-2:], 1) for sense in SENSE_ORDER if _may_follow(tail, sense)]


# The legal orientations of every path as words of weight 1; one may end where a flat may follow.
_LEGAL = Automaton("", _legal_arcs, lambda tail: int(_may_follow(tail, "F")))


def listings(automaton: Automaton, length: int):
    """Yield, for each length 0, 1, ..., ``length``, the words of ``automaton``
    of that many letters and nonzero weight, once per path, and their
    weights, as parallel lists in no set order, all from one growth pass.
    Prefixes grow a letter at a time, grouped by the state they reach, so
    each arc is taken once per group; the last letter takes only arcs into
    nonzero final weights. Each length's lists are built as the pass reaches
    it, so a caller that wants only the last length pays for the shorter ones
    too: listing the multiplier automaton's 15-letter words took about 0.2 to
    0.5 ms more than the 2.2 ms of a single-length lister (best of 41, 2-core
    host), and the legality automaton's about the same."""
    automaton._explore()
    arcs, final = automaton.arcs, automaton.final
    level: dict[int, tuple[list[str], list[int]]] = {0: ([""], [1])}
    for m in range(length):
        yield _listing(final, level)
        grown: dict[int, tuple[list[str], list[int]]] = {}
        while level:  # each group is dropped once it has grown
            i, (prefixes, weights) = level.popitem()
            for letter, t, w in arcs[i]:
                if m < length - 1 or final[t]:
                    grown_prefixes, grown_weights = grown.setdefault(t, ([], []))
                    grown_prefixes.extend([q + letter for q in prefixes])
                    grown_weights.extend(weights if w == 1 else [x * w for x in weights])
        level = grown
    yield _listing(final, level)


def _listing(final: list[int], level: dict) -> tuple[list[str], list[int]]:
    """The words, and weights, of the prefix groups in ``level`` that may end,
    ``final`` being the automaton's final weights."""
    words: list[str] = []
    weights: list[int] = []
    for i, (prefixes, group) in level.items():
        f = final[i]
        if f:
            words += prefixes
            weights += group if f == 1 else [x * f for x in group]
    return words, weights


def words(automaton: Automaton, length: int) -> tuple[list[str], list[int]]:
    """The last entry of ``listings(automaton, length)``; each shorter one is
    dropped as it comes, so that only one length's lists are held at a time."""
    listed = listings(automaton, length)
    for _ in range(length):
        next(listed)
    return next(listed)


def _listed(automaton: Automaton, n: int) -> tuple[list[str], list[int]]:
    """The n-vertex path's words of ``automaton`` and weights, within the ceiling."""
    if n < 1:
        raise DomainError("n must be positive")
    limit = _enum_ceiling()
    if n > limit:
        raise CeilingError(f"orientation enumeration capped at n = {limit} (asked for {n})")
    return words(automaton, n - 1)


def enumerate_p2_orientations(n: int) -> list[str]:
    """All legal orientations of the n-vertex path, lexicographic with R < L < F.

    The words of _LEGAL, sorted, since its lister groups prefixes by state.
    All have n - 1 letters and "R" > "L" > "F" in code points, so descending
    string order is R < L < F order. The lister makes each legal prefix once,
    about 3.1 R_n of them over all levels (371726 for the 119728
    orientations at n = 20), instead of testing all 3^(n-1) sense vectors.
    """
    senses, _ = _listed(_LEGAL, n)
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


def witness_configuration(orient: str) -> tuple[int, ...]:
    """The stacks of a configuration inducing the orientation and already inside a 2-period.

    Built right to left from v_1 = 0: one chip more than the previous vertex
    across a Right edge, one less across a Left edge, equal across a Flat edge.
    """
    _require_legal(orient)
    return _witness_stacks(orient)


def _witness_stacks(orient: str) -> tuple[int, ...]:
    """witness_configuration for an orientation already known to be legal."""
    return tuple(accumulate(map(_STEP.__getitem__, orient), initial=0))
