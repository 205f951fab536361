"""Firing-only counts of 2-periodic configurations on paths, by automaton.

Nothing here uses the orientation or multiplier theory. The firing rule
only reads a radius-two neighbourhood, so on a path whether a vertex passes
fire^2 = id, and whether it moves under one firing, is decided by the four
stack differences around it.

On paths the same locality lets one weighted automaton over the signs of
the differences, built from the firing of windows of four differences,
count every length (count_p2_sequence), linear in n. Its state keeps the
last two differences and only the sign of the one before them. Each firing
in a window applies the rule at one vertex directly (_one_firing), and a
test pins that rule to engine.fire_each. The search in pardiff.oracle stays as
the producer of configuration lists and the automaton's small-n
certificate.
"""

from pardiff.errors import CeilingError, DomainError, _candidate_ceiling
from pardiff.transfer import Automaton


def _one_firing(before: int | None, after: int | None) -> int:
    """The change one firing makes to v_i, from d_{i-1} = s_i - s_{i-1} and
    d_i = s_{i+1} - s_i, with None for a missing neighbour.

    v_i takes a chip from each richer neighbour and gives one to each poorer
    one, so the change is sgn(d_i) - sgn(d_{i-1}); a missing neighbour, like
    an equal one, adds nothing.
    """
    gain = 0 if not after else 1 if after > 0 else -1
    loss = 0 if not before else 1 if before > 0 else -1
    return gain - loss


def _window_verdict(window: tuple) -> tuple[bool, bool]:
    """(two firings restore the centre, one firing moves it) on a path window.

    ``window`` is (d_{i-2}, d_{i-1}, d_i, d_{i+1}) around the centre v_i, with
    None where the path ends. One firing moves v_{i-1}, v_i and v_{i+1} by
    the changes their own differences give; the second firing at v_i then
    reads the differences between those new stacks.
    """
    a, b, c, e = window
    mid = _one_firing(b, c)
    before = None if b is None else b + mid - _one_firing(a, b)
    after = None if c is None else c + _one_firing(c, e) - mid
    return mid + _one_firing(before, after) == 0, mid != 0


def _path_automaton(diff_bound: int) -> Automaton:
    """Weighs each orientation by how many configurations
    enumerate_p2_configurations(n, diff_bound) lists with it, at every n.

    A state is the last three differences, None-padded at the front, and
    whether a settled vertex moves under one firing. Appending d reads its
    sign (R for d > 0, as in orientation_of_stacks) and settles the vertex two
    back, which must pass fire^2 = id (the first append's window holds none).
    The final weight settles the last two: 1 if both pass and a vertex moves.
    The oldest difference is read only through _one_firing, which reads its
    sign and reads None like 0, so a state keeps only that sign, with 0 for
    None: 63 states at b = 3, 81 at b = 4.
    """
    diffs = range(-diff_bound, diff_bound + 1)

    def arcs_of(state):
        # _window_verdict((a, b, c, d)) for each d, with the parts that do not
        # read d worked out once per state
        (a, b, c), moved = state
        mid = _one_firing(b, c)
        before = None if b is None else b + mid - _one_firing(a, b)
        moved = moved or mid != 0
        oldest = 0 if not b else 1 if b > 0 else -1  # a missing neighbour reads as an equal one
        for d in diffs:
            after = None if c is None else c + _one_firing(c, d) - mid
            if mid + _one_firing(before, after) == 0:
                yield "R" if d > 0 else "L" if d < 0 else "F", ((oldest, c, d), moved), 1

    def final_of(state):
        tail, moved = state
        last_stays, last_moves = _window_verdict((*tail, None))
        end_stays, end_moves = _window_verdict((*tail[1:], None, None))
        return int(last_stays and end_stays and (moved or last_moves or end_moves))

    return Automaton(((None, None, None), False), arcs_of, final_of)


def count_p2_sequence(n: int, diff_bound: int = 3) -> list[int]:
    """How many configurations enumerate_p2_configurations(m, diff_bound) lists,
    for every m = 2..n (entry m - 2): the totals of _path_automaton, with no
    search. Work is at most (n-1)(2b+1)^4 window steps, held to the oracle
    ceiling.
    """
    if n < 2:
        raise DomainError("the oracle needs n >= 2")
    if diff_bound < 1:
        raise DomainError("diff_bound must be positive")
    ceiling = _candidate_ceiling()
    work = (n - 1) * (2 * diff_bound + 1) ** 4
    if work > ceiling:
        raise CeilingError(f"{work} window steps exceed the oracle ceiling {ceiling}")
    return list(_path_automaton(diff_bound).totals(n - 1))[1:]  # from n = 2 on


def count_p2_configurations(n: int, diff_bound: int = 3) -> int:
    """How many configurations enumerate_p2_configurations(n, diff_bound) lists:
    the last entry of count_p2_sequence(n, diff_bound)."""
    return count_p2_sequence(n, diff_bound)[-1]
