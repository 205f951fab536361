"""Simultaneous firing engine: stepping, traces, and period detection.

One step: every vertex simultaneously sends a chip to each strictly poorer
neighbour, so the new stack is old - (#poorer neighbours) + (#richer
neighbours), all comparisons against the OLD configuration: one pass over
the edges, each moving a chip from its richer end to its poorer end. Every
sequence eventually cycles with period 1 or 2; detection below leans on
that fact and holds only the last two configurations.
"""

from pardiff.errors import (
    ConfigMismatchError,
    DomainError,
    InternalInconsistencyError,
    PeriodNotFoundError,
    StackLimitError,
)
from pardiff.graphs import I64_MAX, Graph, frozen_edges
from pardiff.records import Record


class PeriodReport(Record):
    """Least preperiod N and least period p in {1, 2}, with the orbit's stack
    tuples from time N on."""

    __slots__ = _fields = ("preperiod", "period", "orbit")

    def __init__(self, preperiod: int, period: int, orbit: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "preperiod", preperiod)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "orbit", orbit)


def _fire_raw(stacks: tuple[int, ...], edges: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    out = list(stacks)
    for u, w in edges:
        su, sw = stacks[u], stacks[w]
        if su > sw:
            out[u] -= 1
            out[w] += 1
        elif su < sw:
            out[u] += 1
            out[w] -= 1
    return tuple(out)


def _check_i64(stacks: tuple[int, ...]):
    high = max(stacks, default=0)
    if high > I64_MAX:
        raise StackLimitError(f"stack size {high} outside signed 64-bit range")
    low = min(stacks, default=0)
    if low < -I64_MAX - 1:
        raise StackLimitError(f"stack size {low} outside signed 64-bit range")


def fire_each(graph: Graph, batch) -> list[tuple[int, ...]]:
    """The stacks one simultaneous firing makes of each stack tuple in ``batch``.

    The graph's size and edges are read once for the whole batch; each tuple
    is checked for length and against the 64-bit range as it comes, so the
    first bad tuple raises. A stack moves by at most its degree, below n, so
    only a tuple nearer than n to a 64-bit limit needs the exact check on
    input and output.
    """
    n = graph.vertex_count
    edges = frozen_edges(graph)
    low, high = n - I64_MAX - 1, I64_MAX - n
    fired = []
    for stacks in batch:
        if len(stacks) != n:
            raise ConfigMismatchError(f"{len(stacks)} stacks for {n} vertices")
        if min(stacks) >= low and max(stacks) <= high:
            fired.append(_fire_raw(stacks, edges))
            continue
        _check_i64(stacks)
        new = _fire_raw(stacks, edges)
        _check_i64(new)
        fired.append(new)
    return fired


def run_sequence(graph: Graph, config: tuple[int, ...], steps: int) -> tuple[tuple[int, ...], ...]:
    """C_0 = config, C_1, ..., C_steps: steps firings, so steps + 1 configurations."""
    if steps < 1:
        raise DomainError("steps must be >= 1")
    trace = [config]
    for _ in range(steps):
        trace.append(fire_each(graph, (trace[-1],))[0])
    return tuple(trace)


# Vertex-steps (firings times vertices) in the default period budget:
# detect_period's memory does not grow with its steps, so this bounds time, to about 1 s.
PERIOD_STEP_CAP = 10**6


def default_max_steps(graph: Graph) -> int:
    """Step budget for period detection: PERIOD_STEP_CAP // n firings, at least 4.

    No preperiod bound is known, so running out raises a clean error rather
    than looping forever.
    """
    return max(PERIOD_STEP_CAP // graph.vertex_count, 4)


def detect_period(graph: Graph, config: tuple[int, ...], max_steps: int) -> PeriodReport:
    """Find the least N and least p in {1, 2} with C_{N+p} = C_N (exact equality).

    Only offsets 1 and 2 are accepted, which the period-1-or-2 guarantee makes
    complete, so only C_{t-2} and C_{t-1} are kept. A repeat at another offset
    is impossible for a correct engine. Brent's mark (Brent, BIT 1980), C_0 and
    then C_t at each power of two t, catches a cycle of length l > 2 after m
    steps by step 3 * max(m, l) and raises InternalInconsistencyError at offset l.
    """
    if max_steps < 2:
        raise DomainError("max_steps must be >= 2")
    before, last = None, config
    mark, marked_at = last, 0
    for t in range(1, max_steps + 1):
        cur = fire_each(graph, (last,))[0]
        if cur == last:
            preperiod, orbit = t - 1, (last,)
            break
        if cur == before:
            preperiod, orbit = t - 2, (before, last)
            break
        if cur == mark:
            raise InternalInconsistencyError(
                f"repeat at offset {t - marked_at}; the firing rule admits only 1 or 2"
            )
        if t & (t - 1) == 0:
            mark, marked_at = cur, t
        before, last = last, cur
    else:
        raise PeriodNotFoundError(f"no repeat within {max_steps} steps; raise max_steps")
    return PeriodReport(preperiod=preperiod, period=len(orbit), orbit=orbit)


def orientation_of_stacks(stacks: tuple[int, ...]) -> str:
    """Sense of e_i on the path from the stacks: Right if v_{i+1} is richer than v_i."""
    return "".join(["R" if b > a else "L" if b < a else "F" for a, b in zip(stacks, stacks[1:])])


def is_inside_period(graph: Graph, config: tuple[int, ...]) -> bool:
    """True iff two firings return the input exactly (covers periods 1 and 2)."""
    once = fire_each(graph, (config,))[0]
    return fire_each(graph, (once,))[0] == config
