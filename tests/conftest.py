import itertools

import pytest

from pardiff.engine import fire_each
from pardiff.graphs import PathGraph
from pardiff.oracle import enumerate_p2_configurations


@pytest.fixture(scope="session")
def oracle_runs():
    """Memoized oracle runs so the heavier n values are paid for once."""
    cache = {}

    def get(n, diff_bound=3):
        key = (n, diff_bound)
        if key not in cache:
            cache[key] = enumerate_p2_configurations(n, diff_bound)
        return cache[key]

    return get


def naive_p2_path(n, bound=3):
    """Literal full iteration over difference vectors, firing via the engine.

    Quadratically slower than the package's pruned search; used to certify it.
    """
    graph = PathGraph(n)
    found = []
    for diffs in itertools.product(range(-bound, bound + 1), repeat=n - 1):
        stacks = [0]
        for d in diffs:
            stacks.append(stacks[-1] + d)
        c = tuple(stacks)
        (once,) = fire_each(graph, (c,))
        if once != c and fire_each(graph, (once,)) == [c]:
            found.append(c)
    return found
