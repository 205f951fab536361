"""Sparse integer-weighted automata over the sense letters R, L and F.

A word weighs the sum, over its paths from the start, of the product of the
arc weights and the final weight where the path ends: the transfer-matrix
method (Stanley, Enumerative Combinatorics I, 4.7), knowing no domain.
"""


class Automaton:
    """The states found breadth first from ``start``, explored on first use:
    ``states`` holds their keys, and ``arcs`` and ``final`` the arcs (letter,
    target index, weight) and final weights ``arcs_of`` and ``final_of`` give.

    ``totals`` and ``completions`` each yield every length from one pass. The
    word lister (``listings`` and ``words``), which only the orientation
    enumeration and verify read, lives in pardiff.orientations, so an oracle
    count, which runs this module and not that one, compiles none of it."""

    def __init__(self, start, arcs_of, final_of):
        self.states, self.arcs, self.final = [start], [], []
        self._index, self._arcs_of, self._final_of = {start: 0}, arcs_of, final_of

    def _explore(self, count: int | None = None):
        """Explore the first ``count`` states found, or every state."""
        while len(self.arcs) < len(self.states) and (count is None or len(self.arcs) < count):
            state = self.states[len(self.arcs)]
            row = []
            for letter, target, weight in self._arcs_of(state):
                t = self._index.get(target)
                if t is None:
                    t = self._index[target] = len(self.states)
                    self.states.append(target)
                row.append((letter, t, weight))
            self.arcs.append(row)
            self.final.append(self._final_of(state))

    def totals(self, length: int):
        """Yield the total weight of the words of each length 0, 1, ..., ``length``."""
        vec = [1]
        for _ in range(length + 1):
            self._explore(len(vec))  # only the states these words reach
            yield sum(v * f for v, f in zip(vec, self.final) if v)
            nxt = [0] * len(self.states)
            for i, v in enumerate(vec):
                if v:
                    for _, t, w in self.arcs[i]:
                        nxt[t] += v if w == 1 else v * w  # the path automaton's arcs all weigh 1
            vec = nxt

    def completions(self, length: int):
        """Yield, for r = 0, 1, ..., ``length``, the total weight of the r-letter
        words read from each state, as a list indexed by state."""
        self._explore()
        vec = list(self.final)
        yield vec
        for _ in range(length):
            vec = [sum(w * vec[t] for _, t, w in row) for row in self.arcs]
            yield vec
