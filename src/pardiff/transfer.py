"""Sparse integer-weighted automata over the sense letters R, L and F.

A word weighs the sum, over its paths from the start, of the product of the
arc weights and the final weight where the path ends: the transfer-matrix
method (Stanley, Enumerative Combinatorics I, 4.7), knowing no domain.
"""


class Automaton:
    """The states found breadth first from ``start``, explored on first use:
    ``states`` holds their keys, and ``arcs`` and ``final`` the arcs (letter,
    target index, weight) and final weights ``arcs_of`` and ``final_of`` give.

    ``totals``, ``completions`` and ``listings`` each yield every length from
    one pass; ``words`` keeps the last of ``listings``."""

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

    def weight(self, word: str) -> int:
        """The weight of one word; 0 if no path from the start reads it."""
        self._explore()
        vec = {0: 1}
        for letter in word:
            nxt: dict[int, int] = {}
            for i, v in vec.items():
                for a, t, w in self.arcs[i]:
                    if a == letter:
                        nxt[t] = nxt.get(t, 0) + v * w
            vec = nxt
        return sum(v * self.final[i] for i, v in vec.items())

    def listings(self, length: int):
        """Yield, for each length 0, 1, ..., ``length``, the words of that many
        letters and nonzero weight, once per path, and their weights, as
        parallel lists in no set order, all from one growth pass. Prefixes grow
        a letter at a time, grouped by the state they reach, so each arc is
        taken once per group; the last letter takes only arcs into nonzero
        final weights. Each length's lists are built as the pass reaches it,
        so a caller that wants only the last length pays for the shorter ones
        too: listing the multiplier automaton's 15-letter words took about 0.2
        to 0.5 ms more than the 2.2 ms of a single-length lister (best of 41,
        2-core host), and the legality automaton's about the same."""
        self._explore()
        level: dict[int, tuple[list[str], list[int]]] = {0: ([""], [1])}
        for m in range(length):
            yield self._listing(level)
            grown: dict[int, tuple[list[str], list[int]]] = {}
            while level:  # each group is dropped once it has grown
                i, (prefixes, weights) = level.popitem()
                for letter, t, w in self.arcs[i]:
                    if m < length - 1 or self.final[t]:
                        grown_prefixes, grown_weights = grown.setdefault(t, ([], []))
                        grown_prefixes.extend([q + letter for q in prefixes])
                        grown_weights.extend(weights if w == 1 else [x * w for x in weights])
            level = grown
        yield self._listing(level)

    def _listing(self, level: dict) -> tuple[list[str], list[int]]:
        """The words, and weights, of the prefix groups in ``level`` that may end."""
        words: list[str] = []
        weights: list[int] = []
        for i, (prefixes, group) in level.items():
            f = self.final[i]
            if f:
                words += prefixes
                weights += group if f == 1 else [x * f for x in group]
        return words, weights

    def words(self, length: int) -> tuple[list[str], list[int]]:
        """The last entry of ``listings(length)``; each shorter one is dropped
        as it comes, so that only one length's lists are held at a time."""
        listings = self.listings(length)
        for _ in range(length):
            next(listings)
        return next(listings)
