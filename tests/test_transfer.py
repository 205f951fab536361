"""The weighted automaton: its totals and completions, and the word lister
in pardiff.orientations, against brute force on a toy automaton, and the
path automata of the oracle and of the theory against the multiplier
products on every word."""

from itertools import product

from pardiff.counting import _COUNTS, count_configs_on_orientation
from pardiff.orientations import _LEGAL, SENSE_ORDER, check_p2_orientation, listings, words
from pardiff.pathcount import _path_automaton
from pardiff.transfer import Automaton

# A toy automaton: a state is (last letter, letters read mod 3). "FF" and
# "LR" cannot be read, arc weights run 1..4, and final weights 0..2.


def _toy_arcs(state):
    last, m = state
    return [
        (a, (a, (m + 1) % 3), 1 + (7 * m + ord(a) + 3 * ord(last or "x")) % 4)
        for a in SENSE_ORDER
        if last + a not in ("FF", "LR")
    ]


def _toy_final(state):
    last, m = state
    return (m + ord(last or "x")) % 3


TOY = Automaton(("", 0), _toy_arcs, _toy_final)


def _toy_weight(word):
    """The toy's weight of one word, read off its rules letter by letter."""
    state, weight = ("", 0), 1
    for a in word:
        arcs = {letter: (target, w) for letter, target, w in _toy_arcs(state)}
        if a not in arcs:
            return 0
        state, w = arcs[a]
        weight *= w
    return weight * _toy_final(state)


def _all_words(length):
    return ["".join(letters) for letters in product(SENSE_ORDER, repeat=length)]


def _listed_weights(automaton, length):
    """Each word's weight, read from the lister: a word is listed once per
    path, so its weight is the sum of its listed weights."""
    weight = {}
    for word, w in zip(*words(automaton, length)):
        weight[word] = weight.get(word, 0) + w
    return weight


def test_toy_weight_of_every_word():
    for length in range(8):
        weight = _listed_weights(TOY, length)
        for word in _all_words(length):
            assert weight.get(word, 0) == _toy_weight(word), word


def test_listed_weight_is_the_product_along_the_path():
    for length in range(9):
        listed_words, weights = words(TOY, length)
        assert len(set(listed_words)) == len(listed_words)
        listed = dict(zip(listed_words, weights))
        assert listed == {w: _toy_weight(w) for w in _all_words(length) if _toy_weight(w)}, length


def test_one_listing_pass_yields_every_length_as_a_fresh_listing_would():
    # each length the pass goes through, unpruned, lists what a pass that ends there
    # lists, in the same order
    for automaton in (TOY, _LEGAL, _COUNTS):
        passes = list(listings(automaton, 15))
        assert len(passes) == 16
        for length, (listed_words, weights) in enumerate(passes):
            fresh_words, fresh_weights = words(automaton, length)
            assert (listed_words, weights) == (fresh_words, fresh_weights), length
            assert all(len(w) == length for w in listed_words), length


def test_totals_sum_every_word_of_each_length():
    want = [sum(map(_toy_weight, _all_words(length))) for length in range(9)]
    assert list(TOY.totals(8)) == want


def test_completions_sum_the_listed_weights_per_state():
    after = list(TOY.completions(8))
    assert len(after) == 9 and after[0] == TOY.final
    state_of = {state: i for i, state in enumerate(TOY.states)}
    for length in range(1, 9):
        listed_words, weights = words(TOY, length)
        for i in range(length + 1):
            # every prefix of i letters, grouped by state: its weight times its completions
            by_state = {}
            for word in listed_words:
                prefix = word[:i]
                state, weight = ("", 0), 1
                for a in prefix:
                    state, w = {b: (t, w) for b, t, w in _toy_arcs(state)}[a]
                    weight *= w
                by_state.setdefault(state_of[state], {})[prefix] = weight
            for s, prefixes in by_state.items():
                assert sum(prefixes.values()) * after[length - i][s] == sum(
                    weight for word, weight in zip(listed_words, weights) if word[:i] in prefixes
                ), (length, i, s)


def test_a_word_read_along_two_paths_sums_them():
    def arcs(state):
        return [("R", "a", 2), ("R", "b", 3)] if state == "start" else []

    nfa = Automaton("start", arcs, lambda state: 0 if state == "start" else 1)
    weight = _listed_weights(nfa, 1)
    assert weight.get("R", 0) == 5 and weight.get("L", 0) == 0
    assert list(nfa.totals(2)) == [0, 5, 0]
    listed_words, weights = words(nfa, 1)
    assert listed_words == ["R", "R"] and sorted(weights) == [2, 3]


def test_exploration_follows_use():
    at3 = _path_automaton(3)
    assert list(at3.totals(1)) == [0, 2]  # explores the start and the 7 states one letter on
    assert len(at3.arcs) == 8 < len(at3.states)
    for automaton, size in ((_COUNTS, 11), (at3, 63), (_path_automaton(4), 81)):
        list(automaton.completions(0))  # explores every state
        assert len(automaton.states) == len(automaton.arcs) == len(automaton.final) == size


def test_every_word_weighs_its_configuration_count():
    # The firing-only automaton at two bounds, the multiplier automaton and
    # the per-orientation product agree on every word over RLF, illegal
    # ones weighing 0.
    at3, at4 = _path_automaton(3), _path_automaton(4)
    for n in range(2, 11):
        listed = [_listed_weights(automaton, n - 1) for automaton in (at3, at4, _COUNTS)]
        for word in _all_words(n - 1):
            want = count_configs_on_orientation(word) if not check_p2_orientation(word) else 0
            got = tuple(weight.get(word, 0) for weight in listed)
            assert got == (want, want, want), word
