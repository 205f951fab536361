"""Forbidden-pattern checking, enumeration, and witness construction.

The pruned enumerator is certified against a plain filter over all 3^(n-1)
sense vectors, and the recurrence against the enumeration.
"""

import hashlib
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pardiff.engine import fire_each
from pardiff.errors import CeilingError, DomainError, IllegalOrientationError
from pardiff.graphs import PathGraph
from pardiff.orientations import (
    _LEGAL,
    RULE_ADJACENT_FLATS,
    RULE_FLAT_AT_LEAF,
    RULE_FLAT_NOT_BOOKENDED,
    RULE_PAIR_NOT_BOOKENDED,
    SENSE_ORDER,
    check_p2_orientation,
    count_p2_orientations_recurrence,
    enumerate_p2_orientations,
    flipped,
    mirrored,
    witness_configuration,
    words,
)

# R_n for n = 1..11
R_PREFIX = [0, 2, 2, 4, 8, 14, 28, 52, 100, 190, 362]


def test_alternating_is_legal():
    assert check_p2_orientation("RLRL") == ()


@pytest.mark.parametrize(
    "text,rule",
    [
        ("RFR", RULE_FLAT_NOT_BOOKENDED),
        ("RRL", RULE_PAIR_NOT_BOOKENDED),
        ("FLR", RULE_FLAT_AT_LEAF),
        ("RLF", RULE_FLAT_AT_LEAF),
        ("RFFL", RULE_ADJACENT_FLATS),
        ("RLRR", RULE_PAIR_NOT_BOOKENDED),
    ],
)
def test_forbidden_patterns_reported(text, rule):
    assert rule in {v[0] for v in check_p2_orientation(text)}


def test_violation_spans_are_edge_indices():
    assert (RULE_FLAT_NOT_BOOKENDED, (1, 3)) in check_p2_orientation("RFRL")


def test_single_edge_path():
    assert check_p2_orientation("R") == check_p2_orientation("L") == ()
    assert check_p2_orientation("F") == ((RULE_FLAT_AT_LEAF, (1, 1)),)


def test_violations_of_every_short_word_are_pinned():
    # the SHA-256 of the repr of every verdict, rules and spans in order, on all
    # 29523 words of 1 to 9 letters, as the four-pass scan gave them
    verdicts = [
        check_p2_orientation("".join(senses))
        for e in range(1, 10)
        for senses in product("RLF", repeat=e)
    ]
    digest = hashlib.sha256(repr(verdicts).encode()).hexdigest()
    assert digest == "7ed74728e32a6a8959d088753f3e2b3f5ae13a699d05439ff873626a6470ad72"


def test_enumerate_smallest():
    assert enumerate_p2_orientations(1) == []
    assert enumerate_p2_orientations(2) == ["R", "L"]
    assert enumerate_p2_orientations(4) == ["RLR", "RFL", "LRL", "LFR"]
    assert len(enumerate_p2_orientations(5)) == 8


def test_enumerate_matches_plain_filter():
    for n in range(2, 11):
        wanted = [
            "".join(senses)
            for senses in product(SENSE_ORDER, repeat=n - 1)
            if not check_p2_orientation("".join(senses))
        ]
        assert enumerate_p2_orientations(n) == wanted


def test_legal_automaton_counts_orientations_at_any_n():
    totals = list(_LEGAL.totals(499))
    for n in [*range(1, 80), 500]:
        assert totals[n - 1] == count_p2_orientations_recurrence(n), n
    with pytest.raises(DomainError):
        enumerate_p2_orientations(0)


def test_legal_automaton_weighs_legal_words_one_and_others_zero():
    for e in range(8):
        weight = {}
        for word, w in zip(*words(_LEGAL, e)):
            weight[word] = weight.get(word, 0) + w  # a word listed once per path sums its paths
        for senses in product(SENSE_ORDER, repeat=e):
            o = "".join(senses)
            assert weight.get(o, 0) == (e > 0 and not check_p2_orientation(o)), o
    assert len(_LEGAL.states) == 11


def test_enumerate_is_lexicographic():
    rank = {s: i for i, s in enumerate(SENSE_ORDER)}
    for n in (7, 12):
        keys = [tuple(rank[s] for s in o) for o in enumerate_p2_orientations(n)]
        assert keys == sorted(keys), n


def test_enumeration_ceiling(monkeypatch):
    with pytest.raises(CeilingError):
        enumerate_p2_orientations(21)
    monkeypatch.setenv("PARDIFF_ENUM_CEILING", "21")
    assert len(enumerate_p2_orientations(21)) == count_p2_orientations_recurrence(21)


def test_enumeration_ceiling_env_override(monkeypatch):
    monkeypatch.setenv("PARDIFF_ENUM_CEILING", "5")
    with pytest.raises(CeilingError):
        enumerate_p2_orientations(6)
    assert len(enumerate_p2_orientations(5)) == 8


def test_recurrence_values():
    assert [count_p2_orientations_recurrence(n) for n in range(1, 12)] == R_PREFIX
    assert count_p2_orientations_recurrence(8) == 52


def test_witness_examples():
    assert witness_configuration("RLRL") == (0, 1, 0, 1, 0)
    assert witness_configuration("RFL") == (0, 1, 1, 0)
    assert witness_configuration("L") == (0, -1)


def test_witness_rfl_is_two_periodic():
    c = witness_configuration("RFL")
    g = PathGraph(4)
    (once,) = fire_each(g, (c,))
    assert once != c
    assert fire_each(g, (once,)) == [c]


def test_witness_rejects_illegal():
    with pytest.raises(IllegalOrientationError):
        witness_configuration("RRL")


sense_vectors = st.lists(st.sampled_from(SENSE_ORDER), min_size=1, max_size=12).map("".join)


@given(sense_vectors)
def test_mirror_preserves_legality(o):
    assert bool(check_p2_orientation(mirrored(o))) == bool(check_p2_orientation(o))


@given(sense_vectors)
def test_flip_preserves_legality(o):
    assert bool(check_p2_orientation(flipped(o))) == bool(check_p2_orientation(o))
