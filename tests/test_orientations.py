"""Forbidden-pattern checking, enumeration, and witness construction.

The pruned enumerator is certified against a plain filter over all 3^(n-1)
sense vectors, and the recurrence against the enumeration.
"""

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pardiff.engine import fire_step, induced_orientation
from pardiff.errors import CeilingError, IllegalOrientationError
from pardiff.graphs import SENSE_ORDER, PathGraph, PathOrientation
from pardiff.orientations import (
    RULE_ADJACENT_FLATS,
    RULE_FLAT_AT_LEAF,
    RULE_FLAT_NOT_BOOKENDED,
    RULE_PAIR_NOT_BOOKENDED,
    check_p2_orientation,
    count_p2_orientations_recurrence,
    enumerate_p2_orientations,
    witness_configuration,
)

# R_n for n = 1..11
R_PREFIX = [0, 2, 2, 4, 8, 14, 28, 52, 100, 190, 362]


def O(text):
    return PathOrientation.from_string(text)


def test_alternating_is_legal():
    assert check_p2_orientation(O("RLRL")).legal


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
    report = check_p2_orientation(O(text))
    assert not report.legal
    assert rule in {v[0] for v in report.violations}


def test_violation_spans_are_edge_indices():
    report = check_p2_orientation(O("RFRL"))
    assert (RULE_FLAT_NOT_BOOKENDED, (1, 3)) in report.violations


def test_single_edge_path():
    assert check_p2_orientation(O("R")).legal
    assert check_p2_orientation(O("L")).legal
    report = check_p2_orientation(O("F"))
    assert not report.legal
    assert report.violations == ((RULE_FLAT_AT_LEAF, (1, 1)),)


def test_enumerate_smallest():
    assert enumerate_p2_orientations(1) == []
    assert [o.to_string() for o in enumerate_p2_orientations(2)] == ["R", "L"]
    assert [o.to_string() for o in enumerate_p2_orientations(4)] == ["RLR", "RFL", "LRL", "LFR"]
    assert len(enumerate_p2_orientations(5)) == 8


def test_enumerate_matches_plain_filter():
    for n in range(2, 9):
        wanted = [
            PathOrientation("".join(senses))
            for senses in product(SENSE_ORDER, repeat=n - 1)
            if check_p2_orientation(PathOrientation("".join(senses))).legal
        ]
        assert enumerate_p2_orientations(n) == wanted


def test_enumerate_is_lexicographic():
    rank = {s: i for i, s in enumerate(SENSE_ORDER)}
    got = enumerate_p2_orientations(7)
    keys = [tuple(rank[s] for s in o.senses) for o in got]
    assert keys == sorted(keys)


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


def test_counts_agree_with_enumeration():
    for n in range(1, 15):
        assert len(enumerate_p2_orientations(n)) == count_p2_orientations_recurrence(n)


def test_witness_examples():
    assert witness_configuration(O("RLRL")).stacks == (0, 1, 0, 1, 0)
    assert witness_configuration(O("RFL")).stacks == (0, 1, 1, 0)
    assert witness_configuration(O("L")).stacks == (0, -1)


def test_witness_rfl_is_two_periodic():
    c = witness_configuration(O("RFL"))
    g = PathGraph(4)
    once = fire_step(g, c)
    assert once != c
    assert fire_step(g, once) == c


def test_witness_rejects_illegal():
    with pytest.raises(IllegalOrientationError):
        witness_configuration(O("RRL"))


def test_witnesses_induce_their_orientation():
    for n in range(2, 10):
        g = PathGraph(n)
        for o in enumerate_p2_orientations(n):
            c = witness_configuration(o)
            assert induced_orientation(g, c) == o


sense_vectors = st.lists(st.sampled_from(SENSE_ORDER), min_size=1, max_size=12).map(
    lambda senses: PathOrientation("".join(senses))
)


@given(sense_vectors)
def test_mirror_preserves_legality(o):
    assert check_p2_orientation(o.mirrored()).legal == check_p2_orientation(o).legal


@given(sense_vectors)
def test_flip_preserves_legality(o):
    assert check_p2_orientation(o.flipped()).legal == check_p2_orientation(o).legal


@given(sense_vectors)
def test_report_legal_iff_no_violations(o):
    report = check_p2_orientation(o)
    assert report.legal == (not report.violations)
