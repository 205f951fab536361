"""Multipliers, totals by three routes, structural reductions, asymptotics."""

import math
from itertools import product

import pytest

from pardiff.counting import (
    _COUNTS,
    _first_hit_buckets,
    alternating_count,
    alternating_orientations,
    build_count_ledger,
    conjecture_recurrence_check,
    count_T_direct,
    count_T_recurrence,
    count_T_summation,
    count_configs_on_orientation,
    multiplier_vector,
    vertex_multiplier,
)
from pardiff.errors import (
    DomainError,
    GraphFormatError,
    IllegalLocalPatternError,
    IllegalOrientationError,
    NotAnAgreeingPairError,
)
from pardiff.lemmas import agreeing_pair_positions, characteristic_roots, contract_agreeing, sever_at_flats, stage
from pardiff.orientations import (
    SENSE_ORDER,
    _listed,
    check_p2_orientation,
    count_p2_orientations_recurrence,
    enumerate_p2_orientations,
    witness_configuration,
)

# ten-vertex worked example: senses e_1..e_9 and the resulting multipliers
WORKED_P10 = "LRLRRLFRL"
WORKED_MULTIPLIERS = (1, 2, 3, 3, 1, 1, 2, 1, 2, 2)

T_KNOWN = {1: 0, 2: 2, 3: 8, 4: 26, 5: 96, 6: 346, 7: 1248}


def test_worked_example_multipliers():
    assert multiplier_vector(WORKED_P10) == WORKED_MULTIPLIERS
    assert count_configs_on_orientation(WORKED_P10) == 144


def test_alternating_interior_multiplier_is_three():
    o = "RLRLRL"
    for k in range(3, len(o) + 1):
        assert vertex_multiplier(o, k) == 3


def test_flat_neighbour_forces_single_choice():
    # the flat edge pins v_3 to v_2's stack, so one choice only
    assert vertex_multiplier("RFL", 3) == 1


def test_two_vertex_path_has_unit_multipliers():
    assert multiplier_vector("R") == (1, 1)
    assert count_configs_on_orientation("R") == 1
    assert count_configs_on_orientation("L") == 1


def test_leaf_multipliers_follow_second_edge():
    assert vertex_multiplier("RLR", 2) == 2
    assert vertex_multiplier("RFL", 2) == 1
    assert vertex_multiplier("RLRL", 5) == 2
    assert vertex_multiplier("RLFR", 5) == 1


def test_locally_impossible_triple_raises():
    with pytest.raises(IllegalLocalPatternError):
        vertex_multiplier("RRRL", 3)


@pytest.mark.parametrize("text,letter", [("RXL", "X"), ("rl", "r")])
@pytest.mark.parametrize(
    "entry",
    [
        check_p2_orientation,
        witness_configuration,
        count_configs_on_orientation,
        sever_at_flats,
        lambda o: contract_agreeing(o, 2),
        multiplier_vector,
        agreeing_pair_positions,
    ],
    ids=["check", "witness", "count", "sever", "contract", "multipliers", "agreeing-pairs"],
)
def test_unknown_sense_letter_rejected(entry, text, letter):
    # a GraphFormatError, never a KeyError and never a legal verdict
    with pytest.raises(GraphFormatError, match=f"unknown sense letter '{letter}'"):
        entry(text)


@pytest.mark.parametrize("text,k,letter", [("X", 1, "X"), ("rl", 2, "r"), ("RLx", 4, "x")])
def test_end_vertex_multiplier_rejects_unknown_letter(text, k, letter):
    # the v_1, v_2 and v_n branches read no table, so they check their letters
    with pytest.raises(GraphFormatError, match=f"unknown sense letter '{letter}'"):
        vertex_multiplier(text, k)


def test_unknown_triple_is_an_illegal_local_pattern():
    with pytest.raises(IllegalLocalPatternError):
        vertex_multiplier("RXLR", 3)


def test_count_rejects_illegal_orientation():
    with pytest.raises(IllegalOrientationError):
        count_configs_on_orientation("RRL")


def test_count_is_the_product_of_the_multiplier_vector():
    for n in range(2, 15):
        for orient in enumerate_p2_orientations(n):
            assert count_configs_on_orientation(orient) == math.prod(multiplier_vector(orient)), orient


@pytest.mark.parametrize(
    "text,error",
    [("", DomainError), ("X", GraphFormatError), ("RLXRL", GraphFormatError), ("RRFLx", GraphFormatError)],
)
def test_count_rejects_an_empty_word_and_a_bad_letter(text, error):
    # a bad letter is a format error even after a violation, as in "RRFLx"
    with pytest.raises(error):
        count_configs_on_orientation(text)


def test_count_rejects_every_illegal_word():
    for e in range(1, 8):
        for word in map("".join, product(SENSE_ORDER, repeat=e)):
            if check_p2_orientation(word):
                with pytest.raises(IllegalOrientationError):
                    count_configs_on_orientation(word)


def test_alternating_counts():
    assert [alternating_count(n) for n in range(1, 8)] == [0, 2, 8, 24, 72, 216, 648]
    assert alternating_count(6) == 216
    for n in range(3, 14):
        assert alternating_count(n + 1) == 3 * alternating_count(n)


def test_alternating_closed_form_matches_direct_sum():
    for n in range(2, 13):
        orients = alternating_orientations(n)
        assert len(orients) == 2
        assert sum(count_configs_on_orientation(o) for o in orients) == alternating_count(n)


def test_alternating_p5_orientation_count():
    assert count_configs_on_orientation("RLRL") == 36


def test_recurrence_initial_values():
    for n, t in T_KNOWN.items():
        assert count_T_recurrence(n) == t


def test_direct_counts():
    assert count_T_direct(1) == 0
    assert count_T_direct(2) == 2
    assert count_T_direct(3) == 8
    assert count_T_direct(10) == count_T_recurrence(10)


def test_builder_counts_match_per_orientation_products():
    # count_configs_on_orientation re-checks legality and multiplies vertex by vertex
    for n in range(2, 17):
        senses, counts = _listed(_COUNTS, n)
        assert len(set(senses)) == len(senses) == count_p2_orientations_recurrence(n)
        for s, count in zip(senses, counts):
            assert count == count_configs_on_orientation(s), s


def test_direct_equals_recurrence_to_twenty():
    for n in range(2, 21):
        assert count_T_direct(n) == count_T_recurrence(n), n


def test_direct_transfer_equals_listed_weights():
    for n in range(1, 19):
        assert count_T_direct(n) == sum(_listed(_COUNTS, n)[1]), n


def test_direct_transfer_reaches_past_the_enumeration_ceiling():
    for n in [*range(21, 201), 2000]:
        assert count_T_direct(n) == count_T_recurrence(n), n


def _scanned_buckets(m):
    """First-hit buckets by scanning every listed orientation: the reference."""
    buckets = [0] * m
    for s, count in zip(*_listed(_COUNTS, m)):
        j = 0
        while j < len(s) and s[j] != "F" and (j == 0 or s[j] != s[j - 1]):
            j += 1
        buckets[j] += count
    return buckets


def test_first_hit_buckets_match_the_string_scan():
    table = list(_COUNTS.completions(17))
    for m in range(1, 17):
        want = _scanned_buckets(m)
        for size in range(max(m - 1, 0), 19):  # any table of at least m - 1 vectors serves
            assert _first_hit_buckets(m, table[:size]) == want, (m, size)


def test_first_hit_buckets_sum_to_T_from_one_table():
    table = list(_COUNTS.completions(400))
    for m in [*range(2, 121), 400]:
        assert sum(_first_hit_buckets(m, table)) == count_T_recurrence(m), m


def test_direct_count_decomposition_n5():
    by_kind = {"alternating": 0, "flat_e2": 0, "flat_e3": 0, "agreeing": 0}
    for o in enumerate_p2_orientations(5):
        c = count_configs_on_orientation(o)
        if "F" not in o and not agreeing_pair_positions(o):
            by_kind["alternating"] += c
        elif o[1] == "F":
            by_kind["flat_e2"] += c
        elif o[2] == "F":
            by_kind["flat_e3"] += c
        else:
            by_kind["agreeing"] += c
    assert by_kind == {"alternating": 72, "flat_e2": 8, "flat_e3": 8, "agreeing": 8}
    assert sum(by_kind.values()) == 96


def test_summation_route():
    assert count_T_summation(1) == 0  # as the recurrence and direct routes give
    with pytest.raises(DomainError):
        count_T_summation(0)
    assert count_T_summation(2) == 2
    assert count_T_summation(3) == 8
    assert count_T_summation(4) == 26
    assert count_T_summation(5) == 96


def test_summation_printed_upper_limit_undercounts():
    # the misprinted upper limit drops the whole agreeing-first term at n=5
    assert count_T_summation(5, use_printed_limit=True) == 88
    assert count_T_summation(5) == 96


def test_summation_reaches_past_the_enumeration_ceiling():
    for n in [*range(13, 81), 200]:
        assert count_T_summation(n) == count_T_recurrence(n), n


def test_stage_examples():
    assert stage(3, 1) == 0
    for n in range(2, 9):
        t_n = count_T_recurrence(n)
        assert stage(n, n - 1) == t_n
        assert stage(n, n + 3) == t_n
        if n >= 3:
            expected = t_n - alternating_count(n)
            assert stage(n, n - 2) == expected
            assert stage(n, n - 3) == expected


def test_sever_examples():
    parts = sever_at_flats("RFL")
    assert parts == ["R", "L"]
    alt = "RLRL"
    assert sever_at_flats(alt) == [alt]
    worked = sever_at_flats(WORKED_P10)
    assert worked == ["LRLRRL", "RL"]
    assert not any(check_p2_orientation(p) for p in worked)


def test_contract_example():
    smaller = contract_agreeing("LRRL", 3)
    assert smaller == "LR"
    assert count_configs_on_orientation("LRRL") == count_configs_on_orientation(smaller) == 4


def test_contract_nine_vertex_case():
    # the pair sits at (e_3, e_4); everything past it reverses direction
    assert contract_agreeing("RLRRLRLR", 4) == "RLRLRL"


def test_contract_requires_agreeing_pair():
    with pytest.raises(NotAnAgreeingPairError):
        contract_agreeing("RLRL", 3)
    with pytest.raises(NotAnAgreeingPairError):
        contract_agreeing("RFL", 2)


def test_ledger_consistency():
    ledger = build_count_ledger(6)
    assert set(ledger) == {"n", "per_orientation", "totals"} and ledger["n"] == 6
    totals, per = ledger["totals"], ledger["per_orientation"]
    assert totals["T_direct"] == sum(per.values())
    assert totals["T_direct"] == totals["T_recurrence"] == 346
    assert totals["R_n"] == 14
    assert totals["A_n"] == 216
    assert per["RLRLR"] == 108


def test_characteristic_model():
    model = characteristic_roots()
    assert len(model.roots) == 4
    for r in model.roots:
        assert abs(r**4 - 3 * r**3 - 2 * r**2 - r + 1) < 1e-9
    assert model.dominant_root == pytest.approx(3.6096, abs=1e-4)
    second = min(z.real for z in model.roots if abs(z.imag) < 1e-9)
    assert second == pytest.approx(0.4290, abs=1e-4)
    assert model.dominant_coefficient == pytest.approx(0.1564, abs=1e-3)


def test_growth_ratio_approaches_dominant_root():
    model = characteristic_roots()
    ratio = count_T_recurrence(31) / count_T_recurrence(30)
    assert ratio == pytest.approx(model.dominant_root, abs=1e-3)


def test_conjecture_residuals_zero_on_path_counts():
    counts = [count_T_recurrence(n) for n in range(1, 9)]
    assert conjecture_recurrence_check(counts) == [0, 0, 0, 0]


def test_conjecture_residuals_flag_perturbations():
    counts = [count_T_recurrence(n) for n in range(1, 9)]
    counts[5] += 1  # touches residuals at indices 5, 6, 7 and nothing else
    residuals = conjecture_recurrence_check(counts)
    assert residuals[0] == 0
    assert residuals[1] == 1
    assert residuals[2] == -3
    assert residuals[3] == -2
    with pytest.raises(ValueError):
        conjecture_recurrence_check([1, 2, 3])

