"""Acceptance gate: one test per release criterion, exact tolerances pinned.

Each test prints a PASS line once its assertions went through, so a -s or -v
run reads as a checklist. Everything here is cross-checked rather than
self-referential: recurrences against enumeration, enumeration against the
firing-only oracle, closed forms against direct sums.
"""

import csv
import json
import math
import time
from collections import Counter

from pardiff.cli import main
from pardiff.counting import (
    agreeing_pair_positions,
    alternating_count,
    alternating_orientations,
    characteristic_roots,
    contract_agreeing,
    count_T_direct,
    count_T_recurrence,
    count_T_summation,
    count_configs_on_orientation,
    multiplier_vector,
    sever_at_flats,
)
from pardiff.engine import fire_step, induced_orientation, run_sequence
from pardiff.graphs import Configuration, PathGraph, PathOrientation
from pardiff.oracle import orientations_realized
from pardiff.orientations import (
    check_p2_orientation,
    count_p2_orientations_recurrence,
    enumerate_p2_orientations,
    witness_configuration,
)

R_PRINTED_PREFIX = [0, 2, 2, 4, 8, 14, 28, 52, 100, 190, 362]
T_SMALL = {2: 2, 3: 8, 4: 26}


def test_criterion_01_p5_demo_run(tmp_path):
    expected = [
        [0, 2, 0, 4, 1],
        [1, 0, 2, 2, 2],
        [0, 2, 1, 2, 2],
        [1, 0, 3, 1, 2],
        [0, 2, 1, 3, 1],
        [1, 0, 3, 1, 2],
        [0, 2, 1, 3, 1],
    ]
    trace_out = tmp_path / "trace.jsonl"
    assert main(["simulate", "--graph", "path:5", "--config", "0,2,0,4,1", "--steps", "6", "--out", str(trace_out)]) == 0
    got = [json.loads(line)["stacks"] for line in trace_out.read_text().splitlines()]
    assert got == expected

    period_out = tmp_path / "period.json"
    assert main(["period", "--graph", "path:5", "--config", "0,2,0,4,1", "--out", str(period_out)]) == 0
    report = json.loads(period_out.read_text())
    assert report["preperiod"] == 3
    assert report["period"] == 2

    graph = PathGraph(5)
    start = Configuration((0, 2, 0, 4, 1), graph)
    best = min(
        _timed(lambda: run_sequence(graph, start, 6)) for _ in range(5)
    )
    assert best < 1e-3, f"engine took {best * 1e3:.3f} ms"
    print(f"PASS criterion 1: demo trace exact, preperiod 3 / period 2, {best * 1e6:.0f} us")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_02_orientation_sequence():
    for n in range(1, 19):
        assert len(enumerate_p2_orientations(n)) == count_p2_orientations_recurrence(n)
    got_prefix = [count_p2_orientations_recurrence(n) for n in range(1, 12)]
    assert got_prefix == R_PRINTED_PREFIX  # OEIS A052535
    print("PASS criterion 2: orientation counts match the recurrence for n = 1..18")


def test_criterion_03_oracle_equals_recurrence(oracle_runs):
    for n, value in T_SMALL.items():
        assert oracle_runs(n).count == value
    for n in range(2, 11):
        assert oracle_runs(n).count == count_T_recurrence(n)
    print("PASS criterion 3: firing-only oracle equals the recurrence for n = 2..10")


def test_criterion_04_route_agreement():
    for n in range(2, 17):
        rec = count_T_recurrence(n)
        assert count_T_summation(n) == rec
        assert count_T_direct(n) == rec
    assert count_T_summation(5, use_printed_limit=True) == 88
    assert count_T_recurrence(5) == 96
    print("PASS criterion 4: three routes agree for n = 2..16; misprinted limit fails at n = 5 (88 vs 96)")


def test_criterion_05_worked_ten_vertex_example():
    orient = PathOrientation.from_string("LRLRRLFRL")
    assert multiplier_vector(orient).values == (1, 2, 3, 3, 1, 1, 2, 1, 2, 2)
    assert count_configs_on_orientation(orient) == 144
    print("PASS criterion 5: ten-vertex worked example gives multipliers and product 144")


def test_criterion_06_alternating_counts():
    for n in range(3, 15):
        direct = sum(count_configs_on_orientation(o) for o in alternating_orientations(n))
        assert direct == alternating_count(n) == 8 * 3 ** (n - 3)
        assert alternating_count(n + 1) == 3 * alternating_count(n)
    print("PASS criterion 6: alternating closed form matches direct enumeration for n = 3..14")


def test_criterion_07_severing_and_contraction():
    for n in range(2, 13):
        for orient in enumerate_p2_orientations(n):
            whole = count_configs_on_orientation(orient)
            if "F" in orient.senses:
                parts = sever_at_flats(orient)
                assert all(check_p2_orientation(p).legal for p in parts)
                assert math.prod(count_configs_on_orientation(p) for p in parts) == whole
            for i in agreeing_pair_positions(orient):
                smaller = contract_agreeing(orient, i)
                assert check_p2_orientation(smaller).legal
                assert count_configs_on_orientation(smaller) == whole
    print("PASS criterion 7: severing and contraction preserve counts for every orientation, n <= 12")


def test_criterion_08_witness_soundness():
    for n in range(2, 15):
        graph = PathGraph(n)
        for orient in enumerate_p2_orientations(n):
            witness = witness_configuration(orient)
            once = fire_step(graph, witness)
            assert once != witness, "witness must not be a fixed point"
            assert fire_step(graph, once) == witness, "witness must return after two firings"
            assert induced_orientation(graph, witness) == orient
    print("PASS criterion 8: witnesses are exactly 2-periodic and induce their orientation, n <= 14")


def test_criterion_09_asymptotics():
    model = characteristic_roots()
    assert abs(model.dominant_root - 3.6096) <= 1e-4
    second = min(z.real for z in model.roots if abs(z.imag) < 1e-9)
    assert abs(second - 0.4290) <= 1e-4
    assert abs(model.dominant_coefficient - 0.1564) <= 1e-3
    ratio = count_T_recurrence(31) / count_T_recurrence(30)
    assert abs(ratio - model.dominant_root) <= 1e-3
    print("PASS criterion 9: roots 3.6096 / 0.4290, coefficient 0.1564, ratio within 1e-3")


def test_criterion_10_bridge_recurrence_exploration(tmp_path):
    # degenerate base: a single vertex plus a bridged path is just a path
    g0 = tmp_path / "single.txt"
    g0.write_text("path:1\n")
    single_out = tmp_path / "single.csv"
    assert main(
        ["conjecture", "--g0-file", str(g0), "--base-vertex", "1", "--k-min", "4", "--k-max", "8", "--out", str(single_out)]
    ) == 0
    rows = list(csv.DictReader(single_out.read_text().splitlines()))
    assert [int(r["count"]) for r in rows] == [count_T_recurrence(k + 1) for k in range(4, 9)]
    assert [r["residual"] for r in rows if r["residual"] != ""] == ["0"]

    tri = tmp_path / "triangle.txt"
    tri.write_text("1 2\n2 3\n3 1\n")
    tri_out = tmp_path / "triangle.csv"
    assert main(
        ["conjecture", "--g0-file", str(tri), "--base-vertex", "1", "--k-min", "4", "--k-max", "8", "--out", str(tri_out)]
    ) == 0
    tri_rows = list(csv.DictReader(tri_out.read_text().splitlines()))
    assert [r["k"] for r in tri_rows] == ["4", "5", "6", "7", "8"]
    assert all(int(r["count"]) > 0 for r in tri_rows)
    assert all(r["status"] == "exploratory" for r in tri_rows)
    measured = [r["residual"] for r in tri_rows if r["residual"] != ""]
    assert len(measured) == 1 and measured[0].lstrip("-").isdigit()
    # reported, never asserted: the recurrence is a measured hypothesis here
    print(f"PASS criterion 10: triangle residual at k=8 measured as {measured[0]}; degenerate case all zero")


def test_verify_command_is_green(tmp_path):
    assert main(["verify", "--out", str(tmp_path / "verify.json")]) == 0
    print("PASS verify gate: every invariant suite green at default depth")


def test_criterion_03_per_orientation_refinement(oracle_runs):
    # the oracle grouped by induced orientation reproduces every multiplier product
    for n in range(2, 11):
        grouped = Counter()
        for c in oracle_runs(n).configurations:
            grouped[induced_orientation(PathGraph(n), c).to_string()] += 1
        enumerated = enumerate_p2_orientations(n)
        assert set(grouped) == {o.to_string() for o in enumerated}
        for orient in enumerated:
            assert grouped[orient.to_string()] == count_configs_on_orientation(orient)
        assert orientations_realized(oracle_runs(n)) == set(enumerated)
    print("PASS criterion 3 refinement: per-orientation oracle groups equal multiplier products, n <= 10")
