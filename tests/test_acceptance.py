"""Acceptance gate: one test per release criterion, exact tolerances pinned.

Each test prints a PASS line once its assertions went through, so a -s or -v
run reads as a checklist. Everything here is cross-checked rather than
self-referential: recurrences against enumeration, enumeration against the
firing-only oracle, closed forms against direct sums. Invariant loops that
``verify`` runs are not written again here: the criteria that name its
checks read one run of every suite at the acceptance depths.
"""

import csv
import json
import time

import pytest

from pardiff import oracle
from pardiff.cli import main
from pardiff.counting import (
    alternating_count,
    count_T_recurrence,
    count_configs_on_orientation,
    multiplier_vector,
)
from pardiff.engine import run_sequence
from pardiff.graphs import PathGraph
from pardiff.orientations import count_p2_orientations_recurrence, enumerate_p2_orientations
from pardiff.verify import VerifyConfig, run_suites

R_PRINTED_PREFIX = [0, 2, 2, 4, 8, 14, 28, 52, 100, 190, 362]
T_SMALL = {2: 2, 3: 8, 4: 26}


@pytest.fixture(scope="module")
def verify_checks(oracle_runs):
    """Every verify check at the acceptance depths, keyed "suite.name".

    The oracle's configuration lists come from the session's oracle_runs
    memo, so the gate builds each of them once.
    """
    depths = VerifyConfig(max_n_oracle=10, max_n_witness=14, max_n_routes=16, max_n_structure=12)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "enumerate_p2_configurations", lambda n, diff_bound=3: oracle_runs(n, diff_bound))
        results = run_suites(depths)
    return {f"{r.suite}.{r.name}": r for r in results}


def _assert_passed(checks, *names):
    for name in names:
        assert name in checks, f"verify has no check {name}"
        assert checks[name].passed, f"{name}: {checks[name].detail}"


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
    start = (0, 2, 0, 4, 1)
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


def test_criterion_04_route_agreement(verify_checks):
    _assert_passed(verify_checks, "counting.route-agreement", "counting.summation-erratum-detectable")
    print("PASS criterion 4: three routes agree for n = 2..16; misprinted limit fails at n = 5 (88 vs 96)")


def test_criterion_05_worked_ten_vertex_example():
    orient = "LRLRRLFRL"
    assert multiplier_vector(orient) == (1, 2, 3, 3, 1, 1, 2, 1, 2, 2)
    assert count_configs_on_orientation(orient) == 144
    print("PASS criterion 5: ten-vertex worked example gives multipliers and product 144")


def test_criterion_06_alternating_counts(verify_checks):
    _assert_passed(verify_checks, "counting.alternating-sequence")
    for n in range(3, 16):
        assert alternating_count(n) == 8 * 3 ** (n - 3)
    print("PASS criterion 6: alternating closed form holds for n = 3..15 and matches direct sums for n = 2..14")


def test_criterion_07_severing_and_contraction(verify_checks):
    _assert_passed(verify_checks, "counting.severing-multiplicative", "counting.contraction-invariant")
    print("PASS criterion 7: severing and contraction preserve counts for every orientation, n <= 12")


def test_criterion_08_witness_soundness(verify_checks):
    _assert_passed(verify_checks, "orientation.witness-valid")
    print("PASS criterion 8: witnesses are exactly 2-periodic and induce their orientation, n <= 14")


def test_criterion_09_asymptotics(verify_checks):
    _assert_passed(verify_checks, "counting.characteristic-roots", "counting.ratio-convergence")
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


def test_criterion_03_per_orientation_refinement(verify_checks):
    # the oracle grouped by induced orientation reproduces every multiplier product
    _assert_passed(verify_checks, "oracle.per-orientation-refinement", "orientation.realized-equals-enumerated")
    print("PASS criterion 3 refinement: per-orientation oracle groups equal multiplier products, n <= 10")
