"""End-to-end command-line behaviour: outputs, manifests, exit codes, schemas."""

import concurrent.futures
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from jsonschema import validate

from pardiff import counting, engine, oracle, pathcount
from pardiff.cli import _json, _json_body, main
from pardiff.counting import alternating_count, count_T_recurrence
from pardiff.orientations import count_p2_orientations_recurrence

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def read_manifest(out_path: Path) -> dict:
    return json.loads((out_path.parent / (out_path.name + ".manifest.json")).read_text())


def test_simulate_demo_trace(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    code = main(["simulate", "--graph", "path:5", "--config", "0,2,0,4,1", "--steps", "6", "--out", str(out)])
    assert code == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert [line["stacks"] for line in lines] == [
        [0, 2, 0, 4, 1],
        [1, 0, 2, 2, 2],
        [0, 2, 1, 2, 2],
        [1, 0, 3, 1, 2],
        [0, 2, 1, 3, 1],
        [1, 0, 3, 1, 2],
        [0, 2, 1, 3, 1],
    ]
    schema = load_schema("trace_line.schema.json")
    for line in lines:
        validate(line, schema)
    manifest = read_manifest(out)
    validate(manifest, load_schema("manifest.schema.json"))
    assert manifest["command"] == "simulate"
    assert "simulate: 7 configurations" in capsys.readouterr().out


def test_simulate_constant(tmp_path):
    out = tmp_path / "t.jsonl"
    assert main(["simulate", "--graph", "path:3", "--config", "0,0,0", "--steps", "2", "--out", str(out)]) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert all(line["stacks"] == [0, 0, 0] for line in lines)


def test_simulate_length_mismatch_exits_one(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    code = main(["simulate", "--graph", "path:2", "--config", "0,1,2", "--steps", "1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "length-mismatch" in err


def test_simulate_zero_steps_names_the_option(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    code = main(["simulate", "--graph", "path:3", "--config", "0,1,0", "--steps", "0", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error [domain-error]: steps must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--config", "0,1", "--steps", "1", "--graph"],
        ["conjecture", "--k-min", "1", "--k-max", "2", "--g0-file"],
    ],
)
def test_graph_file_not_utf8_is_a_file_error(tmp_path, capsys, argv):
    graph = tmp_path / "g.txt"
    graph.write_bytes(b"\xff\xfe1 2\n")
    out = tmp_path / "o.txt"
    assert main(argv + [str(graph), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error [file]: {graph}: ")
    assert not captured.out
    assert not out.exists()


def test_graph_value_naming_no_file_is_a_file_error(tmp_path, capsys, monkeypatch):
    # a value without whitespace is no inline edge text, so it names a file
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", "--graph", "missing.txt", "--config", "0,1", "--steps", "1", "--out", "m.jsonl"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error [file]: ") and "missing.txt" in captured.err
    assert not captured.out
    assert not (tmp_path / "m.jsonl").exists()


def test_graph_file_whose_name_holds_a_space_is_read(tmp_path):
    graph = tmp_path / "my graph.txt"
    graph.write_text("1 2\n2 3\n")
    out = tmp_path / "t.jsonl"
    assert main(["simulate", "--graph", str(graph), "--config", "0,1,0", "--steps", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text().splitlines()[1])["stacks"] == [1, -1, 1]


def test_simulate_inline_edge_list(tmp_path):
    out = tmp_path / "t.jsonl"
    code = main(["simulate", "--graph", "1 2,2 3,3 1", "--config", "3,0,0", "--steps", "1", "--out", str(out)])
    assert code == 0
    first_step = json.loads(out.read_text().splitlines()[1])
    assert first_step["stacks"] == [1, 1, 1]


def test_period_demo(tmp_path):
    out = tmp_path / "p.json"
    assert main(["period", "--graph", "path:5", "--config", "0,2,0,4,1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["preperiod"] == 3
    assert report["period"] == 2
    assert report["orbit"] == [[1, 0, 3, 1, 2], [0, 2, 1, 3, 1]]
    validate(report, load_schema("period_report.schema.json"))


def test_period_manifest_records_steps_used(tmp_path):
    out = tmp_path / "p.json"
    assert main(["period", "--graph", "path:5", "--config", "0,2,0,4,1", "--out", str(out)]) == 0
    report, manifest = json.loads(out.read_text()), read_manifest(out)
    validate(manifest, load_schema("manifest.schema.json"))
    assert manifest["steps_used"] == report["preperiod"] + report["period"] == 5
    assert manifest["steps_used"] <= manifest["parameters"]["max_steps"]


def test_period_all_zero(tmp_path):
    out = tmp_path / "p.json"
    assert main(["period", "--graph", "path:4", "--config", "0,0,0,0", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert (report["preperiod"], report["period"]) == (0, 1)


def test_period_budget_too_small(tmp_path, capsys):
    out = tmp_path / "p.json"
    code = main(["period", "--graph", "path:2", "--config", "0,3", "--max-steps", "2", "--out", str(out)])
    assert code == 1
    assert "period-not-found" in capsys.readouterr().err


def test_period_default_budget_cap_exits_two(tmp_path, monkeypatch, capsys):
    # the preperiod, about 2/3 of the spread of 100000, is far past the default 1000 // 3 steps
    monkeypatch.setattr(engine, "PERIOD_STEP_CAP", 1000)
    argv = ["period", "--graph", "path:3", "--config", "100000,0,0", "--out", str(tmp_path / "p.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error [resource-ceiling]: no repeat within 333 steps")
    assert "--max-steps" in err
    assert not (tmp_path / "p.json").exists()
    # an explicit budget is never capped: too small, it is a domain error; large enough, it finds
    assert main(argv + ["--max-steps", "333"]) == 1
    assert "period-not-found" in capsys.readouterr().err
    assert main(argv + ["--max-steps", "100000"]) == 0
    assert read_manifest(tmp_path / "p.json")["parameters"]["max_steps"] == 100000


def test_period_default_budget_ignores_spread(tmp_path):
    budgets = []
    for config in ("0,0,0,0,1", "0,2,0,4,1", "90,0,0,0,-90"):
        out = tmp_path / "p.json"
        assert main(["period", "--graph", "path:5", "--config", config, "--out", str(out)]) == 0
        budgets.append(read_manifest(out)["parameters"]["max_steps"])
    assert budgets == [engine.PERIOD_STEP_CAP // 5] * 3


@pytest.mark.parametrize("method,expected", [("oracle", 26), ("recurrence", 26), ("direct", 26), ("summation", 26)])
def test_count_methods_agree_small(tmp_path, method, expected):
    out = tmp_path / "c.json"
    assert main(["count", "--n", "4", "--method", method, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["count"] == expected
    validate(payload, load_schema("count.schema.json"))


def test_count_recurrence_matches_direct_at_eleven(tmp_path):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["count", "--n", "11", "--method", "recurrence", "--out", str(out_a)]) == 0
    assert main(["count", "--n", "11", "--method", "direct", "--out", str(out_b)]) == 0
    assert json.loads(out_a.read_text())["count"] == json.loads(out_b.read_text())["count"] == 211904


def test_count_oracle_ceiling_exits_two(tmp_path, capsys):
    out = tmp_path / "c.json"
    code = main(["count", "--n", "50", "--diff-bound", "60", "--method", "oracle", "--out", str(out)])
    assert code == 2
    assert "resource-ceiling" in capsys.readouterr().err


def test_count_oracle_reaches_fifty(tmp_path):
    out = tmp_path / "c.json"
    assert main(["count", "--n", "50", "--method", "oracle", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["count"] == count_T_recurrence(50)


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


def test_count_oracle_starts_no_pool_without_configurations(tmp_path, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    out = tmp_path / "c.json"
    assert main(["count", "--n", "11", "--method", "oracle", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["count"] == count_T_recurrence(11)


def test_default_verify_oracle_suite_starts_no_pool(tmp_path, monkeypatch, capsys):
    # every search runs in-process; this guards against a pool coming back
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    assert main(["verify", "--suites", "oracle", "--out", str(tmp_path / "v.json")]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_count_oracle_list_mismatch_exits_three(tmp_path, monkeypatch, capsys):
    real = pathcount.count_p2_configurations
    monkeypatch.setattr(pathcount, "count_p2_configurations", lambda *a, **k: real(*a, **k) + 1)
    argv = ["count", "--n", "3", "--method", "oracle", "--full-configurations"]
    assert main(argv + ["--out", str(tmp_path / "c.json")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error [internal-inconsistency]: ")


def test_count_ledger_payload(tmp_path):
    out = tmp_path / "c.json"
    assert main(["count", "--n", "5", "--method", "direct", "--ledger", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    ledger = payload["ledger"]
    assert ledger["totals"]["T_direct"] == 96
    assert sum(ledger["per_orientation"].values()) == 96
    assert ledger["per_orientation"]["RLRL"] == 36
    validate(payload, load_schema("count.schema.json"))


def test_count_oracle_full_configurations(tmp_path):
    out = tmp_path / "c.json"
    assert main(
        ["count", "--n", "3", "--method", "oracle", "--full-configurations", "--out", str(out)]
    ) == 0
    payload = json.loads(out.read_text())
    assert len(payload["oracle_configurations"]) == 8


def test_count_deterministic_bodies(tmp_path):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["count", "--n", "6", "--method", "direct", "--ledger"]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    m_a, m_b = read_manifest(out_a), read_manifest(out_b)
    for m in (m_a, m_b):
        m.pop("wall_time_seconds")
        m.pop("output_path")
    assert m_a == m_b


# SHA-256 of each command's body with no ceiling variable set; a change to any
# byte of a body, its key order or its trailing newline shows here.
BODY_DIGESTS = [
    (
        ["simulate", "--graph", "path:5", "--config", "0,2,0,4,1", "--steps", "6"],
        "14508c33821f8a708ea57e023b7bd4eccaf80bc7bc95c95ec3998e84b5a565c7",
    ),
    (
        ["period", "--graph", "path:5", "--config", "0,2,0,4,1"],
        "af96d9c32d09f5ae6f3c9c00e09050b6e35ebe015d18db891dfefc0a988d6350",
    ),
    (
        ["count", "--n", "12", "--method", "recurrence"],
        "5ab4e5ca91836d28fbe8c60eeafee6678b3084f85b60ef9b336948c861b2be2d",
    ),
    (
        ["count", "--n", "12", "--method", "summation"],
        "20d7777f61a830477574d3a18a2110ffbd871aad5ff60f10ca43525bc68b7e88",
    ),
    (
        ["count", "--n", "12", "--method", "direct"],
        "10fdca154cfbbd8e9b344a583f191dbbbfdc4eab4966b4c1675d521fb96dc2ab",
    ),
    (
        ["count", "--n", "12", "--method", "oracle"],
        "74fb3057b13a4d1506c58453e17ca01acf483dfab757aad80c501e11148d3d12",
    ),
    (
        ["count", "--n", "10", "--method", "direct", "--ledger"],
        "c8910e0088ca46aeae2ef95901b7be3f1f2e1821980c903304bf7a48b8790c81",
    ),
    (
        ["count", "--n", "16", "--method", "summation", "--ledger"],
        "a42dcd988d2900501194cccdf437eeed8dbe84c8cada9bd6543f7cdda4c2b2a1",
    ),
    (
        ["count", "--n", "8", "--method", "oracle", "--full-configurations"],
        "f3b7b347326c6a2046da73707c97ac341de36e1f180fe3aa74b08ecd8302fb7d",
    ),
    (
        ["count", "--n", "9", "--method", "oracle", "--diff-bound", "4"],
        "18c274435fb0eba67dfdfc7c7f8b7b9f9259fd58017df6ba3448e76e565d6a31",
    ),
    (["verify"], "61fa995db4f1e0261e53433fa2b20677a6145aec8f64a4119e96b7ac03068740"),
    (
        ["conjecture", "--k-min", "2", "--k-max", "5"],
        "c9f5926c42a12b86a17d13f5e706001eaa729f4da6dcd2726d704c40d0a9f10e",
    ),
]


@pytest.mark.parametrize("argv,digest", BODY_DIGESTS, ids=[" ".join(argv) for argv, _ in BODY_DIGESTS])
def test_body_bytes_are_pinned(tmp_path, monkeypatch, argv, digest):
    for variable in ("PARDIFF_ENUM_CEILING", "PARDIFF_ORACLE_CEILING", "PARDIFF_BRIDGE_CEILING"):
        monkeypatch.delenv(variable, raising=False)
    if argv[0] == "conjecture":
        g0 = tmp_path / "triangle.txt"
        g0.write_text("1 2\n2 3\n3 1\n")
        argv = argv + ["--g0-file", str(g0)]
    out = tmp_path / "body"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# Every code point, lone surrogates included, and the characters json escapes by name.
_TEXT = st.text(st.integers(0, 0x10FFFF).map(chr) | st.sampled_from('"\\\b\f\n\r\t\x00\x1f\x7f\x80\ud800\U0001f600'))
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(2**64 - 2, 2**200)
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0])
    | _TEXT
)
_INTS = st.integers() | st.integers(-(2**100), 2**100)
# All-int lists and dicts take the writer's one-pass join; a True among ints must not.
_FLAT = (
    st.lists(_INTS)
    | st.lists(_INTS).map(tuple)
    | st.dictionaries(_TEXT, _INTS)
    | st.lists(_INTS).flatmap(lambda xs: st.permutations([*xs, True]))
    | st.dictionaries(_TEXT, _INTS).map(lambda d: {**d, "\x7f": True})
)
_VALUES = st.recursive(
    _SCALARS | _FLAT,
    lambda kids: st.lists(kids) | st.lists(kids).map(tuple) | st.dictionaries(_TEXT, kids),
    max_leaves=24,
)


@given(_VALUES)
def test_writer_matches_json_dumps(value):
    assert _json_body(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"
    assert _json(value, None) == json.dumps(value, sort_keys=True)


SIMULATE_DEMO = {"graph": "path:5", "config": "0,2,0,4,1"}


@pytest.mark.parametrize(
    "argv,parameters,summary",
    [
        (
            ["simulate", "--graph", "path:5", "--config", "0,2,0,4,1", "--steps", "6"],
            {**SIMULATE_DEMO, "steps": 6},
            "simulate: 7 configurations -> {out}",
        ),
        (
            ["period", "--graph", "path:5", "--config", "0,2,0,4,1"],
            {**SIMULATE_DEMO, "max_steps": 200000},
            "period: preperiod 3, period 2 -> {out}",
        ),
        (
            ["count", "--n", "4", "--method", "recurrence"],
            {"n": 4, "method": "recurrence"},
            "count[recurrence]: n=4 -> 26 ({out})",
        ),
        (
            ["verify", "--suites", "graph"],
            {"suites": ["graph"], "max_n_oracle": 8, "max_n_witness": 14, "max_n_routes": 16, "max_n_structure": 12},
            "verify: 3/3 checks passed ({out})",
        ),
        (
            ["conjecture", "--k-min", "2", "--k-max", "3"],
            {"base_vertex": 1, "k_min": 2, "k_max": 3},
            "conjecture (exploratory): k=2..3, residuals [] -> {out}",
        ),
    ],
)
def test_each_command_writes_body_manifest_and_summary(tmp_path, capsys, argv, parameters, summary):
    out = tmp_path / "out"
    if argv[0] == "conjecture":
        g0 = tmp_path / "g0.txt"
        g0.write_text("1 2\n")
        argv = argv + ["--g0-file", str(g0)]
        parameters = {**parameters, "g0_file": str(g0)}
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == summary.format(out=out)
    assert out.is_file()
    manifest = read_manifest(out)
    validate(manifest, load_schema("manifest.schema.json"))
    assert manifest["command"] == argv[0]
    assert manifest["parameters"] == parameters
    assert manifest["output_path"] == str(out)


def test_verify_failed_check_exits_three_and_writes_its_outputs(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(counting, "alternating_count", lambda n: 7)
    out = tmp_path / "v.json"
    assert main(["verify", "--suites", "counting", "--out", str(out)]) == 3
    stdout = capsys.readouterr().out.splitlines()
    results = json.loads(out.read_text())
    failed = [r["name"] for r in results if not r["passed"]]
    assert "alternating-sequence" in failed
    assert any(line.startswith("FAIL counting.alternating-sequence: ") for line in stdout)
    passed = len(results) - len(failed)
    assert stdout[-1] == f"verify: {passed}/{len(results)} checks passed ({out})"
    manifest = read_manifest(out)
    assert manifest["command"] == "verify"
    assert sorted(manifest["check_seconds"]) == sorted(f"counting.{r['name']}" for r in results)


def test_verify_suite_filter(tmp_path, capsys):
    out = tmp_path / "v.json"
    code = main(["verify", "--suites", "graph", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "PASS graph.canonicalize-idempotent" in stdout
    assert "oracle." not in stdout
    results = json.loads(out.read_text())
    validate(results, load_schema("verify_report.schema.json"))
    assert {r["suite"] for r in results} == {"graph"}


def test_verify_manifest_records_check_seconds(tmp_path, capsys):
    out = tmp_path / "v.json"
    assert main(["verify", "--suites", "graph,oracle", "--out", str(out)]) == 0
    manifest = read_manifest(out)
    validate(manifest, load_schema("manifest.schema.json"))
    names = [f"{r['suite']}.{r['name']}" for r in json.loads(out.read_text())]
    assert sorted(manifest["check_seconds"]) == sorted(names)
    assert all(t >= 0 for t in manifest["check_seconds"].values())
    body = out.read_text()
    assert "seconds" not in body


def test_verify_manifest_records_every_depth(tmp_path, capsys):
    out = tmp_path / "v.json"
    argv = ["verify", "--suites", "graph", "--max-n-routes", "9", "--out", str(out)]
    assert main(argv) == 0
    parameters = read_manifest(out)["parameters"]
    assert parameters == {
        "suites": ["graph"],
        "max_n_oracle": 8,
        "max_n_witness": 14,
        "max_n_routes": 9,
        "max_n_structure": 12,
    }


def test_verify_ceiling_inside_a_check_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PARDIFF_ENUM_CEILING", "9")
    argv = ["verify", "--suites", "orientation", "--max-n-oracle", "8", "--out", str(tmp_path / "v.json")]
    # every depth within the ceiling: the orientation counts past it come from the transfer
    assert main(argv + ["--max-n-witness", "9"]) == 0
    capsys.readouterr()
    assert main(argv + ["--max-n-witness", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error [resource-ceiling]: ")
    assert "asked for 10" in captured.err
    assert "FAIL" not in captured.out


def test_verify_routes_past_the_enumeration_ceiling(tmp_path, capsys):
    out = tmp_path / "v.json"
    assert main(["verify", "--suites", "counting", "--max-n-routes", "25", "--out", str(out)]) == 0
    assert all(r["passed"] for r in json.loads(out.read_text()))


@pytest.mark.parametrize(
    "option,value,minimum",
    [
        ("--max-n-oracle", "1", 2),
        ("--max-n-witness", "1", 2),
        ("--max-n-routes", "0", 2),
        ("--max-n-structure", "-3", 4),
        ("--max-n-structure", "3", 4),
    ],
)
def test_verify_vacuous_depth_exits_one(tmp_path, capsys, option, value, minimum):
    assert main(["verify", option, value, "--out", str(tmp_path / "v.json")]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error [domain-error]: ")
    assert f"{option[2:].replace('-', '_')} must be at least {minimum}" in captured.err
    assert not captured.out


@pytest.mark.parametrize("suites", ["bogus", "graph,graph", ""])
def test_verify_unknown_suite_is_domain_error(tmp_path, capsys, suites):
    code = main(["verify", "--suites", suites, "--out", str(tmp_path / "v.json")])
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n", "0", "--method", "recurrence"],
        ["count", "--n", "0", "--method", "summation"],
        ["count", "--n", "0", "--method", "direct"],
        ["count", "--n", "1", "--method", "oracle"],
        ["simulate", "--graph", "path:3", "--config", "0,1,0", "--steps", "0"],
        ["period", "--graph", "path:3", "--config", "0,1,0", "--max-steps", "1"],
        ["period", "--graph", "path:3", "--config", "0,1,0", "--max-steps", "0"],
        ["count", "--n", "5", "--method", "direct", "--full-configurations"],
        ["conjecture", "--k-min", "0", "--k-max", "6"],
        ["conjecture", "--k-min", "6", "--k-max", "2"],
        ["count", "--n", "5", "--method", "direct", "--diff-bound", "0"],
    ],
)
def test_out_of_domain_arguments_exit_one(tmp_path, capsys, argv):
    if argv[0] == "conjecture":
        g0 = tmp_path / "g0.txt"
        g0.write_text("1 2\n")
        argv = argv + ["--g0-file", str(g0)]
    assert main(argv + ["--out", str(tmp_path / "o.json")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error [domain-error]: ")
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        ([], "pardiff: the following arguments are required: command"),
        (
            ["bogus"],
            "pardiff: argument command: invalid choice: 'bogus' "
            "(choose from 'simulate', 'period', 'count', 'verify', 'conjecture')",
        ),
        (["count", "--n", "x", "--method", "oracle"], "pardiff count: argument --n: invalid int value: 'x'"),
        (
            ["count", "--n", "5", "--method", "exact"],
            "pardiff count: argument --method: invalid choice: 'exact' "
            "(choose from 'recurrence', 'summation', 'direct', 'oracle')",
        ),
        (["count", "--method", "oracle", "--n"], "pardiff count: argument --n: expected one argument"),
        (
            ["count", "--n", "5", "--method", "oracle", "--ledger=1"],
            "pardiff count: argument --ledger: ignored explicit argument '1'",
        ),
        (["count", "--method", "oracle"], "pardiff count: the following arguments are required: --n"),
        (
            ["conjecture", "--g0-file", "g0.txt"],
            "pardiff conjecture: the following arguments are required: --k-min, --k-max",
        ),
        (
            ["conjecture", "--g0-file", "g0.txt", "--k-min", "2", "--k-max", "3", "--diff-bound", "3"],
            "pardiff: unrecognized arguments: --diff-bound 3",
        ),
        # an option's name is never abbreviated
        (["count", "--n", "5", "--method", "direct", "--meth", "oracle"], "pardiff: unrecognized arguments: --meth oracle"),
    ],
    ids=[
        "no-command",
        "bad-command",
        "bad-int",
        "bad-choice",
        "no-value",
        "flag-value",
        "missing-n",
        "missing-two",
        "unknown-option",
        "abbreviation",
    ],
)
def test_usage_errors_exit_one_with_one_line(tmp_path, capsys, argv, message):
    # exit code 2 stays the resource ceiling's alone
    assert main(argv + ["--out", str(tmp_path / "o.json")] if argv else argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error [usage]: {message}\n"
    assert not (tmp_path / "o.json").exists()


# The exact help texts: an option table moved between modules must not change a byte.
HELP_TEXTS = {
    "-h": """usage: pardiff <command> [options]

  simulate    fire a configuration for a fixed number of steps
  period      find the preperiod and period of a configuration
  count       count 2-periodic configurations on the n-vertex path
  verify      run the invariant suites
  conjecture  explore the bridge-graph recurrence (never asserted)
""",
    "simulate": """usage: pardiff simulate [options]

fire a configuration for a fixed number of steps

  --graph STR (required): path:<n>, a graph file, or inline edge list
  --config STR (required): comma-separated stacks, v_1 first
  --steps INT (required)
  --out STR (default trace.jsonl)
""",
    "period": """usage: pardiff period [options]

find the preperiod and period of a configuration

  --graph STR (required)
  --config STR (required)
  --max-steps INT: default: 10**6 // n, at least 4
  --out STR (default period.json)
""",
    "count": """usage: pardiff count [options]

count 2-periodic configurations on the n-vertex path

  --n INT (required)
  --method {recurrence,summation,direct,oracle} (required)
  --diff-bound INT: --method oracle only; default 3
  --ledger: include per-orientation products
  --full-configurations: embed oracle configurations
  --out STR (default count.json)
""",
    "verify": """usage: pardiff verify [options]

run the invariant suites

  --suites STR: comma-separated subset, e.g. orientation,oracle
  --max-n-oracle INT
  --max-n-witness INT
  --max-n-routes INT
  --max-n-structure INT
  --out STR (default verify.json)
""",
    "conjecture": """usage: pardiff conjecture [options]

explore the bridge-graph recurrence (never asserted)

  --g0-file STR (required): graph file for G_0 (e.g. a triangle edge list)
  --base-vertex INT (default 1)
  --k-min INT (required)
  --k-max INT (required)
  --out STR (default conjecture.csv)
""",
}


def test_help_prints_usage_and_exits_zero(capsys):
    commands = ["simulate", "period", "count", "verify", "conjecture"]
    for argv in [["-h"]] + [[command, "--help"] for command in commands]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out == HELP_TEXTS[argv[0]], argv
        assert captured.err == ""


def test_config_value_may_start_with_a_dash(tmp_path):
    # the next token is an option's value unless it starts with --
    bodies = []
    for spelling in (["--config", "-1,2,0"], ["--config=-1,2,0"]):
        out = tmp_path / f"trace{len(bodies)}.jsonl"
        assert main(["simulate", "--graph", "path:3", *spelling, "--steps", "1", "--out", str(out)]) == 0
        bodies.append(out.read_bytes())
    assert bodies[0] == bodies[1]
    assert bodies[0].startswith(b'{"stacks": [-1, 2, 0], "step": 0}\n')


def test_summation_passes_the_enumeration_ceiling(tmp_path):
    out = tmp_path / "c.json"
    assert main(["count", "--n", "23", "--method", "summation", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["count"] == count_T_recurrence(23)


def test_summation_ledger_ceiling_names_requested_n(tmp_path, capsys):
    argv = ["count", "--n", "23", "--method", "summation", "--ledger"]
    assert main(argv + ["--out", str(tmp_path / "c.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error [resource-ceiling]: ")
    assert "asked for 23" in err


@pytest.mark.parametrize("method", ["direct", "summation"])
@pytest.mark.parametrize("n", [60, 200])
def test_orientation_routes_count_far_past_the_ceiling(tmp_path, method, n):
    out = tmp_path / "c.json"
    assert main(["count", "--method", method, "--n", str(n), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["count"] == count_T_recurrence(n)


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--method", "direct", "--ledger", "--n", "21"],
        ["count", "--method", "summation", "--ledger", "--n", "21"],
    ],
)
def test_orientation_ceiling_exits_two(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "c.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error [resource-ceiling]: ")
    assert "capped at n = 20 (asked for 21)" in err


def test_direct_route_above_raised_ceiling(tmp_path, monkeypatch):
    monkeypatch.setenv("PARDIFF_ENUM_CEILING", "21")
    out = tmp_path / "c.json"
    assert main(["count", "--method", "direct", "--n", "21", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["count"] == count_T_recurrence(21)


def test_count_provenance_reports_ceilings_in_force(tmp_path, monkeypatch):
    monkeypatch.setenv("PARDIFF_ENUM_CEILING", "25")
    monkeypatch.setenv("PARDIFF_ORACLE_CEILING", "1000")
    out = tmp_path / "c.json"
    assert main(["count", "--n", "4", "--method", "recurrence", "--out", str(out)]) == 0
    provenance = json.loads(out.read_text())["provenance"]
    assert provenance["enum_ceiling"] == 25
    assert provenance["oracle_candidate_ceiling"] == 1000


@pytest.mark.parametrize(
    "variable,value,argv",
    [
        ("PARDIFF_ENUM_CEILING", "abc", ["count", "--n", "5", "--method", "recurrence"]),
        ("PARDIFF_ORACLE_CEILING", "1e9", ["count", "--n", "5", "--method", "oracle"]),
        ("PARDIFF_BRIDGE_CEILING", "twelve", ["conjecture", "--k-min", "1", "--k-max", "1"]),
    ],
)
def test_unparseable_ceiling_variable_exits_one(tmp_path, monkeypatch, capsys, variable, value, argv):
    g0 = tmp_path / "g0.txt"
    g0.write_text("1 2\n")
    if argv[0] == "conjecture":
        argv = argv + ["--g0-file", str(g0)]
    monkeypatch.setenv(variable, value)
    assert main(argv + ["--out", str(tmp_path / "o.json")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error [domain-error]: ")
    assert variable in err


def test_count_recurrence_beyond_int_string_limit(tmp_path):
    out = tmp_path / "c.json"
    assert main(["count", "--n", "8000", "--method", "recurrence", "--out", str(out)]) == 0
    count = json.loads(out.read_text())["count"]
    assert len(str(count)) > 4300


def test_conjecture_degenerate_residuals_zero(tmp_path):
    g0 = tmp_path / "g0.txt"
    g0.write_text("path:1\n")
    out = tmp_path / "conj.csv"
    code = main(
        ["conjecture", "--g0-file", str(g0), "--base-vertex", "1", "--k-min", "4", "--k-max", "8", "--out", str(out)]
    )
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [r["k"] for r in rows] == ["4", "5", "6", "7", "8"]
    assert [int(r["count"]) for r in rows] == [96, 346, 1248, 4506, 16264]
    assert all(r["status"] == "exploratory" for r in rows)
    residuals = [r["residual"] for r in rows]
    assert residuals[:4] == ["", "", "", ""]
    assert residuals[4] == "0"


def test_conjecture_missing_file_exits_one(tmp_path, capsys):
    code = main(
        ["conjecture", "--g0-file", str(tmp_path / "absent.txt"), "--k-min", "4", "--k-max", "8", "--out", str(tmp_path / "c.csv")]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_conjecture_disconnected_g0_exits_one(tmp_path, capsys):
    g0 = tmp_path / "g0.txt"
    g0.write_text("1 2\n3 4\n")
    out = tmp_path / "c.csv"
    code = main(["conjecture", "--g0-file", str(g0), "--k-min", "2", "--k-max", "4", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error [domain-error]: graph is not connected\n"
    assert not out.exists()


def test_conjecture_checks_bridge_ceiling_before_searching(tmp_path, monkeypatch, capsys):
    def no_search(*args, **kwargs):
        raise AssertionError("searched before checking the ceiling")

    monkeypatch.setattr(oracle, "_window_search", no_search)
    g0 = tmp_path / "triangle.txt"
    g0.write_text("1 2\n2 3\n1 3\n")
    out = tmp_path / "c.csv"
    code = main(["conjecture", "--g0-file", str(g0), "--k-min", "2", "--k-max", "10", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error [resource-ceiling]: 13 vertices exceed the bridge-oracle ceiling 12\n"
    )
    assert not out.exists()
    # the ceiling is checked before the bridge graph, whose edge set grows with k, is built
    def no_build(*args, **kwargs):
        raise AssertionError("built the bridge graph before checking the ceiling")

    monkeypatch.setattr(oracle, "SimpleGraph", no_build)
    code = main(["conjecture", "--g0-file", str(g0), "--k-min", "2", "--k-max", "1000000000", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error [resource-ceiling]: 1000000003 vertices exceed the bridge-oracle ceiling 12\n"
    )
    assert not out.exists()
    # the base vertex is still checked before the ceiling
    argv = ["conjecture", "--g0-file", str(g0), "--base-vertex", "4", "--k-min", "2", "--k-max", "1000000000"]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error [domain-error]: base vertex 4 outside [1, 3]\n"
    assert not out.exists()
    # connectivity is checked before the ceiling, so a disconnected G_0 is still a domain error
    g0.write_text("1 2\n3 4\n")
    code = main(["conjecture", "--g0-file", str(g0), "--k-min", "2", "--k-max", "20", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error [domain-error]: graph is not connected\n"
    assert not out.exists()


def _run_child(args):
    """Run ``python *args`` importing the same pardiff as this process, installed or not."""
    src = str(Path(oracle.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_console_entry_point(tmp_path):
    out = tmp_path / "c.json"
    proc = _run_child(
        ["-m", "pardiff.cli", "count", "--n", "2", "--method", "recurrence", "--out", str(out)]
    )
    assert proc.returncode == 0
    assert json.loads(out.read_text())["count"] == 2


def test_export_sequences_script(tmp_path):
    out = tmp_path / "sequences.csv"
    script = Path(__file__).resolve().parent.parent / "scripts" / "export_sequences.py"
    proc = _run_child([str(script), "--n-max", "12", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["n", "R_n", "A_n", "T_n"]
    assert [int(r[0]) for r in rows] == list(range(1, 13))
    for n, r_n, a_n, t_n in rows:
        n = int(n)
        assert int(r_n) == count_p2_orientations_recurrence(n), n
        assert int(a_n) == alternating_count(n), n
        assert int(t_n) == count_T_recurrence(n), n


def test_probe_conjecture_script():
    script = Path(__file__).resolve().parent.parent / "scripts" / "probe_conjecture.py"
    proc = _run_child([str(script), "--g0", "edge", "--k-min", "2", "--k-max", "6"])
    assert proc.returncode == 0, proc.stderr
    # a path bridged onto an edge is the (k + 2)-vertex path: T_4..T_8
    assert re.findall(r"count=\s*(\d+)", proc.stdout) == ["26", "96", "346", "1248", "4506"]
    assert proc.stdout.splitlines()[-1] == "order-4 recurrence residuals (k >= 6): [0]"


SUBMODULES = ("errors", "records", "graphs", "transfer", "engine", "orientations", "counting", "lemmas", "pathcount", "oracle", "verify")


def test_cli_import_skips_dataclasses_and_loads_every_module():
    # Each command is a fresh interpreter, so the import path is paid per call.
    # Every pardiff module is registered in sys.modules on import, though run
    # only on first use: perfbench's tracer wraps them straight from
    # sys.modules after importing pardiff.cli.
    proc = _run_child(
        [
            "-c",
            "import json, sys; from pardiff.cli import main; print(json.dumps(sorted(sys.modules)))",
        ]
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert not {"dataclasses", "inspect"} & loaded
    for name in SUBMODULES:
        assert f"pardiff.{name}" in loaded


# Prints, after running main on its arguments, which pardiff submodules were
# executed: a module still waiting for its first attribute access is not yet
# a plain module.
# ``loaded`` holds every module in sys.modules before json is imported to print.
_EXECUTED = (
    "import sys, types\n"
    "from pardiff.cli import main\n"
    "code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "loaded = sorted(sys.modules)\n"
    "import json\n"
    "print(json.dumps([code, sorted(name[8:] for name, m in sys.modules.items()\n"
    "    if name.startswith('pardiff.') and type(m) is types.ModuleType)]))\n"
)


def _executed_modules(*argv) -> set[str]:
    proc = _run_child(["-c", _EXECUTED, *argv])
    assert proc.returncode == 0, proc.stderr
    code, executed = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    return set(executed)


def _loaded_modules(*argv) -> set[str]:
    """Every module in the child's sys.modules after main ran ``argv``."""
    proc = _run_child(["-c", _EXECUTED + "print(json.dumps(loaded))", *argv])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-2])[0] == 0
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_package_import_runs_no_submodule():
    proc = _run_child(
        [
            "-c",
            "import json, sys, types, pardiff; print(json.dumps(sorted("
            "[name, type(m) is types.ModuleType] for name, m in sys.modules.items() if name.startswith('pardiff.'))))",
        ]
    )
    assert proc.returncode == 0, proc.stderr
    # every submodule is registered and none has run
    assert json.loads(proc.stdout) == sorted([f"pardiff.{name}", False] for name in SUBMODULES)
    assert _executed_modules() == {"cli", "errors"}


def test_oracle_count_never_runs_the_theory_or_verify(tmp_path):
    # a count needs only the path automaton, not the search in oracle
    executed = _executed_modules("count", "--n", "9", "--method", "oracle", "--out", str(tmp_path / "c.json"))
    # orientations holds the word lister, so the count compiles no lister either
    assert executed == {"cli", "errors", "commands", "commands.count", "transfer", "pathcount"}


@pytest.mark.parametrize(
    "argv", [["count", "--method", "oracle", "--n", "5"], ["verify", "--suites", "graph"]], ids=["count", "verify"]
)
def test_command_line_parsing_imports_no_argparse(tmp_path, argv):
    # argparse would pull in gettext, and its help strings locale
    loaded = _loaded_modules(*argv, "--out", str(tmp_path / "o.json"))
    assert not {"argparse", "gettext", "locale"} & loaded


def test_full_configurations_runs_the_search_and_the_automaton(tmp_path):
    argv = ["count", "--n", "6", "--method", "oracle", "--full-configurations", "--out", str(tmp_path / "c.json")]
    executed = _executed_modules(*argv)
    assert {"pathcount", "oracle", "transfer"} <= executed
    assert not {"counting", "orientations", "verify"} & executed


@pytest.mark.parametrize(
    "argv",
    [[method, *ledger] for ledger in ([], ["--ledger"]) for method in ("direct", "summation", "recurrence")],
    ids=" ".join,
)
def test_theory_count_never_runs_the_oracle_or_verify(tmp_path, argv):
    # the theory routes read orientation words, never a graph, a record or a lemma
    executed = _executed_modules("count", "--n", "9", "--method", *argv, "--out", str(tmp_path / "c.json"))
    assert executed == {"cli", "errors", "commands", "commands.count", "transfer", "orientations", "counting"}


@pytest.mark.parametrize("method", ["direct", "summation", "recurrence", "oracle"])
def test_count_imports_no_future(tmp_path, method):
    # every annotation is evaluated eagerly, so no module imports __future__
    assert "__future__" not in _loaded_modules("count", "--n", "9", "--method", method, "--out", str(tmp_path / "c.json"))


@pytest.mark.parametrize(
    "argv",
    [
        *(["count", "--n", "9", "--method", method] for method in ("direct", "summation", "recurrence", "oracle")),
        ["count", "--n", "9", "--method", "summation", "--ledger"],
        ["count", "--n", "6", "--method", "oracle", "--full-configurations"],
        ["verify", "--max-n-oracle", "2", "--max-n-witness", "2", "--max-n-routes", "2", "--max-n-structure", "4"],
        ["simulate", "--graph", "path:5", "--config", "0,2,0,4,1", "--steps", "6"],
        ["period", "--graph", "path:5", "--config", "0,2,0,4,1"],
        ["conjecture", "--k-min", "1", "--k-max", "5"],
    ],
    ids=" ".join,
)
def test_no_command_imports_json(tmp_path, argv):
    # cli writes every body and manifest itself, in json.dumps's bytes
    if argv[0] == "conjecture":
        g0 = tmp_path / "triangle.txt"
        g0.write_text("1 2\n2 3\n3 1\n")
        argv = [*argv, "--g0-file", str(g0)]
    assert "json" not in _loaded_modules(*argv, "--out", str(tmp_path / "out"))


def test_verify_runs_every_submodule(tmp_path):
    depths = ["--max-n-oracle", "2", "--max-n-witness", "2", "--max-n-routes", "2", "--max-n-structure", "4"]
    executed = _executed_modules("verify", *depths, "--out", str(tmp_path / "v.json"))
    assert executed == {"cli", "commands", "commands.verify", *SUBMODULES}


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--graph", "path:5", "--config", "0,2,0,4,1", "--steps", "6"],
        ["period", "--graph", "path:5", "--config", "0,2,0,4,1"],
        ["count", "--n", "9", "--method", "oracle"],
        ["verify", "--suites", "graph"],
        ["conjecture", "--k-min", "1", "--k-max", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_no_command_runs_another_commands_module(tmp_path, argv):
    # each command's options and handler live in pardiff.commands.<command>, imported alone
    if argv[0] == "conjecture":
        g0 = tmp_path / "triangle.txt"
        g0.write_text("1 2\n2 3\n3 1\n")
        argv = [*argv, "--g0-file", str(g0)]
    executed = _executed_modules(*argv, "--out", str(tmp_path / "out"))
    assert {name for name in executed if name.startswith("commands")} == {"commands", f"commands.{argv[0]}"}


def test_star_import_binds_the_submodules_and_runs_none():
    proc = _run_child(
        [
            "-c",
            "import json, sys, types\n"
            "scope = {}\n"
            "exec('from pardiff import *', scope)\n"
            "import pardiff\n"
            "print(json.dumps([sorted(set(scope) - {'__builtins__'}),\n"
            "    sorted(name for name, m in sys.modules.items()\n"
            "        if name.startswith('pardiff.') and type(m) is types.ModuleType),\n"
            "    hasattr(pardiff, 'count_T_direct')]))",
        ]
    )
    assert proc.returncode == 0, proc.stderr
    bound, executed, aliased = json.loads(proc.stdout)
    assert bound == sorted(SUBMODULES)
    assert executed == []
    assert not aliased
