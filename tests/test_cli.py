"""End-to-end command-line behaviour: outputs, manifests, exit codes, schemas."""

import concurrent.futures
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import validate

from pardiff import oracle
from pardiff.cli import main
from pardiff.counting import count_T_recurrence

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
    validate(report, load_schema("period_report.schema.json"))


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
    # the searches behind default-depth verify are too small to repay a pool
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    assert main(["verify", "--suites", "oracle", "--out", str(tmp_path / "v.json")]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_full_configurations_at_nine_uses_every_core(tmp_path, monkeypatch):
    real = concurrent.futures.ProcessPoolExecutor
    started = []

    def spy(*args, **kwargs):
        started.append(kwargs["max_workers"])
        return real(*args, **kwargs)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    out = tmp_path / "c.json"
    argv = ["count", "--n", "9", "--method", "oracle", "--full-configurations", "--out", str(out)]
    assert main(argv) == 0
    assert started == [2]
    payload = json.loads(out.read_text())
    assert len(payload["oracle_configurations"]) == payload["count"] == count_T_recurrence(9)


def test_count_oracle_list_mismatch_exits_three(tmp_path, monkeypatch, capsys):
    real = oracle.count_p2_configurations
    monkeypatch.setattr(oracle, "count_p2_configurations", lambda *a, **k: real(*a, **k) + 1)
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


def test_verify_unknown_suite_is_domain_error(tmp_path, capsys):
    code = main(["verify", "--suites", "bogus", "--out", str(tmp_path / "v.json")])
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
    ],
)
def test_out_of_domain_arguments_exit_one(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "o.json")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error [domain-error]: ")


def test_summation_ceiling_names_requested_n(tmp_path, capsys):
    code = main(["count", "--n", "23", "--method", "summation", "--out", str(tmp_path / "c.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error [resource-ceiling]: ")
    assert "n = 23" in err


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


def test_console_entry_point(tmp_path):
    out = tmp_path / "c.json"
    # the child imports the same pardiff as this process, installed or not
    src = str(Path(oracle.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "pardiff.cli", "count", "--n", "2", "--method", "recurrence", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(out.read_text())["count"] == 2
