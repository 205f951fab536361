"""Command-line surface: simulate, period, count, verify, conjecture.

Every command writes one machine-readable output file plus a manifest
(<output>.manifest.json) and prints a one-line summary. Output bodies are
deterministic; timing lives only in the manifest. Exit codes: 0 success,
1 domain error, 2 resource ceiling, 3 verification failure or internal
inconsistency.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

import pardiff
from pardiff import counting, engine, oracle, orientations, verify
from pardiff.errors import CeilingError, DomainError, InternalInconsistencyError, PardiffError
from pardiff.graphs import config_from_string, parse_graph


def _load_graph(text: str):
    """Graph from a literal ``path:<n>``, a file path, or inline edge text."""
    if text.startswith("path:"):
        return parse_graph(text)
    if os.path.exists(text):
        with open(text, encoding="utf-8") as fh:
            return parse_graph(fh.read())
    return parse_graph(text.replace(",", "\n"))


def _write_text(path: str, body: str):
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(body)


def _json_body(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_manifest(out_path: str, command: str, parameters: dict, wall_time: float):
    manifest = {
        "command": command,
        "parameters": parameters,
        "artifact_version": pardiff.__version__,
        "wall_time_seconds": round(wall_time, 6),
        "output_path": out_path,
    }
    _write_text(out_path + ".manifest.json", _json_body(manifest))


def _cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    graph = _load_graph(args.graph)
    config = config_from_string(args.config, graph)
    trace = engine.run_sequence(graph, config, args.steps)
    lines = trace.to_json_lines()
    body = "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
    _write_text(args.out, body)
    _write_manifest(
        args.out,
        "simulate",
        {"graph": args.graph, "config": args.config, "steps": args.steps},
        time.perf_counter() - t0,
    )
    print(f"simulate: {len(lines)} configurations -> {args.out}")
    return 0


def _cmd_period(args) -> int:
    t0 = time.perf_counter()
    graph = _load_graph(args.graph)
    config = config_from_string(args.config, graph)
    max_steps = engine.default_max_steps(graph, config) if args.max_steps is None else args.max_steps
    report = engine.detect_period(graph, config, max_steps)
    _write_text(args.out, _json_body(report.to_dict()))
    _write_manifest(
        args.out,
        "period",
        {"graph": args.graph, "config": args.config, "max_steps": max_steps},
        time.perf_counter() - t0,
    )
    print(f"period: preperiod {report.preperiod}, period {report.period} -> {args.out}")
    return 0


def _cmd_count(args) -> int:
    t0 = time.perf_counter()
    n, method = args.n, args.method
    if method == "recurrence":
        count = counting.count_T_recurrence(n)
    elif method == "summation":
        count = counting.count_T_summation(n)
    elif method == "direct":
        count = counting.count_T_direct(n)
    else:
        count = oracle.count_p2_configurations(n, diff_bound=args.diff_bound)
    payload = {
        "n": n,
        "method": method,
        "count": count,
        "provenance": {
            "artifact_version": pardiff.__version__,
            "enum_ceiling": orientations._enum_ceiling(),
            "oracle_candidate_ceiling": oracle._candidate_ceiling(),
            "summation_upper_limit_corrected": True,
        },
        "ledger": None,
    }
    if method == "oracle":
        payload["provenance"]["diff_bound"] = args.diff_bound
        if args.full_configurations:
            result = oracle.enumerate_p2_configurations(n, diff_bound=args.diff_bound)
            if len(result.configurations) != count:
                raise InternalInconsistencyError(
                    f"the search lists {len(result.configurations)} configurations, "
                    f"the window DP counts {count}"
                )
            payload["oracle_configurations"] = [list(c.stacks) for c in result.configurations]
    if args.ledger:
        payload["ledger"] = counting.build_count_ledger(n).to_dict()
    _write_text(args.out, _json_body(payload))
    _write_manifest(
        args.out,
        "count",
        {"n": n, "method": method, "diff_bound": args.diff_bound},
        time.perf_counter() - t0,
    )
    print(f"count[{method}]: n={n} -> {count} ({args.out})")
    return 0


def _cmd_verify(args) -> int:
    t0 = time.perf_counter()
    config = verify.VerifyConfig(
        max_n_oracle=args.max_n_oracle,
        max_n_witness=args.max_n_witness,
        max_n_routes=args.max_n_routes,
        max_n_structure=args.max_n_structure,
    )
    suites = args.suites.split(",") if args.suites else None
    results = verify.run_suites(config, suites)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.suite}.{r.name}" + (f": {r.detail}" if r.detail else ""))
    failed = [r for r in results if not r.passed]
    _write_text(args.out, _json_body([r.to_dict() for r in results]))
    _write_manifest(
        args.out,
        "verify",
        {"suites": suites or verify.suite_names(), "max_n_oracle": args.max_n_oracle},
        time.perf_counter() - t0,
    )
    print(f"verify: {len(results) - len(failed)}/{len(results)} checks passed ({args.out})")
    return 3 if failed else 0


def _cmd_conjecture(args) -> int:
    t0 = time.perf_counter()
    with open(args.g0_file, encoding="utf-8") as fh:
        g0 = parse_graph(fh.read())
    if args.k_min < 1 or args.k_max < args.k_min:
        raise DomainError("need 1 <= k-min <= k-max")
    ks = list(range(args.k_min, args.k_max + 1))
    counts = [
        oracle.enumerate_p2_on_bridge_graph(g0, args.base_vertex, k, diff_bound=args.diff_bound)
        for k in ks
    ]
    residuals = counting.conjecture_recurrence_check(counts) if len(counts) >= 5 else []
    rows = []
    for i, k in enumerate(ks):
        residual = residuals[i - 4] if i >= 4 else ""
        rows.append([k, g0.vertex_count + k, counts[i], residual, "exploratory"])
    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["k", "vertex_count", "count", "residual", "status"])
    writer.writerows(rows)
    _write_text(args.out, sink.getvalue())
    _write_manifest(
        args.out,
        "conjecture",
        {
            "g0_file": args.g0_file,
            "base_vertex": args.base_vertex,
            "k_min": args.k_min,
            "k_max": args.k_max,
            "diff_bound": args.diff_bound,
        },
        time.perf_counter() - t0,
    )
    residuals = [r[3] for r in rows if r[3] != ""]
    print(
        f"conjecture (exploratory): k={args.k_min}..{args.k_max}, residuals {residuals} -> {args.out}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pardiff",
        description="Parallel-diffusion chip firing: simulate, classify, count, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="fire a configuration for a fixed number of steps")
    p.add_argument("--graph", required=True, help="path:<n>, a graph file, or inline edge list")
    p.add_argument("--config", required=True, help="comma-separated stacks, v_1 first")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", default="trace.jsonl")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("period", help="find the preperiod and period of a configuration")
    p.add_argument("--graph", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--max-steps", type=int, default=None, help="default: 10*n*(stack range + 1)")
    p.add_argument("--out", default="period.json")
    p.set_defaults(fn=_cmd_period)

    p = sub.add_parser("count", help="count 2-periodic configurations on the n-vertex path")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", required=True, choices=["recurrence", "summation", "direct", "oracle"])
    p.add_argument("--diff-bound", type=int, default=3)
    p.add_argument("--ledger", action="store_true", help="include per-orientation products")
    p.add_argument("--full-configurations", action="store_true", help="embed oracle configurations")
    p.add_argument("--out", default="count.json")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--suites", default=None, help="comma-separated subset, e.g. orientation,oracle")
    p.add_argument("--max-n-oracle", type=int, default=verify.VerifyConfig.max_n_oracle)
    p.add_argument("--max-n-witness", type=int, default=verify.VerifyConfig.max_n_witness)
    p.add_argument("--max-n-routes", type=int, default=verify.VerifyConfig.max_n_routes)
    p.add_argument("--max-n-structure", type=int, default=verify.VerifyConfig.max_n_structure)
    p.add_argument("--out", default="verify.json")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("conjecture", help="explore the bridge-graph recurrence (never asserted)")
    p.add_argument("--g0-file", required=True, help="graph file for G_0 (e.g. a triangle edge list)")
    p.add_argument("--base-vertex", type=int, default=1)
    p.add_argument("--k-min", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--diff-bound", type=int, default=3)
    p.add_argument("--out", default="conjecture.csv")
    p.set_defaults(fn=_cmd_conjecture)

    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # T_n passes 4300 digits near n = 7700
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CeilingError as exc:
        print(f"error [{exc.slug}]: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error [{exc.slug}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error [file]: {exc}", file=sys.stderr)
        return 1
    except PardiffError as exc:
        print(f"error [{exc.slug}]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
