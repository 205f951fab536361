"""Command-line surface: simulate, period, count, verify, conjecture.

Each command handler returns what it produced as (body, manifest
parameters, summary, extra manifest fields or None, exit code), and main
alone writes it: one machine-readable output file plus a manifest
(<output>.manifest.json), then the summary on stdout (verify puts a
PASS/FAIL line per check before it). The handlers are the only code that
shapes a body, to the specs in docs/schemas/; the library returns records
and plain values. Output bodies are deterministic;
timing lives only in the manifest. Exit codes: 0 success, 1 domain or
usage error, 2 resource ceiling, 3 verification failure or internal
inconsistency.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import pardiff
from pardiff import counting, engine, oracle, pathcount, verify
from pardiff.errors import (
    CeilingError,
    DomainError,
    InternalInconsistencyError,
    PardiffError,
    PeriodNotFoundError,
    UsageError,
    _candidate_ceiling,
    _enum_ceiling,
)
from pardiff.graphs import config_from_string, parse_graph


def _read_graph_file(path: str):
    """Graph from the file at ``path``; a file that is not UTF-8 is a file error."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: {exc}") from None
    return parse_graph(text)


def _load_graph(text: str):
    """Graph from a literal ``path:<n>``, a file path, or inline edge text.

    Inline edge text always holds whitespace, so a value without any names a
    file, and one that names no file ends in a file error, not a parse error.
    """
    if text.startswith("path:"):
        return parse_graph(text)
    if os.path.exists(text) or not any(ch.isspace() for ch in text):
        return _read_graph_file(text)
    return parse_graph(text.replace(",", "\n"))


def _write_text(path: str, body: str):
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(body)


def _json_body(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _cmd_simulate(args) -> tuple:
    graph = _load_graph(args.graph)
    config = config_from_string(args.config, graph)
    trace = engine.run_sequence(graph, config, args.steps)
    lines = ({"step": t, "stacks": list(c.stacks)} for t, c in enumerate(trace))
    body = "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
    parameters = {"graph": args.graph, "config": args.config, "steps": args.steps}
    return body, parameters, f"simulate: {len(trace)} configurations -> {args.out}", None, 0


def _cmd_period(args) -> tuple:
    graph = _load_graph(args.graph)
    config = config_from_string(args.config, graph)
    max_steps = engine.default_max_steps(graph) if args.max_steps is None else args.max_steps
    try:
        report = engine.detect_period(graph, config, max_steps)
    except PeriodNotFoundError:
        if args.max_steps is None:
            raise CeilingError(
                f"no repeat within {max_steps} steps, the default budget's cap of "
                f"{engine.PERIOD_STEP_CAP} vertex-steps on {graph.vertex_count} vertices; "
                "pass a larger --max-steps"
            ) from None
        raise
    parameters = {"graph": args.graph, "config": args.config, "max_steps": max_steps}
    body = {
        "preperiod": report.preperiod,
        "period": report.period,
        "orbit": [list(c.stacks) for c in report.orbit],
    }
    summary = f"period: preperiod {report.preperiod}, period {report.period} -> {args.out}"
    # detect_period stops at the firing that closes the orbit
    return _json_body(body), parameters, summary, {"steps_used": report.preperiod + report.period}, 0


def _cmd_count(args) -> tuple:
    n, method = args.n, args.method
    if args.full_configurations and method != "oracle":
        raise DomainError("--full-configurations needs --method oracle")
    if args.diff_bound is not None and method != "oracle":
        raise DomainError("--diff-bound needs --method oracle")
    parameters = {"n": n, "method": method}
    if method == "oracle":
        diff_bound = 3 if args.diff_bound is None else args.diff_bound
        parameters["diff_bound"] = diff_bound
        count = pathcount.count_p2_configurations(n, diff_bound=diff_bound)
    else:  # count_T_recurrence, count_T_summation or count_T_direct
        count = getattr(counting, f"count_T_{method}")(n)
    payload = {
        "n": n,
        "method": method,
        "count": count,
        "provenance": {
            "artifact_version": pardiff.__version__,
            "enum_ceiling": _enum_ceiling(),
            "oracle_candidate_ceiling": _candidate_ceiling(),
            "summation_upper_limit_corrected": True,
        },
        "ledger": None,
    }
    if method == "oracle":
        payload["provenance"]["diff_bound"] = diff_bound
        if args.full_configurations:
            result = oracle.enumerate_p2_configurations(n, diff_bound=diff_bound)
            if len(result.configurations) != count:
                raise InternalInconsistencyError(
                    f"the search lists {len(result.configurations)} configurations, "
                    f"the path automaton counts {count}"
                )
            payload["oracle_configurations"] = [list(c.stacks) for c in result.configurations]
    if args.ledger:
        payload["ledger"] = counting.build_count_ledger(n)
    return _json_body(payload), parameters, f"count[{method}]: n={n} -> {count} ({args.out})", None, 0


def _cmd_verify(args) -> tuple:
    given = {name: getattr(args, name) for name in verify.DEPTH_MINIMUMS}
    config = verify.VerifyConfig(**{name: n for name, n in given.items() if n is not None})
    suites = args.suites.split(",") if args.suites is not None else None
    results = verify.run_suites(config, suites)
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.suite}.{r.name}" + (f": {r.detail}" if r.detail else "")
        for r in results
    ]
    failed = [r for r in results if not r.passed]
    lines.append(f"verify: {len(results) - len(failed)}/{len(results)} checks passed ({args.out})")
    depths = {name: getattr(config, name) for name in verify.DEPTH_MINIMUMS}
    body = [{"suite": r.suite, "name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
    return (
        _json_body(body),
        {"suites": suites or verify.suite_names(), **depths},
        "\n".join(lines),
        {"check_seconds": {f"{r.suite}.{r.name}": round(r.seconds, 6) for r in results}},
        3 if failed else 0,
    )


def _cmd_conjecture(args) -> tuple:
    g0 = _read_graph_file(args.g0_file)
    if args.k_min < 1 or args.k_max < args.k_min:
        raise DomainError("need 1 <= k-min <= k-max")
    oracle.checked_bridge_graph(g0, args.base_vertex, args.k_max)  # fail before searching
    ks = range(args.k_min, args.k_max + 1)
    counts = [oracle.enumerate_p2_on_bridge_graph(g0, args.base_vertex, k) for k in ks]
    residuals = counting.conjecture_recurrence_check(counts) if len(counts) >= 5 else []
    column = [""] * (len(counts) - len(residuals)) + residuals  # the first four have none
    rows = (f"{k},{g0.vertex_count + k},{c},{r},exploratory\n" for k, c, r in zip(ks, counts, column))
    parameters = {
        "g0_file": args.g0_file,
        "base_vertex": args.base_vertex,
        "k_min": args.k_min,
        "k_max": args.k_max,
    }
    summary = f"conjecture (exploratory): k={args.k_min}..{args.k_max}, residuals {residuals} -> {args.out}"
    return "k,vertex_count,count,residual,status\n" + "".join(rows), parameters, summary, None, 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise UsageError, so that they end
    in the one-line error contract with exit code 1, not argparse's usage
    block and exit code 2, the code of a resource ceiling. Subparsers are
    built from the same class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--max-steps", type=int, default=None, help="default: 10**6 // n, at least 4")
    p.add_argument("--out", default="period.json")
    p.set_defaults(fn=_cmd_period)

    p = sub.add_parser("count", help="count 2-periodic configurations on the n-vertex path")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", required=True, choices=["recurrence", "summation", "direct", "oracle"])
    p.add_argument("--diff-bound", type=int, default=None, help="--method oracle only; default 3")
    p.add_argument("--ledger", action="store_true", help="include per-orientation products")
    p.add_argument("--full-configurations", action="store_true", help="embed oracle configurations")
    p.add_argument("--out", default="count.json")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--suites", default=None, help="comma-separated subset, e.g. orientation,oracle")
    # A depth left as None takes VerifyConfig's default, so building the parser loads no verify.
    p.add_argument("--max-n-oracle", type=int, default=None)
    p.add_argument("--max-n-witness", type=int, default=None)
    p.add_argument("--max-n-routes", type=int, default=None)
    p.add_argument("--max-n-structure", type=int, default=None)
    p.add_argument("--out", default="verify.json")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("conjecture", help="explore the bridge-graph recurrence (never asserted)")
    p.add_argument("--g0-file", required=True, help="graph file for G_0 (e.g. a triangle edge list)")
    p.add_argument("--base-vertex", type=int, default=1)
    p.add_argument("--k-min", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--out", default="conjecture.csv")
    p.set_defaults(fn=_cmd_conjecture)

    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # T_n passes 4300 digits near n = 7700
    try:
        args = build_parser().parse_args(argv)
        t0 = time.perf_counter()
        body, parameters, summary, extra, code = args.fn(args)
        _write_text(args.out, body)
        manifest = {
            "command": args.command,
            "parameters": parameters,
            "artifact_version": pardiff.__version__,
            "wall_time_seconds": round(time.perf_counter() - t0, 6),
            "output_path": args.out,
        }
        if extra is not None:
            manifest.update(extra)
        _write_text(args.out + ".manifest.json", _json_body(manifest))
        print(summary)
        return code
    except OSError as exc:
        print(f"error [file]: {exc}", file=sys.stderr)
        return 1
    except PardiffError as exc:
        print(f"error [{exc.slug}]: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, DomainError) else 2 if isinstance(exc, CeilingError) else 3

if __name__ == "__main__":
    sys.exit(main())
