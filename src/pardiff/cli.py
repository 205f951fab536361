"""Command-line surface: simulate, period, count, verify, conjecture.

Each command handler returns what it produced as (body, manifest
parameters, summary, extra manifest fields or None, exit code), and main
alone writes it: one machine-readable output file plus a manifest
(<output>.manifest.json), then the summary on stdout (verify puts a
PASS/FAIL line per check before it). The handlers are the only code that
shapes a body, to the specs in docs/schemas/; the library returns records
and plain values. _json writes each body and manifest in the bytes that
json.dumps(..., indent=2, sort_keys=True) writes, and each simulate line as
json.dumps(..., sort_keys=True) writes it, so no command imports json.
Output bodies are deterministic; timing lives only in the manifest. Exit
codes: 0 success, 1 domain or usage error, 2 resource ceiling, 3
verification failure or internal inconsistency. The command line is read
against one table, _COMMANDS.
"""

import os
import sys
import time
from types import SimpleNamespace

import pardiff
from pardiff import counting, engine, graphs, oracle, pathcount, verify
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


def _read_graph_file(path: str):
    """Graph from the file at ``path``; a file that is not UTF-8 is a file error."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: {exc}") from None
    return graphs.parse_graph(text)


def _load_graph(text: str):
    """Graph from a literal ``path:<n>``, a file path, or inline edge text.

    Inline edge text always holds whitespace, so a value without any names a
    file, and one that names no file ends in a file error, not a parse error.
    """
    if text.startswith("path:"):
        return graphs.parse_graph(text)
    if os.path.exists(text) or not any(ch.isspace() for ch in text):
        return _read_graph_file(text)
    return graphs.parse_graph(text.replace(",", "\n"))


def _write_text(path: str, body: str):
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(body)


_ESCAPES = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _escaped(ch: str) -> str:
    """One character of a string as json writes it with ensure_ascii."""
    if ch in _ESCAPES:
        return _ESCAPES[ch]
    if " " <= ch <= "~":
        return ch
    n = ord(ch)
    if n > 0xFFFF:  # an astral character is written as its surrogate pair
        n -= 0x10000
        return f"\\u{0xD800 | n >> 10:04x}\\u{0xDC00 | n & 0x3FF:04x}"
    return f"\\u{n:04x}"


def _text(s: str) -> str:
    if not (s.isascii() and s.isprintable()) or '"' in s or "\\" in s:
        s = "".join(map(_escaped, s))
    return '"' + s + '"'


def _json(value, nl) -> str:
    """``value`` in the bytes json.dumps(value, sort_keys=True) writes: on one
    line when ``nl`` is None, else with indent=2, ``nl`` being a newline and
    the indent of the line ``value`` starts on. Dict keys are str; tuples are
    written as lists. A container whose items (or values) are all of type int
    is joined in one pass, without a call per item."""
    if isinstance(value, str):
        return _text(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    if isinstance(value, (list, tuple)):
        keys, items, brackets = None, value, "[]"
    elif isinstance(value, dict):
        keys = sorted(value)
        items, brackets = [value[k] for k in keys], "{}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    inner = None if nl is None else nl + "  "
    if set(map(type, items)) == {int}:  # bool is its own type, so True stays true
        parts = map(int.__repr__, items)
    else:
        parts = [_json(item, inner) for item in items]
    if keys is not None:
        parts = map("{}: {}".format, map(_text, keys), parts)
    if nl is None:
        return brackets[0] + ", ".join(parts) + brackets[1]
    return brackets[0] + inner + ("," + inner).join(parts) + nl + brackets[1]


def _json_body(obj) -> str:
    """``obj`` as a body or manifest file: json.dumps(obj, indent=2,
    sort_keys=True) and a final newline, written by _json."""
    return _json(obj, "\n") + "\n"


def _cmd_simulate(args) -> tuple:
    graph = _load_graph(args.graph)
    config = graphs.config_from_string(args.config, graph)
    trace = engine.run_sequence(graph, config, args.steps)
    body = "".join(_json({"step": t, "stacks": c}, None) + "\n" for t, c in enumerate(trace))
    parameters = {"graph": args.graph, "config": args.config, "steps": args.steps}
    return body, parameters, f"simulate: {len(trace)} configurations -> {args.out}", None, 0


def _cmd_period(args) -> tuple:
    graph = _load_graph(args.graph)
    config = graphs.config_from_string(args.config, graph)
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
        "orbit": report.orbit,
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
            payload["oracle_configurations"] = result.configurations
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


# Each command's handler, help line and options. An option is (flag, type,
# required, default, help); its type is int, str, a tuple of choices, or bool
# for a flag. A verify depth left as None takes VerifyConfig's default, so
# parsing loads no verify.
_COMMANDS = {
    "simulate": (_cmd_simulate, "fire a configuration for a fixed number of steps", (
        ("--graph", str, True, None, "path:<n>, a graph file, or inline edge list"),
        ("--config", str, True, None, "comma-separated stacks, v_1 first"),
        ("--steps", int, True, None, ""),
        ("--out", str, False, "trace.jsonl", ""),
    )),
    "period": (_cmd_period, "find the preperiod and period of a configuration", (
        ("--graph", str, True, None, ""),
        ("--config", str, True, None, ""),
        ("--max-steps", int, False, None, "default: 10**6 // n, at least 4"),
        ("--out", str, False, "period.json", ""),
    )),
    "count": (_cmd_count, "count 2-periodic configurations on the n-vertex path", (
        ("--n", int, True, None, ""),
        ("--method", ("recurrence", "summation", "direct", "oracle"), True, None, ""),
        ("--diff-bound", int, False, None, "--method oracle only; default 3"),
        ("--ledger", bool, False, False, "include per-orientation products"),
        ("--full-configurations", bool, False, False, "embed oracle configurations"),
        ("--out", str, False, "count.json", ""),
    )),
    "verify": (_cmd_verify, "run the invariant suites", (
        ("--suites", str, False, None, "comma-separated subset, e.g. orientation,oracle"),
        ("--max-n-oracle", int, False, None, ""),
        ("--max-n-witness", int, False, None, ""),
        ("--max-n-routes", int, False, None, ""),
        ("--max-n-structure", int, False, None, ""),
        ("--out", str, False, "verify.json", ""),
    )),
    "conjecture": (_cmd_conjecture, "explore the bridge-graph recurrence (never asserted)", (
        ("--g0-file", str, True, None, "graph file for G_0 (e.g. a triangle edge list)"),
        ("--base-vertex", int, False, 1, ""),
        ("--k-min", int, True, None, ""),
        ("--k-max", int, True, None, ""),
        ("--out", str, False, "conjecture.csv", ""),
    )),
}


def _help(prog: str, lines) -> None:
    print(f"usage: {prog} [options]\n", *lines, sep="\n")
    raise SystemExit(0)


def _option_line(flag, kind, required, default, text) -> str:
    value = "" if kind is bool else " " + (kind.__name__.upper() if kind in (int, str) else "{" + ",".join(kind) + "}")
    note = " (required)" if required else f" (default {default})" if default else ""
    return f"  {flag}{value}{note}{text and ': ' + text}"


def _value(prog: str, name: str, kind, value: str):
    """``value`` read as ``kind``: int, str, bool, or a container of the choices."""
    if kind is int:
        try:
            return int(value)
        except ValueError:
            raise UsageError(f"{prog}: argument {name}: invalid int value: {value!r}") from None
    if not isinstance(kind, type) and value not in kind:
        raise UsageError(
            f"{prog}: argument {name}: invalid choice: {value!r} (choose from {', '.join(map(repr, kind))})"
        )
    return value


def _parse(argv) -> SimpleNamespace:
    """The command and options in ``argv``, read against _COMMANDS. A usage
    error raises UsageError: each token's as it comes, then any required
    option left out, then any argument not recognized."""
    extras, tokens = [], iter(argv)
    for command in tokens:  # an option before the command is not recognized
        if command in ("-h", "--help"):
            _help("pardiff <command>", [f"  {name:<11} {entry[1]}" for name, entry in _COMMANDS.items()])
        if not command.startswith("-"):
            break
        extras.append(command)
    else:
        raise UsageError("pardiff: the following arguments are required: command")
    fn, about, options = _COMMANDS[_value("pardiff", "command", _COMMANDS, command)]
    prog, table, given = f"pardiff {command}", {o[0]: o[1] for o in options}, {}
    for token in tokens:
        if token in ("-h", "--help"):
            _help(prog, [about, ""] + [_option_line(*option) for option in options])
        flag, eq, value = token.partition("=")
        kind = table.get(flag)
        if kind is None:
            extras.append(token)
            continue
        if kind is bool:
            if eq:
                raise UsageError(f"{prog}: argument {flag}: ignored explicit argument {value!r}")
            value = True
        elif not eq:  # the next token is the value unless it starts with --
            value = next(tokens, "--")
            if value.startswith("--"):
                raise UsageError(f"{prog}: argument {flag}: expected one argument")
        given[flag] = _value(prog, flag, kind, value)
    args, missing = SimpleNamespace(command=command, fn=fn), []
    for flag, _, required, default, _ in options:
        if required and flag not in given:
            missing.append(flag)
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    if missing:
        raise UsageError(f"{prog}: the following arguments are required: {', '.join(missing)}")
    if extras:
        raise UsageError(f"pardiff: unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # T_n passes 4300 digits near n = 7700
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
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
