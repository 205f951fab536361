"""Command-line surface: simulate, period, count, verify, conjecture.

Each command lives in its own module, pardiff.commands.<command>, as its
option table OPTIONS and its handler run(args); _parse imports that module
alone, so a call compiles no other command's code. A handler returns what
it produced as (body, manifest parameters, summary, extra manifest fields
or None, exit code), and main alone writes it: one machine-readable output
file plus a manifest (<output>.manifest.json), then the summary on stdout
(verify puts a PASS/FAIL line per check before it). The handlers are the
only code that shapes a body, to the specs in docs/schemas/; the library
returns records and plain values. _json writes each body and manifest in
the bytes that json.dumps(..., indent=2, sort_keys=True) writes, and each
simulate line as json.dumps(..., sort_keys=True) writes it, so no command
imports json. Output bodies are deterministic; timing lives only in the
manifest. Exit codes: 0 success, 1 domain or usage error, 2 resource
ceiling, 3 verification failure or internal inconsistency. The command
line is read against _COMMANDS, which holds each command's help line, and
the command's OPTIONS.
"""

import os
import sys
import time
from importlib import import_module
from types import SimpleNamespace

import pardiff
from pardiff.errors import CeilingError, DomainError, PardiffError, UsageError


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


# Each command's help line. Its option table and handler are OPTIONS and run
# in pardiff.commands.<command>, which _parse imports for that command alone.
# An option is (flag, type, required, default, help); its type is int, str, a
# tuple of choices, or bool for a flag.
_COMMANDS = {
    "simulate": "fire a configuration for a fixed number of steps",
    "period": "find the preperiod and period of a configuration",
    "count": "count 2-periodic configurations on the n-vertex path",
    "verify": "run the invariant suites",
    "conjecture": "explore the bridge-graph recurrence (never asserted)",
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
    """The command and options in ``argv``, read against _COMMANDS and the
    command's OPTIONS. A usage error raises UsageError: each token's as it
    comes, then any required option left out, then any argument not
    recognized."""
    extras, tokens = [], iter(argv)
    for command in tokens:  # an option before the command is not recognized
        if command in ("-h", "--help"):
            _help("pardiff <command>", [f"  {name:<11} {about}" for name, about in _COMMANDS.items()])
        if not command.startswith("-"):
            break
        extras.append(command)
    else:
        raise UsageError("pardiff: the following arguments are required: command")
    about = _COMMANDS[_value("pardiff", "command", _COMMANDS, command)]
    module = import_module(f"pardiff.commands.{command}")
    options = module.OPTIONS
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
    args, missing = SimpleNamespace(command=command, fn=module.run), []
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
