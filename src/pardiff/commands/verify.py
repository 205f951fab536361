"""pardiff verify: run the invariant suites."""

from pardiff import verify
from pardiff.cli import _json_body

# A depth left as None takes VerifyConfig's default, so parsing loads no verify.
OPTIONS = (
    ("--suites", str, False, None, "comma-separated subset, e.g. orientation,oracle"),
    ("--max-n-oracle", int, False, None, ""),
    ("--max-n-witness", int, False, None, ""),
    ("--max-n-routes", int, False, None, ""),
    ("--max-n-structure", int, False, None, ""),
    ("--out", str, False, "verify.json", ""),
)


def run(args) -> tuple:
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
