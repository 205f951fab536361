"""pardiff count: T_n by the recurrence, the summation, the direct product
sum or the firing-only path automaton."""

import pardiff
from pardiff import counting, oracle, pathcount
from pardiff.cli import _json_body
from pardiff.errors import DomainError, InternalInconsistencyError, _candidate_ceiling, _enum_ceiling

OPTIONS = (
    ("--n", int, True, None, ""),
    ("--method", ("recurrence", "summation", "direct", "oracle"), True, None, ""),
    ("--diff-bound", int, False, None, "--method oracle only; default 3"),
    ("--ledger", bool, False, False, "include per-orientation products"),
    ("--full-configurations", bool, False, False, "embed oracle configurations"),
    ("--out", str, False, "count.json", ""),
)


def run(args) -> tuple:
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
