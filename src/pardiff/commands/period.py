"""pardiff period: find the preperiod and period of a configuration."""

from pardiff import engine, graphs
from pardiff.cli import _json_body
from pardiff.errors import CeilingError, PeriodNotFoundError

OPTIONS = (
    ("--graph", str, True, None, ""),
    ("--config", str, True, None, ""),
    ("--max-steps", int, False, None, "default: 10**6 // n, at least 4"),
    ("--out", str, False, "period.json", ""),
)


def run(args) -> tuple:
    graph = graphs._load_graph(args.graph)
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
