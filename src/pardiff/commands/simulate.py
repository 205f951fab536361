"""pardiff simulate: fire a configuration for a fixed number of steps."""

from pardiff import engine, graphs
from pardiff.cli import _json

OPTIONS = (
    ("--graph", str, True, None, "path:<n>, a graph file, or inline edge list"),
    ("--config", str, True, None, "comma-separated stacks, v_1 first"),
    ("--steps", int, True, None, ""),
    ("--out", str, False, "trace.jsonl", ""),
)


def run(args) -> tuple:
    graph = graphs._load_graph(args.graph)
    config = graphs.config_from_string(args.config, graph)
    trace = engine.run_sequence(graph, config, args.steps)
    body = "".join(_json({"step": t, "stacks": c}, None) + "\n" for t, c in enumerate(trace))
    parameters = {"graph": args.graph, "config": args.config, "steps": args.steps}
    return body, parameters, f"simulate: {len(trace)} configurations -> {args.out}", None, 0
