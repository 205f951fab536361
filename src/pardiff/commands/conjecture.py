"""pardiff conjecture: explore the bridge-graph recurrence (never asserted)."""

from pardiff import counting, graphs, oracle
from pardiff.errors import DomainError

OPTIONS = (
    ("--g0-file", str, True, None, "graph file for G_0 (e.g. a triangle edge list)"),
    ("--base-vertex", int, False, 1, ""),
    ("--k-min", int, True, None, ""),
    ("--k-max", int, True, None, ""),
    ("--out", str, False, "conjecture.csv", ""),
)


def run(args) -> tuple:
    g0 = graphs._read_graph_file(args.g0_file)
    if args.k_min < 1 or args.k_max < args.k_min:
        raise DomainError("need 1 <= k-min <= k-max")
    oracle.build_bridge_graph(g0, args.base_vertex, args.k_max)  # fail before searching
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
