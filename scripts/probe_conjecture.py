"""Exploratory probe: does the path recurrence keep predicting counts when the
path hangs off another graph by a bridge?

Counts come from the bridge oracle's firing-only search, which is complete:
its window of deg(u) + deg(v) - 1 on each tree edge holds for every
2-periodic configuration (README, edge-reversal lemma). Only the recurrence
is measured, not proved: alongside the order-4 residuals the script prints the
step ratio F(G_k)/F(G_{k-1}) next to the dominant characteristic root, which
is where agreement would show up first if the recurrence transfers.

Usage:
    python scripts/probe_conjecture.py [--g0 triangle|vertex|edge|star4]
                                       [--k-min 4] [--k-max 8]
"""

from __future__ import annotations

import argparse
import time

from pardiff.counting import characteristic_roots, conjecture_recurrence_check
from pardiff.graphs import PathGraph, SimpleGraph
from pardiff.oracle import enumerate_p2_on_bridge_graph

BASES = {
    "vertex": PathGraph(1),
    "edge": PathGraph(2),
    "triangle": SimpleGraph.from_edge_list([(1, 2), (2, 3), (1, 3)]),
    "star4": SimpleGraph.from_edge_list([(1, 2), (1, 3), (1, 4)]),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--g0", choices=sorted(BASES), default="triangle")
    parser.add_argument("--base-vertex", type=int, default=1)
    parser.add_argument("--k-min", type=int, default=4)
    parser.add_argument("--k-max", type=int, default=8)
    args = parser.parse_args()

    g0 = BASES[args.g0]
    dominant = characteristic_roots().dominant_root
    counts = []
    print(f"G_0 = {args.g0}, k = {args.k_min}..{args.k_max} (exploratory)")
    for k in range(args.k_min, args.k_max + 1):
        t0 = time.perf_counter()
        count = enumerate_p2_on_bridge_graph(g0, args.base_vertex, k)
        elapsed = time.perf_counter() - t0
        ratio = f"{count / counts[-1]:.4f}" if counts else "     -"
        counts.append(count)
        print(f"  k={k:2d}  count={count:10d}  step ratio {ratio}  ({elapsed:.1f}s)")
    print(f"dominant root for comparison: {dominant:.4f}")
    if len(counts) >= 5:
        residuals = conjecture_recurrence_check(counts)
        print(f"order-4 recurrence residuals (k >= {args.k_min + 4}): {residuals}")
    else:
        print("need at least five k values for residuals")


if __name__ == "__main__":
    main()
