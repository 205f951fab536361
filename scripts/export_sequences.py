"""Export the counting sequences as CSV for eyeballing or OEIS-style lookups.

Usage:
    python scripts/export_sequences.py [--n-max 30] [--out sequences.csv]

Columns: n, orientations (R_n), alternating (A_n), configurations (T_n).
"""

from __future__ import annotations

import argparse
import csv

from pardiff.counting import alternating_count, count_T_recurrence
from pardiff.orientations import count_p2_orientations_recurrence


def sequence_rows(n_max: int) -> list[tuple[int, int, int, int]]:
    """CSV-ready rows (n, R_n, A_n, T_n) for n = 1..n_max."""
    return [
        (n, count_p2_orientations_recurrence(n), alternating_count(n), count_T_recurrence(n))
        for n in range(1, n_max + 1)
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=30)
    parser.add_argument("--out", default="sequences.csv")
    args = parser.parse_args()

    rows = sequence_rows(args.n_max)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "R_n", "A_n", "T_n"])
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    print("tail:", rows[-1])


if __name__ == "__main__":
    main()
