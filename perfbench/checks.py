"""Independent checks of pardiff's CLI outputs.

Nothing here imports pardiff. Totals come from the printed recurrences in a
few lines of integer arithmetic, the triangle rows are pinned, and the
`period` and `simulate` bodies are re-fired with the firing rule below.
Each check raises Mismatch with a one-line reason.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path


class Mismatch(Exception):
    """An output disagrees with the benchmark's own reference."""


def expect(ok: bool, reason: str):
    if not ok:
        raise Mismatch(reason)


def t_count(n: int) -> int:
    """T_n from T_n = 3T_{n-1} + 2T_{n-2} + T_{n-3} - T_{n-4}, seeded 0, 2, 8, 26."""
    t = [0, 0, 2, 8, 26]
    while len(t) <= n:
        t.append(3 * t[-1] + 2 * t[-2] + t[-3] - t[-4])
    return t[n]


def r_count(n: int) -> int:
    """R_n from R_n = R_{n-1} + 2R_{n-2} - R_{n-4}, seeded 0, 2, 2, 4."""
    r = [0, 0, 2, 2, 4]
    while len(r) <= n:
        r.append(r[-1] + 2 * r[-2] - r[-4])
    return r[n]


# Bridge counts for a triangle G_0 with the path on vertex 1, k = 2..7.
TRIANGLE_ROWS = {2: 122, 3: 468, 4: 1674, 5: 6028, 6: 21770, 7: 78564}


def fire(stacks: list[int], adj: list[list[int]]) -> list[int]:
    """One simultaneous firing: each vertex gains a chip from every richer
    neighbour and loses one to every poorer neighbour."""
    out = []
    for s, nbrs in zip(stacks, adj):
        d = 0
        for w in nbrs:
            t = stacks[w]
            d += (t > s) - (t < s)
        out.append(s + d)
    return out


def adjacency(n: int, edges) -> list[list[int]]:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u - 1].append(v - 1)
        adj[v - 1].append(u - 1)
    return adj


def _step(prev: list[int], nxt: list[int], adj, where: str):
    expect(sum(nxt) == sum(prev), f"{where}: chips not conserved")
    expect(nxt == fire(prev, adj), f"{where}: step breaks the firing rule")


def _load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def manifest_wall(out: Path) -> float:
    """The command's own wall time, as its manifest records it."""
    return float(_load_json(Path(str(out) + ".manifest.json"))["wall_time_seconds"])


def check_count(out: Path, n: int, method: str, ledger: bool = False):
    body = _load_json(out)
    want = t_count(n)
    expect(body["n"] == n and body["method"] == method, "count: wrong n or method echoed")
    expect(body["count"] == want, f"count[{method}] n={n}: {body['count']} != T_n {want}")
    if not ledger:
        return
    led = body["ledger"]
    per = led["per_orientation"]
    expect(len(per) == r_count(n), f"ledger n={n}: {len(per)} orientations != R_n {r_count(n)}")
    expect(sum(per.values()) == want, f"ledger n={n}: products sum to {sum(per.values())}")
    totals = led["totals"]
    expect(totals["R_n"] == r_count(n), "ledger: R_n total")
    expect(totals["A_n"] == 8 * 3 ** (n - 3), "ledger: A_n total")
    for key in ("T_recurrence", "T_summation", "T_direct"):
        expect(totals[key] == want, f"ledger: {key} = {totals[key]} != {want}")


def check_verify(out: Path, suites: set[str]):
    results = _load_json(out)
    expect(len(results) > 0, "verify: no checks ran")
    failed = [f"{r['suite']}.{r['name']}" for r in results if not r["passed"]]
    expect(not failed, f"verify: failing checks {failed}")
    expect({r["suite"] for r in results} == suites, "verify: suites missing from the report")


def check_conjecture(out: Path, g0: str, k_min: int, k_max: int, g0_vertices: int):
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    expect(rows[0] == ["k", "vertex_count", "count", "residual", "status"], "conjecture: header")
    body = rows[1:]
    expect([int(r[0]) for r in body] == list(range(k_min, k_max + 1)), "conjecture: k column")
    counts = [int(r[2]) for r in body]
    for (k, vc, count, residual, status), c in zip(body, counts):
        k = int(k)
        want = TRIANGLE_ROWS[k] if g0 == "triangle" else t_count(k + 2)
        expect(c == want, f"conjecture {g0} k={k}: {c} != {want}")
        expect(int(vc) == g0_vertices + k, f"conjecture {g0} k={k}: vertex count {vc}")
        expect(status == "exploratory", f"conjecture {g0} k={k}: status {status!r}")
    for i in range(len(counts)):
        if i < 4:
            expect(body[i][3] == "", f"conjecture {g0}: residual before five counts")
            continue
        want = counts[i] - (3 * counts[i - 1] + 2 * counts[i - 2] + counts[i - 3] - counts[i - 4])
        expect(int(body[i][3]) == want, f"conjecture {g0}: residual row {i}")


def check_period(out: Path, stacks: list[int], adj):
    rep = _load_json(out)
    pre, p, orbit = rep["preperiod"], rep["period"], rep["orbit"]
    expect(p in (1, 2) and len(orbit) == p, f"period: bad period {p}")
    seq = [list(stacks)]
    for t in range(pre + p):
        seq.append(fire(seq[-1], adj))
        _step(seq[-2], seq[-1], adj, f"period step {t + 1}")
    expect(seq[pre] == orbit[0], "period: orbit does not start at the preperiod")
    expect(seq[pre + p] == seq[pre], f"period: no return after {p} steps")
    if p == 2:
        expect(seq[pre + 1] == orbit[1] and orbit[1] != orbit[0], "period: 2-cycle is not minimal")
    if pre > 0:
        back = seq[pre - 1]
        expect(fire(back, adj) != back and seq[pre - 1 + p] != back, "period: preperiod not least")


def check_simulate(out: Path, stacks: list[int], adj, steps: int):
    with open(out, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    expect(len(lines) == steps + 1, f"simulate: {len(lines)} lines for {steps} steps")
    expect([ln["step"] for ln in lines] == list(range(steps + 1)), "simulate: step numbers")
    seq = [ln["stacks"] for ln in lines]
    expect(seq[0] == list(stacks), "simulate: first line is not the input")
    for t in range(1, steps + 1):
        _step(seq[t - 1], seq[t], adj, f"simulate step {t}")
    expect(seq[-1] == seq[-3], "simulate: trace does not end inside a period of 1 or 2")
