"""The benchmark's workloads: seeded lists of pardiff CLI commands.

Each command carries the argv after `pardiff`, its output file and a check
from checks.py. The seed shuffles the command order and, for `engine`, draws
the graphs and configurations; the program sees only the generated inputs.
Sizes were chosen so that one pass of each workload takes about 4-8 s on a
quiet 2-core host (`routes` takes up to about 12 s when the host is busy).
BENCHMARK.json lists `oracle-path` and `routes`; `bridge` and `engine` run
when named with --workload (perfbench/README.md says why).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks


@dataclass(frozen=True)
class Command:
    argv: list[str]
    out: Path
    check: Callable[[Path], None]

    @property
    def label(self) -> str:
        return self.out.name


VERIFY_SUITES = {"graph", "engine", "orientation", "counting", "oracle"}
ENGINE_SIZES = (5, 12, 30, 60, 120, 200, 350, 500)
SIMULATE_STEPS = 2000


def _count(work: Path, n: int, method: str, *extra: str, ledger: bool = False) -> Command:
    tag = "-".join([method, str(n), *(e.strip("-") for e in extra)])
    out = work / f"count-{tag}.json"
    argv = ["count", "--method", method, "--n", str(n), *extra, "--out", str(out)]
    return Command(argv, out, partial(checks.check_count, n=n, method=method, ledger=ledger))


def oracle_path(rng: random.Random, work: Path) -> list[Command]:
    cmds = [_count(work, n, "oracle") for n in range(2, 12)]
    cmds += [_count(work, n, "oracle", "--diff-bound", "4") for n in range(2, 10)]
    rng.shuffle(cmds)
    return cmds


def routes(rng: random.Random, work: Path) -> list[Command]:
    out = work / "verify.json"
    cmds = [
        _count(work, 17, "summation"),
        _count(work, 20, "direct"),
        _count(work, 20, "recurrence"),
        _count(work, 16, "summation", "--ledger", ledger=True),
        Command(["verify", "--out", str(out)], out,
                partial(checks.check_verify, suites=VERIFY_SUITES)),
    ]
    rng.shuffle(cmds)
    return cmds


def bridge(rng: random.Random, work: Path) -> list[Command]:
    cmds = []
    for g0, edges, k_max in (("triangle", "1 2\n2 3\n1 3\n", 7), ("edge", "1 2\n", 8)):
        g0_file = work / f"{g0}.txt"
        g0_file.write_text(edges, encoding="utf-8")
        out = work / f"conjecture-{g0}.csv"
        argv = ["conjecture", "--g0-file", str(g0_file), "--k-min", "2", "--k-max", str(k_max),
                "--out", str(out)]
        m = 3 if g0 == "triangle" else 2
        check = partial(checks.check_conjecture, g0=g0, k_min=2, k_max=k_max, g0_vertices=m)
        cmds.append(Command(argv, out, check))
    rng.shuffle(cmds)
    return cmds


def _random_edges(rng: random.Random, n: int, extra: int) -> list[tuple[int, int]]:
    """A random recursive tree on 1..n plus up to `extra` chords."""
    edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
    for _ in range(extra):
        u, v = rng.sample(range(1, n + 1), 2)
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def _graph_arg(work: Path, name: str, n: int, edges) -> str:
    if edges is None:
        return f"path:{n}"
    path = work / f"{name}.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in edges), encoding="utf-8")
    return str(path)


def engine(rng: random.Random, work: Path) -> list[Command]:
    cmds = []
    for family in ("path", "tree", "graph"):
        for n in ENGINE_SIZES:
            if family == "path":
                edges = None
            else:
                edges = _random_edges(rng, n, n // 2 if family == "graph" else 0)
            name = f"{family}{n}"
            graph = _graph_arg(work, name, n, edges)
            adj = checks.adjacency(n, edges or [(i, i + 1) for i in range(1, n)])
            spread = 2 + n // 10
            stacks = [rng.randint(-spread, spread) for _ in range(n)]
            out = work / f"period-{name}.json"
            argv = ["period", "--graph", graph, "--config=" + ",".join(map(str, stacks)),
                    "--out", str(out)]
            cmds.append(Command(argv, out, partial(checks.check_period, stacks=stacks, adj=adj)))
    for name, n, edges in (("simpath500", 500, None),
                           ("simgraph200", 200, _random_edges(rng, 200, 100))):
        graph = _graph_arg(work, name, n, edges)
        adj = checks.adjacency(n, edges or [(i, i + 1) for i in range(1, n)])
        stacks = [rng.randint(0, 9) for _ in range(n)]
        out = work / f"simulate-{name}.jsonl"
        argv = ["simulate", "--graph", graph, "--config=" + ",".join(map(str, stacks)),
                "--steps", str(SIMULATE_STEPS), "--out", str(out)]
        check = partial(checks.check_simulate, stacks=stacks, adj=adj, steps=SIMULATE_STEPS)
        cmds.append(Command(argv, out, check))
    rng.shuffle(cmds)
    return cmds


BUILDERS = {"oracle-path": oracle_path, "routes": routes, "bridge": bridge, "engine": engine}


def build(name: str, seed: int, work: Path) -> list[Command]:
    return BUILDERS[name](random.Random(f"{name}:{seed}"), work)
