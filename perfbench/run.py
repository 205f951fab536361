"""pardiff benchmark: end-to-end CLI runs and a traced in-process replay.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from ./src.

--trace 0 (measurement): each workload is a fixed, seeded list of `pardiff`
CLI commands run one after another as subprocesses (a closed loop with one
client: a command starts only when the previous one has exited). Every
command runs at least twice, and the passes over the list go on while the
next command should end within --seconds. A reference program is spawned
after each timed spawn and scales its time (see REFERENCE_CODE). Every
output is checked against references in checks.py. Reports setup_s, wall_s,
cmd_p50_s and peak_rss_mb.

--trace 1 (per layer): one subprocess pass for the startup split, then the
same argv lists replayed in-process through pardiff.cli.main, once untraced
and, after the pool probes, once with tracing.Tracer's wrappers installed.
Reports the per-layer metrics listed in BENCHMARK.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable table.
Spans and raw samples go to .perfbench_work/<workload>/.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import checks
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170.0  # the whole run must end well within 180 s
SETUP_PAIRS_PER_PASS = 3
CLI_CODE = "import sys; from pardiff.cli import main; sys.exit(main())"
IMPORT_CODE = "import pardiff"
BARE_CODE = "pass"
# A fixed pure-Python program, spawned between the timed spawns. Other machines
# on the shared host change its speed by up to a third, in phases of seconds to
# minutes; a timed spawn is scaled by REFERENCE_S over the mean of the reference
# spawns just before and after it, so the timings read as seconds on a host
# where the reference takes REFERENCE_S, which is about its time on a quiet host.
# After a timed spawn the reference runs until it has taken REFERENCE_SHARE of
# that spawn's time, and at least once: one short reference is too noisy to
# scale a command of seconds by.
REFERENCE_CODE = "s = 0\nfor i in range(250_000):\n    s += i * i % 7"
REFERENCE_S = 0.1
REFERENCE_SHARE = 0.25


def median(xs):
    return statistics.median(xs) if xs else 0.0


def ratio(a, b):
    return a / b if b else 0.0


class Runner:
    """Spawns commands against ./src and records each one's wall time and peak RSS."""

    def __init__(self, deadline: float, work: Path):
        self.deadline = deadline
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=str(SRC) + (os.pathsep + pythonpath if pythonpath else ""))
        self.stderr_path = work / "stderr.txt"
        self.references: list[float] = []
        self.raw_imports: list[float] = []

    def spawn(self, args: list[str]) -> tuple[float, float, int]:
        """(wall seconds, peak RSS of the process tree in MB, exit code)."""
        with open(self.stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.DEVNULL,
                                    stderr=err, env=self.env, start_new_session=True)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                    os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
            finally:
                timer.cancel()
                timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def last_stderr(self) -> str:
        lines = self.stderr_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
        return lines[-1] if lines else ""

    def reference(self, after: float = 0.0) -> list[float]:
        """Spawn the reference program for REFERENCE_SHARE of `after` seconds, at
        least once; returns the wall times of the spawns."""
        walls = []
        while not walls or sum(walls) < REFERENCE_SHARE * after:
            wall, _, rc = self.spawn(["-c", REFERENCE_CODE])
            if rc != 0:
                raise SystemExit(f"the reference program exited with code {rc}: "
                                 f"{self.last_stderr()}")
            walls.append(wall)
        self.references += walls
        return walls

    @staticmethod
    def scale(ref_before: list[float], ref_after: list[float]) -> float:
        return REFERENCE_S / statistics.fmean(ref_before + ref_after)

    def setup_samples(self, imports: list[float], bare: list[float], pairs: int, tally):
        """Interleaved spawns of a bare interpreter and of `import pardiff`, each
        pair followed by reference spawns and scaled by the references around it;
        the raw import times go to self.raw_imports."""
        if not imports:
            self.spawn(["-c", IMPORT_CODE])  # warm the page cache before timing
        ref = self.reference()
        for _ in range(pairs):
            bare_wall = self.spawn(["-c", BARE_CODE])[0]
            wall, _, rc = self.spawn(["-c", IMPORT_CODE])
            reason = None if rc == 0 else f"exit code {rc} {self.last_stderr()}"
            tally.record("import pardiff", reason)
            ref_after = self.reference(bare_wall + wall)
            k = self.scale(ref, ref_after)
            bare.append(bare_wall * k)
            imports.append(wall * k)
            self.raw_imports.append(wall)
            ref = ref_after


class Tally:
    """Commands attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, label: str, reason: str | None):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{label}: {reason}")


def check_output(cmd: workloads.Command, rc: int, stderr: str = "") -> str | None:
    """None if the command exited 0 and its output matches the references."""
    if rc != 0:
        return f"exit code {rc} {stderr}".strip()
    try:
        cmd.check(cmd.out)
        checks.manifest_wall(cmd.out)
    except checks.Mismatch as exc:
        return str(exc)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None


def subprocess_pass(runner: Runner, cmds, tally: Tally, samples: dict, startup: list,
                    end: float | None = None) -> bool:
    """Run the commands once, in order, each followed by reference spawns.

    Appends (scaled wall, raw wall, peak RSS) to samples[label], and each
    correct command's startup (raw wall minus its manifest's wall time) to
    `startup`. With `end`, stops before a command that has two samples already
    and should not finish by `end`; returns whether the pass ran to its end.
    """
    ref = runner.reference()
    for cmd in cmds:
        own = samples[cmd.label]
        if end is not None and len(own) >= 2:
            due = time.monotonic() + own[-1][1] * (1 + REFERENCE_SHARE)
            if due > min(end, runner.deadline - 5):
                return False
        wall, rss, rc = runner.spawn(["-c", CLI_CODE, *cmd.argv])
        err = runner.last_stderr() if rc else ""
        ref_after = runner.reference(wall)
        own.append((wall * runner.scale(ref, ref_after), wall, rss))
        ref = ref_after
        reason = check_output(cmd, rc, err)
        tally.record(cmd.label, reason)
        if reason is None:
            startup.append(wall - checks.manifest_wall(cmd.out))
    return True


def measure(seconds: float, cmds, runner: Runner, tally: Tally, report: dict):
    imports, bare, startup = [], [], []
    samples = {c.label: [] for c in cmds}
    end = time.monotonic() + seconds
    # Every command runs at least twice; after that the passes go on, and may
    # stop part-way, while the next command should end within --seconds. Setup
    # samples are taken between passes, so they span the whole run.
    while True:
        runner.setup_samples(imports, bare, SETUP_PAIRS_PER_PASS, tally)
        if not subprocess_pass(runner, cmds, tally, samples, startup, end):
            break
    scaled, raw, rss = ({label: [x[i] for x in own] for label, own in samples.items()}
                        for i in range(3))
    n_cmds = sum(map(len, scaled.values()))
    report.update(setup_samples=imports, raw_setup_samples=runner.raw_imports,
                  bare_samples=bare, per_command=scaled,
                  raw_per_command=raw, rss_per_command=rss,
                  reference_samples=runner.references, startup_samples=startup)
    cmd_p50 = [median(ws) for ws in scaled.values()]
    metrics = {
        "setup_s": (median(imports), "s", len(imports)),
        "wall_s": (sum(cmd_p50), "s", n_cmds),
        "cmd_p50_s": (median(cmd_p50), "s", n_cmds),
        "peak_rss_mb": (max(median(ms) for ms in rss.values()), "MB", n_cmds),
    }
    extra = {
        "raw_setup_s": (median(runner.raw_imports), "s", len(runner.raw_imports)),
        "raw_wall_s": (sum(median(ws) for ws in raw.values()), "s", n_cmds),
        "reference_s": (median(runner.references), "s", len(runner.references)),
        "bare_spawn_s": (median(bare), "s", len(bare)),
        "cmd_max_s": (max(max(ws) for ws in scaled.values()), "s", n_cmds),
        "error_rate": (ratio(tally.failed, tally.attempted), "ratio", tally.attempted),
        "cli.startup_s": (median(startup), "s", len(startup)),
    }
    return metrics, extra


# -- traced run ---------------------------------------------------------------


def inprocess_pass(cli, cmds, tally: Tally) -> float:
    """Replay every command through pardiff.cli.main; returns the summed call time."""
    results, total = [], 0.0
    for cmd in cmds:
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(list(cmd.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash inside the program is a failed command, not a benchmark crash
            rc, sink = 1, io.StringIO(traceback.format_exc())
        total += time.perf_counter() - t0
        results.append((rc, sink.getvalue().strip().splitlines()[-1:]))
    for cmd, (rc, last_line) in zip(cmds, results):
        tally.record(cmd.label, check_output(cmd, rc, " ".join(last_line)))
    return total


def pool_probe(label, fn, kwargs, want, tally: Tally) -> float:
    """Time fn at workers=1 and workers=2; the ratio is the pool's speed-up."""
    if "workers" not in inspect.signature(fn).parameters:
        got = fn(**kwargs)
        tally.record(label, None if got == want else f"{got} != {want}")
        return 1.0
    times = {}
    for w in (1, 2):
        t0 = time.perf_counter()
        got = fn(**kwargs, workers=w)
        times[w] = time.perf_counter() - t0
        got = getattr(got, "count", got)
        tally.record(f"{label} workers={w}", None if got == want else f"{got} != {want}")
    return ratio(times[1], times[2])


def traced(cmds, runner: Runner, tally: Tally, report: dict, work: Path):
    imports, bare = [], []
    runner.setup_samples(imports, bare, 3 * SETUP_PAIRS_PER_PASS, tally)
    samples, startup = {c.label: [] for c in cmds}, []
    subprocess_pass(runner, cmds, tally, samples, startup)
    pass_wall = sum(own[0][1] for own in samples.values())

    sys.path.insert(0, str(SRC))
    import pardiff.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported pardiff from {cli.__file__}, not from {SRC}")
    oracle = sys.modules["pardiff.oracle"]
    untraced_s = inprocess_pass(cli, cmds, tally)
    triangle = sys.modules["pardiff.graphs"].parse_graph("1 2\n2 3\n1 3\n")
    pool = pool_probe("oracle n=11", oracle.enumerate_p2_configurations,
                      {"n": 11, "diff_bound": 3}, checks.t_count(11), tally)
    bridge_pool = pool_probe("bridge triangle k=7", oracle.enumerate_p2_on_bridge_graph,
                             {"g0": triangle, "base_vertex": 1, "k": 7, "diff_bound": 3},
                             checks.TRIANGLE_ROWS[7], tally)

    tracer = Tracer()
    tracer.install()
    origin = time.perf_counter_ns()
    try:
        traced_s = inprocess_pass(cli, cmds, tally)
    finally:
        tracer.uninstall()

    spans_path = work / "spans.tsv.gz"
    tracer.write(spans_path, origin)
    a = tracer.analyse()
    c = tracer.counters
    total, calls, self_s = a["total_s"], a["calls"], a["self_s"]
    enum_in_sum, summations = tracer.calls_under("orientations.enumerate_p2_orientations",
                                                 "counting.count_T_summation")
    rec_in_sum, _ = tracer.calls_under("counting.count_T_recurrence", "counting.count_T_summation")
    products = calls.get("counting.count_configs_on_orientation", 0)
    enum_calls = calls.get("orientations.enumerate_p2_orientations", 0)
    adjacency_builds = calls.get("graphs.adjacency", 0)
    engine_busy = a["busy_s"].get("engine", 0.0)
    oracle_s = total.get("oracle.enumerate_p2_configurations", 0.0)
    startup_total = sum(startup)
    report.update(setup_samples=imports, bare_samples=bare, subprocess_pass_wall=pass_wall,
                  startup_samples=startup, spans_file=str(spans_path), span_totals=total,
                  span_calls=calls, layer_self_s=self_s, counters=dict(c))

    m = {
        "cli.startup_s": (median(startup), "s", len(startup)),
        "cli.startup_share": (ratio(startup_total, pass_wall), "ratio", len(startup)),
        "cli.import_s": (median(imports) - median(bare), "s", len(imports)),
        "cli.self_s": (self_s.get("cli", 0.0), "s", 1),
        "graphs.self_s": (self_s.get("graphs", 0.0), "s", 1),
        "graphs.adjacency_builds": (adjacency_builds, "count", 1),
        "graphs.adjacency_per_step": (ratio(adjacency_builds, c["engine.fire_steps"]), "ratio", 1),
        "engine.fire_steps": (int(c["engine.fire_steps"]), "count", 1),
        "engine.busy_s": (engine_busy, "s", 1),
        "engine.self_s": (self_s.get("engine", 0.0), "s", 1),
        "engine.vertex_steps_per_s": (ratio(c["engine.vertex_steps"], engine_busy), "1/s", 1),
        "engine.budget_used": (c["engine.budget_used"], "ratio", 1),
        "orientations.enum_calls": (enum_calls, "count", 1),
        "orientations.emitted": (int(c["orientations.emitted"]), "count", 1),
        "orientations.emitted_per_s": (
            ratio(c["orientations.emitted"],
                  total.get("orientations.enumerate_p2_orientations", 0.0)), "1/s", 1),
        "orientations.check_calls": (calls.get("orientations.check_p2_orientation", 0), "count", 1),
        "orientations.self_s": (self_s.get("orientations", 0.0), "s", 1),
        "counting.self_s": (self_s.get("counting", 0.0), "s", 1),
        "counting.products": (products, "count", 1),
        "counting.products_per_s": (
            ratio(products, total.get("counting.count_configs_on_orientation", 0.0)), "1/s", 1),
        "counting.enum_per_route": (ratio(enum_in_sum, summations), "ratio", summations),
        "counting.recurrence_calls_in_summation": (rec_in_sum, "count", summations),
        "oracle.self_s": (self_s.get("oracle", 0.0), "s", 1),
        "oracle.candidates": (int(c["oracle.candidates"]), "count", 1),
        "oracle.found": (int(c["oracle.found"]), "count", 1),
        "oracle.candidates_per_s": (ratio(c["oracle.candidates"], oracle_s), "1/s", 1),
        "oracle.found_per_s": (ratio(c["oracle.found"], oracle_s), "1/s", 1),
        "oracle.pool_speedup": (pool, "ratio", 1),
        "oracle.bridge_pool_speedup": (bridge_pool, "ratio", 1),
        "oracle.bridge_self_s": (self_s.get("bridge", 0.0), "s", 1),
        "verify.self_s": (self_s.get("verify", 0.0), "s", 1),
    }
    for suite in sorted(workloads.VERIFY_SUITES):
        m[f"verify.suite_s.{suite}"] = (total.get(f"verify.suite.{suite}", 0.0), "s", 1)
    attributed = sum(self_s.values())
    m.update({
        "trace.inproc_untraced_s": (untraced_s, "s", 1),
        "trace.inproc_traced_s": (traced_s, "s", 1),
        "trace.overhead_s": (traced_s - untraced_s, "s", 1),
        "trace.unattributed_s": (traced_s - attributed, "s", 1),
        "trace.spans": (a["spans"], "count", 1),
    })
    return m, {}


# -- entry point --------------------------------------------------------------


def host_info() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine()}
    try:
        import numpy

        info["numpy"] = numpy.__version__
    except ImportError:
        info["numpy"] = None
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pardiff" / "cli.py").is_file():
        print(f"error: no pardiff sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmds = workloads.build(args.workload, args.seed, work)
    runner = Runner(deadline, work)
    tally = Tally()
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "host": host_info(), "commands": [c.label for c in cmds]}
    if args.trace:
        metrics, extra = traced(cmds, runner, tally, report, work)
    else:
        metrics, extra = measure(args.seconds, cmds, runner, tally, report)
    shown = {**metrics, **extra}
    report.update(failures=tally.reasons, metrics={k: v[0] for k, v in shown.items()})
    (work / "report.json").write_text(json.dumps(report, indent=1, default=str), encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"(why, and which metric each layer should move: perfbench/README.md)")
    print("host: " + ", ".join(f"{k} {v}" for k, v in report["host"].items()))
    for name, (value, unit, n) in shown.items():
        print(f"  {name:<40} {value:>16.6g} {unit:<6} n={n}")
    print(f"  commands attempted {tally.attempted}, failed {tally.failed}")
    for reason in tally.reasons:
        print(f"  FAILED {reason}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
