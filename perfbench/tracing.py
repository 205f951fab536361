"""Spans around pardiff's public functions, recorded from outside the program.

Tracer.install() wraps each public function listed in LAYERS and rebinds
every name under which a pardiff module holds it (for example
pardiff.engine.adjacency or pardiff.counting.enumerate_p2_orientations).
Spans stay in memory as parallel arrays of name, start, end and parent, and
are written out once the run ends. Functions that do not exist in the
version under test are skipped.

Per-vertex helpers (vertex_multiplier, multiplier_vector) are left unwrapped:
they sit inside count_configs_on_orientation, in the same layer, and a span
per vertex would dominate what it measures. Spans inside forked pool workers
are not recorded; the parent's oracle span covers the pool's wall time.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

LAYERS = {
    "cli": ("pardiff.cli", ("main",)),
    "graphs": ("pardiff.graphs", ("adjacency", "is_connected", "parse_graph", "render_graph",
                                  "config_from_string", "config_to_string", "shift",
                                  "canonicalize")),
    "engine": ("pardiff.engine", ("fire_step", "run_sequence", "default_max_steps",
                                  "detect_period", "induced_orientation",
                                  "orientation_of_stacks", "is_inside_period")),
    "orientations": ("pardiff.orientations", ("check_p2_orientation", "enumerate_p2_orientations",
                                              "count_p2_orientations_recurrence",
                                              "witness_configuration")),
    "counting": ("pardiff.counting", ("count_configs_on_orientation", "count_T_recurrence",
                                      "count_T_direct", "count_T_summation", "stage",
                                      "build_count_ledger", "alternating_count",
                                      "alternating_orientations", "sever_at_flats",
                                      "contract_agreeing", "agreeing_pair_positions",
                                      "characteristic_roots", "conjecture_recurrence_check",
                                      "sequence_rows")),
    "oracle": ("pardiff.oracle", ("enumerate_p2_configurations", "orientations_realized",
                                  "bound_stability_check")),
    "bridge": ("pardiff.oracle", ("enumerate_p2_on_bridge_graph", "build_bridge_graph")),
    "verify": ("pardiff.verify", ("run_suites",)),
}


def _bound(fn):
    """Map a call's arguments to parameter names, whatever way they were passed."""
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    return bind


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def wrap(self, name: str, layer: str, fn, observe=None):
        nid = self._name_id(name, layer)
        sn, sp, ss, se, stack = (self.span_name, self.span_parent, self.span_start,
                                 self.span_end, self.stack)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(sn)
            sn.append(nid)
            sp.append(stack[-1])
            se.append(0)
            stack.append(i)
            ss.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                se[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def _observers(self):
        c = self.counters

        def fire_step(args, kwargs, result):
            c["engine.fire_steps"] += 1
            c["engine.vertex_steps"] += len(result.stacks)

        def detect_period(args, kwargs, result):
            a = self._binders["detect_period"](args, kwargs)
            steps = result.preperiod + result.period
            c["engine.fire_steps"] += steps
            c["engine.vertex_steps"] += steps * a["graph"].vertex_count
            c["engine.budget_used"] = max(c["engine.budget_used"], steps / a["max_steps"])

        def is_inside_period(args, kwargs, result):
            a = self._binders["is_inside_period"](args, kwargs)
            c["engine.fire_steps"] += 2
            c["engine.vertex_steps"] += 2 * a["graph"].vertex_count

        def enumerate_orients(args, kwargs, result):
            c["orientations.emitted"] += len(result)

        def oracle_path(args, kwargs, result):
            a = self._binders["enumerate_p2_configurations"](args, kwargs)
            c["oracle.candidates"] += (2 * a["diff_bound"] + 1) ** (a["n"] - 1)
            c["oracle.found"] += result.count

        return {
            "fire_step": fire_step,
            "detect_period": detect_period,
            "is_inside_period": is_inside_period,
            "enumerate_p2_orientations": enumerate_orients,
            "enumerate_p2_configurations": oracle_path,
        }

    def install(self):
        """Wrap every listed function and rebind it wherever pardiff holds it."""
        __import__("pardiff.cli")  # loads every pardiff module

        verify_mod = sys.modules["pardiff.verify"]
        self._binders = {}
        observers = self._observers()
        replacements = {}
        for layer, (modname, fnames) in LAYERS.items():
            mod = sys.modules[modname]
            for fname in fnames:
                orig = getattr(mod, fname, None)
                if orig is None:
                    continue
                if fname in observers:
                    self._binders[fname] = _bound(orig)
                if fname == "run_suites":
                    wrapped = self._split_suites(orig, verify_mod)
                else:
                    wrapped = self.wrap(f"{modname.split('.')[-1]}.{fname}", layer, orig,
                                        observers.get(fname))
                replacements[id(orig)] = (orig, wrapped)
        for modname, mod in list(sys.modules.items()):
            if modname != "pardiff" and not modname.startswith("pardiff."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replacements.get(id(val))
                if hit is not None and hit[0] is val:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def _split_suites(self, run_suites, verify_mod):
        """run_suites, called once per suite so each suite gets its own span."""
        suite_names = verify_mod.suite_names
        per_suite = {}

        def split(config=None, suites=None):
            results = []
            for s in (list(suites) if suites is not None else suite_names()):
                if s not in per_suite:
                    per_suite[s] = self.wrap(f"verify.suite.{s}", "verify", run_suites)
                if config is None:
                    results += per_suite[s](suites=[s])
                else:
                    results += per_suite[s](config, [s])
            return results

        return self.wrap("verify.run_suites", "verify", split)

    def uninstall(self):
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved.clear()

    # -- analysis --------------------------------------------------------

    def write(self, path: Path, origin_ns: int):
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tlayer\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.span_name)):
                nid = self.span_name[i]
                fh.write(f"{i}\t{self.names[nid]}\t{self.layer_of[nid]}\t"
                         f"{self.span_start[i] - origin_ns}\t{self.span_end[i] - origin_ns}\t"
                         f"{self.span_parent[i]}\n")

    def analyse(self) -> dict:
        """Self time and busy time per layer; total time and calls per span name.

        A span counts toward its layer's busy time when its parent is in
        another layer (or it has none).
        """
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        own = list(dur)
        parent = self.span_parent
        for i in range(n):
            if parent[i] >= 0:
                own[parent[i]] -= dur[i]
        self_ns = defaultdict(int)
        total_ns = defaultdict(int)
        calls = defaultdict(int)
        layer_busy_ns = defaultdict(int)
        names, layer_of, sn = self.names, self.layer_of, self.span_name
        for i in range(n):
            nid = sn[i]
            layer = layer_of[nid]
            self_ns[layer] += own[i]
            total_ns[names[nid]] += dur[i]
            calls[names[nid]] += 1
            p = parent[i]
            if p < 0 or layer_of[sn[p]] != layer:
                layer_busy_ns[layer] += dur[i]
        return {
            "spans": n,
            "self_s": {k: v / 1e9 for k, v in self_ns.items()},
            "busy_s": {k: v / 1e9 for k, v in layer_busy_ns.items()},
            "total_s": {k: v / 1e9 for k, v in total_ns.items()},
            "calls": dict(calls),
        }

    def calls_under(self, child: str, ancestor: str) -> tuple[int, int]:
        """(calls of `child` with an `ancestor` span above them, calls of `ancestor`)."""
        ids = {name: i for i, name in enumerate(self.names)}
        cid, aid = ids.get(child), ids.get(ancestor)
        if cid is None or aid is None:
            return 0, 0
        sn, parent = self.span_name, self.span_parent
        inside = outer = 0
        for i in range(len(sn)):
            if sn[i] == aid:
                outer += 1
            elif sn[i] == cid:
                p = parent[i]
                while p >= 0 and sn[p] != aid:
                    p = parent[p]
                inside += p >= 0
        return inside, outer
