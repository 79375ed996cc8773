"""Spans and counts for the traced run of the neseek CLI.

The traced run executes the real CLI entry point (``neseek.cli.main``)
in a fresh interpreter per command, exactly as the untraced run does,
after replacing the public layer functions the CLI looks up at call
time with wrappers that open a span.  Nothing under ``src/`` changes:
the wrappers live here and are installed on module attributes.

A span records name, start, end and the index of its parent span.  Spans
stay in memory and are written once, when the command returns.  A
layer's self time is its span duration minus the time its child spans
cover.

Run one traced command:

    python3 perfbench/tracing.py SPANS.json check SCENARIO.json
"""

import functools
import json
import os
import sys
import time

# (module, attribute, layer metric name).  Every entry is looked up at
# call time by the module named, so a wrapper there sees each call.  The
# CLI namespace is the layer boundary; the few entries in other modules
# are layer calls nested inside another layer (the NE solve inside
# ``simulate``, the scenario digest inside ``save_controllers``).
PATCHES = [
    ("neseek.cli", "load_scenario", "scenario.load_scenario"),
    ("neseek.cli", "scenario_hash", "scenario.scenario_hash"),
    ("neseek.scenario", "scenario_hash", "scenario.scenario_hash"),
    ("neseek.cli", "save_controllers", "scenario.save_controllers"),
    ("neseek.cli", "load_controllers", "scenario.load_controllers"),
    ("neseek.cli", "assemble_pseudo_gradient", "game.assemble_pseudo_gradient"),
    ("neseek.sim", "assemble_pseudo_gradient", "game.assemble_pseudo_gradient"),
    ("neseek.cli", "check_assumption_1", "game.check_assumption_1"),
    ("neseek.cli", "solve_ne", "game.solve_ne"),
    ("neseek.sim", "solve_ne", "game.solve_ne"),
    ("neseek.cli", "check_assumption_2", "plant.check_assumption_2"),
    ("neseek.cli", "check_assumption_3", "plant.check_assumption_3"),
    ("neseek.cli", "check_assumption_4", "plant.check_assumption_4"),
    ("neseek.cli", "check_acyclic", "graph.check_acyclic"),
    ("neseek.cli", "check_connected", "graph.check_connected"),
    ("neseek.cli", "build_strategy_digraph", "synthesis.build_strategy"),
    ("neseek.cli", "build_strategy_general", "synthesis.build_strategy"),
    ("neseek.cli", "assemble_closed_loop", "synthesis.assemble_closed_loop"),
    ("neseek.cli", "certify_stability", "synthesis.certify_stability"),
    ("neseek.cli", "solve_regulator", "synthesis.solve_regulator"),
    ("neseek.cli", "simulate", "sim.simulate"),
    ("neseek.cli", "write_csv", "sim.write_csv"),
    ("neseek.cli", "convergence_metrics", "sim.convergence_metrics"),
    ("neseek.cli", "line_plot", "svgplot.line_plot"),
]

# How counts from several calls (and several commands) combine.
COUNT_RULES = {
    "scenario.controllers_bytes": "sum",
    "synthesis.dim_z": "max",
    "synthesis.dim_v": "max",
    "linalg.sylvester_system_bytes": "max",
    "sim.rk4_steps": "sum",
    "sim.recorded_rows": "sum",
    "sim.csv_bytes": "sum",
    "svgplot.svg_bytes": "sum",
    "cert.a1_lambda_min": "min",
    "cert.abscissa": "max",
    "cert.residual_err_rel": "max",
    "cert.final_output_gap": "max",
}


class Tracer:
    """In-memory span and count recorder for one process."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def begin(self, name):
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": self._stack[-1] if self._stack else None})
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()]["end"] = time.perf_counter()

    def count(self, name, value):
        value = float(value)
        if name not in self.counts:
            self.counts[name] = value
            return
        rule = COUNT_RULES[name]
        old = self.counts[name]
        self.counts[name] = (old + value if rule == "sum"
                             else min(old, value) if rule == "min"
                             else max(old, value))

    def wrap(self, fn, name, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result
        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def _file_size(path):
    return os.path.getsize(path) if path and os.path.exists(path) else 0


def _observe_save_controllers(tr, args, kwargs, result):
    tr.count("scenario.controllers_bytes", _file_size(args[0]))


def _observe_regulator(tr, args, kwargs, reg):
    cl = args[0]
    tr.count("synthesis.dim_z", cl.dim_z)
    tr.count("synthesis.dim_v", cl.dim_v)
    # Size of the dense Kronecker system the seed solver would form:
    # computed from the dimensions, not measured.
    tr.count("linalg.sylvester_system_bytes", 8 * (cl.dim_z * cl.dim_v) ** 2)
    tr.count("cert.residual_err_rel", reg.residual_err / reg.scale_err
             if reg.scale_err else float("inf"))


def _observe_simulate(tr, args, kwargs, trajectory):
    cfg = args[1]
    tr.count("sim.rk4_steps", cfg.n_steps)
    tr.count("sim.recorded_rows", len(trajectory.times))


def _observe_write_csv(tr, args, kwargs, result):
    tr.count("sim.csv_bytes", _file_size(args[1]))


def _observe_line_plot(tr, args, kwargs, result):
    tr.count("svgplot.svg_bytes", _file_size(kwargs.get("path")))


OBSERVERS = {
    ("neseek.cli", "save_controllers"): _observe_save_controllers,
    ("neseek.cli", "solve_regulator"): _observe_regulator,
    ("neseek.cli", "simulate"): _observe_simulate,
    ("neseek.cli", "write_csv"): _observe_write_csv,
    ("neseek.cli", "line_plot"): _observe_line_plot,
    ("neseek.cli", "check_assumption_1"):
        lambda tr, a, k, res: tr.count("cert.a1_lambda_min", res[1]),
    ("neseek.cli", "certify_stability"):
        lambda tr, a, k, res: tr.count("cert.abscissa", res[1]),
    ("neseek.cli", "convergence_metrics"):
        lambda tr, a, k, res: tr.count("cert.final_output_gap",
                                       res["final_output_gap"]),
}


def install(tracer):
    """Wrap every entry of PATCHES that exists; return the missing ones."""
    missing = []
    for module_name, attr, name in PATCHES:
        fn = getattr(sys.modules.get(module_name), attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        observe = OBSERVERS.get((module_name, attr))
        setattr(sys.modules[module_name], attr, tracer.wrap(fn, name, observe))
    return missing


def self_times(spans):
    """Per-name totals of span duration minus direct children's coverage.

    Children of one span never overlap (the traced code is sequential),
    so the covered time is the sum of the direct children's durations.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    totals = {}
    for span, covered in zip(spans, child_time):
        own = span["end"] - span["start"] - covered
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


def merge_counts(per_command):
    """Combine the count dicts of several commands by COUNT_RULES."""
    tracer = Tracer()
    for counts in per_command:
        for name, value in counts.items():
            tracer.count(name, value)
    return tracer.counts


def main(argv):
    out, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.begin("cli.import")
    import neseek.cli
    tracer.end()
    missing = install(tracer)
    if missing:
        print("tracing: not found, left untraced: " + ", ".join(missing),
              file=sys.stderr)
    try:
        code = neseek.cli.main(cli_argv)
    finally:
        tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
