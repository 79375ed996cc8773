"""Layered benchmark of the neseek command line: check -> synth -> sim.

Each workload is a closed loop with one client: for every scenario file
of the workload the real CLI (``python -m neseek.cli`` with PYTHONPATH
set to this checkout's ``src/``) runs ``check``, then ``synth``, then
``sim``, one subprocess at a time.  One such sweep is a *pass*; passes
repeat until ``--seconds`` is used up and every end-to-end metric is
the median over passes.  Every output is checked (see ``gate_*``); an
invocation that fails a gate counts in ``failed``.

With ``--trace 1`` the run alternates untraced passes with traced ones.
A traced pass runs the same commands through ``perfbench/tracing.py``,
which wraps the public layer functions in spans, and the run reports
per-layer self times and counts (medians over traced passes) instead of
the end-to-end metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sensor5-long --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (environment
block, per-pass samples, per-layer table) goes to
``.bench_results/<workload>_seed<seed>_trace<trace>.json``.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata, util
from pathlib import Path

import numpy as np

import scenarios
import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".bench_work"
RESULTS_DIR = ROOT / ".bench_results"

# BLAS threads in every child: fixed, at most nproc, and recorded.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 5

# Criterion-3 bound on the regulator residual and the convergence gate.
RESIDUAL_REL_TOL = 1e-8
OUTPUT_GAP_TOL = 1e-3

LONG_SIM = {"dt": 1e-3, "t_end": 100.0, "record_stride": 100}
SHORT_SIM = {"dt": 1e-3, "t_end": 5.0, "record_stride": 100}
DENSE_SIM = {"dt": 1e-2, "t_end": 100.0, "record_stride": 1}

WORKLOADS = ("sensor5-long", "chain8-certify", "sensor5-dense")


def workload_cases(workload, seed, t_end=None):
    """Scenario files of a workload: (name, doc, extra sim args, gap gate).

    ``t_end`` overrides the horizon (the self-test runs a tiny one; the
    convergence gate is then off).
    """
    if workload == "sensor5-long":
        cases = [(f"sensor5-{s}", scenarios.sensor5(s, seed, LONG_SIM), [], True)
                 for s in ("digraph", "general")]
    elif workload == "chain8-certify":
        cases = [(f"chain8-{s}", scenarios.chain(8, s, seed, SHORT_SIM), [], False)
                 for s in ("digraph", "general")]
    elif workload == "sensor5-dense":
        extra = ["--svg", "{dir}/sensor5-dense.svg",
                 "--perturb-scale", "0.02", "--seed", str(seed)]
        cases = [("sensor5-dense", scenarios.sensor5("general", seed, DENSE_SIM),
                  extra, True)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if t_end is not None:
        for _, doc, _, _ in cases:
            doc["sim"]["t_end"] = t_end
        cases = [(name, doc, extra, False) for name, doc, extra, _ in cases]
    return cases


def expected_rows(sim):
    """Rows the simulator records: steps 0, stride, ..., n_steps."""
    n_steps = int(round(sim["t_end"] / sim["dt"]))
    stride = sim["record_stride"]
    return len(range(0, n_steps + 1, stride)) + (1 if n_steps % stride else 0)


# ---------------------------------------------------------------- gates


def gate_synth(bundle_path):
    """Failure message for a controller bundle, or None if it passes."""
    try:
        with open(bundle_path) as fh:
            cert = json.load(fh)["certificates"]
        abscissa = float(cert["abscissa"])
        residual = float(cert["residual_err"])
        scale = float(cert["scale_err"])
    except (OSError, ValueError, KeyError, TypeError) as err:
        return f"unreadable bundle {bundle_path}: {err!r}"
    if not abscissa < 0:
        return f"abscissa {abscissa!r} is not negative"
    if not residual <= RESIDUAL_REL_TOL * scale:
        return f"residual_err {residual!r} exceeds {RESIDUAL_REL_TOL:g} * {scale!r}"
    return None


def gate_csv(csv_path, rows):
    """Failure message for a trajectory CSV, or None if it passes."""
    try:
        with open(csv_path) as fh:
            header = fh.readline()
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as err:
        return f"unreadable CSV {csv_path}: {err!r}"
    if not header.startswith("t,") or data.shape[1] != header.count(",") + 1:
        return f"CSV header does not match its {data.shape[1]} columns"
    if data.shape[0] != rows:
        return f"CSV has {data.shape[0]} rows, expected {rows}"
    if not np.isfinite(data).all():
        return "CSV holds non-finite values"
    return None


SUMMARY_GAP = re.compile(r"^summary:.* final_output_gap=(\S+)", re.M)


def gate_gap(stderr):
    """Failure message for the sim summary's output gap, or None."""
    match = SUMMARY_GAP.search(stderr)
    if match is None:
        return "no summary line with final_output_gap"
    gap = float(match.group(1))
    if not gap <= OUTPUT_GAP_TOL:
        return f"final_output_gap {gap!r} exceeds {OUTPUT_GAP_TOL:g}"
    return None


# ------------------------------------------------------------ children


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def run_child(argv, env, log_dir):
    """Run one child to completion: (wall s, peak RSS MB, code, stderr)."""
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, err_path.read_text()


def cli_argv(traced, spans_path):
    if traced:
        return [sys.executable, str(BENCH_DIR / "tracing.py"), str(spans_path)]
    return [sys.executable, "-m", "neseek.cli"]


def run_pass(cases, work, env, traced=False):
    """One closed-loop sweep over the workload's files; returns samples."""
    sample = {"check_s": 0.0, "synth_s": 0.0, "sim_s": 0.0,
              "synth_peak_rss_mb": 0.0, "sim_peak_rss_mb": 0.0,
              "attempted": 0, "failures": [], "commands": []}
    for name, doc, extra, gap_gate in cases:
        scn = work / f"{name}.json"
        ctrl = work / f"{name}.ctrl.json"
        csv = work / f"{name}.csv"
        for path in (ctrl, csv):
            path.unlink(missing_ok=True)
        steps = [
            ("check", [str(scn)]),
            ("synth", [str(scn), "--out", str(ctrl)]),
            ("sim", [str(scn), "--controllers", str(ctrl), "--out", str(csv)]
             + [a.format(dir=work) for a in extra]),
        ]
        for command, args in steps:
            spans = work / f"{name}.{command}.spans.json"
            spans.unlink(missing_ok=True)
            wall, rss, code, stderr = run_child(
                cli_argv(traced, spans) + [command] + args, env, work)
            sample[f"{command}_s"] += wall
            if command != "check":
                key = f"{command}_peak_rss_mb"
                sample[key] = max(sample[key], rss)
            sample["attempted"] += 1
            problem = f"exit code {code}" if code != 0 else None
            if problem is None and command == "synth":
                problem = gate_synth(ctrl)
            if problem is None and command == "sim":
                problem = gate_csv(csv, expected_rows(doc["sim"]))
                if problem is None and gap_gate:
                    problem = gate_gap(stderr)
                if problem is None and "--svg" in args:
                    svg = Path(args[args.index("--svg") + 1])
                    if not (svg.exists() and svg.with_suffix(".errors.svg").exists()):
                        problem = "SVG plots missing"
            if traced and not spans.exists():
                problem = problem or "traced command wrote no spans"
            elif traced:
                sample["commands"].append(json.loads(spans.read_text()))
            if problem is not None:
                sample["failures"].append(f"{name} {command}: {problem}")
    sample["pipeline_s"] = sample["check_s"] + sample["synth_s"] + sample["sim_s"]
    return sample


def measure_setup(env, work):
    """Wall times of a fresh interpreter importing neseek.cli."""
    argv = [sys.executable, "-c", "import neseek.cli"]
    times = []
    for _ in range(SETUP_SAMPLES):
        wall, _, code, stderr = run_child(argv, env, work)
        if code != 0:
            raise RuntimeError(f"importing neseek.cli failed: {stderr.strip()}")
        times.append(wall)
    return times


# ------------------------------------------------------------ metrics

def layer_metrics(traced_sample, untraced_pipeline_s):
    """Per-layer self times and counts of one traced pass."""
    commands = traced_sample["commands"]
    selfs = {}
    for cmd in commands:
        for name, secs in tracing.self_times(cmd["spans"]).items():
            selfs[name] = selfs.get(name, 0.0) + secs
    metrics = {f"{name}_s": secs for name, secs in selfs.items()}
    metrics.update(tracing.merge_counts(cmd["counts"] for cmd in commands))
    metrics["trace.overhead_s"] = traced_sample["pipeline_s"] - untraced_pipeline_s
    # Time in the traced commands outside every span: interpreter start
    # and exit, argument parsing, printing and other CLI glue.
    metrics["trace.unaccounted_s"] = traced_sample["pipeline_s"] - sum(selfs.values())
    return metrics


def median_of(samples, key):
    return statistics.median(s[key] for s in samples)


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    return {
        "git_commit": git_commit(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba_importable": util.find_spec("numba") is not None,
        "NESEEK_DISABLE_NUMBA": os.environ.get("NESEEK_DISABLE_NUMBA"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def bench_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def measure(workload, seed, seconds, trace, t_end=None):
    """Run one workload; returns the full record (see module docstring)."""
    spec = bench_spec()
    env = child_env()
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    try:
        cases = workload_cases(workload, seed, t_end)
        for name, doc, _, _ in cases:
            path = work / f"{name}.json"
            path.write_text(json.dumps(doc, indent=1))
            _, _, code, stderr = run_child(
                cli_argv(False, None) + ["check", str(path)], env, work)
            if code != 0:
                raise RuntimeError(f"generated {name} fails check (exit {code}): "
                                   f"{stderr.strip()}")
        setup = measure_setup(env, work)
        setup_s = statistics.median(setup)

        untraced, traced = [], []
        start = time.perf_counter()
        while True:
            untraced.append(run_pass(cases, work, env))
            if trace:
                traced.append(run_pass(cases, work, env, traced=True))
            # Stop once another pass would overshoot by more than half a pass.
            elapsed = time.perf_counter() - start
            if elapsed * (1 + 0.5 / len(untraced)) >= seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = untraced + traced
    attempted = sum(s["attempted"] for s in samples)
    failures = [f for s in samples for f in s["failures"]]
    if trace:
        pipeline = median_of(untraced, "pipeline_s")
        per_pass = [layer_metrics(s, pipeline) for s in traced]
        wanted = spec["per_layer"]
        values = {m["name"]: statistics.median(p.get(m["name"], 0.0) for p in per_pass)
                  for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = {m["name"]: median_of(untraced, m["name"])
                  for m in wanted if m["name"] != "setup_s"}
        values["setup_s"] = setup_s
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    return {
        "workload": workload,
        "environment": environment(seed),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "setup_samples_s": setup,
        "samples": [{k: v for k, v in s.items() if k != "commands"} for s in samples],
        "failed_ops_frac": len(failures) / attempted,
        "failures": failures,
        "result": {"correct": not failures, "attempted": attempted,
                   "failed": len(failures), "metrics": metrics},
    }


def report(record):
    """Human-readable lines for one workload record."""
    res = record["result"]
    lines = [f"[{record['workload']}] passes={record['passes']} "
             f"attempted={res['attempted']} failed={res['failed']} "
             f"failed_ops_frac={record['failed_ops_frac']:g}"]
    lines += [f"  failure: {f}" for f in record["failures"]]
    order = sorted(res["metrics"].items(), key=lambda kv: -abs(kv[1]["value"])
                   if kv[1]["unit"] == "s" else 0)
    for name, m in order:
        lines.append(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "neseek" / "cli.py").is_file():
        print(f"error: no neseek sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    RESULTS_DIR.mkdir(exist_ok=True)
    records = []
    for name in names:
        record = measure(name, args.seed, args.seconds, args.trace)
        out = RESULTS_DIR / f"{name}_seed{args.seed}_trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1))
        print("\n".join(report(record)))
        records.append(record)
    print("environment: " + json.dumps(records[0]["environment"]))

    if len(records) == 1:
        result = records[0]["result"]
    else:
        result = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {f"{r['workload']}/{k}": v for r in records
                        for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
