"""Self-test of the benchmark at a tiny horizon.

Checks that every metric named in BENCHMARK.json is emitted with its
unit, for every workload, traced and untraced; that a deliberately
corrupted output (a truncated CSV, a bundle with ``residual_err = nan``)
is counted as a failed operation and not as a pass; and that the
benchmark refuses to run without the program's sources.

Run from the root of a checkout (takes about two minutes, most of it
in the 8-agent regulator solve):

    python3 perfbench/selftest.py
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SEED = 7
TINY_T_END = 0.1


def check_metrics(record, spec, trace):
    wanted = spec["per_layer" if trace else "end_to_end"]
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["attempted"] >= 1
    got = result["metrics"]
    assert list(got) == [m["name"] for m in wanted], sorted(got)
    for m in wanted:
        value = got[m["name"]]
        assert value["unit"] == m["unit"], (m["name"], value)
        assert isinstance(value["value"], float) and math.isfinite(value["value"])
        if not trace:
            assert value["value"] > 0, (m["name"], value)


def corrupt(mode, cli_args):
    """Run the real CLI, then damage the output that ``mode`` names."""
    import neseek.cli

    code = neseek.cli.main(cli_args)
    command = cli_args[0]
    out = Path(cli_args[cli_args.index("--out") + 1]) if "--out" in cli_args else None
    if mode == "truncate-csv" and command == "sim":
        lines = out.read_text().splitlines(keepends=True)
        out.write_text("".join(lines[: len(lines) // 2]))
    if mode == "nan-residual" and command == "synth":
        doc = json.loads(out.read_text())
        doc["certificates"]["residual_err"] = float("nan")
        out.write_text(json.dumps(doc))
    return code


def check_corruption_counted(mode, expect):
    plain = run.cli_argv
    run.cli_argv = lambda traced, spans: [sys.executable, __file__, "--corrupt", mode]
    try:
        record = run.measure("sensor5-dense", SEED, 0, 0, t_end=TINY_T_END)
    finally:
        run.cli_argv = plain
    result = record["result"]
    assert result["attempted"] == 3, result
    assert result["failed"] == 1 and not result["correct"], record["failures"]
    assert expect in record["failures"][0], record["failures"]


def check_refuses_without_sources():
    run.WORK_DIR.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK_DIR))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sensor5-dense",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc


def main():
    spec = run.bench_spec()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_metrics(run.measure(workload, SEED, 0, trace, t_end=TINY_T_END),
                          spec, trace)
            print(f"ok   {workload} trace={trace}: every metric with its unit")
    check_corruption_counted("truncate-csv", "CSV has")
    print("ok   truncated CSV counted as a failure")
    check_corruption_counted("nan-residual", "residual_err nan")
    print("ok   bundle with residual_err = nan counted as a failure")
    check_refuses_without_sources()
    print("ok   refuses to run without src/")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--corrupt"]:
        sys.exit(corrupt(sys.argv[2], sys.argv[3:]))
    sys.exit(main())
