"""cavityqc scenario benchmark: one workload per invocation, each in child processes.

Run from the repository root::

    python3 perfbench/run.py --workload sweep|transistor \
        --seed N --seconds S --trace 0|1

``--trace 0`` starts one discarded set-up process, two more set-up
processes, and one measuring process (see ``child.py``), and reports the
end-to-end metrics:

- ``run_s.p50`` / ``run_s.p90``: median and 90th percentile of the wall
  seconds per scenario run (load, validate, compute, report write) over the
  runs that passed the correctness gate;
- ``peak_rss_mb``: peak resident set of the measuring process;
- ``setup_s``: median over the last three processes of the time from
  process start to the end of the warm-up.

``--trace 1`` starts one tracing process and reports the per-layer metrics
of ``tracing.layer_metrics`` plus ``trace.overhead_frac``, the traced
median run time over the untraced one minus 1, and compares the function
with the largest self time with ``predictions.json``.

Every metric is printed by name with its unit, then the environment, and as
the last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. ``correct`` is false when any run failed the gate. The
exit code is 0 when a result was printed and 2 when the benchmark could not
run (for example, without the package source under ``src/``).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

SETUP_PROCESSES = 2  # measured set-up processes besides the measuring one
TIME_LIMIT_S = 170.0


def declared_units(section: str) -> dict[str, str]:
    """Names and units of one metric section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


class BenchmarkError(Exception):
    pass


def spawn(mode: str, args, deadline: float) -> dict:
    """Run one child process to completion and return its JSON result."""
    workdir = OUT_DIR / f"{args.workload}-{args.seed}-{mode}"
    shutil.rmtree(workdir, ignore_errors=True)
    command = [
        sys.executable, str(BENCH_DIR / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--workdir", str(workdir),
    ]
    try:
        proc = subprocess.run(
            command + ["--spawned-at", repr(time.monotonic())],
            capture_output=True, text=True, cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} process ran past the time limit") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(
            f"{mode} process exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def percentile_90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(args, deadline: float):
    spawn("setup", args, deadline)  # discarded: pays for cold file caches
    setups = [spawn("setup", args, deadline)["setup_s"] for _ in range(SETUP_PROCESSES)]
    result = spawn("measure", args, deadline)
    setups.append(result["setup_s"])
    times = result["times"]
    if len(times) < 2:
        raise BenchmarkError(f"only {len(times)} runs passed; cannot take percentiles")
    metrics = {
        "run_s.p50": statistics.median(times),
        "run_s.p90": percentile_90(times),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    notes = {
        "runs timed": len(times),
        "runs re-checked for identical report.json": result["rechecked"],
        "setup samples (s)": [round(s, 4) for s in setups],
    }
    return result, metrics, declared_units("end_to_end"), notes


def per_layer(args, deadline: float):
    result = spawn("trace", args, deadline)
    predictions = json.loads((BENCH_DIR / "predictions.json").read_text(encoding="utf-8"))
    predicted = predictions["workloads"][args.workload]["leader"]

    def shares(ranked):
        return ", ".join(f"{name} {share:.1%}" for name, share in ranked)

    notes = {
        "traced runs": result["runs"],
        "spans written": f"{result['spans']} to {result['spans_file']}",
        "largest self time": shares(result["leaders"]),
        **{f"largest self time in {kind} runs": shares(ranked)
           for kind, ranked in result["kind_leaders"].items()},
        "predicted leader": " or ".join(predicted),
        "leader matches prediction": bool(result["leaders"])
        and result["leaders"][0][0] in predicted,
    }
    return result, result["metrics"], declared_units("per_layer"), notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cavityqc" / "__init__.py").is_file():
        print(f"error: no cavityqc source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    try:
        result, metrics, units, notes = (per_layer if args.trace else end_to_end)(
            args, deadline
        )
        missing = set(units) - set(metrics)
        if missing:
            raise BenchmarkError(f"metrics not produced: {sorted(missing)}")
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed = len(result["failures"])
    attempted = result["attempted"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:<46} {metrics[name]:.6g} {unit}")
    print(f"  {'failed_frac':<46} {failed / attempted:.6g} ({failed} of {attempted} runs)")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    print("environment: " + json.dumps(result["env"], sort_keys=True))
    for failure in result["failures"][:10]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
