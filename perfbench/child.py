"""One benchmark child process: set up a workload, then run it in a closed loop.

Started by ``run.py`` with the interpreter that runs it::

    python3 perfbench/child.py --workload W --seed N --seconds S \
        --mode setup|measure|trace --spawned-at T --workdir DIR

A single client sends one scenario through ``cavityqc.cli.run``
(in-process, output to a fresh directory under DIR) and only then the next.
Modes:

- ``setup``: import and warm up, report ``setup_s`` and exit;
- ``measure``: as ``setup``, then time whole cycles of scenarios for about
  S seconds with tracing off, then re-run every eighth timed scenario and require
  a byte-identical ``report.json``;
- ``trace``: after the warm-up, run every scenario twice, untraced and
  traced (alternating which goes first), require identical ``report.json``
  bytes, and report the per-layer metrics of the traced runs; the spans
  replace ``spans-W.jsonl`` next to DIR.

``setup_s`` runs from T, the parent's monotonic clock just before it
started this process, to the end of the warm-up. The last stdout line is
one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

RECHECK_EVERY = 8


class Client:
    """Runs scenarios through ``cli.run`` and gates their reports."""

    def __init__(self, workdir: Path):
        from cavityqc import cli

        self.cli = cli
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []
        self._count = 0

    def execute(self, scenario: dict) -> tuple[float, bytes | None, str | None]:
        """Run one scenario; returns (seconds, report.json bytes, failure)."""
        self._count += 1
        rundir = self.workdir / f"run{self._count}"
        rundir.mkdir(parents=True)
        path = rundir / "scenario.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        outdir = rundir / "out"
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                start = time.perf_counter()
                try:
                    code = self.cli.run(path, outdir)
                finally:
                    elapsed = time.perf_counter() - start
            report = (outdir / "report.json").read_bytes()
        except Exception as exc:  # noqa: BLE001 - any error fails this run only
            return elapsed, None, f"raised {type(exc).__name__}: {exc}"
        finally:
            shutil.rmtree(rundir, ignore_errors=True)
        return elapsed, report, check_report(scenario, code, report)

    def record(self, scenario: dict, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failures.append(f"{scenario['kind']}: {failure}")


def check_report(scenario: dict, code: int, report: bytes) -> str | None:
    """Why a run's report fails the correctness gate, or None if it passes.

    A run passes only if it returned 0, every assertion passed, every
    assertion its scenario calls for is present, and every table has the
    requested number of rows.
    """
    if code != 0:
        return f"exit code {code}"
    try:
        names, rows = workloads.expectations(scenario)
    except ValueError as exc:
        return f"scenario cannot be checked: {exc}"
    try:
        payload = json.loads(report)
    except ValueError:
        return "report.json is not JSON"
    if payload.get("kind") != scenario["kind"]:
        return f"report kind {payload.get('kind')!r}"
    assertions = payload.get("assertions", [])
    failed = [a["name"] for a in assertions if not a.get("passed")]
    if failed or payload.get("passed") is not True:
        return f"assertions failed: {failed}"
    missing = names - {a["name"] for a in assertions}
    if missing:
        return f"expected assertions missing: {sorted(missing)}"
    tables = payload.get("tables", {})
    for table, count in rows.items():
        got = len(tables.get(table, []))
        if got != count:
            return f"table {table!r} has {got} rows, expected {count}"
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS loaded into this process, if any."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def timed_scenarios(workload: str, seed: int, seconds: float):
    """Scenarios of whole measured cycles for about ``seconds``.

    Another cycle starts only if, at the mean cycle time so far, it is
    expected to end by the deadline; at least one cycle always runs.
    """
    start = time.monotonic()
    index = 1
    while True:
        yield from workloads.cycle(workload, seed, index)
        per_cycle = (time.monotonic() - start) / index
        index += 1
        if time.monotonic() + per_cycle > start + seconds:
            return


def measure(client: Client, workload: str, seed: int, seconds: float) -> dict:
    times, recheck = [], []
    for scenario in timed_scenarios(workload, seed, seconds):
        elapsed, report, failure = client.execute(scenario)
        client.record(scenario, failure)
        if failure is None:
            times.append(elapsed)
            if len(times) % RECHECK_EVERY == 1:
                recheck.append((scenario, report))
    for scenario, report in recheck:
        _, again, failure = client.execute(scenario)
        if failure is None and again != report:
            failure = "re-run report.json differs"
        if failure is not None:
            client.failures.append(f"{scenario['kind']}: {failure}")
    return {"times": times, "rechecked": len(recheck)}


def trace(client: Client, workload: str, seed: int, seconds: float, spans_path) -> dict:
    import tracing

    tracer = tracing.Tracer()
    plain, traced, kinds = [], [], {}
    for scenario in timed_scenarios(workload, seed, seconds):
        results = {}
        for with_trace in (False, True) if len(plain) % 2 == 0 else (True, False):
            if with_trace:
                tracer.run += 1
                kinds[tracer.run] = scenario["kind"]
                with tracer.install():
                    results[True] = client.execute(scenario)
            else:
                results[False] = client.execute(scenario)
        failure = results[False][2] or results[True][2]
        if failure is None and results[False][1] != results[True][1]:
            failure = "traced report.json differs from untraced"
        client.record(scenario, failure)
        plain.append(results[False][0])
        traced.append(results[True][0])
    metrics = tracing.layer_metrics(tracer.spans, tracer.run)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    tracer.write_spans(spans_path)
    by_kind = {}
    for kind in sorted(set(kinds.values())):
        runs = {run for run, k in kinds.items() if k == kind}
        spans = [span for span in tracer.spans if span.run in runs]
        by_kind[kind] = tracing.leaders(tracing.layer_metrics(spans, len(runs)), 3)
    return {
        "metrics": metrics,
        "leaders": tracing.leaders(metrics),
        "kind_leaders": by_kind,
        "runs": tracer.run,
        "spans": len(tracer.spans),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    client = Client(args.workdir)
    for scenario in workloads.cycle(args.workload, args.seed, 0):
        client.record(scenario, client.execute(scenario)[2])
    result = {"setup_s": time.monotonic() - args.spawned_at}
    if args.mode == "measure":
        result.update(measure(client, args.workload, args.seed, args.seconds))
    elif args.mode == "trace":
        spans = args.workdir.parent / f"spans-{args.workload}.jsonl"
        result.update(trace(client, args.workload, args.seed, args.seconds, spans))
        result["spans_file"] = str(spans)
    result.update(
        attempted=client.attempted,
        failures=client.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
