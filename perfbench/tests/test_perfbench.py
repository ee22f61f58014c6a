"""Tests of the benchmark itself: generator, correctness gate and tracing.

Run from the repository root::

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import child  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cavityqc import cli, dynamics, hamiltonian  # noqa: E402


def generated(workload: str, seed: int, cycles: int = 3) -> list[dict]:
    return [s for i in range(cycles) for s in workloads.cycle(workload, seed, i)]


def suite_scenario(name: str, **changes) -> dict:
    return {**workloads.SUITE_BASE[name][0], **changes}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert generated(workload, 7) == generated(workload, 7)
    assert generated(workload, 7) != generated(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_scenarios_validate_and_never_repeat(workload):
    scenarios = generated(workload, 3)
    for scenario in scenarios:
        params = dict(scenario)
        cli.validate_params(params.pop("kind"), params)
        workloads.expectations(scenario)
    texts = {json.dumps(s, sort_keys=True) for s in scenarios}
    assert len(texts) == len(scenarios)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_cycle_composition_does_not_depend_on_seed(workload):
    def sizes(seed):
        return sorted(
            json.dumps([s["kind"], s.get("t_values"), len(s.get("delta_factors", ())),
                        s.get("n_1"), s.get("n_atoms")])
            for s in workloads.cycle(workload, seed, 1)
        )

    assert sizes(1) == sizes(2) == sizes(99)


def test_bound_below_physics_is_counted_as_failed_not_dropped(tmp_path, monkeypatch):
    scenarios = [
        suite_scenario("blockade-blocked"),
        suite_scenario("blockade-blocked", max_c3_sq_below=1e-12),
    ]
    monkeypatch.setattr(child.workloads, "cycle", lambda w, s, i: scenarios)
    client = child.Client(tmp_path)
    result = child.measure(client, "transistor", 0, 0.0)
    assert client.attempted == 2
    assert len(result["times"]) == 1
    assert len(client.failures) == 1
    assert "exit code 4" in client.failures[0]


def test_gate_fails_a_report_that_drops_an_expected_assertion(tmp_path):
    scenario = suite_scenario("effective-error-sweep")
    _, report, failure = child.Client(tmp_path).execute(scenario)
    assert failure is None
    payload = json.loads(report)
    payload["assertions"] = [
        a for a in payload["assertions"] if not a["name"].startswith("infidelity-at-")
    ]
    doctored = json.dumps(payload).encode()
    assert "expected assertions missing" in child.check_report(scenario, 0, doctored)


def test_gate_fails_a_sweep_without_its_asserted_factor(tmp_path):
    scenario = suite_scenario("effective-error-sweep", delta_factors=[10, 100, 300])
    _, _, failure = child.Client(tmp_path).execute(scenario)
    assert "asserted factor" in failure


def test_gate_fails_zero_points_and_short_tables(tmp_path):
    client = child.Client(tmp_path)
    _, _, failure = client.execute(suite_scenario("pair-evolution", points=0))
    assert "time points" in failure

    scenario = suite_scenario("pair-evolution", points=5)
    _, report, failure = client.execute(scenario)
    assert failure is None
    payload = json.loads(report)
    payload["tables"]["evolution"].pop()
    doctored = json.dumps(payload).encode()
    assert "has 4 rows, expected 5" in child.check_report(scenario, 0, doctored)


def small_scenarios() -> list[dict]:
    """One cheap scenario of every kind, together covering every module."""
    transistor = dict(workloads.cycle("transistor", 5, 0)[0], n_atoms=1)
    return [suite_scenario(name) for name in workloads.SUITE_BASE] + [transistor]


def test_traced_run_gives_the_same_report_bytes(tmp_path):
    originals = (cli.run, cli.RUNNERS["blockade"], dynamics.propagate,
                 cli.dynamics.propagate, hamiltonian.HamiltonianMatrix.eigensystem)
    client = child.Client(tmp_path)
    tracer = tracing.Tracer()
    for scenario in small_scenarios():
        _, plain, failure = client.execute(scenario)
        assert failure is None
        tracer.run += 1
        with tracer.install():
            _, traced, failure = client.execute(scenario)
        assert failure is None
        assert traced == plain, scenario["kind"]
    assert originals == (cli.run, cli.RUNNERS["blockade"], dynamics.propagate,
                         cli.dynamics.propagate, hamiltonian.HamiltonianMatrix.eigensystem)

    metrics = tracing.layer_metrics(tracer.spans, tracer.run)
    metrics["trace.overhead_frac"] = 0.0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"] for m in spec["per_layer"]} <= set(metrics)
    for module in tracing.MODULES:
        assert metrics[f"{module}.self_s"] > 0, module
    assert metrics["dynamics.propagate.calls"] > 0
    assert metrics["hamiltonian.eigensystem.hit_ratio"] > 0
    assert metrics["circuits.ops_applied"] > metrics["circuits.apply.calls"]


def test_self_time_subtracts_direct_children():
    spans = [
        tracing.Span(2, 1, 1, "c", 2.0, 3.0, 1.5, {}),
        tracing.Span(1, 0, 1, "b", 1.0, 4.0, 3.5, {}),
        tracing.Span(0, None, 1, "a", 0.0, 10.0, 10.0, {}),
    ]
    # A parent loses its children's outer time, wrapper bookkeeping included.
    assert tracing.self_times(spans) == [1.0, 1.5, 6.5]


def test_benchmark_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
