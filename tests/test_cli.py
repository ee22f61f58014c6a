"""Scenario runner: parsing, validation, reports, determinism, exit codes."""

import json
import time

import numpy as np
import pytest

from cavityqc import cli
from cavityqc.errors import UnknownKind, ValidationError


def _write(tmp_path, name, payload, header="# units: angular frequency, hbar = 1"):
    path = tmp_path / name
    path.write_text(header + "\n" + json.dumps(payload), encoding="utf-8")
    return path


def test_list_scenarios_has_six_kinds():
    kinds = cli.list_scenarios().splitlines()
    assert len(kinds) == 6
    assert "blockade" in kinds


def test_describe_blockade_lists_required_fields():
    text = cli.describe("blockade")
    for field in ("shift_rate_1", "shift_rate_2", "swap_rate", "n_1", "n_2", "n_photons"):
        assert field in text


def test_describe_unknown_kind_raises():
    with pytest.raises(UnknownKind):
        cli.describe("frobnicate")
    assert cli.main(["describe", "frobnicate"]) == 3


def test_run_effective_error_sweep(tmp_path):
    scenario = _write(
        tmp_path,
        "sweep.json",
        {
            "kind": "effective-error-sweep",
            "n_atoms": 1,
            "coupling": 0.01,
            "delta_factors": [10, 30, 100],
        },
    )
    outdir = tmp_path / "out"
    assert cli.main(["run", str(scenario), "-o", str(outdir)]) == 0
    report = json.loads((outdir / "report.json").read_text())
    assert report["passed"] is True
    rows = report["tables"]["sweep"]
    assert len(rows) == 3
    at_30 = next(r for r in rows if r["delta_factor"] == 30)
    assert at_30["max_infidelity"] < 1e-3
    csv_lines = (outdir / "sweep.csv").read_text().splitlines()
    assert csv_lines[0] == "delta_factor,delta,max_infidelity,max_leakage"
    assert len(csv_lines) == 4
    assert "e" in csv_lines[1]  # %.12e formatting


def test_run_verify_circuits(tmp_path):
    scenario = _write(
        tmp_path,
        "circuits.json",
        {"kind": "verify-circuits", "seed": 42, "t_values": [2, 4], "samples": 2},
    )
    outdir = tmp_path / "out"
    assert cli.main(["run", str(scenario), "-o", str(outdir)]) == 0
    report = json.loads((outdir / "report.json").read_text())
    cases = report["tables"]["cases"]
    assert all(case["passed"] for case in cases)
    # 2 fixed cases + 2 t-values x 2 samples x 2 constructions
    assert len(cases) == 2 + 2 * 2 * 2


def test_run_blockade_with_block_bound(tmp_path):
    swap = 1e-4
    gap = float(np.sqrt(1e6) * swap)
    scenario = _write(
        tmp_path,
        "blockade.json",
        {
            "kind": "blockade",
            "n_1": 1,
            "n_2": 1,
            "n_photons": 1,
            "shift_rate_1": 0.05,
            "shift_rate_2": 0.05 + gap,
            "swap_rate": swap,
            "t_max": 10000.0,
            "points": 400,
            "max_c3_sq_below": 1e-3,
        },
    )
    outdir = tmp_path / "out"
    assert cli.main(["run", str(scenario), "-o", str(outdir)]) == 0


def test_run_pair_evolution_and_transistor(tmp_path):
    pair = _write(
        tmp_path,
        "pair.json",
        {
            "kind": "pair-evolution",
            "n_atoms": 2,
            "swap_rate": 0.7,
            "alpha1": [0.6, 0.0],
            "beta1": [0.0, 0.8],
            "alpha2": [1.0, 0.0],
            "beta2": [0.0, 0.0],
            "points": 50,
        },
    )
    assert cli.main(["run", str(pair), "-o", str(tmp_path / "pair_out")]) == 0

    transistor = _write(
        tmp_path,
        "transistor.json",
        {
            "kind": "transistor",
            "n_atoms": 2,
            "g21": 0.02,
            "g32": 0.03,
            "delta_control": 0.5,
            "delta_target": 0.7,
            "alpha": [0.6, 0.0],
            "beta": [0.8, 0.0],
            "points": 40,
        },
    )
    assert cli.main(["run", str(transistor), "-o", str(tmp_path / "tr_out")]) == 0


def test_run_verify_gates(tmp_path):
    scenario = _write(tmp_path, "gates.json", {"kind": "verify-gates", "seed": 9})
    assert cli.main(["run", str(scenario), "-o", str(tmp_path / "out")]) == 0


def test_missing_field_is_validation_error(tmp_path):
    scenario = _write(
        tmp_path,
        "broken.json",
        {
            "kind": "blockade",
            "n_1": 1,
            "n_2": 1,
            "n_photons": 0,
            "shift_rate_1": 0.1,
            "shift_rate_2": 0.1,
            # swap_rate missing
        },
    )
    with pytest.raises(ValidationError, match="swap_rate"):
        cli.load_scenario(scenario)
    assert cli.main(["run", str(scenario), "-o", str(tmp_path / "out")]) == 3


def test_unknown_field_is_validation_error(tmp_path):
    scenario = _write(
        tmp_path, "extra.json", {"kind": "verify-gates", "seed": 1, "bogus": 2}
    )
    assert cli.main(["run", str(scenario), "-o", str(tmp_path / "out")]) == 3


def test_seed_is_mandatory_for_randomized_kinds(tmp_path):
    scenario = _write(tmp_path, "noseed.json", {"kind": "verify-circuits"})
    assert cli.main(["run", str(scenario), "-o", str(tmp_path / "out")]) == 3


def test_malformed_json_is_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "blockade",,}', encoding="utf-8")
    assert cli.main(["run", str(path), "-o", str(tmp_path / "out")]) == 2


def test_propagated_module_error_gives_exit_code_5(tmp_path):
    # zero detuning triggers the resonance-singularity guard downstream
    scenario = _write(
        tmp_path,
        "singular.json",
        {
            "kind": "transistor",
            "n_atoms": 1,
            "g21": 0.02,
            "g32": 0.03,
            "delta_control": 0.0,
            "delta_target": 0.7,
            "alpha": [1.0, 0.0],
            "beta": [0.0, 0.0],
        },
    )
    assert cli.main(["run", str(scenario), "-o", str(tmp_path / "out")]) == 5


def test_oversized_transistor_exits_5_before_allocating(tmp_path, capsys):
    # 200 atoms per node: the two-quanta sector alone has 180300 states
    scenario = _write(
        tmp_path,
        "huge.json",
        {
            "kind": "transistor",
            "n_atoms": 200,
            "g21": 0.02,
            "g32": 0.03,
            "delta_control": 0.5,
            "delta_target": 0.7,
            "alpha": [1.0, 0.0],
            "beta": [0.0, 0.0],
        },
    )
    start = time.perf_counter()
    assert cli.main(["run", str(scenario), "-o", str(tmp_path / "out")]) == 5
    assert time.perf_counter() - start < 1.0
    message = capsys.readouterr().err
    assert "180300" in message and "cap" in message


def test_failed_assertion_gives_exit_code_4(tmp_path):
    scenario = _write(
        tmp_path,
        "blocked.json",
        {
            "kind": "blockade",
            "n_1": 1,
            "n_2": 1,
            "n_photons": 0,
            "shift_rate_1": 0.1,
            "shift_rate_2": 0.1,
            "swap_rate": 0.1,
            "max_c3_sq_below": 1e-3,  # resonant transfer reaches 1: must fail
        },
    )
    assert cli.main(["run", str(scenario), "-o", str(tmp_path / "out")]) == 4
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is False


def test_shipped_scenarios_all_pass(tmp_path):
    from pathlib import Path

    scenario_dir = Path(__file__).resolve().parent.parent / "scenarios"
    files = sorted(scenario_dir.glob("*.json"))
    assert len(files) >= 6
    for path in files:
        code = cli.main(["run", str(path), "-o", str(tmp_path / path.stem)])
        assert code == 0, f"{path.name} exited {code}"


def test_reports_are_byte_identical_across_runs(tmp_path):
    scenario = _write(
        tmp_path,
        "repeat.json",
        {"kind": "verify-circuits", "seed": 42, "t_values": [2, 3], "samples": 3},
    )
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    assert cli.main(["run", str(scenario), "-o", str(out1)]) == 0
    assert cli.main(["run", str(scenario), "-o", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "cases.csv").read_bytes() == (out2 / "cases.csv").read_bytes()


_VALID = {
    "pair-evolution": {
        "kind": "pair-evolution",
        "n_atoms": 2,
        "swap_rate": 0.7,
        "alpha1": [0.6, 0.0],
        "beta1": [0.0, 0.8],
        "alpha2": [1.0, 0.0],
        "beta2": [0.0, 0.0],
        "points": 20,
    },
    "transistor": {
        "kind": "transistor",
        "n_atoms": 1,
        "g21": 0.02,
        "g32": 0.03,
        "delta_control": 0.5,
        "delta_target": 0.7,
        "alpha": [0.6, 0.0],
        "beta": [0.8, 0.0],
        "points": 20,
    },
    "effective-error-sweep": {
        "kind": "effective-error-sweep",
        "n_atoms": 1,
        "coupling": 0.01,
        "delta_factors": [10, 30],
    },
}


@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("pair-evolution", "t_max", float("inf")),
        ("pair-evolution", "t_max", float("nan")),
        ("transistor", "periods", float("inf")),
        ("transistor", "alpha", [float("nan"), 0.0]),
        ("effective-error-sweep", "delta_factors", [30.0, float("-inf")]),
        ("pair-evolution", "points", 0),
        ("transistor", "points", 1),
        ("effective-error-sweep", "points", 0),
    ],
)
def test_non_finite_values_and_too_few_points_exit_3(
    tmp_path, capsys, kind, field, value
):
    # json.dumps writes Infinity/NaN, which json.loads reads back as floats
    scenario = _write(tmp_path, "bad.json", {**_VALID[kind], field: value})
    outdir = tmp_path / "out"
    assert cli.main(["run", str(scenario), "-o", str(outdir)]) == 3
    assert field in capsys.readouterr().err
    assert not (outdir / "report.json").exists()


# Finite windows whose phases overflow: numpy only warns (outside the
# tests, where warnings are not errors), so the run sees NaN amplitudes.
# Each must fail: a NaN fidelity fails its assertion (exit 4), and an
# overflowed time grid is refused by the propagator (exit 5).
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "kind, fields, code",
    [
        ("pair-evolution", {"t_max": 1e308, "points": 2}, 4),
        ("transistor", {"periods": 1e305}, 5),
    ],
)
def test_overflowing_time_window_does_not_pass(tmp_path, kind, fields, code):
    scenario = _write(tmp_path, "overflow.json", {**_VALID[kind], **fields})
    assert cli.main(["run", str(scenario), "-o", str(tmp_path / "out")]) == code
