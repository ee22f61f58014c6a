"""Scenario runner: parsing, validation, reports, determinism, exit codes."""

import json
import math
import time
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cavityqc import cli, dynamics
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


def test_describe_prints_each_range(capsys):
    def line(kind, name):
        return next(
            text for text in cli.describe(kind).splitlines() if text.split()[0] == name
        )

    assert "[0, 1)" in line("pair-evolution", "tolerance")
    assert "[0, 1)" in line("transistor", "tolerance")
    assert "[0, 2)" in line("verify-gates", "tolerance")
    assert "[2, 12]" in line("verify-circuits", "t_values")
    assert "[1, 2147483648]" in line("blockade", "n_1")
    assert "(0, 1]" in line("blockade", "max_c3_sq_below")
    assert "nonzero" in line("effective-error-sweep", "coupling")
    assert "1-262144 items" in line("effective-error-sweep", "delta_factors")
    for kind in ("pair-evolution", "blockade", "transistor"):
        assert "[2, 262144]" in line(kind, "points")
    for kind in cli.list_scenarios().splitlines():
        assert cli.main(["describe", kind]) == 0
        assert capsys.readouterr().out == cli.describe(kind) + "\n"


def test_list_and_describe_through_main(capsys):
    assert cli.main(["list"]) == 0
    assert capsys.readouterr().out == cli.list_scenarios() + "\n"
    assert cli.main(["describe", "blockade"]) == 0
    assert capsys.readouterr().out == cli.describe("blockade") + "\n"


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


def test_verify_circuits_fails_a_case_whose_count_is_wrong(monkeypatch):
    # every matrix stays equal; only the counted operations are one too many
    counts = cli.circuits.gate_counts
    monkeypatch.setattr(
        cli.circuits,
        "gate_counts",
        lambda circuit: {kind: n + 1 for kind, n in counts(circuit).items()},
    )
    params = cli.validate_params(
        "verify-circuits", {"seed": 42, "t_values": [2], "samples": 1}
    )
    tables, checks = cli.RUNNERS["verify-circuits"](params)
    cases = tables["cases"]
    powers = [k for k, c in enumerate(cases["case"]) if c.startswith("controlled")]
    assert len(powers) == 2
    for k in powers:
        assert cases["deviation"][k] <= params["tolerance"]
        assert (cases["count_ok"][k], cases["passed"][k]) == (False, False)
    ((name, passed, _),) = checks
    assert name == "all-circuit-checks" and passed is False


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


def test_propagated_module_error_gives_exit_code_5(tmp_path, capsys, monkeypatch):
    # a valid scenario whose rotation synthesis is handed a matrix that is
    # not unitary: the library's DecompositionFailure propagates to the runner
    nan = np.full((2, 2), np.nan)
    monkeypatch.setattr(cli.gates, "haar_random_unitary", lambda rng: nan)
    scenario = _write(tmp_path, "unmet.json", _VALID["verify-gates"])
    assert cli.main(["run", str(scenario), "-o", str(tmp_path / "out")]) == 5
    assert "error: input matrix is not unitary" in capsys.readouterr().err


def test_oversized_verify_circuits_exits_3_before_allocating(tmp_path, capsys):
    # t = 13: the dense reference and the logical matrix are 16384 x 16384,
    # 4 GiB each, four times the byte cap
    scenario = _write(
        tmp_path,
        "huge.json",
        {"kind": "verify-circuits", "seed": 3, "t_values": [2, 13], "samples": 1},
    )
    outdir = tmp_path / "out"
    start = time.perf_counter()
    assert cli.main(["run", str(scenario), "-o", str(outdir)]) == 3
    assert time.perf_counter() - start < 1.0
    message = capsys.readouterr().err
    assert "13 lies outside [2, 12]" in message and "byte cap" in message
    assert not (outdir / "report.json").exists()


def _sweep_factors(count):
    return {"n_atoms": 1, "coupling": 0.01, "points": 2, "delta_factors": [30] * count}


def test_sweep_detuning_cap_falls_between_max_and_one_more(tmp_path, capsys):
    # one report row per detuning, at about 2.7 KB each: 262,144 of them
    # fit, and the old per-point rule alone let 5,592,405 through
    params = cli.validate_params("effective-error-sweep", _sweep_factors(2**18))
    assert len(params["delta_factors"]) == cli.MAX_TABLE_ROWS == 2**18
    refusal = "'delta_factors': 262145 items lie outside 1-262144"
    with pytest.raises(ValidationError, match=refusal):
        cli.validate_params("effective-error-sweep", _sweep_factors(2**18 + 1))
    payload = {"kind": "effective-error-sweep", **_sweep_factors(2**18 + 1)}
    _assert_refused(tmp_path, capsys, payload, "delta_factors")


def test_sweep_per_point_rule_names_both_fields():
    # 2 detunings x (2^23 points x 400 + 2000) bytes > DENSE_BYTES_CAP
    raw = {**_sweep_factors(2), "points": 2**23}
    with pytest.raises(ValidationError) as refused:
        cli.validate_params("effective-error-sweep", raw)
    assert "'points'" in str(refused.value) and "'delta_factors'" in str(refused.value)


def test_sweep_memory_rule_counts_points_times_detunings():
    # at the detuning cap, 2^18 x (5 x 400 + 2000) bytes fit the 2^30-byte
    # cap and 2^18 x (6 x 400 + 2000) do not; the old per-point rule, at 96
    # bytes per point and detuning, let 42 points through
    raw = {**_sweep_factors(2**18), "points": 5}
    assert cli.validate_params("effective-error-sweep", raw)["points"] == 5
    for points in (6, 42):
        with pytest.raises(ValidationError, match="'points' and 'delta_factors'"):
            cli.validate_params("effective-error-sweep", {**raw, "points": points})


def test_verify_circuits_cap_falls_between_12_and_13():
    # t = 12 fills the cap exactly (8192^2 x 16 bytes = 1 GiB)
    cli.validate_params("verify-circuits", {"seed": 3, "t_values": [12]})
    with pytest.raises(ValidationError, match=r"13 lies outside \[2, 12\].*byte cap"):
        cli.validate_params("verify-circuits", {"seed": 3, "t_values": [13]})


def test_sweep_runs_at_ten_thousand_atoms_per_node(tmp_path):
    # one symmetric site per node: the one-quantum sector has three states
    scenario = _write(
        tmp_path,
        "macroscopic.json",
        {
            "kind": "effective-error-sweep",
            "n_atoms": 10**4,
            "coupling": 0.01,
            "delta_factors": [10, 30, 100],
        },
    )
    start = time.perf_counter()
    assert cli.main(["run", str(scenario), "-o", str(tmp_path / "out")]) == 0
    assert time.perf_counter() - start < 1.0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is True


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
    "blockade": {
        "kind": "blockade",
        "n_1": 1,
        "n_2": 1,
        "n_photons": 0,
        "shift_rate_1": 0.1,
        "shift_rate_2": 0.1,
        "swap_rate": 0.1,
        "points": 20,
    },
    "verify-gates": {"kind": "verify-gates", "seed": 3, "samples": 2},
    "verify-circuits": {
        "kind": "verify-circuits",
        "seed": 3,
        "t_values": [2],
        "samples": 1,
    },
}


def _assert_refused(tmp_path, capsys, payload, field):
    scenario = _write(tmp_path, "bad.json", payload)
    outdir = tmp_path / "out"
    assert cli.main(["run", str(scenario), "-o", str(outdir)]) == 3
    assert field in capsys.readouterr().err
    assert not (outdir / "report.json").exists()


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
    _assert_refused(tmp_path, capsys, {**_VALID[kind], field: value}, field)


# Without the schema bounds each of these ran: to exit 5 (zero atoms or
# coupling), or to a pass that checked nothing or something else (no atoms
# or negative photons in the blockade, zero samples, a fractional control
# count run as its floor, a sweep without its headline factor dropping its
# 1e-3 assertion).
_OUT_OF_RANGE = [
    ("pair-evolution", "n_atoms", 0),
    ("transistor", "n_atoms", 0),
    ("effective-error-sweep", "n_atoms", 0),
    ("blockade", "n_1", 0),
    ("blockade", "n_2", 0),
    ("blockade", "n_photons", -1),
    ("verify-gates", "samples", 0),
    ("verify-gates", "seed", -1),
    ("verify-circuits", "samples", 0),
    ("verify-circuits", "t_values", [2.9]),
    ("verify-circuits", "t_values", [1]),
    ("effective-error-sweep", "delta_factors", [10, 100]),
    ("effective-error-sweep", "delta_factors", []),
    # inf only after the multiplication, which warns in no numpy call
    ("transistor", "periods", 1e305),
    # no transfer at all: the period would be infinite
    ("transistor", "g21", 0.0),
    ("transistor", "g32", 0.0),
    # invalid physics: a detuning at resonance or unnormalized
    # amplitudes (exit 5, reported as an internal error, without the
    # checks), an empty or reversed time window or a sweep without
    # coupling, whose infidelity is 4e-16 (a pass that checked nothing)
    ("transistor", "delta_control", 0.0),
    ("transistor", "delta_target", 0.0),
    ("transistor", "delta_control", 1e-12),
    ("transistor", "delta_target", -1e-12),
    ("transistor", "alpha", [0.8, 0.0]),
    ("transistor", "beta", [0.0, 0.6]),
    ("pair-evolution", "alpha1", [0.5, 0.0]),
    ("pair-evolution", "beta2", [0.0, 0.5]),
    ("transistor", "periods", 0.0),
    ("transistor", "periods", -1.0),
    ("pair-evolution", "t_max", -1.0),
    ("blockade", "t_max", 0.0),
    ("effective-error-sweep", "periods", 0.0),
    ("effective-error-sweep", "coupling", 0.0),
    # a sweep detuning within the resonance floor, where the dispersive
    # model does not hold: reported as a small error without the check
    ("effective-error-sweep", "delta_factors", [0, 30]),
    ("effective-error-sweep", "delta_factors", [1e-300, 30]),
    # nothing exchanged: every closed-form check passes vacuously
    ("pair-evolution", "swap_rate", 0.0),
    ("blockade", "swap_rate", 0.0),
    # one number rule: a string or a boolean is no number, in a list
    # or a [re, im] pair as in a float field (each of these ran, as
    # [10, 30], [1, 30], 0.6 and 0.8), and an integer past the float
    # range is no finite number (exit 5 before)
    ("effective-error-sweep", "delta_factors", ["10", "30"]),
    ("effective-error-sweep", "delta_factors", [True, 30]),
    ("transistor", "alpha", ["0.6", 0.0]),
    ("transistor", "beta", [0.8, False]),
    pytest.param(
        "effective-error-sweep", "coupling", 10**400, id="coupling-10**400"
    ),
    # an empty list drops every case it drives: with no t_values the
    # run passed on the two fixed Toffoli cases alone
    ("verify-circuits", "t_values", []),
    # the same rule for counts past the float range (exit 5
    # before, a numpy ufunc error)
    pytest.param(
        "effective-error-sweep", "n_atoms", 10**400, id="sweep-n_atoms-10**400"
    ),
    pytest.param("transistor", "n_atoms", 10**400, id="transistor-n_atoms-10**400"),
    pytest.param(
        "pair-evolution", "n_atoms", 10**400, id="pair-n_atoms-10**400"
    ),
    pytest.param("blockade", "n_1", 10**400, id="blockade-n_1-10**400"),
    pytest.param("blockade", "n_2", 10**400, id="blockade-n_2-10**400"),
    # counts within the float range whose product of two is past the
    # 64-bit integers, where numpy has no square root (exit 5 before)
    pytest.param(
        "effective-error-sweep", "n_atoms", 2**62, id="sweep-n_atoms-2**62"
    ),
    pytest.param(
        "effective-error-sweep", "n_atoms", 2**70, id="sweep-n_atoms-2**70"
    ),
    pytest.param("transistor", "n_atoms", 2**70, id="transistor-n_atoms-2**70"),
    pytest.param("pair-evolution", "n_atoms", 2**70, id="pair-n_atoms-2**70"),
    pytest.param("blockade", "n_1", 2**70, id="blockade-n_1-2**70"),
    pytest.param("blockade", "n_2", 2**70, id="blockade-n_2-2**70"),
    # bounds under which a check can no longer fail (exit 0 before,
    # the blockade reporting a full transfer as blocked): fidelities
    # lie in [0, 1], as do the clipped infidelity and |c3|^2, and a
    # deviation between two unitaries is at most 2
    ("pair-evolution", "tolerance", 1.0),
    ("pair-evolution", "tolerance", 1.5),
    ("transistor", "tolerance", 1.0),
    ("effective-error-sweep", "assert_below", 5.0),
    ("blockade", "max_c3_sq_below", 2.0),
    ("verify-gates", "tolerance", 2.0),
    ("verify-circuits", "tolerance", 2.5),
    # bounds that no run can meet (exit 4, or 5 for verify-gates, before):
    # a negative tolerance, and a strict bound of 0 or less on |c3|^2 or
    # the clipped infidelity, neither of which is ever negative
    ("pair-evolution", "tolerance", -1.0),
    ("transistor", "tolerance", -1e-12),
    ("verify-gates", "tolerance", -1.0),
    ("verify-circuits", "tolerance", -1.0),
    ("blockade", "max_c3_sq_below", 0.0),
    ("blockade", "max_c3_sq_below", -1.0),
    ("effective-error-sweep", "assert_below", 0.0),
    ("effective-error-sweep", "assert_below", -1.0),
    # a time grid too big to allocate (exit 5 before, "Unable to
    # allocate 7.45 GiB" for the blockade)
    pytest.param("pair-evolution", "points", 10**9, id="pair-points-10**9"),
    pytest.param("blockade", "points", 10**9, id="blockade-points-10**9"),
    pytest.param("transistor", "points", 10**9, id="transistor-points-10**9"),
    pytest.param(
        "effective-error-sweep", "points", 10**9, id="sweep-points-10**9"
    ),
    # the largest grid of one amplitude per point, where the pair keeps
    # six (exit 5 before, "Unable to allocate 3.00 GiB")
    pytest.param("pair-evolution", "points", 2**26, id="pair-points-2**26"),
    # finite inputs whose Python float squares overflow (exit 5
    # before, "(34, 'Numerical result out of range')")
    pytest.param("blockade", "swap_rate", 1e200, id="blockade-swap_rate-1e200"),
    pytest.param("blockade", "freq_2", 1e200, id="blockade-freq_2-1e200"),
    pytest.param(
        "effective-error-sweep", "coupling", 1e200, id="sweep-coupling-1e200"
    ),
    # a spectrum whose square overflows in the transfer-time locator
    # (exit 5 under the warning policy before, "overflow encountered in
    # square"; 1e200 exited 0 only with warnings off)
    pytest.param("transistor", "g21", 1e160, id="transistor-g21-1e160"),
    pytest.param("transistor", "g21", 1e200, id="transistor-g21-1e200"),
    # a cross rate past the float range: numpy's complex product met
    # inf x 0 (exit 5 under the warning policy, "invalid value
    # encountered in scalar multiply"; exit 3 on a zero window without it)
    pytest.param("transistor", "g21", 1.7e308, id="transistor-g21-1.7e308"),
    # a cross rate so small that its transfer period is past the float
    # range (exit 5 under the warning policy before, "overflow encountered
    # in scalar divide"; exit 3 naming only 'periods' without it)
    pytest.param("transistor", "g21", 1e-310, id="transistor-g21-1e-310"),
    pytest.param("transistor", "g32", 1e-310, id="transistor-g32-1e-310"),
    # a swap window past the float range, from a detuning or from the
    # period count (exit 5 under both policies before, "overflow
    # encountered in divide" or "propagation time must be finite")
    pytest.param(
        "effective-error-sweep",
        "delta_factors",
        [30, 1e307],
        id="sweep-delta_factors-1e307",
    ),
    pytest.param("effective-error-sweep", "periods", 1e305, id="sweep-periods-1e305"),
]


@pytest.mark.parametrize("kind, field, value", _OUT_OF_RANGE)
def test_out_of_range_values_exit_3(tmp_path, capsys, kind, field, value):
    _assert_refused(tmp_path, capsys, {**_VALID[kind], field: value}, field)


@pytest.mark.parametrize("kind, field, value", _OUT_OF_RANGE)
def test_out_of_range_values_exit_3_with_runtime_warnings_ignored(
    tmp_path, capsys, kind, field, value
):
    # the exit code must not depend on the warning policy: pyproject makes
    # a RuntimeWarning an error, and here numpy's warnings are dropped
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _assert_refused(tmp_path, capsys, {**_VALID[kind], field: value}, field)


@pytest.mark.parametrize("policy", ["error", "ignore"])
def test_sweep_detuning_past_the_float_range_exits_3(tmp_path, capsys, policy):
    # only the two fields together overflow the detuning delta_factor x
    # sqrt(n_atoms) x |coupling|, which passed the resonance floor (exit 5
    # under both policies before, "overflow encountered in scalar multiply"
    # or "matrix is not Hermitian (deviation nan)")
    fields = {"coupling": 1e154, "delta_factors": [30, 1e155]}
    with warnings.catch_warnings():
        warnings.simplefilter(policy, RuntimeWarning)
        payload = {**_VALID["effective-error-sweep"], **fields}
        _assert_refused(tmp_path, capsys, payload, "delta_factors")


@pytest.mark.parametrize(
    "field, value",
    [
        ("check_monotone", 1),
        ("check_monotone", "yes"),
        ("delta_factors", 30),
        ("delta_factors", 0),
    ],
)
def test_a_value_of_another_type_exits_3(tmp_path, capsys, field, value):
    # a bool field takes only true or false, and a list field only a list:
    # a number, 0 included, is no list, not even an empty one
    payload = {**_VALID["effective-error-sweep"], field: value}
    assert _exit_code(tmp_path, payload) == 3
    assert f"field {field!r} expects" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_transistor_coupling_just_under_the_locator_bound_runs(tmp_path, capsys):
    # bisect g21 to the refusal edge: the largest accepted value still runs
    # and passes under the warning policy (pyproject makes a RuntimeWarning
    # an error, which would exit 5)
    def exit_code(g21):
        payload = {**_VALID["transistor"], "g21": g21}
        scenario = _write(tmp_path, "edge.json", payload)
        code = cli.main(["run", str(scenario), "-o", str(tmp_path / "out")])
        capsys.readouterr()
        return code

    accepted, refused = 1e150, 1e160
    assert (exit_code(accepted), exit_code(refused)) == (0, 3)
    while refused / accepted > 1.0 + 1e-9:
        middle = np.sqrt(accepted) * np.sqrt(refused)
        code = exit_code(middle)
        assert code in (0, 3)
        if code == 0:
            accepted = middle
        else:
            refused = middle


# The blockade's photon number and level shifts enter its discriminant only
# through the difference of the two nodes' dressed frequencies, which the
# equal shift rates of the valid blockade cancel; the shipped blocked
# scenario's unequal ones do not (each exit 5 before, as above).
_SHIFTS = {"n_photons": 1, "shift_rate_1": 0.05, "shift_rate_2": 0.15}


@pytest.mark.parametrize("policy", ["error", "ignore"])
@pytest.mark.parametrize(
    "fields",
    [
        pytest.param({**_SHIFTS, "n_photons": 10**155}, id="n_photons-10**155"),
        pytest.param({**_SHIFTS, "shift_rate_1": 1e200}, id="shift_rate_1-1e200"),
        # Python float sums and products reach inf without an error: a
        # dressed frequency past the float range (exit 4, closure nan), a
        # discriminant (exit 4, 5 under the warning policy), a default
        # freq_2 (exit 5, "closed form needs finite real shift rates") and
        # the exchange sqrt(n_1 n_2) swap_rate (5 under the warning policy)
        pytest.param({"n_photons": 1, "shift_rate_1": 1e308}, id="dressed-frequency"),
        pytest.param({"freq_1": 1e308, "freq_2": -1e308}, id="discriminant"),
        pytest.param(
            {"n_1": 2**31, "shift_rate_1": 1e300, "shift_rate_2": 1e300},
            id="default-freq_2",
        ),
        pytest.param({"n_1": 2**31, "n_2": 2**31, "swap_rate": 1e300}, id="exchange"),
    ],
)
def test_overflowing_blockade_frequencies_exit_3(tmp_path, capsys, fields, policy):
    with warnings.catch_warnings():
        warnings.simplefilter(policy, RuntimeWarning)
        code = _exit_code(tmp_path, {**_VALID["blockade"], **fields})
    err = capsys.readouterr().err
    assert code == 3
    assert all(repr(name) in err for name in fields)
    assert not (tmp_path / "out" / "report.json").exists()


def test_bounds_and_grids_at_their_limits_are_accepted():
    # the largest value of each bound that can still fail, and the largest
    # grid under the byte cap (validation only: nothing is allocated)
    def valid(kind, **fields):
        raw = {k: v for k, v in {**_VALID[kind], **fields}.items() if k != "kind"}
        return cli.validate_params(kind, raw)

    assert valid("effective-error-sweep", assert_below=1.0)["assert_below"] == 1.0
    assert valid("blockade", max_c3_sq_below=1.0)["max_c3_sq_below"] == 1.0
    below_one = float(np.nextafter(1.0, 0.0))
    assert valid("transistor", tolerance=below_one)["tolerance"] == below_one
    below_two = float(np.nextafter(2.0, 0.0))
    assert valid("verify-gates", tolerance=below_two)["tolerance"] == below_two
    # the smallest, down to a tolerance of 0 that only an exact result meets
    tiny = float(np.nextafter(0.0, 1.0))
    assert valid("effective-error-sweep", assert_below=tiny)["assert_below"] == tiny
    assert valid("blockade", max_c3_sq_below=tiny)["max_c3_sq_below"] == tiny
    for kind in ("pair-evolution", "transistor", "verify-gates", "verify-circuits"):
        assert valid(kind, tolerance=0.0)["tolerance"] == 0.0
    assert valid("transistor", periods=0.25)["periods"] == 0.25
    assert valid("blockade", n_1=1, n_photons=0, points=2)["points"] == 2
    assert valid("verify-circuits", seed=0, samples=1)["t_values"] == [2]
    # one report row per point, at most 2^18 rows
    for kind in ("pair-evolution", "blockade", "transistor"):
        assert valid(kind, points=262144)["points"] == 262144
        with pytest.raises(ValidationError, match="points"):
            valid(kind, points=262145)
    # the sweep keeps 400 bytes per point and detuning, 2000 per detuning:
    # with its 2 detunings, (2^29 - 2000) // 400 points fit the 2^30-byte cap
    largest = 1342172
    assert valid("effective-error-sweep", points=largest)["points"] == largest
    with pytest.raises(ValidationError, match="points"):
        valid("effective-error-sweep", points=largest + 1)


@pytest.mark.parametrize(
    "kind, field",
    [
        ("effective-error-sweep", "n_atoms"),
        ("transistor", "n_atoms"),
        ("pair-evolution", "n_atoms"),
        ("blockade", "n_1"),
        ("blockade", "n_2"),
    ],
)
def test_atom_count_cap_falls_between_max_and_one_more(tmp_path, capsys, kind, field):
    scenario = _write(tmp_path, "max.json", {**_VALID[kind], field: cli.MAX_ATOMS})
    # runs to a verdict: a pass, or (a blockade far off resonance) a failed check
    assert cli.main(["run", str(scenario), "-o", str(tmp_path / "max")]) in (0, 4)
    capsys.readouterr()
    _assert_refused(tmp_path, capsys, {**_VALID[kind], field: cli.MAX_ATOMS + 1}, field)


@pytest.mark.parametrize("kind", sorted(_VALID))
def test_valid_reference_scenarios_pass(tmp_path, kind):
    scenario = _write(tmp_path, "ok.json", _VALID[kind])
    assert cli.main(["run", str(scenario), "-o", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize(
    "fields",
    [
        {"g21": -0.02},
        {"g32": -0.03},
        {"delta_control": -0.5, "delta_target": -0.7},
        {"delta_control": -0.5},
    ],
    ids=["g21", "g32", "both-detunings", "delta_control"],
)
def test_transistor_with_a_negative_cross_rate_passes(tmp_path, fields):
    # the shipped transistor with its cross rate's sign flipped: the closed
    # form runs at the signed rate (each exited 4 at min fidelity 2.5e-4
    # while it took the rate's magnitude)
    from pathlib import Path

    shipped = Path(__file__).resolve().parent.parent / "scenarios" / "transistor.json"
    lines = shipped.read_text(encoding="utf-8").splitlines()
    payload = {**json.loads("".join(l for l in lines if not l.startswith("#"))), **fields}
    assert _run_verdicts(tmp_path, payload) == (
        0, {"closed-form-agreement": True, "transfer-time": True}
    )
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["tables"]["summary"][0]["rate"] < 0.0


# Finite inputs that overflow: numpy only warns (outside the tests, where
# warnings are not errors), so the run sees NaN amplitudes. Each must fail:
# a NaN fidelity fails its assertion (exit 4), and a window that overflows
# to infinity is refused before any grid is built (exit 3).
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "kind, fields, code",
    [
        ("pair-evolution", {"t_max": 1e308, "points": 2}, 4),
        ("transistor", {"periods": 1e305}, 3),
    ],
)
def test_overflowing_time_window_does_not_pass(tmp_path, kind, fields, code):
    scenario = _write(tmp_path, "overflow.json", {**_VALID[kind], **fields})
    assert cli.main(["run", str(scenario), "-o", str(tmp_path / "out")]) == code


# --- time windows: each kind's window is measured in the period of the
# transfer its check samples, and one under a quarter of it is refused


def _exit_code(directory, payload):
    """The exit code of one run of ``payload``, its output under ``directory``."""
    scenario = _write(directory, "run.json", payload)
    return cli.main(["run", str(scenario), "-o", str(directory / "out")])


# Inputs that checked nothing: windows far under a period (each exited 0),
# and a swap rate whose period is past the float range (refused naming
# 't_max', which the scenario does not set, or run to exit 0 or, for the
# blockade, whose discriminant underflows, to exit 4 with a t_max).
_NO_WINDOW = [
    pytest.param(
        "effective-error-sweep", {"periods": 1e-300}, ("periods",), id="sweep-periods"
    ),
    pytest.param("transistor", {"periods": 1e-300}, ("periods",), id="transistor"),
    pytest.param("pair-evolution", {"t_max": 1e-300}, ("t_max",), id="pair-t_max"),
    pytest.param("blockade", {"t_max": 1e-300}, ("t_max",), id="blockade-t_max"),
    pytest.param(
        "pair-evolution",
        {"swap_rate": 1e-300, "t_max": 5.0},
        ("t_max",),
        id="pair-slow-swap",
    ),
    pytest.param(
        "pair-evolution",
        {"swap_rate": 1e-310},
        ("swap_rate", "n_atoms"),
        id="pair-vanishing-swap",
    ),
    pytest.param(
        "pair-evolution",
        {"swap_rate": 1e-310, "t_max": 5.0},
        ("swap_rate", "n_atoms"),
        id="pair-vanishing-swap-t_max",
    ),
    pytest.param(
        "blockade",
        {"swap_rate": 1e-310},
        ("swap_rate", "n_1", "n_2"),
        id="blockade-vanishing-swap",
    ),
    pytest.param(
        "blockade",
        {"swap_rate": 1e-310, "t_max": 5.0},
        ("swap_rate", "n_1", "n_2"),
        id="blockade-vanishing-swap-t_max",
    ),
]


@pytest.mark.parametrize("policy", ["error", "default"])
@pytest.mark.parametrize("kind, fields, named", _NO_WINDOW)
def test_window_that_checks_nothing_exits_3(
    tmp_path, capsys, policy, kind, fields, named
):
    with warnings.catch_warnings():
        warnings.simplefilter(policy, RuntimeWarning)
        code = _exit_code(tmp_path, {**_VALID[kind], **fields})
    err = capsys.readouterr().err
    assert code == 3
    assert all(repr(name) in err for name in named)
    if "t_max" not in named:
        assert "t_max" not in err
    assert not (tmp_path / "out" / "report.json").exists()


# A quarter of each kind's period, in the field that sets the window: the
# pair's swap period pi / (n_atoms |swap_rate|) and the blockade's transfer
# period pi / (sqrt(n_1 n_2) |swap_rate|) in t_max, the transistor's
# transfer periods and the sweep's swap periods in periods.
_QUARTER = {
    "pair-evolution": ("t_max", 0.25 * math.pi / (2 * 0.7)),
    "blockade": ("t_max", 0.25 * math.pi / 0.1),
    "transistor": ("periods", 0.25),
    "effective-error-sweep": ("periods", 0.25),
}


@pytest.mark.parametrize("scale, code", [(0.5, 3), (2.0, 0)])
@pytest.mark.parametrize("kind", sorted(_QUARTER))
def test_window_floor_sits_at_a_quarter_period(tmp_path, capsys, kind, scale, code):
    field, quarter = _QUARTER[kind]
    assert _exit_code(tmp_path, {**_VALID[kind], field: scale * quarter}) == code
    err = capsys.readouterr().err
    assert (repr(field) in err) == (code == 3)


_ATOMS = st.integers(1, 40)
_POINTS = st.integers(2, 60)
# a window in periods down to the floor, and one under it (0.249, so that
# the rounding of t_max cannot lift it onto the floor)
_ABOVE_FLOOR = st.floats(0.25, 4.0)
_BELOW_FLOOR = st.floats(1e-12, 0.249)


def _log_uniform(low, high):
    """Floats log-uniform on [low, high]."""
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0**e)


def _signed(low, high):
    """Floats whose magnitude is log-uniform on [low, high], of either sign."""
    return st.tuples(_log_uniform(low, high), st.sampled_from([-1.0, 1.0])).map(
        lambda pair: pair[0] * pair[1]
    )


def _rate_off(function, argument):
    """``function`` with its positional ``argument`` (a rate) 1e-3 too large."""

    def off(*args):
        args = list(args)
        args[argument] *= 1.0 + 1e-3
        return function(*args)

    return off


def _window_verdicts(directory, payload, closed_form, argument, field, above, below):
    """Exit codes: as given, with the closed form's rate off, under the floor."""
    code = _exit_code(directory, {**payload, field: above})
    off_rate = _rate_off(getattr(dynamics, closed_form), argument)
    with mock.patch.object(dynamics, closed_form, off_rate):
        off = _exit_code(directory, {**payload, field: above})
    refused = _exit_code(directory, {**payload, field: below})
    return code, off, refused


@settings(max_examples=40, deadline=None)
@given(
    n=_ATOMS,
    rate=_signed(1e-3, 1e2),
    points=_POINTS,
    above=_ABOVE_FLOOR,
    below=_BELOW_FLOOR,
)
def test_every_accepted_pair_window_can_fail(
    tmp_path_factory, n, rate, points, above, below
):
    # at a quarter period the rate defect costs an infidelity of about
    # 0.87 (1e-3 pi / 4)^2 = 5e-7 on these amplitudes, far above 1e-9
    period = math.pi / (n * abs(rate))
    fields = {"n_atoms": n, "swap_rate": rate, "points": points}
    verdicts = _window_verdicts(
        tmp_path_factory.mktemp("pair"),
        {**_VALID["pair-evolution"], **fields},
        "analytic_pair_amplitudes",
        4,
        "t_max",
        above * period,
        below * period,
    )
    assert verdicts == (0, 4, 3)


@settings(max_examples=40, deadline=None)
@given(
    n=_ATOMS,
    g21=_signed(5e-3, 0.1),
    g32=_signed(5e-3, 0.1),
    delta_control=_signed(0.3, 3.0),
    delta_target=_signed(0.3, 3.0),
    points=_POINTS,
    above=_ABOVE_FLOOR,
    below=_BELOW_FLOOR,
)
def test_every_accepted_transistor_window_can_fail(
    tmp_path_factory, n, g21, g32, delta_control, delta_target, points, above, below
):
    # at a quarter period the rate defect costs an infidelity of
    # sin^2(1e-3 pi / 4) = 6e-7, far above 1e-9; the cross rate takes
    # either sign. Opposite detunings of one size cancel it, and a run
    # without transfer is refused (see _OUT_OF_RANGE).
    assume(1.0 / delta_control + 1.0 / delta_target != 0.0)
    fields = {
        "n_atoms": n,
        "g21": g21,
        "g32": g32,
        "delta_control": delta_control,
        "delta_target": delta_target,
        "points": points,
    }
    verdicts = _window_verdicts(
        tmp_path_factory.mktemp("transistor"),
        {**_VALID["transistor"], **fields},
        "transistor_amplitudes",
        3,
        "periods",
        above,
        below,
    )
    assert verdicts == (0, 4, 3)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 50),
    coupling=st.floats(0.005, 0.02),
    factor=st.floats(8.0, 200.0),
    periods=st.floats(0.25, 1.0),
    points=st.integers(2, 200),
)
def test_every_accepted_sweep_window_can_fail(
    tmp_path_factory, n, coupling, factor, periods, points
):
    # the effective model's swap and shift rates 5% too large cost an
    # infidelity of sin^2(0.05 pi / 4) = 1.5e-3 at a quarter period, past
    # the default bound 1e-3 at factor 30. Windows stay within one period,
    # the span of the swap the bound is claimed for.
    fields = {
        "n_atoms": n,
        "coupling": coupling,
        "delta_factors": [30, factor],
        "periods": periods,
        "points": points,
    }
    payload = {**_VALID["effective-error-sweep"], **fields}
    directory = tmp_path_factory.mktemp("sweep")
    real = dynamics.collective_pair_hamiltonian

    def off(nodes, swap_rate, shift_rates, *args, **kwargs):
        shift_rates = tuple(1.05 * rate for rate in shift_rates)
        return real(nodes, 1.05 * swap_rate, shift_rates, *args, **kwargs)

    code = _exit_code(directory, payload)
    with mock.patch.object(dynamics, "collective_pair_hamiltonian", off):
        off_code = _exit_code(directory, payload)
    assert (code, off_code) == (0, 4)


# --- assertion bounds: a result just outside fails the run, just inside passes


def _run_verdicts(tmp_path, payload):
    """The exit code and each assertion's verdict of one run."""
    scenario = _write(tmp_path, "run.json", payload)
    code = cli.main(["run", str(scenario), "-o", str(tmp_path / "out")])
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    return code, {a["name"]: a["passed"] for a in report["assertions"]}


@pytest.mark.parametrize("excess, code", [(1e-6, 4), (5e-10, 0)])
def test_blockade_norm_closure_fails_past_1e_9(tmp_path, monkeypatch, excess, code):
    # |c2(0)|^2 = 1 + excess: the closure misses by excess at t = 0
    real = dynamics.BlockadeSolution.c2
    scale = np.sqrt(1.0 + excess)
    monkeypatch.setattr(
        dynamics.BlockadeSolution, "c2", lambda self, t: scale * real(self, t)
    )
    verdicts = {"norm-closure": code == 0}
    assert _run_verdicts(tmp_path, _VALID["blockade"]) == (code, verdicts)


@pytest.mark.parametrize("shift, code", [(1e-4, 4), (5e-7, 0)])
def test_transistor_transfer_time_fails_past_1e_6(tmp_path, monkeypatch, shift, code):
    real = dynamics.population_peak_time
    monkeypatch.setattr(
        dynamics, "population_peak_time", lambda *args: real(*args) * (1.0 + shift)
    )
    verdicts = {"closed-form-agreement": True, "transfer-time": code == 0}
    assert _run_verdicts(tmp_path, _VALID["transistor"]) == (code, verdicts)


@pytest.mark.parametrize("growth, code", [(2.0, 4), (1.09, 0)])
def test_sweep_envelope_fails_past_ten_percent_growth(
    tmp_path, monkeypatch, growth, code
):
    # the infidelity grows by `growth` from factor 10 to factor 30
    real = dynamics.effective_model_error

    def grown(*args, **kwargs):
        report = real(*args, **kwargs)
        return replace(report, max_infidelity=(1e-5, growth * 1e-5))

    monkeypatch.setattr(dynamics, "effective_model_error", grown)
    verdicts = {"infidelity-at-30x": True, "envelope-monotone": code == 0}
    assert _run_verdicts(tmp_path, _VALID["effective-error-sweep"]) == (code, verdicts)


def _rows(tmp_path, table):
    """The rows of one table of the last run's report."""
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    return report["tables"][table]


@pytest.mark.parametrize("multiple, code", [(2.0, 4), (0.5, 0)])
@pytest.mark.parametrize("kind", ["pair-evolution", "transistor"])
def test_closed_form_agreement_fails_past_its_tolerance(
    tmp_path, monkeypatch, kind, multiple, code
):
    # the evolved states scaled by sqrt(1 - multiple * tolerance): every
    # fidelity, 1 within 1e-15 as given, drops by multiple x the tolerance
    tolerance = cli.FIDELITY_TOLERANCE.default
    real = dynamics.evolve_on_grid
    scale = math.sqrt(1.0 - multiple * tolerance)
    monkeypatch.setattr(dynamics, "evolve_on_grid", lambda *args: scale * real(*args))
    verdicts = {"closed-form-agreement": code == 0}
    if kind == "transistor":
        verdicts["transfer-time"] = True
    assert _run_verdicts(tmp_path, _VALID[kind]) == (code, verdicts)
    worst = min(row["closed_form_fidelity"] for row in _rows(tmp_path, "evolution"))
    assert 1.0 - worst == pytest.approx(multiple * tolerance, rel=1e-5)


@pytest.mark.parametrize(
    "bound, code", [(0.125, 4), (0.25, 4), (0.5, 0)], ids=["double", "equal", "half"]
)
def test_blockade_transfer_blocked_fails_at_its_bound(
    tmp_path, monkeypatch, bound, code
):
    # |c3|^2 = 0.25 and |c2|^2 = 0.75 at every time, 0.25 exact in binary:
    # the strict < fails a peak equal to the bound
    def constant(value):
        return lambda self, t: np.full(np.shape(t), value, dtype=complex)

    monkeypatch.setattr(dynamics.BlockadeSolution, "c2", constant(math.sqrt(0.75)))
    monkeypatch.setattr(dynamics.BlockadeSolution, "c3", constant(0.5))
    payload = {**_VALID["blockade"], "max_c3_sq_below": bound}
    verdicts = {"norm-closure": True, "transfer-blocked": code == 0}
    assert _run_verdicts(tmp_path, payload) == (code, verdicts)


@pytest.mark.parametrize(
    "multiple, code", [(2.0, 4), (1.0, 4), (0.5, 0)], ids=["double", "equal", "half"]
)
def test_sweep_infidelity_fails_at_its_bound(tmp_path, monkeypatch, multiple, code):
    # the infidelity at 30x sits at multiple x the bound, that at 10x far
    # above it, so the envelope check passes; the strict < fails equality
    bound = 1e-3
    real = dynamics.effective_model_error

    def at(*args, **kwargs):
        infidelity = (10.0 * bound, multiple * bound)
        return replace(real(*args, **kwargs), max_infidelity=infidelity)

    monkeypatch.setattr(dynamics, "effective_model_error", at)
    payload = {**_VALID["effective-error-sweep"], "assert_below": bound}
    verdicts = {"infidelity-at-30x": code == 0, "envelope-monotone": True}
    assert _run_verdicts(tmp_path, payload) == (code, verdicts)


def _phase_of_distance(distance):
    """The phase phi with |e^(i phi) - 1| = ``distance``."""
    return 2.0 * math.asin(distance / 2.0)


def _off_gate_row(monkeypatch, row, deviation):
    """Patch what verify-gates row ``row`` reads, so that it deviates by ``deviation``.

    The pcet rows read the deviation of an equivalence result; the
    anticommutation row reads phase_gate(pi), here with deviation / 2 added
    to each diagonal entry; the group law reads transfers, here each but the
    full one (which pcet and the anticommutation use) with a global phase at
    distance ``deviation`` from 1, a phase that every other row cancels; the
    synthesis row reads the synthesized matrix, here off by ``deviation`` in
    one entry.
    """
    gates = cli.gates
    if row in ("pcet-equals-cnot", "pcet-involution"):
        reference = gates.CNOT if row == "pcet-equals-cnot" else np.eye(4)
        real = cli.circuits.equivalence_up_to_global_phase

        def equivalence(a, b, tol=1e-10):
            result = real(a, b, tol)
            if np.array_equal(b, reference):
                result = replace(result, max_deviation=deviation)
            return result

        monkeypatch.setattr(cli.circuits, "equivalence_up_to_global_phase", equivalence)
    elif row == "phase-et-anticommutation":
        real = gates.phase_gate
        off = 0.5 * deviation * np.eye(2)

        def phase_gate(chi):
            return real(chi) + off if chi == np.pi else real(chi)

        monkeypatch.setattr(gates, "phase_gate", phase_gate)
    elif row == "et-group-law":
        real = gates.et_gate
        phase = np.exp(1j * _phase_of_distance(deviation))
        monkeypatch.setattr(
            gates, "et_gate", lambda t: real(t) if t == np.pi else phase * real(t)
        )
    else:
        real = gates.synthesize_rotation

        def synthesize(u, tol=1e-10):
            synthesis = real(u, tol=tol)
            phase = synthesis.global_phase
            matrix = synthesis.matrix() + np.diag([deviation, 0.0]) / phase
            return mock.Mock(global_phase=phase, matrix=lambda: matrix)

        monkeypatch.setattr(gates, "synthesize_rotation", synthesize)


_GATE_ROWS = {
    "pcet-equals-cnot": 1e-12,
    "pcet-involution": 1e-12,
    "phase-et-anticommutation": 1e-12,
    "et-group-law": 1e-12,
    # the scenario's tolerance, by default
    "rotation-synthesis": 1e-10,
}


@pytest.mark.parametrize("multiple, code", [(2.0, 4), (0.5, 0)])
@pytest.mark.parametrize("row", sorted(_GATE_ROWS))
def test_verify_gates_row_fails_past_its_bound(
    tmp_path, monkeypatch, row, multiple, code
):
    bound = _GATE_ROWS[row]
    _off_gate_row(monkeypatch, row, multiple * bound)
    verdicts = {"all-gate-checks": code == 0}
    assert _run_verdicts(tmp_path, _VALID["verify-gates"]) == (code, verdicts)
    rows = {r["check"]: r for r in _rows(tmp_path, "checks")}
    assert sorted(rows) == sorted(_GATE_ROWS)
    assert {name: r["passed"] for name, r in rows.items()} == {
        name: name != row or code == 0 for name in rows
    }
    # the group law's deviation is the distance times the largest entry of
    # a transfer, which lies in [1/sqrt(2), 1]; the others equal it
    deviation = rows[row]["deviation"]
    assert multiple * bound / math.sqrt(2.0) <= deviation <= multiple * bound * 1.001


def test_verify_gates_fails_its_row_on_a_synthesis_defect(tmp_path, monkeypatch):
    # every synthesized angle off by 1e-9: the recomposition deviates past
    # the default tolerance 1e-10, a failed row (exit 4), not an error
    real = cli.gates._wrap_angle
    monkeypatch.setattr(cli.gates, "_wrap_angle", lambda x: real(x) + 1e-9)
    verdicts = {"all-gate-checks": False}
    assert _run_verdicts(tmp_path, _VALID["verify-gates"]) == (4, verdicts)
    rows = {r["check"]: r for r in _rows(tmp_path, "checks")}
    assert {name: r["passed"] for name, r in rows.items()} == {
        name: name != "rotation-synthesis" for name in _GATE_ROWS
    }
    tolerance = _GATE_ROWS["rotation-synthesis"]
    assert rows["rotation-synthesis"]["deviation"] > tolerance


def _off_circuit_case(monkeypatch, case, deviation):
    """Patch what verify-circuits ``case`` reads, so that it deviates by ``deviation``.

    The encoded Toffoli's and the controlled power's references gain a
    phase on one diagonal entry, at distance ``deviation`` from 1 (a phase
    leaves the magnitudes that the rotation ladder is checked on alone);
    the rotation ladder gains a final transfer on its target, which moves
    ``deviation`` of amplitude onto each entry the Toffoli leaves at 0.
    """
    gates, circuits = cli.gates, cli.circuits
    phase = np.exp(1j * _phase_of_distance(deviation))
    if case == "encoded-toffoli":
        toffoli = gates.TOFFOLI.copy()
        toffoli[1, 1] *= phase
        monkeypatch.setattr(gates, "TOFFOLI", toffoli)
    elif case == "toffoli-up-to-phase":
        real = circuits.standard_toffoli_upto_phase
        theta = 2.0 * math.asin(deviation)
        extra = circuits.Circuit((circuits.Operation("ET", (theta,), targets=("q2",)),))
        monkeypatch.setattr(
            circuits, "standard_toffoli_upto_phase", lambda: real() + extra
        )
    else:
        real = gates.controlled_power_matrix

        def reference(t, u):
            matrix = real(t, u)
            matrix[1, 1] *= phase
            return matrix

        monkeypatch.setattr(gates, "controlled_power_matrix", reference)


# each case and its bound: the fixed ones 1e-10, the controlled powers the
# scenario's tolerance, by default
_CIRCUIT_CASES = {
    "encoded-toffoli": 1e-10,
    "toffoli-up-to-phase": 1e-10,
    "controlled-power-t2-s0": 1e-9,
}


@pytest.mark.parametrize("multiple, code", [(2.0, 4), (0.5, 0)])
@pytest.mark.parametrize("case", sorted(_CIRCUIT_CASES))
def test_verify_circuits_case_fails_past_its_bound(
    tmp_path, monkeypatch, case, multiple, code
):
    bound = _CIRCUIT_CASES[case]
    _off_circuit_case(monkeypatch, case, multiple * bound)
    verdicts = {"all-circuit-checks": code == 0}
    assert _run_verdicts(tmp_path, _VALID["verify-circuits"]) == (code, verdicts)
    rows = _rows(tmp_path, "cases")
    # the controlled power has a standard and an improved row
    power = "controlled-power-t2-s0"
    assert sorted(r["case"] for r in rows) == sorted([*_CIRCUIT_CASES, power])
    for r in rows:
        assert r["count_ok"] is True
        assert r["passed"] is (r["case"] != case or code == 0)
        if r["case"] == case:
            assert r["deviation"] == pytest.approx(multiple * bound, rel=1e-3)


# --- table columns against the per-point scalar loops they replace ---------


def _transistor_rows_oracle(times, projected, closed):
    """The transistor table as numpy-scalar operations built it, point by point."""
    rows = []
    for t, proj, exact in zip(times, projected, closed):
        f = float(abs(np.vdot(exact, proj)) ** 2)
        rows.append(
            {
                "t": float(t),
                "control_excited": float(abs(proj[0]) ** 2 + abs(proj[1]) ** 2),
                "transferred": float(abs(proj[2]) ** 2 + abs(proj[3]) ** 2),
                "closed_form_fidelity": f,
            }
        )
    return rows


def _blockade_rows_oracle(times, c2, c3):
    """The blockade table as numpy-scalar operations built it, point by point."""
    return [
        {
            "t": float(t),
            "abs_c2_sq": float(abs(a) ** 2),
            "abs_c3_sq": float(abs(b) ** 2),
            "total": float(abs(a) ** 2 + abs(b) ** 2),
        }
        for t, a, b in zip(times, c2, c3)
    ]


def _amplitudes(rng, shape):
    """Magnitudes log-uniform on [1e-150, 1e2], phases uniform."""
    magnitudes = 10.0 ** rng.uniform(-150.0, 2.0, shape)
    return magnitudes * np.exp(1j * rng.uniform(-np.pi, np.pi, shape))


def _columns(rows):
    """The columns of per-point rows, in the rows' column order."""
    return {k: [row[k] for row in rows] for k in rows[0]}


def _bits(columns):
    """Each column as its name and the exact float texts, in table order."""
    assert all(type(values) is list for values in columns.values())
    assert all(type(v) is float for values in columns.values() for v in values)
    return [(k, [v.hex() for v in values]) for k, values in columns.items()]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), points=st.integers(1, 300))
def test_row_passes_equal_the_scalar_loops_bit_for_bit(seed, points):
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, rng.uniform(1e-3, 1e3), points)
    projected, closed = _amplitudes(rng, (2, points, 4))
    c2, c3 = _amplitudes(rng, (2, points))
    assert _bits(cli._transistor_columns(times, projected, closed)) == _bits(
        _columns(_transistor_rows_oracle(times, projected, closed))
    )
    assert _bits(cli._blockade_columns(times, c2, c3)) == _bits(
        _columns(_blockade_rows_oracle(times, c2, c3))
    )
