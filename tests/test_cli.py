"""Scenario runner: parsing, validation, reports, determinism, exit codes."""

import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_propagated_module_error_gives_exit_code_5(tmp_path, capsys):
    # a valid scenario whose rotation synthesis cannot meet its tolerance:
    # the library's DecompositionFailure propagates to the runner
    scenario = _write(
        tmp_path,
        "unmet.json",
        {"kind": "verify-gates", "seed": 3, "samples": 1, "tolerance": 1e-30},
    )
    assert cli.main(["run", str(scenario), "-o", str(tmp_path / "out")]) == 5
    assert "error: recomposition deviates" in capsys.readouterr().err


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
    assert "t = 13" in message and "cap" in message
    assert not (outdir / "report.json").exists()


def test_verify_circuits_cap_falls_between_12_and_13():
    # t = 12 fills the cap exactly (8192^2 x 16 bytes = 1 GiB)
    cli.validate_params("verify-circuits", {"seed": 3, "t_values": [12]})
    with pytest.raises(ValidationError, match="t = 13"):
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
@pytest.mark.parametrize(
    "kind, field, value",
    [
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
    ],
)
def test_out_of_range_values_exit_3(tmp_path, capsys, kind, field, value):
    _assert_refused(tmp_path, capsys, {**_VALID[kind], field: value}, field)


# The blockade's photon number and level shifts enter its discriminant only
# through the difference of the two nodes' dressed frequencies, which the
# equal shift rates of the valid blockade cancel; the shipped blocked
# scenario's unequal ones do not (each exit 5 before, as above).
@pytest.mark.parametrize(
    "field, value",
    [
        pytest.param("n_photons", 10**155, id="n_photons-10**155"),
        pytest.param("shift_rate_1", 1e200, id="shift_rate_1-1e200"),
    ],
)
def test_overflowing_blockade_frequencies_exit_3(tmp_path, capsys, field, value):
    shifts = {"n_photons": 1, "shift_rate_1": 0.05, "shift_rate_2": 0.15}
    payload = {**_VALID["blockade"], **shifts, field: value}
    _assert_refused(tmp_path, capsys, payload, field)


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
    cap = cli.DENSE_BYTES_CAP // cli.BYTES_PER_AMPLITUDE
    assert valid("blockade", points=cap)["points"] == cap
    with pytest.raises(ValidationError, match="points"):
        valid("blockade", points=cap + 1)
    # the sweep's arrays hold six amplitudes per point and detuning
    assert valid("effective-error-sweep", points=cap // 12)["points"] == cap // 12
    with pytest.raises(ValidationError, match="points"):
        valid("effective-error-sweep", points=cap // 12 + 1)
    # the pair's grid holds six amplitudes per point, the transistor's nine
    for kind, per_point in (("pair-evolution", 6), ("transistor", 9)):
        assert valid(kind, points=cap // per_point)["points"] == cap // per_point
        with pytest.raises(ValidationError, match="points"):
            valid(kind, points=cap // per_point + 1)


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


# --- table rows against the per-point scalar loops they replace ------------


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


def _bits(rows):
    """Each row as (column, exact float text) pairs, columns in row order."""
    assert all(type(v) is float for row in rows for v in row.values())
    return [[(k, v.hex()) for k, v in row.items()] for row in rows]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), points=st.integers(1, 300))
def test_row_passes_equal_the_scalar_loops_bit_for_bit(seed, points):
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, rng.uniform(1e-3, 1e3), points)
    projected, closed = _amplitudes(rng, (2, points, 4))
    c2, c3 = _amplitudes(rng, (2, points))
    assert _bits(cli._transistor_rows(times, projected, closed)) == _bits(
        _transistor_rows_oracle(times, projected, closed)
    )
    assert _bits(cli._blockade_rows(times, c2, c3)) == _bits(
        _blockade_rows_oracle(times, c2, c3)
    )
