"""Run each catalogued mutant of the source tree against the test that must kill it.

Usage::

    python3 tools/mutants.py [NAME ...]

A mutant is one textual edit of one file of this checkout: an old text,
which must occur in the file exactly once, and the new text that replaces
it. Each mutant is applied to its own temporary copy of the checkout, and
the pytest node id catalogued with it runs against that copy (its ``src``
first on PYTHONPATH, a fixed Hypothesis seed). A copy leaves out ``.git``
and what the checkout's ``.gitignore`` names (its patterns read as file
and directory names, a leading ``/`` anchoring one to the top). Pytest exit 1, a failed
test, means the mutant was killed. The tool prints one verdict per mutant:
``killed``, ``SURVIVED`` (the test passed), ``STALE`` (the old text does
not occur exactly once) or ``ERROR`` (any other pytest exit code). It exits
0 when every mutant was killed and 1 otherwise. With NAMEs it runs only
those catalogue entries. Standard library only.
"""

from __future__ import annotations

import os
import shutil
from fnmatch import fnmatch
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent



class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    old: str
    new: str
    test: str  # pytest node id, relative to the checkout


BASIS, CIRCUITS, CLI, DYNAMICS, GATES, HAMILTONIAN = (
    f"src/cavityqc/{name}.py"
    for name in ("basis", "circuits", "cli", "dynamics", "gates", "hamiltonian")
)
TEST_BASIS, TEST_CIRCUITS, TEST_CLI, TEST_DYNAMICS, TEST_GATES, TEST_HAMILTONIAN = (
    f"tests/test_{name}.py"
    for name in ("basis", "circuits", "cli", "dynamics", "gates", "hamiltonian")
)
GATE_ROW = TEST_CLI + "::test_verify_gates_row_fails_past_its_bound[{}-2.0-4]"
CIRCUIT_CASE = TEST_CLI + "::test_verify_circuits_case_fails_past_its_bound[{}-2.0-4]"
AGREEMENT = TEST_CLI + "::test_closed_form_agreement_fails_past_its_tolerance[{}-2.0-4]"
WINDOW_FLOOR = TEST_CLI + "::test_window_floor_sits_at_a_quarter_period"
ANCILLA_WEIGHT = (
    TEST_CIRCUITS + "::test_ancilla_weight_is_refused_past_one_part_in_ten_billion"
)

CATALOGUE = (
    # the bound of each check, past which its run-level boundary test fails
    Mutant(
        "pcet-equals-cnot-bound",
        CLI,
        'add("pcet-equals-cnot", res.max_deviation, 1e-12)',
        'add("pcet-equals-cnot", res.max_deviation, 1e-6)',
        GATE_ROW.format("pcet-equals-cnot"),
    ),
    Mutant(
        "pcet-involution-bound",
        CLI,
        'add("pcet-involution", res.max_deviation, 1e-12)',
        'add("pcet-involution", res.max_deviation, 1e-9)',
        GATE_ROW.format("pcet-involution"),
    ),
    Mutant(
        "phase-et-anticommutation-bound",
        CLI,
        'add("phase-et-anticommutation", np.abs(anti).max(), 1e-12)',
        'add("phase-et-anticommutation", np.abs(anti).max(), 1e-9)',
        GATE_ROW.format("phase-et-anticommutation"),
    ),
    Mutant(
        "et-group-law-bound",
        CLI,
        'add("et-group-law", worst, 1e-12)',
        'add("et-group-law", worst, 1e-9)',
        GATE_ROW.format("et-group-law"),
    ),
    Mutant(
        "rotation-synthesis-bound",
        CLI,
        'add("rotation-synthesis", worst, tol)',
        'add("rotation-synthesis", worst, 10 * tol)',
        GATE_ROW.format("rotation-synthesis"),
    ),
    Mutant(
        "encoded-toffoli-bound",
        CLI,
        "equivalence_up_to_global_phase(matrix, gates.TOFFOLI, 1e-10)",
        "equivalence_up_to_global_phase(matrix, gates.TOFFOLI, 1e-6)",
        CIRCUIT_CASE.format("encoded-toffoli"),
    ),
    Mutant(
        "toffoli-up-to-phase-bound",
        CLI,
        "dev, True, dev <= 1e-10)",
        "dev, True, dev <= 1e-6)",
        CIRCUIT_CASE.format("toffoli-up-to-phase"),
    ),
    Mutant(
        "controlled-power-bound",
        CLI,
        "equivalence_up_to_global_phase(matrix, reference, tol)",
        "equivalence_up_to_global_phase(matrix, reference, 10 * tol)",
        CIRCUIT_CASE.format("controlled-power-t2-s0"),
    ),
    Mutant(
        "transfer-blocked-strict",
        CLI,
        '("transfer-blocked", peak < bound, detail)',
        '("transfer-blocked", peak <= bound, detail)',
        TEST_CLI + "::test_blockade_transfer_blocked_fails_at_its_bound[equal]",
    ),
    Mutant(
        "infidelity-strict",
        CLI,
        "value < bound, detail)",
        "value <= bound, detail)",
        TEST_CLI + "::test_sweep_infidelity_fails_at_its_bound[equal]",
    ),
    Mutant(
        "pair-agreement-tolerance",
        CLI,
        'worst >= 1.0 - p["tolerance"], detail)',
        'worst >= 1.0 - 10 * p["tolerance"], detail)',
        AGREEMENT.format("pair-evolution"),
    ),
    Mutant(
        "transistor-agreement-tolerance",
        CLI,
        'worst >= 1.0 - p["tolerance"], agreement)',
        'worst >= 1.0 - 10 * p["tolerance"], agreement)',
        AGREEMENT.format("transistor"),
    ),
    # the shortest window a run may check, a quarter period
    Mutant(
        "window-floor-0.1",
        CLI,
        "MIN_WINDOW_PERIODS = 0.25",
        "MIN_WINDOW_PERIODS = 0.1",
        WINDOW_FLOOR,
    ),
    Mutant(
        "window-floor-1.0",
        CLI,
        "MIN_WINDOW_PERIODS = 0.25",
        "MIN_WINDOW_PERIODS = 1.0",
        WINDOW_FLOOR,
    ),
    # the synthesis enforcing the bound its verify-gates row compares
    Mutant(
        "synthesis-checks-the-row-bound",
        CLI,
        "gates.synthesize_rotation(u, tol=2.0)",
        "gates.synthesize_rotation(u, tol=tol)",
        TEST_CLI + "::test_verify_gates_fails_its_row_on_a_synthesis_defect",
    ),
    # the memory a sweep keeps per point and detuning, counted as before
    Mutant(
        "sweep-sample-bytes-96",
        CLI,
        "SWEEP_SAMPLE_BYTES = 400",
        "SWEEP_SAMPLE_BYTES = 96",
        TEST_CLI + "::test_sweep_memory_rule_counts_points_times_detunings",
    ),
    # the cap on a list's items, one off either way
    Mutant(
        "list-cap-exclusive",
        CLI,
        "0 < len(value) <= MAX_TABLE_ROWS:",
        "0 < len(value) < MAX_TABLE_ROWS:",
        TEST_CLI + "::test_sweep_detuning_cap_falls_between_max_and_one_more",
    ),
    Mutant(
        "list-cap-one-more",
        CLI,
        "0 < len(value) <= MAX_TABLE_ROWS:",
        "0 < len(value) <= MAX_TABLE_ROWS + 1:",
        TEST_CLI + "::test_sweep_detuning_cap_falls_between_max_and_one_more",
    ),
    # the run-level bounds of the blockade, transistor and sweep checks
    Mutant(
        "norm-closure-bound",
        CLI,
        '("norm-closure", closure <= 1e-9,',
        '("norm-closure", closure <= 1e-5,',
        TEST_CLI + "::test_blockade_norm_closure_fails_past_1e_9",
    ),
    Mutant(
        "transfer-time-bound",
        CLI,
        '("transfer-time", t_err <= 1e-6,',
        '("transfer-time", t_err <= 1e-3,',
        TEST_CLI + "::test_transistor_transfer_time_fails_past_1e_6",
    ),
    Mutant(
        "envelope-monotone-bound",
        CLI,
        "ok = all(b <= 1.1 * a for",
        "ok = all(b <= 2.5 * a for",
        TEST_CLI + "::test_sweep_envelope_fails_past_ten_percent_growth",
    ),
    # a verify-circuits case passes only with the gate count it documents
    Mutant(
        "circuit-passed-without-count",
        CLI,
        "bool(res.equal and count_ok),",
        "bool(res.equal),",
        TEST_CLI + "::test_verify_circuits_fails_a_case_whose_count_is_wrong",
    ),
    # the library's tolerances, each pinned at its documented value
    Mutant(
        "equivalence-100x-tol",
        CIRCUITS,
        "equal=deviation <= tol,",
        "equal=deviation <= 100 * tol,",
        TEST_CIRCUITS + "::test_equivalence_holds_deviations_to_tol",
    ),
    Mutant(
        "ancilla-tol-1e-4",
        CIRCUITS,
        "ANCILLA_TOL = 1e-10",
        "ANCILLA_TOL = 1e-4",
        ANCILLA_WEIGHT,
    ),
    Mutant(
        "ancilla-tol-1e-11",
        CIRCUITS,
        "ANCILLA_TOL = 1e-10",
        "ANCILLA_TOL = 1e-11",
        ANCILLA_WEIGHT,
    ),
    Mutant(
        "circuits-drop-1e-6",
        CIRCUITS,
        "_DROP = 1e-14",
        "_DROP = 1e-6",
        TEST_CIRCUITS + "::test_a_small_transfer_keeps_its_off_diagonal",
    ),
    Mutant(
        "unitarity-tol-1e-5",
        GATES,
        "UNITARITY_TOL = 1e-8",
        "UNITARITY_TOL = 1e-5",
        TEST_CIRCUITS + "::test_non_unitary_controlled_u_payload_is_refused",
    ),
    Mutant(
        "wrap-angle-snap-1e-3",
        GATES,
        "abs(wrapped) < 1e-12",
        "abs(wrapped) < 1e-3",
        TEST_GATES + "::test_synthesize_small_phase_keeps_its_angle",
    ),
    Mutant(
        "norm-tol-1e-6",
        DYNAMICS,
        "NORM_TOL = 1e-9",
        "NORM_TOL = 1e-6",
        TEST_DYNAMICS + "::test_transistor_amplitudes_hold_the_norm_to_norm_tol",
    ),
    Mutant(
        "peak-polish-steps-3",
        DYNAMICS,
        "PEAK_POLISH_STEPS = 100",
        "PEAK_POLISH_STEPS = 3",
        TEST_DYNAMICS + "::test_peak_locator_agrees_with_bisection_to_the_last_ulp",
    ),
    Mutant(
        "resonance-floor-1e-3",
        HAMILTONIAN,
        "RESONANCE_FLOOR = 1e-9",
        "RESONANCE_FLOOR = 1e-3",
        TEST_HAMILTONIAN + "::test_resonance_floor_sits_at_one_part_in_a_billion",
    ),
    Mutant(
        "resonance-floor-1e-10",
        HAMILTONIAN,
        "RESONANCE_FLOOR = 1e-9",
        "RESONANCE_FLOOR = 1e-10",
        TEST_HAMILTONIAN + "::test_resonance_floor_sits_at_one_part_in_a_billion",
    ),
    Mutant(
        "real-rate-imaginary-1e-3",
        HAMILTONIAN,
        "abs(rate.imag) <= 1e-12 * max(1.0, abs(rate))",
        "abs(rate.imag) <= 1e-3 * max(1.0, abs(rate))",
        TEST_HAMILTONIAN + "::test_swap_rate_must_be_real_to_round_off",
    ),
    # the basis: its state count, and the range check of its row lookup
    Mutant(
        "suffix-count-strict",
        BASIS,
        "for s in table if s <= q)",
        "for s in table if s < q)",
        TEST_BASIS + "::test_listing_equals_the_prefix_growing_listing",
    ),
    Mutant(
        "rows-without-range-check",
        BASIS,
        "(occupations >= 0) & (occupations < self.shape)",
        "np.ones_like(occupations, dtype=bool)",
        TEST_BASIS + "::test_bad_occupations_are_held_by_no_basis",
    ),
    # the static energies and the exchange generator
    Mutant(
        "bare-diagonal-without-photons",
        HAMILTONIAN,
        "tables.append(mode.frequency * basis.site_levels",
        "tables.append(0.0 * basis.site_levels",
        TEST_HAMILTONIAN + "::test_decoupled_limit_is_diagonal",
    ),
    Mutant(
        "exchange-without-conjugate",
        HAMILTONIAN,
        "                if a != b:\n"
        "                    yield _exchange(j, i, np.conj(coeff), up_b, down_a)\n",
        "",
        TEST_HAMILTONIAN + "::test_transistor_equals_its_loops_bit_for_bit",
    ),
)


def _untracked():
    """copytree's ignore: ``.git`` and the names ``.gitignore`` lists."""
    anywhere, at_top = [".git"], []
    for line in (ROOT / ".gitignore").read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            (at_top if line.startswith("/") else anywhere).append(line.strip("/"))

    def ignore(directory, names):
        patterns = anywhere + at_top if Path(directory) == ROOT else anywhere
        return {name for name in names if any(fnmatch(name, p) for p in patterns)}

    return ignore


def verdict(mutant: Mutant) -> str:
    """The verdict of one mutant, applied to a temporary copy of the checkout."""
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return "STALE"
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_untracked())
        (tree / mutant.path).write_text(
            text.replace(mutant.old, mutant.new), encoding="utf-8"
        )
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(tree / "src"), os.environ.get("PYTHONPATH")))
        )
        command = [
            sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "--hypothesis-seed=0", mutant.test,
        ]
        code = subprocess.run(
            command, cwd=tree, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        ).returncode
    return {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")


def run(mutants) -> int:
    """Print each mutant's verdict; 0 if every one was killed, else 1."""
    failed = 0
    for mutant in mutants:
        result = verdict(mutant)
        print(f"{mutant.name}: {result} ({mutant.test})", flush=True)
        failed += result != "killed"
    print(f"{len(mutants) - failed}/{len(mutants)} mutants killed")
    return 1 if failed else 0


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    known = {m.name: m for m in CATALOGUE}
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    return run([known[name] for name in names] if names else CATALOGUE)


if __name__ == "__main__":
    sys.exit(main())
