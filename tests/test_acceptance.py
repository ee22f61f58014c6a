"""Acceptance suite: every headline claim at its pinned tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``) and
enforces its own wall-time budget. Run as::

    pytest tests/test_acceptance.py -v -s
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cavityqc import (
    CNOT,
    TOFFOLI,
    CircuitBundle,
    CouplingSet,
    DetuningSet,
    EffectiveRates,
    FockFactor,
    Mode,
    NodeSpec,
    StateVector,
    analytic_pair_evolution,
    blockade_solution,
    cli,
    controlled_power_improved,
    controlled_power_matrix,
    controlled_power_standard,
    effective_model_error,
    encoded_toffoli,
    equivalence_up_to_global_phase,
    evolve_on_grid,
    fidelity,
    first_maximum_time,
    gate_counts,
    haar_random_unitary,
    logical_matrix,
    pcet,
    photon_free_effective_hamiltonian,
    propagate,
    schrieffer_wolff_hamiltonian,
    standard_toffoli_upto_phase,
    sw_generator,
    transistor_evolution,
    transistor_rate,
    two_level_swap_hamiltonian,
)
from cavityqc.dynamics import transistor_oracle
from cavityqc.hamiltonian import microscopic_parts


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        print(f"[{status}] criterion {number}: {description} ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def test_criterion_1_logical_cnot_identity():
    with criterion(1, "phased controlled transfer equals CNOT up to a global phase", 1.0):
        result = equivalence_up_to_global_phase(pcet(), CNOT, tol=1e-12)
        assert result.equal
        assert result.max_deviation <= 1e-12


def test_criterion_2_pair_oscillation_frequencies():
    with criterion(2, "swap oscillations at N and 2N times the exchange rate", 5.0):
        rate = 0.7
        for n_atoms in (1, 2, 3):
            nodes = (NodeSpec(n_atoms), NodeSpec(n_atoms))
            h = two_level_swap_hamiltonian(nodes, rate, rotating_frame=True)

            psi2 = StateVector(np.eye(6)[1], h.basis)
            single = lambda t: propagate(h, psi2, t).probability(2)
            t_star = first_maximum_time(single, 0.0, np.pi / (n_atoms * rate))
            extracted = np.pi / (2.0 * t_star)
            assert abs(extracted - n_atoms * rate) / (n_atoms * rate) <= 1e-6

            psi4 = StateVector(np.eye(6)[3], h.basis)
            doubled = lambda t: propagate(h, psi4, t).probability(4)
            t_star = first_maximum_time(doubled, 0.0, np.pi / (2 * n_atoms * rate))
            extracted = np.pi / (2.0 * t_star)
            assert abs(extracted - 2 * n_atoms * rate) / (2 * n_atoms * rate) <= 1e-6

            a1, b1 = 0.6, 0.8j
            a2, b2 = np.sqrt(0.3), -np.sqrt(0.7)
            psi0 = analytic_pair_evolution(a1, b1, a2, b2, rate, n_atoms, 0.0, basis=h.basis)
            for t in np.linspace(0.0, 2 * np.pi / rate, 100):
                numeric = propagate(h, psi0, t)
                closed = analytic_pair_evolution(
                    a1, b1, a2, b2, rate, n_atoms, t, basis=h.basis
                )
                assert fidelity(numeric, closed) >= 1.0 - 1e-9


def test_criterion_3_detuning_error_claim():
    with criterion(3, "detuning thirty times sqrt(N) g keeps the error under 1e-3", 60.0):
        g = 0.01
        for n_atoms in (1, 2):
            nodes = (NodeSpec(n_atoms), NodeSpec(n_atoms))
            deltas = [f * np.sqrt(n_atoms) * g for f in (10, 30, 100, 300)]
            report = effective_model_error(nodes, CouplingSet(g21=g), deltas)
            infidelity = report.max_infidelity
            assert infidelity[1] < 1e-3  # the 30x point
            assert all(b <= 1.1 * a for a, b in zip(infidelity, infidelity[1:]))


def test_criterion_4_blockade_amplitudes():
    with criterion(4, "photon-number blockade amplitudes and rate equations", 5.0):
        n1, n2, swap = 2, 3, 0.31
        shift_1, shift_2 = 0.12, 0.25
        resonant = EffectiveRates(
            swap_rate=swap,
            shift_rate_1=shift_1,
            shift_rate_2=shift_2,
            transition_freq_1=0.0,
            transition_freq_2=n1 * shift_1 - n2 * shift_2,
        )
        sol = blockade_solution(resonant, n1, n2, 0)
        t_star = np.pi / (2.0 * np.sqrt(n1 * n2) * swap)
        assert abs(abs(sol.c3(t_star)) ** 2 - 1.0) <= 1e-9

        weak = 1e-4
        gap = np.sqrt(1e6 * 1 * 1 * weak**2)
        blocked = blockade_solution(
            EffectiveRates(weak, 0.05, 0.05 + gap, 0.0, 0.05 - (0.05 + gap)),
            1,
            1,
            1,
        )
        times = np.linspace(0.0, 1e4, 4001)
        assert (np.abs(blocked.c3(times)) ** 2).max() < 1e-3

        # amplitude equations hold against a finite-difference derivative
        rates = EffectiveRates(swap, shift_1, shift_2, 0.3, 0.9)
        sol = blockade_solution(rates, n1, n2, 1)
        wt1 = 0.3 + 2 * shift_1
        wt2 = 0.9 + 2 * shift_2
        diag_2 = (n1 / 2 - 1) * wt1 + (n2 / 2) * wt2 - n1 * shift_1
        diag_3 = (n1 / 2) * wt1 + (n2 / 2 - 1) * wt2 - n2 * shift_2
        exchange = np.sqrt(n1 * n2) * swap

        def derivative(f, t, step=1e-3):
            return (
                f(t - 2 * step) - 8 * f(t - step) + 8 * f(t + step) - f(t + 2 * step)
            ) / (12 * step)

        for t in np.linspace(0.1, 15.0, 30):
            res_2 = derivative(sol.c2, t) - (
                1j * diag_2 * sol.c2(t) - 1j * exchange * sol.c3(t)
            )
            res_3 = derivative(sol.c3, t) - (
                1j * diag_3 * sol.c3(t) - 1j * exchange * sol.c2(t)
            )
            assert abs(res_2) < 1e-9
            assert abs(res_3) < 1e-9


def test_criterion_5_transistor_transfer():
    with criterion(5, "transistor transfer closed form and sqrt(N) speed-up", 5.0):
        node_of = lambda n: NodeSpec(n, 3, (0.0, 1.0, 2.0))
        couplings = CouplingSet(g21=0.02, g32=0.03)
        detunings = DetuningSet(lower=(0.5,) * 3, upper=(None, 0.7, 0.7))
        rate = transistor_rate((node_of(1),), couplings, detunings)
        t_star = {}
        for n_atoms in (1, 2):
            node = node_of(n_atoms)
            alpha, beta = 0.6, 0.8j
            h, psi0, projector = transistor_oracle(
                node, (node, node), couplings, detunings, alpha, beta
            )
            times = np.linspace(0.0, 2 * np.pi / (np.sqrt(n_atoms) * rate), 100)
            grid = evolve_on_grid(h, psi0, times)
            for t, amplitudes in zip(times, grid):
                projected = projector.conj() @ amplitudes
                closed = transistor_evolution(alpha, beta, n_atoms, rate, t)
                assert abs(np.vdot(closed.amplitudes, projected)) ** 2 >= 1.0 - 1e-9

            def transferred(t):
                amps = propagate(h, psi0, t).amplitudes
                proj = projector.conj() @ amps
                return abs(proj[2]) ** 2 + abs(proj[3]) ** 2

            window = np.pi / (np.sqrt(n_atoms) * rate)
            t_star[n_atoms] = first_maximum_time(transferred, 0.0, window)
            expected = np.pi / (2 * np.sqrt(n_atoms) * rate)
            assert abs(t_star[n_atoms] - expected) / expected <= 1e-6
        assert abs(t_star[1] / t_star[2] - np.sqrt(2.0)) <= 1e-6 * np.sqrt(2.0)


def test_criterion_6_encoded_toffoli():
    with criterion(6, "encoded Toffoli equals the doubly-controlled flip", 5.0):
        circuit = encoded_toffoli(0, 1, 2, 0)
        matrix, report = logical_matrix(CircuitBundle(circuit, 3, 1))
        result = equivalence_up_to_global_phase(matrix, TOFFOLI, tol=1e-10)
        assert result.equal
        assert result.max_deviation <= 1e-10
        assert report.max_ancilla_residual <= 1e-10


def test_criterion_7_toffoli_up_to_phase():
    with criterion(7, "rotation-ladder Toffoli matches magnitudes entrywise", 5.0):
        matrix, _ = logical_matrix(CircuitBundle(standard_toffoli_upto_phase(), 3))
        assert np.abs(np.abs(matrix) - np.abs(TOFFOLI)).max() <= 1e-10


def test_criterion_8_controlled_power_constructions():
    with criterion(8, "multi-controlled unitary constructions and gate counts", 30.0):
        rng = np.random.default_rng(42)
        for t in (2, 3, 4):
            for _ in range(10):
                u = haar_random_unitary(rng)
                reference = controlled_power_matrix(t, u)

                standard = controlled_power_standard(t, u)
                matrix, _ = logical_matrix(standard)
                result = equivalence_up_to_global_phase(matrix, reference, tol=1e-9)
                assert result.equal
                assert gate_counts(standard.circuit)["TOFFOLI"] == 2 * (t - 1)

                improved = controlled_power_improved(t, u)
                matrix, _ = logical_matrix(improved)
                result = equivalence_up_to_global_phase(matrix, reference, tol=1e-9)
                assert result.equal
                assert gate_counts(improved.circuit)["PCET"] == 2 * (t - 1)


def test_criterion_9_second_order_transformation_oracle():
    with criterion(9, "second-order transformation consistency for single atoms", 5.0):
        nodes = (NodeSpec(1, 3, (0.0, 1.0, 2.1)), NodeSpec(1, 3, (0.0, 1.05, 2.2)))
        couplings = CouplingSet(g21=0.02 + 0.003j, g32=0.015, g31=0.01 - 0.002j)
        fock = FockFactor((Mode(0.9), Mode(1.0), Mode(1.9)), (2, 2, 2))

        _, h0, h1 = microscopic_parts(nodes, couplings, fock)
        s = sw_generator(nodes, couplings, fock)
        residual = np.linalg.norm(h1 + h0 @ s - s @ h0)
        assert residual <= 1e-10 * np.linalg.norm(h1)

        oracle = schrieffer_wolff_hamiltonian(nodes, couplings, fock)
        vacuum = oracle.basis.fock_block_indices((0, 0, 0))
        detunings = DetuningSet.from_system(nodes, couplings, fock)
        photon_free = photon_free_effective_hamiltonian(nodes, couplings, detunings)
        block = oracle.matrix[np.ix_(vacuum, vacuum)]
        assert np.abs(block - photon_free.matrix).max() <= 1e-10


def test_criterion_10_deterministic_reports(tmp_path):
    with criterion(10, "byte-identical reports for identical scenario and seed", 30.0):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            "# deterministic verification scenario\n"
            + json.dumps(
                {"kind": "verify-circuits", "seed": 42, "t_values": [2, 4], "samples": 4}
            ),
            encoding="utf-8",
        )
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert cli.main(["run", str(scenario), "-o", str(out1)]) == 0
        assert cli.main(["run", str(scenario), "-o", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "cases.csv").read_bytes() == (out2 / "cases.csv").read_bytes()
