"""Propagation, closed forms, blockade amplitudes, transistor, error sweep."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityqc import (
    CollectiveBasis,
    CouplingSet,
    DetuningSet,
    EffectiveRates,
    FockFactor,
    Mode,
    NodeSpec,
    build_microscopic_basis,
    StateVector,
    analytic_pair_evolution,
    blockade_solution,
    effective_model_error,
    evolve_on_grid,
    fidelity,
    first_maximum_time,
    lamb_shift_hamiltonian,
    microscopic_hamiltonian,
    pair_isometry,
    population_peak_time,
    product_excitation_state,
    propagate,
    transistor_evolution,
    transistor_hamiltonian,
    transistor_rate,
    two_level_swap_hamiltonian,
)
from cavityqc.dynamics import (
    PEAK_SCAN_POINTS,
    _population_derivatives,
    transistor_oracle,
)
from cavityqc.errors import BasisMismatch
from cavityqc.hamiltonian import HamiltonianMatrix

RATE = 0.7


def _swap_pair(n_atoms, rate=RATE, **kwargs):
    nodes = (NodeSpec(n_atoms), NodeSpec(n_atoms))
    return two_level_swap_hamiltonian(nodes, rate, rotating_frame=True, **kwargs)


def _basis_state(h, index):
    vec = np.zeros(h.dim, dtype=complex)
    vec[index] = 1.0
    return StateVector(vec, h.basis)


# --- propagation ----------------------------------------------------------------


def test_propagate_identity_at_zero_time():
    h = _swap_pair(2)
    psi0 = _basis_state(h, 1)
    out = propagate(h, psi0, 0.0)
    assert np.abs(out.amplitudes - psi0.amplitudes).max() == 0.0


def test_rabi_half_period():
    omega = 0.3
    h = HamiltonianMatrix(omega * np.array([[0, 1], [1, 0]], dtype=complex), None)
    psi0 = StateVector(np.array([1.0, 0.0]), None)
    out = propagate(h, psi0, np.pi / (2 * omega))
    assert abs(out.amplitudes[0]) < 1e-12
    assert out.amplitudes[1] == pytest.approx(-1j, abs=1e-12)


def test_swap_oscillation_probability_closed_form():
    n_atoms = 3
    h = _swap_pair(n_atoms)
    psi0 = _basis_state(h, 1)
    for t in np.linspace(0.0, 5.0, 50):
        p = propagate(h, psi0, t).probability(2)
        assert p == pytest.approx(np.sin(n_atoms * RATE * t) ** 2, abs=1e-12)


def test_norm_conserved():
    h = _swap_pair(3)
    rng = np.random.default_rng(7)
    amps = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi0 = StateVector(amps / np.linalg.norm(amps), h.basis)
    for t in (0.1, 3.7, 120.0):
        assert abs(propagate(h, psi0, t).norm() - 1.0) < 1e-9


def test_propagate_rejects_basis_mismatch():
    h = _swap_pair(2)
    other = _swap_pair(3)
    psi0 = _basis_state(other, 0)
    with pytest.raises(BasisMismatch):
        propagate(h, psi0, 1.0)
    with pytest.raises(BasisMismatch):
        evolve_on_grid(h, psi0, [0.0, 1.0])
    with pytest.raises(BasisMismatch):
        population_peak_time(h, psi0, np.eye(other.dim)[:1], 0.0, 1.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_propagation_rejects_non_finite_times(bad):
    h = _swap_pair(2)
    psi0 = _basis_state(h, 1)
    with pytest.raises(ValueError, match="finite"):
        propagate(h, psi0, bad)
    with pytest.raises(ValueError, match="finite"):
        evolve_on_grid(h, psi0, [0.0, bad])
    with pytest.raises(ValueError, match="finite"):
        population_peak_time(h, psi0, np.eye(h.dim)[2:3], 0.0, bad)


def test_fidelity_examples():
    h = _swap_pair(2)
    a = _basis_state(h, 1)
    b = _basis_state(h, 2)
    assert fidelity(a, a) == pytest.approx(1.0)
    assert fidelity(a, b) == pytest.approx(0.0)
    theta = 0.77
    mixed = StateVector(
        np.cos(theta) * a.amplitudes - 1j * np.sin(theta) * b.amplitudes, h.basis
    )
    assert fidelity(a, mixed) == pytest.approx(np.cos(theta) ** 2, abs=1e-12)


# --- closed-form pair evolution -----------------------------------------------


def test_pair_evolution_full_transfer_phase():
    # beta1 = alpha2 = 1: after a quarter period the excitation sits on
    # node 2 with amplitude (-i) * (-i) = -1
    n_atoms = 2
    t = np.pi / (2 * RATE * n_atoms)
    out = analytic_pair_evolution(0.0, 1.0, 1.0, 0.0, RATE, n_atoms, t)
    expected = np.zeros(6, dtype=complex)
    expected[2] = -1.0
    assert np.abs(out.amplitudes - expected).max() < 1e-12


def test_pair_evolution_identity_at_zero_time():
    a1, b1 = 0.6, 0.8
    a2, b2 = 1 / np.sqrt(3), np.sqrt(2 / 3)
    out = analytic_pair_evolution(a1, b1, a2, b2, RATE, 2, 0.0)
    expected = np.array([a1 * a2, b1 * a2, a1 * b2, b1 * b2, 0.0, 0.0])
    assert np.abs(out.amplitudes - expected).max() < 1e-12


def test_pair_evolution_doubled_frequency_sector():
    n_atoms = 3
    for t in np.linspace(0.0, 2.0, 25):
        out = analytic_pair_evolution(0.0, 1.0, 0.0, 1.0, RATE, n_atoms, t)
        assert out.probability(4) == pytest.approx(
            np.sin(2 * RATE * n_atoms * t) ** 2, abs=1e-12
        )


def test_pair_evolution_requires_normalized_inputs():
    with pytest.raises(ValueError):
        analytic_pair_evolution(1.0, 1.0, 1.0, 0.0, RATE, 2, 0.0)


@pytest.mark.parametrize("n_atoms", [1, 2, 3])
def test_pair_evolution_matches_propagation(n_atoms):
    h = _swap_pair(n_atoms)
    a1, b1 = 0.6, 0.8j
    a2, b2 = np.sqrt(0.3), -np.sqrt(0.7)
    psi0 = analytic_pair_evolution(a1, b1, a2, b2, RATE, n_atoms, 0.0, basis=h.basis)
    for t in np.linspace(0.0, 9.0, 100):
        numeric = propagate(h, psi0, t)
        closed = analytic_pair_evolution(a1, b1, a2, b2, RATE, n_atoms, t, basis=h.basis)
        assert fidelity(numeric, closed) >= 1.0 - 1e-9


def test_extracted_frequencies():
    for n_atoms in (1, 2, 3):
        h = _swap_pair(n_atoms)
        psi2 = _basis_state(h, 1)
        observed = lambda t: propagate(h, psi2, t).probability(2)
        t_star = first_maximum_time(observed, 0.0, np.pi / (n_atoms * RATE))
        assert np.pi / (2 * t_star) == pytest.approx(n_atoms * RATE, rel=1e-6)

        psi4 = _basis_state(h, 3)
        doubled = lambda t: propagate(h, psi4, t).probability(4)
        t_star = first_maximum_time(doubled, 0.0, np.pi / (2 * n_atoms * RATE))
        assert np.pi / (2 * t_star) == pytest.approx(2 * n_atoms * RATE, rel=1e-6)


# --- blockade amplitudes ---------------------------------------------------------


def _resonant_rates(n1, n2, shift_1, shift_2, swap):
    # bare frequencies chosen so freq_2 - freq_1 + n2 shift_2 - n1 shift_1 = 0
    return EffectiveRates(
        swap_rate=swap,
        shift_rate_1=shift_1,
        shift_rate_2=shift_2,
        transition_freq_1=0.0,
        transition_freq_2=n1 * shift_1 - n2 * shift_2,
    )


def test_blockade_resonant_full_transfer():
    n1, n2, swap = 2, 3, 0.31
    rates = _resonant_rates(n1, n2, 0.12, 0.25, swap)
    sol = blockade_solution(rates, n1, n2, 0)
    t_star = np.pi / (2 * np.sqrt(n1 * n2) * swap)
    assert abs(sol.c3(t_star)) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert sol.c_const_1 == pytest.approx(-0.5)
    assert sol.c_const_2 == pytest.approx(0.5)
    # phase structure: c2 = e^(i (E2+E3) t / 2) cos(. t), c3 carries the -i
    for t in np.linspace(0.0, 3.0, 17):
        phase = np.exp(0.5j * (sol.energy_2 + sol.energy_3) * t)
        assert sol.c2(t) == pytest.approx(
            phase * np.cos(np.sqrt(n1 * n2) * swap * t), abs=1e-12
        )
        assert sol.c3(t) == pytest.approx(
            -1j * phase * np.sin(np.sqrt(n1 * n2) * swap * t), abs=1e-12
        )


def test_blockade_photon_suppression():
    # one photon with (shift_2 - shift_1)^2 = 1e6 N1 N2 swap^2 blocks transfer
    n1 = n2 = 1
    swap = 1e-4
    gap = np.sqrt(1e6 * n1 * n2 * swap**2)
    rates = _resonant_rates(n1, n2, 0.05, 0.05 + gap, swap)
    sol = blockade_solution(rates, n1, n2, 1)
    times = np.linspace(0.0, 1e4, 4001)
    peak = (np.abs(sol.c3(times)) ** 2).max()
    assert peak < 1e-3
    # amplitude bound 4 C1^2
    assert peak <= 4 * sol.c_const_1**2 + 1e-15


def test_blockade_without_exchange_keeps_the_excitation_on_node_1():
    rates = EffectiveRates(0.0, 0.1, 0.2, 0.3, 0.9)
    sol = blockade_solution(rates, 2, 3, 1)
    assert sol.exchange == 0.0
    times = np.linspace(0.0, 50.0, 11)
    np.testing.assert_array_equal(sol.c2(times), np.exp(1j * sol.diag_2 * times))
    assert np.abs(sol.c3(times)).max() == 0.0


def test_blockade_norm_closure_everywhere():
    rates = _resonant_rates(2, 3, 0.12, 0.25, 0.31)
    for n_ph in (0, 1, 3):
        sol = blockade_solution(rates, 2, 3, n_ph)
        times = np.linspace(0.0, 50.0, 500)
        total = np.abs(sol.c2(times)) ** 2 + np.abs(sol.c3(times)) ** 2
        assert np.abs(total - 1.0).max() < 1e-9


def test_blockade_amplitudes_satisfy_rate_equations():
    # fourth-order finite differences as the independent derivative oracle
    n1, n2, n_ph = 2, 3, 1
    shift_1, shift_2, swap = 0.12, 0.25, 0.31
    rates = EffectiveRates(swap, shift_1, shift_2, 0.3, 0.9)
    sol = blockade_solution(rates, n1, n2, n_ph)

    wt1 = 0.3 + 2 * n_ph * shift_1
    wt2 = 0.9 + 2 * n_ph * shift_2
    diag_2 = (n1 / 2 - 1) * wt1 + (n2 / 2) * wt2 - n1 * shift_1
    diag_3 = (n1 / 2) * wt1 + (n2 / 2 - 1) * wt2 - n2 * shift_2
    exchange = np.sqrt(n1 * n2) * swap

    def derivative(f, t, h=1e-3):
        return (f(t - 2 * h) - 8 * f(t - h) + 8 * f(t + h) - f(t + 2 * h)) / (12 * h)

    for t in np.linspace(0.1, 20.0, 40):
        res_2 = derivative(sol.c2, t) - (
            1j * diag_2 * sol.c2(t) - 1j * exchange * sol.c3(t)
        )
        res_3 = derivative(sol.c3, t) - (
            1j * diag_3 * sol.c3(t) - 1j * exchange * sol.c2(t)
        )
        assert abs(res_2) < 1e-9
        assert abs(res_3) < 1e-9


def test_blockade_matches_collective_propagation():
    # the closed form reproduces direct propagation under the pair builder
    n1, n2, n_ph = 2, 3, 2
    g1, g2, d1, d2 = 0.03, 0.04, 0.5, 0.8
    freq = 1.0
    nodes = (
        NodeSpec(n1, 2, (-freq / 2, freq / 2)),
        NodeSpec(n2, 2, (-freq / 2, freq / 2)),
    )
    couplings = CouplingSet(g21=(g1, g2))
    detunings = DetuningSet(lower=(d1, d2))
    h = lamb_shift_hamiltonian(nodes, couplings, detunings, n_photons=n_ph)
    rates = EffectiveRates.from_couplings(nodes, g1, g2, d1, d2, freq, freq)
    sol = blockade_solution(rates, n1, n2, n_ph)
    psi0 = StateVector(np.eye(6)[1], h.basis)
    for t in np.linspace(0.0, 200.0, 60):
        out = propagate(h, psi0, t)
        assert out.amplitudes[1] == pytest.approx(complex(sol.c2(t)), abs=1e-9)
        assert out.amplitudes[2] == pytest.approx(complex(sol.c3(t)), abs=1e-9)


def test_blockade_transfer_time_scaling():
    swap = 0.31
    reference = None
    for n1, n2 in ((1, 1), (2, 2), (2, 3), (3, 3)):
        rates = _resonant_rates(n1, n2, 0.12, 0.25, swap)
        sol = blockade_solution(rates, n1, n2, 0)
        probability = lambda t: abs(sol.c3(t)) ** 2
        window = np.pi / (np.sqrt(n1 * n2) * swap)
        t_star = first_maximum_time(probability, 0.0, window)
        expected = np.pi / (2 * np.sqrt(n1 * n2) * swap)
        assert t_star == pytest.approx(expected, rel=1e-6)


# --- transistor transfer ----------------------------------------------------------


def _transistor_setup(n_atoms):
    node = NodeSpec(n_atoms, 3, (0.0, 1.0, 2.0))
    couplings = CouplingSet(g21=0.02, g32=0.03)
    detunings = DetuningSet(lower=(0.5,) * 3, upper=(None, 0.7, 0.7))
    return node, couplings, detunings


def test_transistor_evolution_endpoints():
    alpha, beta = 0.6, 0.8
    out = transistor_evolution(alpha, beta, 2, 0.1, 0.0)
    assert np.abs(out.amplitudes - np.array([alpha, beta, 0, 0])).max() < 1e-12

    t_full = np.pi / (2 * np.sqrt(2) * 0.1)
    out = transistor_evolution(alpha, beta, 2, 0.1, t_full)
    assert abs(out.amplitudes[0]) < 1e-12
    assert out.amplitudes[2] == pytest.approx(-1j * alpha, abs=1e-12)
    assert out.amplitudes[3] == pytest.approx(-1j * beta, abs=1e-12)


@pytest.mark.parametrize("n_atoms", [1, 2])
def test_transistor_closed_form_matches_propagation(n_atoms):
    node, couplings, detunings = _transistor_setup(n_atoms)
    rate = transistor_rate((node,), couplings, detunings)
    alpha, beta = 0.6, 0.8j
    h, psi0, projector = transistor_oracle(
        node, (node, node), couplings, detunings, alpha, beta
    )
    times = np.linspace(0.0, 2 * np.pi / (np.sqrt(n_atoms) * rate), 80)
    grid = evolve_on_grid(h, psi0, times)
    for t, amplitudes in zip(times, grid):
        projected = projector.conj() @ amplitudes
        closed = transistor_evolution(alpha, beta, n_atoms, rate, t)
        overlap = abs(np.vdot(closed.amplitudes, projected)) ** 2
        assert overlap >= 1.0 - 1e-9


def test_transistor_transfer_time_scales_inverse_sqrt_n():
    t_star = {}
    for n_atoms in (1, 2):
        node, couplings, detunings = _transistor_setup(n_atoms)
        rate = transistor_rate((node,), couplings, detunings)
        h, psi0, projector = transistor_oracle(
            node, (node, node), couplings, detunings, 1.0, 0.0
        )

        def transferred(t):
            amps = propagate(h, psi0, t).amplitudes
            proj = projector.conj() @ amps
            return abs(proj[2]) ** 2 + abs(proj[3]) ** 2

        window = np.pi / (np.sqrt(n_atoms) * rate)
        t_star[n_atoms] = first_maximum_time(transferred, 0.0, window)
        assert t_star[n_atoms] == pytest.approx(
            np.pi / (2 * np.sqrt(n_atoms) * rate), rel=1e-6
        )
    assert t_star[1] / t_star[2] == pytest.approx(np.sqrt(2.0), rel=1e-6)


def test_transistor_control_in_ground_state_is_inert():
    # conditionality of the mechanism: with all control atoms in the ground
    # state the cross-transition exchange annihilates the target state; that
    # state has one quantum, outside the oracle's sector, so the check runs
    # on the full product space
    from cavityqc import collective_excitation_state, transistor_hamiltonian

    node, couplings, detunings = _transistor_setup(2)
    h = transistor_hamiltonian(node, (node, node), couplings, detunings)
    target_low = collective_excitation_state(h.basis, 1, 1)
    assert np.abs(h.matrix @ target_low).max() < 1e-14


def test_transistor_upper_swap_channel_degrades_closed_form():
    node, couplings, detunings = _transistor_setup(2)
    rate = transistor_rate((node,), couplings, detunings)
    h, psi0, projector = transistor_oracle(
        node, (node, node), couplings, detunings, 1.0, 0.0,
        include_target_upper_swap=True,
    )
    t = np.pi / (2 * np.sqrt(2) * rate)
    projected = projector.conj() @ propagate(h, psi0, t).amplitudes
    closed = transistor_evolution(1.0, 0.0, 2, rate, t)
    overlap = abs(np.vdot(closed.amplitudes, projected)) ** 2
    assert overlap < 1.0 - 1e-6


def test_position_phases_do_not_change_transfer_probabilities():
    # the swap algebra is position independent once the collective states
    # absorb their plane-wave phases
    from cavityqc import collective_excitation_state
    from cavityqc.hamiltonian import swap_hamiltonian_microscopic

    n_atoms = 2
    k = (1.3, -0.4, 0.8)
    positions = tuple((0.1 * j, -0.2 * j, 0.05 * j * j) for j in range(n_atoms))
    nodes = (
        NodeSpec(n_atoms, positions=positions),
        NodeSpec(n_atoms, positions=positions),
    )
    micro = build_microscopic_basis(nodes)
    h = swap_hamiltonian_microscopic(nodes, RATE, wave_vector=k, rotating_frame=True)
    psi0 = StateVector(collective_excitation_state(micro, 0, wave_vector=k), micro)
    target = pair_isometry(micro, wave_vector=k)[2]
    for t in np.linspace(0.0, 4.0, 25):
        amps = propagate(h, psi0, t).amplitudes
        p = abs(np.vdot(target, amps)) ** 2
        assert p == pytest.approx(np.sin(n_atoms * RATE * t) ** 2, abs=1e-12)


# --- population peak locator -------------------------------------------------------


@pytest.mark.parametrize("n_atoms", [1, 2, 3])
def test_peak_locator_on_transistor(n_atoms):
    node, couplings, detunings = _transistor_setup(n_atoms)
    rate = transistor_rate((node,), couplings, detunings)
    h, psi0, projector = transistor_oracle(
        node, (node, node), couplings, detunings, 0.6, 0.8j
    )
    rows = projector.conj()[2:]
    window = np.pi / (np.sqrt(n_atoms) * rate)
    t_star = population_peak_time(h, psi0, rows, 0.0, window)

    def transferred(t):
        return float(np.sum(np.abs(rows @ propagate(h, psi0, t).amplitudes) ** 2))

    reference = first_maximum_time(transferred, 0.0, window)
    assert abs(t_star - reference) / reference <= 1e-7
    # the ternary search only resolves the peak to about 1e-8; the locator
    # meets the closed form pi / (2 sqrt(N) W) to round-off
    expected = np.pi / (2.0 * np.sqrt(n_atoms) * rate)
    assert abs(t_star - expected) / expected <= 1e-12

    # f = |R psi|^2 differentiated through d psi/dt = -i H psi, straight from
    # the matrix: independent of the eigen-expansion the locator works on
    psi = propagate(h, psi0, t_star).amplitudes
    h_psi = h.matrix @ psi
    a, da, d2a = rows @ psi, rows @ (-1j * h_psi), rows @ (-(h.matrix @ h_psi))
    slope = 2.0 * np.vdot(a, da).real
    curvature = 2.0 * (np.vdot(da, da) + np.vdot(a, d2a)).real
    w, _ = h.eigensystem()
    assert abs(slope) <= 1e-10 * np.abs(w).max()
    assert curvature < 0.0


@pytest.mark.parametrize("n_atoms", [1, 2, 3])
@pytest.mark.parametrize("start, observed, rate_factor", [(1, 2, 1), (3, 4, 2)])
def test_peak_locator_matches_ternary_search_on_swap(
    n_atoms, start, observed, rate_factor
):
    # criterion 2: single-excitation swap at N W, doubly-excited at 2 N W
    h = _swap_pair(n_atoms)
    psi0 = _basis_state(h, start)
    window = np.pi / (rate_factor * n_atoms * RATE)
    rows = np.eye(h.dim)[[observed]]
    t_star = population_peak_time(h, psi0, rows, 0.0, window)
    probability = lambda t: propagate(h, psi0, t).probability(observed)
    reference = first_maximum_time(probability, 0.0, window)
    assert abs(t_star - reference) / reference <= 1e-7


def _random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HamiltonianMatrix(0.5 * (m + m.conj().T), None)


def _random_state(rng, dim):
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(vec / np.linalg.norm(vec), None)


def test_population_derivatives_match_finite_differences():
    rng = np.random.default_rng(5)
    h = _random_hermitian(rng, 6)
    psi0 = _random_state(rng, 6)
    rows = np.eye(6)[[1, 4]]
    w, v = h.eigensystem()
    amps = (rows @ v) * (v.conj().T @ psi0.amplitudes)

    def population(t):
        return float(np.sum(np.abs(rows @ propagate(h, psi0, t).amplitudes) ** 2))

    step = 1e-5
    for t in (0.0, 0.37, 1.9, 4.2):
        f, slope, curvature = _population_derivatives(amps, w, t)
        assert f == pytest.approx(population(t), abs=1e-13)
        central = (population(t + step) - population(t - step)) / (2.0 * step)
        assert slope == pytest.approx(central, abs=1e-8)
        second = (population(t + step) - 2.0 * f + population(t - step)) / step**2
        assert curvature == pytest.approx(second, abs=1e-4)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    t_low=st.floats(-5.0, 5.0),
    beats=st.floats(0.0, 16.0),
    data=st.data(),
)
def test_peak_locator_beats_a_dense_grid(dim, seed, t_low, beats, data):
    rng = np.random.default_rng(seed)
    h = _random_hermitian(rng, dim)
    psi0 = _random_state(rng, dim)
    picked = data.draw(st.sets(st.integers(0, dim - 1), min_size=1))
    rows = np.eye(dim)[sorted(picked)]
    # the window holds up to 16 periods of the fastest beat
    w, _ = h.eigensystem()
    spread = w.max() - w.min()
    t_high = t_low + (beats * 2.0 * np.pi / spread if spread > 0.0 else beats)

    t_star = population_peak_time(h, psi0, rows, t_low, t_high)
    assert t_low <= t_star <= t_high
    dense = evolve_on_grid(h, psi0, np.linspace(t_low, t_high, 4097)) @ rows.T
    peak = float(np.sum(np.abs(rows @ propagate(h, psi0, t_star).amplitudes) ** 2))
    assert peak >= np.max(np.sum(np.abs(dense) ** 2, axis=1)) - 1e-12


def test_peak_locator_is_bit_identical_on_repeat():
    times = []
    for _ in range(2):
        node, couplings, detunings = _transistor_setup(2)
        h, psi0, projector = transistor_oracle(
            node, (node, node), couplings, detunings, 0.6, 0.8j
        )
        window = np.pi / (np.sqrt(2) * transistor_rate((node,), couplings, detunings))
        rows = projector.conj()[2:]
        for _ in range(2):
            times.append(population_peak_time(h, psi0, rows, 0.0, window))
    assert len(set(times)) == 1


# The locator reads f at the two window ends off its scan, evaluates it at
# each polished peak (one here) and f, f', f'' at each polish step: four
# calls leave the polish three steps. Plain bisection of each scan bracket
# down to round-off takes 44-45 calls on these cases. The transistor's peak
# falls on a scan point, so its polish takes one step: two calls in all.
LOCATOR_CALLS = 4
TRANSISTOR_LOCATOR_CALLS = 2


@pytest.fixture
def derivative_calls(monkeypatch):
    """The times at which the locator evaluates _population_derivatives."""
    from cavityqc import dynamics

    calls = []
    real = dynamics._population_derivatives

    def counting(amps, w, t):
        calls.append(t)
        return real(amps, w, t)

    monkeypatch.setattr(dynamics, "_population_derivatives", counting)
    return calls


def _rabi():
    """Two levels at Rabi frequency RATE: |<1|psi(t)>|^2 peaks at pi / RATE."""
    h = HamiltonianMatrix(np.array([[0.0, 0.5 * RATE], [0.5 * RATE, 0.0]]), None)
    return h, StateVector(np.array([1.0, 0.0], dtype=complex), None), np.eye(2)[[1]]


@pytest.mark.parametrize("n_atoms", [1, 2, 3])
def test_peak_locator_places_the_transistor_peak_in_few_calls(
    n_atoms, derivative_calls
):
    node, couplings, detunings = _transistor_setup(n_atoms)
    rate = transistor_rate((node,), couplings, detunings)
    h, psi0, projector = transistor_oracle(
        node, (node, node), couplings, detunings, 0.6, 0.8j
    )
    window = np.pi / (np.sqrt(n_atoms) * rate)
    t_star = population_peak_time(h, psi0, projector.conj()[2:], 0.0, window)
    assert len(derivative_calls) == TRANSISTOR_LOCATOR_CALLS
    expected = np.pi / (2.0 * np.sqrt(n_atoms) * rate)
    assert abs(t_star - expected) / expected <= 1e-12


@pytest.mark.parametrize(
    "intervals", [128.0, 128.5], ids=["on-a-scan-point", "mid-interval"]
)
def test_peak_locator_places_a_rabi_peak_in_few_calls(intervals, derivative_calls):
    # the peak pi / omega sits `intervals` scan intervals into the window
    h, psi0, rows = _rabi()
    peak = np.pi / RATE
    window = peak * (PEAK_SCAN_POINTS - 1) / intervals
    if intervals == 128.0:
        assert np.linspace(0.0, window, PEAK_SCAN_POINTS)[128] == peak
    t_star = population_peak_time(h, psi0, rows, 0.0, window)
    assert len(derivative_calls) <= LOCATOR_CALLS
    assert abs(t_star - peak) / peak <= 1e-14


# --- effective-versus-microscopic error sweep --------------------------------------


def test_error_sweep_detuning_claim_small_n():
    g = 0.01
    nodes = (NodeSpec(1), NodeSpec(1))
    deltas = [f * np.sqrt(1) * g for f in (10, 30, 100, 300)]
    report = effective_model_error(nodes, CouplingSet(g21=g), deltas)
    infidelity = dict(zip((10, 30, 100, 300), report.max_infidelity))
    assert infidelity[30] < 1e-3
    # envelope decreases along the sweep (10% fringe jitter allowed)
    values = report.max_infidelity
    assert all(b <= 1.1 * a for a, b in zip(values, values[1:]))


def test_error_sweep_scaling_at_huge_detuning():
    g = 0.01
    nodes = (NodeSpec(1), NodeSpec(1))
    report = effective_model_error(nodes, CouplingSet(g21=g), [1e4 * g])
    assert report.max_infidelity[0] < 1e-6


def test_error_sweep_decoupled_limit():
    nodes = (NodeSpec(1), NodeSpec(1))
    report = effective_model_error(nodes, CouplingSet(g21=0.0), [0.3])
    assert report.max_infidelity[0] < 1e-12
    assert report.max_leakage[0] < 1e-12


def test_error_report_values_lie_in_unit_interval():
    g = 0.01
    nodes = (NodeSpec(2), NodeSpec(2))
    deltas = [f * np.sqrt(2) * g for f in (10, 30)]
    report = effective_model_error(nodes, CouplingSet(g21=g), deltas, grid_points=80)
    for value in report.max_infidelity + report.max_leakage:
        assert 0.0 <= value <= 1.0


# --- sector engine against the full product space ------------------------------------


def full_space_model_error(nodes, couplings, deltas, grid_points=200, n_max=2):
    """The error sweep run on the whole product space (atoms x photons)."""
    g = couplings.coupling(0, 0)
    gap = nodes[0].transition_freq
    n1, n2 = (node.atom_count for node in nodes)
    max_inf, max_leak = [], []
    for delta in deltas:
        rate = abs(g) ** 2 / delta
        times = np.linspace(0.0, np.pi / (np.sqrt(n1 * n2) * rate), grid_points)
        h_full = microscopic_hamiltonian(
            nodes, couplings, FockFactor((Mode(gap - delta),), (n_max,))
        )
        vac = h_full.basis.fock_block_indices((0,))
        isometry = pair_isometry(build_microscopic_basis(nodes))
        psi0 = np.zeros(h_full.dim, dtype=complex)
        psi0[vac] = isometry[1]
        full = evolve_on_grid(h_full, StateVector(psi0, h_full.basis), times)
        h_eff = two_level_swap_hamiltonian(nodes, rate)
        eff0 = StateVector(isometry.conj() @ psi0[vac], CollectiveBasis(nodes))
        eff = evolve_on_grid(h_eff, eff0, times)
        projected = full[:, vac] @ isometry.conj().T
        norm_sq = np.sum(np.abs(projected) ** 2, axis=1)
        overlap = np.abs(np.sum(np.conj(eff) * projected, axis=1)) ** 2
        max_inf.append(float(np.clip(1.0 - overlap / norm_sq, 0.0, 1.0).max()))
        max_leak.append(float(np.clip(1.0 - norm_sq, 0.0, 1.0).max()))
    return max_inf, max_leak


@pytest.mark.parametrize("n_atoms", [1, 2])
def test_error_sweep_sector_matches_full_space(n_atoms):
    g = 0.01
    nodes = (NodeSpec(n_atoms), NodeSpec(n_atoms))
    deltas = [f * np.sqrt(n_atoms) * g for f in (10, 30, 100, 300)]
    report = effective_model_error(nodes, CouplingSet(g21=g), deltas)
    infidelity, leakage = full_space_model_error(nodes, CouplingSet(g21=g), deltas)
    assert np.abs(np.subtract(report.max_infidelity, infidelity)).max() <= 1e-12
    assert np.abs(np.subtract(report.max_leakage, leakage)).max() <= 1e-12


def fresh_build_model_error(
    nodes, couplings, deltas, swap_periods=1.0, grid_points=200
):
    """The error sweep with the model built afresh at every detuning.

    Per detuning: a microscopic_hamiltonian on the one-quantum sector with
    the mode at gap - delta, and pair_isometry on its basis.
    """
    g = couplings.coupling(0, 0)
    gap = nodes[0].transition_freq
    n1, n2 = (node.atom_count for node in nodes)
    collective = CollectiveBasis(nodes)
    max_inf, max_leak = [], []
    for delta in deltas:
        swap_rate = abs(g) ** 2 / delta
        period = np.pi / (np.sqrt(n1 * n2) * abs(swap_rate))
        times = np.linspace(0.0, swap_periods * period, grid_points)
        fock = FockFactor((Mode(frequency=gap - delta),), (2,))
        h_full = microscopic_hamiltonian(nodes, couplings, fock, quanta=1)
        h_eff = two_level_swap_hamiltonian(nodes, swap_rate)
        isometry = pair_isometry(h_full.basis)
        psi_full0 = StateVector(isometry[1], h_full.basis)
        psi_eff0 = StateVector(isometry.conj() @ psi_full0.amplitudes, collective)
        full = evolve_on_grid(h_full, psi_full0, times)
        eff = evolve_on_grid(h_eff, psi_eff0, times)
        projected = full @ isometry.conj().T
        proj_norm_sq = np.sum(np.abs(projected) ** 2, axis=1)
        overlap = np.abs(np.sum(np.conj(eff) * projected, axis=1)) ** 2
        infidelity = 1.0 - overlap / proj_norm_sq
        max_inf.append(float(np.clip(infidelity, 0.0, 1.0).max()))
        max_leak.append(float(np.clip(1.0 - proj_norm_sq, 0.0, 1.0).max()))
    return max_inf, max_leak


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
def test_error_sweep_equals_a_fresh_build_per_detuning_bit_for_bit(n_atoms):
    # mode frequencies gap - delta on both sides of zero, both signs of delta
    g = 0.013
    nodes = (NodeSpec(n_atoms), NodeSpec(n_atoms))
    deltas = [f * np.sqrt(n_atoms) * g for f in (9.7, 30, -41.3, 117.0)] + [1.37]
    report = effective_model_error(nodes, CouplingSet(g21=g), deltas, swap_periods=1.3)
    infidelity, leakage = fresh_build_model_error(
        nodes, CouplingSet(g21=g), deltas, swap_periods=1.3
    )
    assert np.array(report.max_infidelity).tobytes() == np.array(infidelity).tobytes()
    assert np.array(report.max_leakage).tobytes() == np.array(leakage).tobytes()


@pytest.mark.parametrize("n_atoms", [1, 2])
@pytest.mark.parametrize("upper_swap", [False, True])
def test_transistor_oracle_sector_matches_full_space(n_atoms, upper_swap):
    node, couplings, detunings = _transistor_setup(n_atoms)
    alpha, beta = 0.6, 0.8j
    h, psi0, projector = transistor_oracle(
        node, (node, node), couplings, detunings, alpha, beta,
        include_target_upper_swap=upper_swap,
    )
    h_full = transistor_hamiltonian(
        node, (node, node), couplings, detunings, include_target_upper_swap=upper_swap
    )
    full = h_full.basis
    rows = np.array(
        [
            product_excitation_state(full, [(0, 1), (2, 1)]),
            product_excitation_state(full, [(0, 1), (1, 1)]),
            product_excitation_state(full, [(2, 2)]),
            product_excitation_state(full, [(1, 2)]),
        ]
    )
    psi_full = StateVector(alpha * rows[0] + beta * rows[1], full)
    rate = transistor_rate((node,), couplings, detunings)
    times = np.linspace(0.0, 2 * np.pi / (np.sqrt(n_atoms) * rate), 40)
    sector_amps = evolve_on_grid(h, psi0, times) @ projector.conj().T
    full_amps = evolve_on_grid(h_full, psi_full, times) @ rows.conj().T
    assert np.abs(sector_amps - full_amps).max() <= 1e-12


def test_error_sweep_reaches_eight_atoms_per_node():
    # full space: 2^16 atomic states x 3 photon levels; the sector has 17
    start = time.perf_counter()
    g = 0.01
    nodes = (NodeSpec(8), NodeSpec(8))
    deltas = [f * np.sqrt(8) * g for f in (10, 30, 100, 300)]
    report = effective_model_error(nodes, CouplingSet(g21=g), deltas)
    values = report.max_infidelity
    assert values[1] < 1e-3  # the 30x point
    assert all(b <= 1.1 * a for a, b in zip(values, values[1:]))
    assert time.perf_counter() - start < 10.0


def test_transistor_reaches_three_atoms_per_node():
    # full space: 3^9 states, a 6.2 GB dense matrix; the sector has 45
    start = time.perf_counter()
    n_atoms = 3
    node, couplings, detunings = _transistor_setup(n_atoms)
    rate = transistor_rate((node,), couplings, detunings)
    alpha, beta = 0.6, 0.8j
    h, psi0, projector = transistor_oracle(
        node, (node, node), couplings, detunings, alpha, beta
    )
    assert h.dim == 45
    times = np.linspace(0.0, 2 * np.pi / (np.sqrt(n_atoms) * rate), 100)
    for t, amplitudes in zip(times, evolve_on_grid(h, psi0, times)):
        projected = projector.conj() @ amplitudes
        closed = transistor_evolution(alpha, beta, n_atoms, rate, t)
        assert abs(np.vdot(closed.amplitudes, projected)) ** 2 >= 1.0 - 1e-9

    def transferred(t):
        proj = projector.conj() @ propagate(h, psi0, t).amplitudes
        return abs(proj[2]) ** 2 + abs(proj[3]) ** 2

    t_star = first_maximum_time(transferred, 0.0, np.pi / (np.sqrt(n_atoms) * rate))
    expected = np.pi / (2 * np.sqrt(n_atoms) * rate)
    assert abs(t_star - expected) / expected <= 1e-6
    assert time.perf_counter() - start < 10.0
