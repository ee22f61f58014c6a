"""Ideal gate layer: transfer, phase, controlled transfer, synthesis, encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityqc import (
    CNOT,
    TOFFOLI,
    NodeSpec,
    StateVector,
    controlled_et,
    controlled_power_matrix,
    decode,
    encode,
    et_gate,
    haar_random_unitary,
    pcet,
    phase_gate,
    propagate,
    synthesize_rotation,
    two_level_swap_hamiltonian,
)
from cavityqc.circuits import equivalence_up_to_global_phase
from cavityqc.errors import DecompositionFailure


def test_et_full_transfer():
    m = et_gate(np.pi)
    # |0>|1> picks up -i and moves to |1>|0>
    out = m @ np.array([1.0, 0.0])
    assert out[0] == pytest.approx(0.0, abs=1e-12)
    assert out[1] == pytest.approx(-1j, abs=1e-12)


def test_et_identity_and_half_transfer():
    assert np.abs(et_gate(0.0) - np.eye(2)).max() == 0.0
    out = et_gate(np.pi / 2) @ np.array([1.0, 0.0])
    assert out[0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert out[1] == pytest.approx(-1j / np.sqrt(2), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-7.0, max_value=7.0),
    st.floats(min_value=-7.0, max_value=7.0),
)
def test_et_one_parameter_group(theta_1, theta_2):
    combined = et_gate(theta_1) @ et_gate(theta_2)
    assert np.abs(combined - et_gate(theta_1 + theta_2)).max() < 1e-12


def test_phase_values():
    m = phase_gate(np.pi / 2)
    assert m[0, 0] == pytest.approx(np.exp(-1j * np.pi / 4))
    assert m[1, 1] == pytest.approx(np.exp(1j * np.pi / 4))
    assert np.abs(phase_gate(0.0) - np.eye(2)).max() == 0.0
    # full turn of the half-angle convention flips the sign only
    assert np.abs(phase_gate(2 * np.pi) + np.eye(2)).max() < 1e-12


def test_phase_and_et_anticommute():
    a = phase_gate(np.pi) @ et_gate(np.pi)
    b = et_gate(np.pi) @ phase_gate(np.pi)
    assert np.abs(a + b).max() < 1e-12


def test_controlled_et_action_on_superposition():
    amps = np.array([0.1, 0.2, 0.3, 0.4], dtype=complex)
    amps /= np.linalg.norm(amps)
    out = controlled_et(np.pi) @ amps
    assert out[0] == pytest.approx(amps[0])
    assert out[1] == pytest.approx(amps[1])
    assert out[2] == pytest.approx(-1j * amps[3])
    assert out[3] == pytest.approx(-1j * amps[2])


def test_controlled_et_trivial_cases():
    assert np.abs(controlled_et(0.0) - np.eye(4)).max() == 0.0
    m = controlled_et(1.234)
    assert np.abs(m[:2, :2] - np.eye(2)).max() == 0.0
    assert np.abs(m[:2, 2:]).max() == 0.0


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_controlled_block_builder_reproduces_the_literal_references():
    # the literal constructions C(ET), CNOT, TOFFOLI and the t-controlled
    # reference each had before they shared one builder
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    toffoli = np.eye(8, dtype=complex)
    toffoli[6:, 6:] = np.array([[0, 1], [1, 0]])
    assert _same_bits(CNOT, cnot)
    assert _same_bits(TOFFOLI, toffoli)
    for theta in (0.0, 0.7, np.pi, -2.5):
        c_et = np.eye(4, dtype=complex)
        c_et[2:, 2:] = et_gate(theta)
        assert _same_bits(controlled_et(theta), c_et)
    rng = np.random.default_rng(3)
    for t in (1, 2, 3, 6):
        u = haar_random_unitary(rng)
        dim = 2 ** (t + 1)
        reference = np.eye(dim, dtype=complex)
        reference[dim - 2 :, dim - 2 :] = np.asarray(u, dtype=complex)
        assert _same_bits(controlled_power_matrix(t, u), reference)


def test_controlled_block_must_be_a_2x2_unitary():
    # before the check: a block of 2s, a numpy broadcast error, a
    # non-unitary block, and (from controlled_et) a NaN block
    for u in (2.0, np.eye(3), 2.0 * np.eye(2), np.eye(2) + 1e-7):
        with pytest.raises(ValueError):
            controlled_power_matrix(1, u)
    with pytest.raises(ValueError):
        controlled_et(np.nan)


def test_pcet_equals_cnot_up_to_global_phase():
    res = equivalence_up_to_global_phase(pcet(), CNOT, tol=1e-12)
    assert res.equal
    # the extracted phase is the matrix element on the |00> input
    assert res.phase == pytest.approx(pcet()[0, 0])
    assert res.phase == pytest.approx(np.exp(-1j * np.pi / 4))


def test_pcet_involution_up_to_global_phase():
    square = pcet() @ pcet()
    res = equivalence_up_to_global_phase(square, np.eye(4), tol=1e-12)
    assert res.equal


def test_gate_layer_matches_swap_dynamics():
    # ET(theta) equals propagation for time theta / (2 N rate) up to the
    # single-excitation sector phase
    rate = 0.7
    for n_atoms in (1, 2, 3):
        nodes = (NodeSpec(n_atoms), NodeSpec(n_atoms))
        h = two_level_swap_hamiltonian(nodes, rate, rotating_frame=True)
        for theta in (0.4, np.pi / 2, np.pi, 4.0):
            t = theta / (2 * rate * n_atoms)
            # logical |1_L> is the excitation on node 1 (pair label "10")
            psi0 = StateVector(np.eye(6)[1], h.basis)
            out = propagate(h, psi0, t)
            logical = np.array([out.amplitudes[2], out.amplitudes[1]])
            expected = et_gate(theta) @ np.array([0.0, 1.0])
            res = equivalence_up_to_global_phase(
                logical.reshape(2, 1), expected.reshape(2, 1), tol=1e-9
            )
            assert res.equal
            # the sector phase is e^(-i N rate t)
            assert res.phase == pytest.approx(np.exp(-1j * n_atoms * rate * t))


def test_blockade_mechanism_reproduces_controlled_transfer_branches():
    # the photon-number mechanism behind the controlled transfer: with the
    # cavity empty the transfer proceeds as the ideal full-transfer unitary;
    # one real photon with strongly unequal level shifts freezes it, leaving
    # only the differential phase that the encoded protocol absorbs
    from cavityqc import CouplingSet, DetuningSet, lamb_shift_hamiltonian

    g1, g2, delta = 2e-5, 0.02, 0.4
    shift_1, shift_2 = g1**2 / delta, g2**2 / delta
    swap = g1 * g2 / delta
    # (shift_2 - shift_1)^2 ~ 1e6 swap^2 here, the strong-imbalance regime
    assert (shift_2 - shift_1) ** 2 > 0.9e6 * swap**2
    freq_1 = 1.0
    freq_2 = freq_1 - (shift_2 - shift_1)  # zero-photon transfer resonance
    nodes = (
        NodeSpec(1, 2, (-freq_1 / 2, freq_1 / 2)),
        NodeSpec(1, 2, (-freq_2 / 2, freq_2 / 2)),
    )
    couplings = CouplingSet(g21=(g1, g2))
    detunings = DetuningSet(lower=(delta, delta))
    t_star = np.pi / (2.0 * swap)

    def logical_action(n_photons):
        h = lamb_shift_hamiltonian(nodes, couplings, detunings, n_photons)
        action = np.zeros((2, 2), dtype=complex)
        for col, label in enumerate(("01", "10")):  # |0_L>, |1_L>
            start = np.zeros(6, dtype=complex)
            start[h.basis.index(label)] = 1.0
            out = propagate(h, StateVector(start, h.basis), t_star)
            action[0, col] = out.amplitudes[h.basis.index("01")]
            action[1, col] = out.amplitudes[h.basis.index("10")]
        return action

    transfer = logical_action(0)
    res = equivalence_up_to_global_phase(transfer, et_gate(np.pi), tol=1e-9)
    assert res.equal

    blocked = logical_action(1)
    assert abs(blocked[0, 1]) < 2e-3 and abs(blocked[1, 0]) < 2e-3
    assert abs(blocked[0, 0]) > 1.0 - 1e-5 and abs(blocked[1, 1]) > 1.0 - 1e-5


# --- rotation synthesis -------------------------------------------------------


def test_synthesize_pure_transfer_rotation():
    theta = 1.1
    synthesis = synthesize_rotation(et_gate(theta))
    a, b, c = synthesis.angles
    assert a == 0.0 and c == 0.0
    assert b == pytest.approx(theta, abs=1e-12)
    assert synthesis.ops == (("ET", pytest.approx(theta)),)


def test_synthesize_hadamard():
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    # the symmetric triple is itself a valid decomposition
    triple = phase_gate(np.pi / 2) @ et_gate(np.pi / 2) @ phase_gate(np.pi / 2)
    res = equivalence_up_to_global_phase(triple, hadamard, tol=1e-12)
    assert res.equal
    synthesis = synthesize_rotation(hadamard)
    recomposed = synthesis.global_phase * synthesis.matrix()
    assert np.abs(recomposed - hadamard).max() < 1e-10


def test_synthesize_identity_is_empty():
    synthesis = synthesize_rotation(np.eye(2))
    assert synthesis.ops == ()
    assert synthesis.angles == (0.0, 0.0, 0.0)


def test_synthesize_random_unitaries():
    rng = np.random.default_rng(11)
    for _ in range(25):
        u = haar_random_unitary(rng)
        synthesis = synthesize_rotation(u)
        assert np.abs(u - synthesis.global_phase * synthesis.matrix()).max() < 1e-10


def test_synthesize_rejects_non_unitary():
    with pytest.raises(DecompositionFailure):
        synthesize_rotation(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_synthesize_rejects_nan():
    # a NaN deviation fails the unitarity check instead of passing it
    with pytest.raises(DecompositionFailure, match="not unitary"):
        synthesize_rotation(np.full((2, 2), np.nan))


# --- encoding -------------------------------------------------------------------


def test_encode_bitstring():
    assert encode("10") == (1, 0, 0, 1)
    assert encode("0") == (0, 1)
    assert encode([1, 1]) == (1, 0, 1, 0)


def test_decode_round_trip():
    for bits in ("00", "01", "10", "11"):
        vec, leakage = decode({encode(bits): 1.0}, 2)
        assert leakage == 0.0
        assert vec[int(bits, 2)] == pytest.approx(1.0)


def test_decode_reports_leakage_outside_encoding():
    vec, leakage = decode({(1, 1): 1.0}, 1)
    assert leakage == pytest.approx(1.0)
    assert np.abs(vec).max() == 0.0
