"""Register simulation and the encoded circuit constructions."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavityqc import (
    CNOT,
    TOFFOLI,
    Circuit,
    CircuitBundle,
    LogicalRegister,
    Operation,
    and_gate,
    apply,
    circuit_from_text,
    circuit_to_text,
    controlled_power_improved,
    controlled_power_matrix,
    controlled_power_standard,
    encoded_toffoli,
    equivalence_up_to_global_phase,
    gate_counts,
    haar_random_unitary,
    logical_matrix,
    standard_toffoli_upto_phase,
)
from cavityqc.circuits import _DROP, KINDS
from cavityqc.errors import (
    AddressError,
    AncillaNotGround,
    DimensionMismatch,
    LeakageError,
    ParseError,
)
from cavityqc.gates import decode, encode, et_gate, phase_gate


def test_empty_circuit_is_identity():
    register = LogicalRegister.from_bits("01")
    out = apply(register, Circuit(()))
    assert out.amplitudes == register.amplitudes


def test_single_full_transfer_flips_with_phase():
    circuit = Circuit((Operation(kind="ET", params=(np.pi,), targets=("q0",)),))
    out = apply(LogicalRegister.from_bits("0"), circuit)
    vec, leakage = out.logical_state()
    assert leakage < 1e-12
    assert vec[1] == pytest.approx(-1j, abs=1e-12)


def _one_op_matrix(kind, angle):
    op = Operation(kind=kind, params=(angle,), targets=("q0",))
    return logical_matrix(CircuitBundle(Circuit((op,)), 1))[0]


# angles whose cos(a/2) and sin(a/2), the real and imaginary parts of the
# ET and PHASE entries, all lie above the engine's snap threshold
_UNSNAPPED_ANGLES = st.floats(min_value=-4 * np.pi, max_value=4 * np.pi).filter(
    lambda a: min(abs(np.cos(a / 2)), abs(np.sin(a / 2))) > _DROP
)


@settings(max_examples=60, deadline=None)
@given(theta=_UNSNAPPED_ANGLES, chi=_UNSNAPPED_ANGLES)
def test_one_operation_circuits_take_their_2x2_from_gates(theta, chi):
    # nothing is snapped, so the engine must reproduce the ideal matrices
    # bit for bit
    assert _one_op_matrix("ET", theta).tobytes() == et_gate(theta).tobytes()
    assert _one_op_matrix("PHASE", chi).tobytes() == phase_gate(chi).tobytes()


def test_a_small_transfer_keeps_its_off_diagonal():
    # -i sin(5e-8) is far above round-off: the engine's snap of vanishing
    # coefficients must leave it in place
    assert np.abs(_one_op_matrix("ET", 1e-7) - et_gate(1e-7)).max() <= 1e-15


def test_pcet_applied_twice_is_identity():
    op = Operation(kind="PCET", controls=("q0",), targets=("q1.a", "q1.b"))
    circuit = Circuit((op, op))
    matrix, _ = logical_matrix(CircuitBundle(circuit, 2))
    res = equivalence_up_to_global_phase(matrix, np.eye(4), tol=1e-10)
    assert res.equal


def test_pcet_implements_cnot_on_register():
    op = Operation(kind="PCET", controls=("q0",), targets=("q1.a", "q1.b"))
    matrix, _ = logical_matrix(CircuitBundle(Circuit((op,)), 2))
    res = equivalence_up_to_global_phase(matrix, CNOT, tol=1e-12)
    assert res.equal
    assert res.phase == pytest.approx(np.exp(-1j * np.pi / 4))


def test_address_errors():
    register = LogicalRegister(1, 1)
    with pytest.raises(AddressError):
        register.resolve("q5.a")
    with pytest.raises(AddressError):
        register.resolve("anc3")
    with pytest.raises(AddressError):
        register.resolve("junk")
    with pytest.raises(AddressError):
        Operation(kind="ET", params=(1.0,), targets=("q0.a",))


# --- AND via phased controlled transfer ------------------------------------------


def test_and_gate_branch_structure():
    # all four logical branches, amplitudes tracked exactly: magnitudes
    # follow the controlled-swap picture, the AND-true branch carries the
    # full-transfer -i and the control pair its differential +-pi/4 phases
    amplitudes = np.array([0.1, 0.2, 0.3, 0.4], dtype=complex)
    amplitudes /= np.linalg.norm(amplitudes)
    register = LogicalRegister(2, 1)
    state = {}
    for value, bits in zip(amplitudes, ("00", "01", "10", "11")):
        occ = tuple(v for b in bits for v in ((1, 0) if b == "1" else (0, 1)))
        state[occ + (0,)] = value
    register.amplitudes = state

    out = apply(register, and_gate(0, 1, 0))
    expected = {
        # control off: phase e^(-i pi/4), state unchanged
        (0, 1, 0, 1, 0): amplitudes[0] * np.exp(-1j * np.pi / 4),
        (0, 1, 1, 0, 0): amplitudes[1] * np.exp(-1j * np.pi / 4),
        # control on, input 0: transfer acts on empty pair, phase e^(+i pi/4)
        (1, 0, 0, 1, 0): amplitudes[2] * np.exp(1j * np.pi / 4),
        # control on, input 1: excitation moves to the ancilla with -i
        (1, 0, 0, 0, 1): amplitudes[3] * np.exp(1j * np.pi / 4) * (-1j),
    }
    assert set(out.amplitudes) == set(expected)
    for occ, amp in expected.items():
        assert out.amplitudes[occ] == pytest.approx(amp, abs=1e-12)


def test_and_gate_control_off_leaves_state():
    register = LogicalRegister.from_bits("01", n_ancillas=1)
    out = apply(register, and_gate(0, 1, 0))
    assert out.ancilla_excited_population() == 0.0
    vec, leakage = out.logical_state()
    assert leakage < 1e-12
    assert abs(vec[int("01", 2)]) == pytest.approx(1.0, abs=1e-12)


def test_and_gate_true_branch_sets_ancilla():
    register = LogicalRegister.from_bits("11", n_ancillas=1)
    out = apply(register, and_gate(0, 1, 0))
    assert out.ancilla_excited_population() == pytest.approx(1.0, abs=1e-12)
    # the input pair was drained into the ancilla: second pair reads (0, 0)
    (occ,) = [o for o, a in out.amplitudes.items() if abs(a) > 1e-12]
    assert occ == (1, 0, 0, 0, 1)


def test_and_gate_uncompute_restores_phases():
    circuit = and_gate(0, 1, 0) + and_gate(0, 1, 0).dagger()
    matrix, report = logical_matrix(CircuitBundle(circuit, 2, 1))
    assert report.max_ancilla_residual < 1e-12
    assert np.abs(matrix - np.eye(4)).max() < 1e-12


# --- encoded doubly-controlled flip -----------------------------------------------


def test_encoded_toffoli_truth_table():
    circuit = encoded_toffoli(0, 1, 2, 0)
    for bits, expected in (("110", "111"), ("100", "100"), ("011", "011")):
        register = LogicalRegister.from_bits(bits, n_ancillas=1)
        out = apply(register, circuit)
        vec, leakage = out.logical_state()
        assert leakage < 1e-10
        assert abs(vec[int(expected, 2)]) == pytest.approx(1.0, abs=1e-10)


def test_encoded_toffoli_matrix_and_ancilla_return():
    circuit = encoded_toffoli(0, 1, 2, 0)
    matrix, report = logical_matrix(CircuitBundle(circuit, 3, 1))
    res = equivalence_up_to_global_phase(matrix, TOFFOLI, tol=1e-10)
    assert res.equal
    assert report.max_ancilla_residual <= 1e-10
    assert report.max_leakage <= 1e-10


def test_encoded_toffoli_counts_three_phased_transfers():
    counts = gate_counts(encoded_toffoli(0, 1, 2, 0))
    assert counts["PCET"] == 3
    assert counts["TOFFOLI"] == 1


def test_ancilla_not_ground_detected():
    # a bare AND leaves the ancilla entangled: assembly must flag it
    with pytest.raises(AncillaNotGround):
        logical_matrix(CircuitBundle(and_gate(0, 1, 0), 2, 1))


@pytest.mark.parametrize("weight, refused", [(2e-10, True), (5e-11, False)])
def test_ancilla_weight_is_refused_past_one_part_in_ten_billion(weight, refused):
    # ET(theta) moves sin^2(theta/2) of q0.a's excitation onto the ancilla;
    # the documented bound (ANCILLA_TOL) is 1e-10
    theta = 2.0 * np.arcsin(np.sqrt(weight))
    leak = Circuit((Operation(kind="ET", params=(theta,), targets=("q0.a", "anc0")),))
    bundle = CircuitBundle(leak, 1, 1)
    if refused:
        with pytest.raises(AncillaNotGround, match="ancilla weight"):
            logical_matrix(bundle)
    else:
        _, report = logical_matrix(bundle)
        assert report.max_ancilla_residual == pytest.approx(weight, rel=1e-6)


def test_scratch_pair_not_ground_detected():
    # a full transfer leaves the scratch pair q1 in |1_L>, outside |0_L>
    flip = Circuit((Operation(kind="ET", params=(np.pi,), targets=("q1",)),))
    bundle = CircuitBundle(flip, 2, external_qubits=(0,), scratch_qubits=(1,))
    with pytest.raises(AncillaNotGround, match="scratch-qubit weight"):
        logical_matrix(bundle)


def test_pair_leakage_detected():
    # transferring between halves of different pairs drives |00>/|11>
    # pair patterns, which lie outside the encoding
    bad = Circuit((Operation(kind="ET", params=(np.pi,), targets=("q0.a", "q1.a")),))
    with pytest.raises(LeakageError):
        logical_matrix(CircuitBundle(bad, 2))


NON_UNITARY = (2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 0.0)  # 2 x identity


def _controlled_u(params):
    return Operation(
        kind="CONTROLLED_U", params=params, controls=("q0.a",), targets=("q1",)
    )


def test_non_unitary_controlled_u_payload_is_refused():
    with pytest.raises(ValueError, match="not unitary"):
        _controlled_u(NON_UNITARY)
    # a unitary payload, a payload off by more than the leakage tolerance
    _controlled_u((0.6, 0.0, -0.8, 0.0, 0.8, 0.0, 0.6, 0.0))
    with pytest.raises(ValueError, match="not unitary"):
        _controlled_u((0.6, 0.0, -0.8, 0.0, 0.8, 0.0, 0.6 + 1e-7, 0.0))
    text = "ET(1.0) -> q0.a q0.b\nCONTROLLED_U(2,0, 0,0, 0,0, 2,0) q0.a -> q1\n"
    with pytest.raises(ParseError, match="line 2: CONTROLLED_U payload is not unitary"):
        circuit_from_text(text)


def test_norm_excess_fails_logical_matrix():
    # decode keeps the excess as negative leakage instead of clipping it
    vec, leakage = decode({encode("1"): 2.0}, 1)
    assert leakage == -3.0
    # a payload that slipped past the check doubles the norm of the columns
    # whose control is set; assembly must not report them as leakage-free
    op = _controlled_u((1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0))
    object.__setattr__(op, "params", NON_UNITARY)
    with pytest.raises(LeakageError, match="leakage -3"):
        logical_matrix(CircuitBundle(Circuit((op,)), 2))


# --- relative-phase construction ---------------------------------------------------


def test_toffoli_up_to_phase_magnitudes():
    circuit = standard_toffoli_upto_phase()
    matrix, _ = logical_matrix(CircuitBundle(circuit, 3))
    assert np.abs(np.abs(matrix) - np.abs(TOFFOLI)).max() <= 1e-10


def test_toffoli_up_to_phase_flips_target():
    circuit = standard_toffoli_upto_phase()
    register = LogicalRegister.from_bits("110")
    out = apply(register, circuit)
    vec, leakage = out.logical_state()
    assert leakage < 1e-10
    assert abs(vec[int("111", 2)]) == pytest.approx(1.0, abs=1e-10)


def test_toffoli_up_to_phase_controls_off_is_phase_only():
    circuit = standard_toffoli_upto_phase()
    for bits in ("000", "001"):
        out = apply(LogicalRegister.from_bits(bits), circuit)
        vec, _ = out.logical_state()
        assert abs(vec[int(bits, 2)]) == pytest.approx(1.0, abs=1e-10)


# --- multi-controlled unitary ------------------------------------------------------


@pytest.mark.parametrize("t", [2, 3, 4])
def test_controlled_power_constructions_match_reference(t):
    rng = np.random.default_rng(1000 + t)
    for _ in range(3):
        u = haar_random_unitary(rng)
        reference = controlled_power_matrix(t, u)
        for builder in (controlled_power_standard, controlled_power_improved):
            bundle = builder(t, u)
            matrix, report = logical_matrix(bundle)
            res = equivalence_up_to_global_phase(matrix, reference, tol=1e-9)
            assert res.equal, f"{builder.__name__} deviates by {res.max_deviation}"
            assert report.max_ancilla_residual <= 1e-10


def test_controlled_power_constructions_agree_with_each_other():
    rng = np.random.default_rng(5)
    u = haar_random_unitary(rng)
    m_std, _ = logical_matrix(controlled_power_standard(2, u))
    m_imp, _ = logical_matrix(controlled_power_improved(2, u))
    res = equivalence_up_to_global_phase(m_std, m_imp, tol=1e-9)
    assert res.equal


def test_controlled_power_identity_payload():
    bundle = controlled_power_improved(3, np.eye(2))
    matrix, _ = logical_matrix(bundle)
    res = equivalence_up_to_global_phase(matrix, np.eye(16), tol=1e-10)
    assert res.equal


def test_quadruply_controlled_not():
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    reference = controlled_power_matrix(4, flip)
    matrix, _ = logical_matrix(controlled_power_improved(4, flip))
    res = equivalence_up_to_global_phase(matrix, reference, tol=1e-9)
    assert res.equal


@pytest.mark.parametrize("t", [2, 3, 4])
def test_controlled_power_gate_counts(t):
    u = haar_random_unitary(np.random.default_rng(2))
    standard = controlled_power_standard(t, u)
    counts = gate_counts(standard.circuit)
    assert counts["TOFFOLI"] == 2 * (t - 1)
    assert counts["PCET"] == 6 * (t - 1)
    assert counts["CONTROLLED_U"] == 1
    assert standard.n_ancillas == 1
    assert len(standard.scratch_qubits) == t - 1

    improved = controlled_power_improved(t, u)
    counts = gate_counts(improved.circuit)
    assert counts["PCET"] == 2 * (t - 1)
    assert counts["CONTROLLED_U"] == 1
    assert improved.n_ancillas == t - 1
    assert improved.scratch_qubits == ()


# --- equivalence helper --------------------------------------------------------------


def test_equivalence_detects_phase_multiples():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    res = equivalence_up_to_global_phase(-1j * x, x)
    assert res.equal
    assert res.phase == pytest.approx(-1j)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=-np.pi, max_value=np.pi),
)
def test_equivalence_recognizes_any_phase_multiple(seed, angle):
    u = haar_random_unitary(np.random.default_rng(seed), dim=4)
    res = equivalence_up_to_global_phase(np.exp(1j * angle) * u, u, tol=1e-10)
    assert res.equal
    assert res.phase == pytest.approx(np.exp(1j * angle), abs=1e-10)


def test_equivalence_rejects_different_operators():
    res = equivalence_up_to_global_phase(np.eye(2, dtype=complex),
                                         np.array([[0, 1], [1, 0]], dtype=complex))
    assert not res.equal


@pytest.mark.parametrize("factor, equal", [(2.0, False), (0.5, True)])
def test_equivalence_holds_deviations_to_tol(factor, equal):
    # one entry off the phase multiple by factor x tol, the pivot exact
    tol = 1e-10
    a = np.eye(2, dtype=complex)
    a[1, 0] = factor * tol
    res = equivalence_up_to_global_phase(a, np.eye(2, dtype=complex), tol=tol)
    assert res.max_deviation == factor * tol
    assert res.equal is equal


def test_equivalence_against_an_all_zero_reference_fails():
    res = equivalence_up_to_global_phase(np.eye(2), np.zeros((2, 2)))
    assert not res.equal
    assert res.phase == 1.0
    assert res.max_deviation == 1.0


def test_equivalence_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        equivalence_up_to_global_phase(np.eye(2), np.eye(4))


# --- node-level controlled swap -------------------------------------------------------


def test_node_cswap_is_exact_swap():
    op = Operation(kind="NODE_CSWAP", controls=("q0.a",), targets=("q1.a", "anc0"))
    register = LogicalRegister.from_bits("11", n_ancillas=1)
    out = apply(register, Circuit((op,)))
    (occ,) = [o for o, a in out.amplitudes.items() if abs(a) > 1e-12]
    assert occ == (1, 0, 0, 0, 1)
    amp = out.amplitudes[occ]
    assert amp == pytest.approx(1.0, abs=1e-12)  # no transfer phase


# --- text round trip -------------------------------------------------------------------


def test_circuit_text_round_trip():
    u = haar_random_unitary(np.random.default_rng(3))
    bundle = controlled_power_improved(3, u)
    text = circuit_to_text(bundle.circuit)
    parsed = circuit_from_text(text)
    assert len(parsed) == len(bundle.circuit)
    for a, b in zip(parsed, bundle.circuit):
        assert a.kind == b.kind
        assert a.dagger == b.dagger
        assert a.controls == b.controls
        assert a.targets == b.targets
        assert np.allclose(a.params, b.params, atol=1e-11)
    matrix_a, _ = logical_matrix(replace(bundle, circuit=parsed))
    matrix_b, _ = logical_matrix(bundle)
    assert np.abs(matrix_a - matrix_b).max() < 1e-9


@st.composite
def random_circuits(draw):
    """A valid random circuit with its register: 2-3 qubits, 0-2 ancillas."""
    n_qubits = draw(st.integers(min_value=2, max_value=3))
    n_ancillas = draw(st.integers(min_value=0, max_value=2))
    # every address with the nodes it names
    nodes = {f"q{q}": {f"q{q}.a", f"q{q}.b"} for q in range(n_qubits)}
    for q in range(n_qubits):
        nodes.update({f"q{q}.{half}": {f"q{q}.{half}"} for half in "ab"})
    nodes.update({f"anc{j}": {f"anc{j}"} for j in range(n_ancillas)})
    singles = sorted(a for a, n in nodes.items() if len(n) == 1)
    angle = st.floats(min_value=-2 * np.pi, max_value=2 * np.pi)
    ops = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(sorted(KINDS)))
        if kind == "PHASE" and draw(st.booleans()):
            targets = (draw(st.sampled_from(singles)),)
        elif draw(st.booleans()):
            targets = (draw(st.sampled_from([f"q{q}" for q in range(n_qubits)])),)
        else:
            pair = draw(st.lists(st.sampled_from(singles), min_size=2, max_size=2,
                                 unique=True))
            targets = tuple(pair)
        used = set().union(*(nodes[a] for a in targets))
        controls = ()
        if kind not in ("ET", "PHASE"):
            free = sorted(a for a, n in nodes.items() if not n & used)
            controls = (draw(st.sampled_from(free)),)
        if kind == "CONTROLLED_U":
            seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
            u = haar_random_unitary(np.random.default_rng(seed))
            params = tuple(v for z in u.reshape(-1) for v in (z.real, z.imag))
        elif kind in ("PCET", "NODE_CSWAP"):
            params = ()
        elif kind == "CET":
            params = tuple(draw(st.lists(angle, max_size=1)))
        else:
            params = (draw(angle),)
        ops.append(Operation(kind=kind, params=tuple(map(float, params)),
                             controls=controls, targets=targets,
                             dagger=draw(st.booleans())))
    return CircuitBundle(Circuit(tuple(ops)), n_qubits, n_ancillas)


@settings(max_examples=60, deadline=None)
@given(random_circuits())
# twelve significant digits would read 0.1 + 0.2 back as 0.3
@example(CircuitBundle(Circuit((Operation("ET", (0.1 + 0.2,), targets=("q0",)),)), 1))
def test_text_form_round_trips_exactly(bundle):
    text = circuit_to_text(bundle.circuit)
    assert circuit_from_text(text) == bundle.circuit


@settings(max_examples=40, deadline=None)
@given(random_circuits())
def test_circuit_then_its_inverse_is_the_identity(bundle):
    both = replace(bundle, circuit=bundle.circuit + bundle.circuit.dagger())
    matrix, report = logical_matrix(both)
    assert np.abs(matrix - np.eye(2**bundle.n_qubits)).max() <= 1e-12
    assert report.max_leakage <= 1e-12
    assert report.max_ancilla_residual <= 1e-12


@pytest.mark.parametrize(
    "line",
    [
        "ET() -> q0",  # ET takes one angle
        "PHASE(1.0, 2.0) -> q0",
        "PCET(0.3) q0 -> q1",  # PCET takes none
        "CONTROLLED_U(1,0, 0,0, 0,0, 1) q0 -> q1",  # seven of eight
        "ET(nan) -> q0",
        "PHASE(inf) -> q0.a",
        "PCET() -> q0.a q0.b",  # no control
        "ET(1.0) q0 -> q1",  # a control on an uncontrolled kind
        "NODE_CSWAP() q0.a q1.a -> q2",  # two controls
        "ET(1.0) -> q0.a",  # one target node
        "PHASE(1.0) -> q0 q1",  # four target nodes
        "CET(1.0) q0 -> q1.a q1.a",  # a node twice
        "PCET() q0 -> q0.a q0.b",  # control and targets share a node
        "CET(1.0) q0.a -> q0.a q0.b",
        "ET(1.0) -> q0.c anc0",  # malformed address
    ],
)
def test_operation_shape_is_checked_when_built(line):
    with pytest.raises(ParseError, match="^line 2: "):
        circuit_from_text("ET(1.0) -> q0\n" + line + "\n")


def test_circuit_text_parse_errors():
    with pytest.raises(ParseError):
        circuit_from_text("WAT() -> q0")
    with pytest.raises(ParseError):
        circuit_from_text("ET(not-a-number) -> q0.a q0.b")
    with pytest.raises(ParseError):
        circuit_from_text("ET(1.0) q0.a q0.b")  # missing arrow


def test_circuit_text_skips_comments_and_blanks():
    text = "# header\n\nET(3.14159) -> q0.a q0.b\n"
    parsed = circuit_from_text(text)
    assert len(parsed) == 1
    assert parsed.ops[0].kind == "ET"
