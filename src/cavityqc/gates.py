"""Ideal gate unitaries on the pairwise-encoded logical subspace.

A logical qubit is a node pair holding exactly one excitation:
|0_L> = |0>|1> and |1_L> = |1>|0>. Partial excitation transfer rotates the
logical qubit about x, a differential frequency shift rotates it about z,
and transfer conditioned on a control qubit gives the entangling gate.
Matrices here are the ideal references that the physical-mechanism
simulations must reproduce on the logical subspace. Each is a plain complex
array whose formula is written once: the circuit engine takes its 2x2
actions from ``et_gate`` and ``phase_gate``, and every "identity except the
last 2x2 block" matrix (C(ET), CNOT, TOFFOLI, the t-controlled references)
comes from ``controlled_power_matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DecompositionFailure


# Largest max |U^dag U - 1| accepted for a 2x2 unitary: a CONTROLLED_U
# payload, a controlled block or a rotation target.
UNITARITY_TOL = 1e-8


def require_unitary(u, error: type[Exception], message: str) -> np.ndarray:
    """``u`` as a complex array; raises ``error(message)`` unless a 2x2 unitary.

    Unitary means max |U^dag U - 1| within UNITARITY_TOL; ``message`` may
    name ``{u}`` and ``{dev}``, that maximum (inf for another shape).
    """
    u = np.asarray(u, dtype=complex)
    dev = np.abs(u.conj().T @ u - np.eye(2)).max() if u.shape == (2, 2) else np.inf
    # written so that a NaN deviation fails too
    if not dev <= UNITARITY_TOL:
        raise error(message.format(u=u, dev=float(dev)))
    return u


def et_gate(theta: float) -> np.ndarray:
    """Partial excitation transfer on span{|0>|1>, |1>|0>}.

    [[cos(t/2), -i sin(t/2)], [-i sin(t/2), cos(t/2)]]; acts on the logical
    qubit as the Bloch rotation R_x(theta). A full transfer (theta = pi)
    swaps the pair states up to the overall factor -i.
    """
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]])


def phase_gate(chi: float) -> np.ndarray:
    """Differential pair phase diag(e^(-i chi/2), e^(i chi/2)): logical R_z."""
    return np.diag([np.exp(-1j * chi / 2.0), np.exp(1j * chi / 2.0)])


def controlled_power_matrix(t: int, u) -> np.ndarray:
    """Apply the 2x2 ``u`` to the last qubit iff all t leading controls are set.

    The identity on 2^(t+1) states except for its last 2x2 block, which is
    ``u`` (Barenco et al., PRA 52 (1995) 3457). Raises ValueError unless
    ``u`` passes ``require_unitary``.
    """
    message = "controlled block must be a 2x2 unitary, got {u!r}"
    u = require_unitary(u, ValueError, message)
    dim = 2 ** (t + 1)
    m = np.eye(dim, dtype=complex)
    m[dim - 2 :, dim - 2 :] = u
    return m


def controlled_et(theta: float) -> np.ndarray:
    """Excitation transfer on the target pair, gated by the control qubit.

    Identity when the control is |0_L>, et_gate(theta) on the target when
    the control is |1_L>. Physical realizations (photon-number blockade or
    the transistor coupling) must match this matrix on the logical
    subspace.
    """
    return controlled_power_matrix(1, et_gate(theta))


def pcet() -> np.ndarray:
    """Phased controlled transfer: (PHASE(pi/2) x I) . C(ET(pi)).

    Equals the logical CNOT times the global phase e^(-i pi/4).
    """
    return np.kron(phase_gate(np.pi / 2.0), np.eye(2)) @ controlled_et(np.pi)


_X = np.array([[0, 1], [1, 0]], dtype=complex)
CNOT = controlled_power_matrix(1, _X)
TOFFOLI = controlled_power_matrix(2, _X)


def haar_random_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Haar-distributed unitary from a seeded generator (deterministic)."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# Rotation synthesis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RotationSynthesis:
    """z-x-z Euler synthesis of a single-qubit unitary.

    ``angles`` = (a, b, c) with target ~ Rz(a) Rx(b) Rz(c) up to the global
    phase; ``ops`` lists the gates in application order (first gate first),
    zero-angle entries dropped.
    """

    angles: tuple[float, float, float]
    ops: tuple[tuple[str, float], ...]
    global_phase: complex

    def matrix(self) -> np.ndarray:
        a, b, c = self.angles
        return phase_gate(a) @ et_gate(b) @ phase_gate(c)


def _wrap_angle(x: float) -> float:
    wrapped = float(np.mod(x + np.pi, 2.0 * np.pi) - np.pi)
    return 0.0 if abs(wrapped) < 1e-12 else wrapped


def synthesize_rotation(target, tol: float = 1e-10) -> RotationSynthesis:
    """Decompose a single-qubit unitary into transfer and phase rotations.

    Any U with unit-modulus determinant factors (up to global phase) as
    Rz(a) Rx(b) Rz(c); the equivalent gate sequence is PHASE(c), ET(b),
    PHASE(a) applied in that order. Raises DecompositionFailure for
    non-unitary input, NaN entries included; the recomposition is checked
    against the target to ``tol``.
    """
    if np.shape(target) != (2, 2):
        raise DecompositionFailure("expected a 2x2 matrix")
    u = require_unitary(target, DecompositionFailure, "input matrix is not unitary")

    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    su = u / np.sqrt(det)

    # z-y-z angles of the special-unitary part
    beta = 2.0 * np.arctan2(abs(su[1, 0]), abs(su[0, 0]))
    if abs(su[1, 0]) < 1e-12:
        alpha_plus_gamma = 2.0 * np.angle(su[1, 1])
        alpha_minus_gamma = 0.0
    elif abs(su[0, 0]) < 1e-12:
        alpha_plus_gamma = 0.0
        alpha_minus_gamma = 2.0 * np.angle(su[1, 0])
    else:
        alpha_plus_gamma = 2.0 * np.angle(su[1, 1])
        alpha_minus_gamma = 2.0 * np.angle(su[1, 0])
    alpha = 0.5 * (alpha_plus_gamma + alpha_minus_gamma)
    gamma = 0.5 * (alpha_plus_gamma - alpha_minus_gamma)

    # rotate the middle axis from y to x
    a = _wrap_angle(alpha + np.pi / 2.0)
    b = _wrap_angle(beta)
    c = _wrap_angle(gamma - np.pi / 2.0)
    # degenerate middles collapse the two z-rotations into one
    if b == 0.0:
        a, c = _wrap_angle(a + c), 0.0
    elif abs(abs(b) - np.pi) < 1e-12:
        a, c = _wrap_angle(a - c), 0.0

    ops = tuple(
        (kind, angle)
        for kind, angle in (("PHASE", c), ("ET", b), ("PHASE", a))
        if angle != 0.0
    )
    synthesis = RotationSynthesis(angles=(a, b, c), ops=ops, global_phase=1.0)
    recomposed = synthesis.matrix()
    k = int(np.argmax(np.abs(recomposed)))
    phase = u.flat[k] / recomposed.flat[k]
    deviation = np.abs(u - phase * recomposed).max()
    if not deviation <= tol:
        raise DecompositionFailure(
            f"recomposition deviates by {deviation:.2e} (tolerance {tol:.1e})"
        )
    return replace(synthesis, global_phase=complex(phase))


# ---------------------------------------------------------------------------
# Pairwise encoding
# ---------------------------------------------------------------------------


def encode(bits) -> tuple[int, ...]:
    """Node occupations of a logical bitstring: 0 -> (0, 1), 1 -> (1, 0)."""
    occ: list[int] = []
    for b in bits:
        bit = int(b)
        if bit not in (0, 1):
            raise ValueError("logical bits must be 0 or 1")
        occ.extend((1, 0) if bit else (0, 1))
    return tuple(occ)


def decode(amplitudes, n_qubits: int) -> tuple[np.ndarray, float]:
    """Project node-occupation amplitudes onto the encoded subspace.

    ``amplitudes`` maps occupation tuples (two nodes per qubit) to complex
    amplitudes; returns the 2^n logical vector and the leakage 1 - (weight
    captured in the encoded subspace). The leakage is negative when the
    amplitudes carry more than unit norm, so that an excess stays visible.
    """
    logical = np.zeros(2**n_qubits, dtype=complex)
    captured = 0.0
    for occ, amp in amplitudes.items():
        if len(occ) != 2 * n_qubits:
            raise ValueError("occupation tuple length must be 2 * n_qubits")
        bits = []
        ok = True
        for q in range(n_qubits):
            pair = (occ[2 * q], occ[2 * q + 1])
            if pair == (0, 1):
                bits.append(0)
            elif pair == (1, 0):
                bits.append(1)
            else:
                ok = False
                break
        if ok:
            index = int("".join(str(b) for b in bits), 2) if bits else 0
            logical[index] += amp
            captured += abs(amp) ** 2
    return logical, float(1.0 - captured)
