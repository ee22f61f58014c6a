"""Complex amplitude vectors tagged with the basis they live on."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BasisMismatch


@dataclass
class StateVector:
    """Amplitudes over an explicitly indexed basis.

    The basis handle is any object exposing ``dim``; state vectors on
    different bases never compare or combine silently.
    """

    amplitudes: np.ndarray
    basis: object = field(repr=False)

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if self.basis is not None and self.amplitudes.size != self.basis.dim:
            raise BasisMismatch(
                f"amplitude vector of length {self.amplitudes.size} does not fit "
                f"basis of dimension {self.basis.dim}"
            )

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probability(self, index: int) -> float:
        return float(abs(self.amplitudes[index]) ** 2)


def require_same_basis(a, b) -> None:
    """Refuse two states, or a state and a Hamiltonian, on different bases."""
    if a.basis is not None and b.basis is not None and a.basis != b.basis:
        raise BasisMismatch("operands live on different bases")
    if a.dim != b.dim:
        raise BasisMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b> with basis checking."""
    require_same_basis(a, b)
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, clipped into [0, 1] against round-off."""
    value = abs(inner(a, b)) ** 2
    return float(min(max(value, 0.0), 1.0))
