"""Exception types shared across the package."""


class SimulationError(Exception):
    """Base class for all package-specific errors."""


class DimensionCap(SimulationError):
    """A build would allocate a dense matrix above basis.DENSE_BYTES_CAP bytes."""


class BasisMismatch(SimulationError):
    """Two objects live on incompatible bases."""


class MissingCoupling(SimulationError):
    """A transition is enabled without an interaction constant."""


class ResonanceSingularity(SimulationError):
    """An energy denominator is too close to zero for perturbation theory."""


class EigenFailure(SimulationError):
    """Eigendecomposition of a Hamiltonian did not converge."""


class DecompositionFailure(SimulationError):
    """Single-qubit rotation synthesis received a non-unitary input."""


class AddressError(SimulationError):
    """A circuit operation references a node outside the register."""


class LeakageError(SimulationError):
    """State-vector weight escaped the encoded subspace beyond tolerance."""


class AncillaNotGround(SimulationError):
    """An ancilla node is not (or did not return to) its ground state."""


class DimensionMismatch(SimulationError):
    """Two matrices compared for equivalence have different shapes."""


class ParseError(SimulationError):
    """A scenario or circuit file could not be parsed."""


class ValidationError(SimulationError):
    """A scenario is missing or misusing a required parameter."""


class UnknownKind(SimulationError):
    """An unrecognised scenario kind was requested."""
