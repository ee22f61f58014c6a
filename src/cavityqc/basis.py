"""Hilbert-space bookkeeping: node specs, product bases, collective states.

Conventions used throughout the package:

* hbar = 1, all energies are angular frequencies;
* atomic levels are indexed 0, 1, 2 from the ground state up;
* a "node" is an ensemble of identical atoms acting as one collective site;
* collective node states |0>, |1>, |2> are the permutation-symmetric
  superpositions with 0, 1 or 2 excited atoms (Dicke states), truncated at
  two excitations per node pair;
* atomic positions default to the origin, so every plane-wave phase factor
  is 1; non-zero positions thread the matching phases through both the
  microscopic operators and the collective state definitions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatch, DimensionCap
from .state import StateVector

BYTES_PER_AMPLITUDE = 16

# Dense bytes (dim^2 x 16) of the largest matrix any build may allocate;
# larger problems raise DimensionCap before allocating.
DENSE_BYTES_CAP = 1 << 30

Vector3 = tuple[float, float, float]


def _finite_vectors(value, shape: tuple[int, ...], name: str) -> np.ndarray:
    """``value`` as a float array of ``shape``; ValueError unless all finite."""
    try:
        array = np.asarray(value, dtype=float)
        valid = array.shape == shape and np.isfinite(array).all()
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise ValueError(f"{name} must be finite 3-vectors, shape {shape}: {value!r}")
    return array


@dataclass(frozen=True)
class NodeSpec:
    """One multi-atom node: atom count, level structure, optional positions."""

    atom_count: int
    level_count: int = 2
    level_energies: tuple[float, ...] = (0.0, 1.0)
    positions: tuple[Vector3, ...] | None = None

    def __post_init__(self):
        if self.atom_count < 1:
            raise ValueError("atom_count must be positive")
        if self.level_count not in (2, 3):
            raise ValueError("level_count must be 2 or 3")
        if len(self.level_energies) != self.level_count:
            raise ValueError("level_energies length must equal level_count")
        # NaN would pass the increasing check below, and fail only later, in a
        # Hermiticity check of the Hamiltonian built from it
        if not np.isfinite(self.level_energies).all():
            raise ValueError(f"level_energies must be finite: {self.level_energies!r}")
        if any(
            b <= a for a, b in zip(self.level_energies, self.level_energies[1:])
        ):
            raise ValueError("level_energies must be strictly increasing")
        if self.positions is not None:
            _finite_vectors(self.positions, (self.atom_count, 3), "positions")

    def atom_positions(self) -> np.ndarray:
        """(atom_count, 3) array; zeros unless positions were supplied."""
        if self.positions is None:
            return np.zeros((self.atom_count, 3))
        return np.asarray(self.positions, dtype=float)

    def energy_gap(self, upper: int, lower: int) -> float:
        return self.level_energies[upper] - self.level_energies[lower]

    @property
    def transition_freq(self) -> float:
        """Splitting of the lowest transition (level 1 minus level 0)."""
        return self.energy_gap(1, 0)


@dataclass(frozen=True)
class Mode:
    """A quantized cavity mode."""

    frequency: float
    wave_vector: Vector3 = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class FockFactor:
    """Photon-mode factor of a composite basis, with per-mode truncation.

    The truncation must exceed the largest photon number reachable from the
    initial states of interest by at least one guard level; builders that
    compare against operator products near the truncation edge restrict
    themselves to interior sectors.
    """

    modes: tuple[Mode, ...]
    n_max: tuple[int, ...]

    def __post_init__(self):
        if len(self.modes) != len(self.n_max):
            raise ValueError("one truncation per mode required")
        if any(n < 1 for n in self.n_max):
            raise ValueError("n_max must be at least 1 per mode")

    @property
    def mode_count(self) -> int:
        return len(self.modes)


class CompositeBasis:
    """Full product basis: one site per atom, then one site per photon mode.

    Index order is lexicographic over the occupation tuple with the last
    site varying fastest, so indices are stable across runs. Building a
    basis whose dense complex matrices would exceed DENSE_BYTES_CAP raises
    DimensionCap before anything of that size is allocated.
    """

    def __init__(self, nodes: tuple[NodeSpec, ...], fock: FockFactor | None = None):
        self.nodes = tuple(nodes)
        self.fock = fock
        shape = [n.level_count for n in self.nodes for _ in range(n.atom_count)]
        if fock is not None:
            shape += [nmax + 1 for nmax in fock.n_max]
        self.shape = tuple(shape)
        self.dim = self._count_states()
        dense_bytes = BYTES_PER_AMPLITUDE * self.dim**2
        if dense_bytes > DENSE_BYTES_CAP:
            raise DimensionCap(
                f"{self!r}: a dense matrix would take {dense_bytes:.3e} bytes, "
                f"above the cap of {DENSE_BYTES_CAP:.3e}"
            )
        self._occupations: np.ndarray | None = None

    def _count_states(self) -> int:
        return math.prod(self.shape)

    def _enumerate(self) -> np.ndarray:
        return np.indices(self.shape).reshape(len(self.shape), -1).T

    # -- identity ---------------------------------------------------------

    def _key(self):
        return (self.nodes, self.fock, self.shape)

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, sites={len(self.shape)})"

    # -- site layout ------------------------------------------------------

    @property
    def n_atomic_sites(self) -> int:
        return sum(node.atom_count for node in self.nodes)

    def node_sites(self, node_index: int) -> range:
        offset = sum(n.atom_count for n in self.nodes[:node_index])
        return range(offset, offset + self.nodes[node_index].atom_count)

    def mode_site(self, mode_index: int) -> int:
        if self.fock is None:
            raise BasisMismatch("basis carries no photon modes")
        return self.n_atomic_sites + mode_index

    # -- indexing ---------------------------------------------------------

    @property
    def occupations(self) -> np.ndarray:
        """(dim, sites) integer array: row i is the occupation tuple of index i."""
        if self._occupations is None:
            self._occupations = self._enumerate()
        return self._occupations

    def rows(self, occupations: np.ndarray) -> np.ndarray:
        """Basis index of each row of an occupation array."""
        return np.ravel_multi_index(np.asarray(occupations).T, self.shape)

    def holds(self, occupations: tuple[int, ...]) -> bool:
        """Whether the product state with these occupations is a basis state."""
        return True

    def index(self, occupations: tuple[int, ...]) -> int:
        if len(occupations) != len(self.shape):
            raise ValueError("occupation tuple length mismatch")
        return int(self.rows(np.array([occupations]))[0])

    def occupation(self, index: int) -> tuple[int, ...]:
        return tuple(int(x) for x in self.occupations[index])

    def site_occupations(self, site: int) -> np.ndarray:
        """Occupation of one site for every basis index."""
        return self.occupations[:, site]

    def basis_state(self, occupations: tuple[int, ...]) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=complex)
        vec[self.index(occupations)] = 1.0
        return vec

    # -- photon sector helpers ---------------------------------------------

    def fock_block_indices(self, mode_occupations: tuple[int, ...]) -> np.ndarray:
        """Basis indices whose photon occupations equal the given tuple."""
        if self.fock is None:
            raise BasisMismatch("basis carries no photon modes")
        photons = self.occupations[:, self.n_atomic_sites :]
        return np.flatnonzero((photons == np.asarray(mode_occupations)).all(axis=1))


def _row_codes(occupations: np.ndarray) -> np.ndarray:
    """Each occupation row as one opaque code; codes sort like the tuples.

    The row is written as big-endian 16-bit digits and compared bytewise,
    so no product-space size can overflow the code.
    """
    rows = np.ascontiguousarray(occupations, dtype=">u2")
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


class SectorBasis(CompositeBasis):
    """The product states of one conserved excitation sector.

    Keeps the site layout of the full CompositeBasis over the same nodes and
    modes but only the occupation tuples with sum_k weights[k] occ[k] equal
    to ``quanta``, in the same lexicographic order. The weights are the
    per-site quanta of the model's excitation counter
    (hamiltonian.excitation_weights). The sector size is counted before
    any state is enumerated, so the dense-size cap applies to it up front.
    """

    def __init__(
        self,
        nodes: tuple[NodeSpec, ...],
        fock: FockFactor | None,
        weights: tuple[int, ...],
        quanta: int,
    ):
        self.weights = tuple(int(w) for w in weights)
        self.quanta = int(quanta)
        if self.quanta < 0 or any(w < 0 for w in self.weights):
            raise ValueError("quanta and site weights must be non-negative")
        super().__init__(nodes, fock)
        if self.dim == 0:
            raise BasisMismatch(f"no product state carries {self.quanta} quanta")
        self._codes: np.ndarray | None = None

    def _count_states(self) -> int:
        if len(self.weights) != len(self.shape):
            raise ValueError("one weight per site required")
        # ways[q]: tuples over the sites seen so far that carry q quanta
        ways = [1] + [0] * self.quanta
        for d, w in zip(self.shape, self.weights):
            ways = [
                sum(ways[q - w * n] for n in range(d) if q - w * n >= 0)
                for q in range(self.quanta + 1)
            ]
        return ways[self.quanta]

    def _enumerate(self) -> np.ndarray:
        # grow prefixes site by site, keeping those that can still total
        # exactly ``quanta``; np.nonzero keeps them in lexicographic order
        room = [(d - 1) * w for d, w in zip(self.shape, self.weights)]
        later = np.cumsum(room[::-1])[::-1].tolist()[1:] + [0]
        prefixes = np.zeros((1, 0), dtype=np.int64)
        used = np.zeros(1, dtype=np.int64)
        for (d, w), rest in zip(zip(self.shape, self.weights), later):
            total = used[:, None] + w * np.arange(d)
            keep = (total <= self.quanta) & (total + rest >= self.quanta)
            prefix, level = np.nonzero(keep)
            prefixes = np.column_stack([prefixes[prefix], level])
            used = total[prefix, level]
        return prefixes

    def _key(self):
        return super()._key() + (self.weights, self.quanta)

    def rows(self, occupations: np.ndarray) -> np.ndarray:
        if self._codes is None:
            self._codes = _row_codes(self.occupations)
        codes = _row_codes(occupations)
        found = np.searchsorted(self._codes, codes)
        inside = found < self.dim
        inside[inside] = self._codes[found[inside]] == codes[inside]
        if not inside.all():
            outside = tuple(int(x) for x in np.asarray(occupations)[~inside][0])
            raise BasisMismatch(
                f"occupation {outside} lies outside the {self.quanta}-quanta sector"
            )
        return found

    def holds(self, occupations: tuple[int, ...]) -> bool:
        return sum(w * n for w, n in zip(self.weights, occupations)) == self.quanta


def build_microscopic_basis(nodes, fock: FockFactor | None = None) -> CompositeBasis:
    """Full product basis over every atom and every photon mode."""
    return CompositeBasis(tuple(nodes), fock)


# ---------------------------------------------------------------------------
# Two-node collective basis
# ---------------------------------------------------------------------------

PAIR_LABELS = ("00", "10", "01", "11", "2+", "2-")

# auxiliary occupation representation used internally by Hamiltonian builders:
# per-node excitation numbers, total at most two
PAIR_OCCUPATIONS = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2))


@dataclass(frozen=True)
class CollectiveBasis:
    """The six two-node collective states, indexed 0..5.

    Labels name per-node excitation numbers; "2+" and "2-" are the
    symmetric and antisymmetric combinations of the doubly-excited
    one-node states, (|20> +/- |02>)/sqrt(2).

    ``nodes`` is optional: when present it pins atom counts and level
    energies (needed for bare-energy diagonals and microscopic expansion),
    when absent the basis is the abstract six-dimensional space.
    """

    nodes: tuple[NodeSpec, NodeSpec] | None = None

    def __post_init__(self):
        if self.nodes is not None:
            if len(self.nodes) != 2:
                raise BasisMismatch("collective pair basis needs exactly two nodes")
            if any(n.level_count != 2 for n in self.nodes):
                raise BasisMismatch("collective pair basis requires two-level nodes")

    dim = 6
    labels = PAIR_LABELS

    def index(self, label: str) -> int:
        return PAIR_LABELS.index(label)

    def sector(self, index: int) -> int:
        """Total collective excitation number of basis state ``index``."""
        return sum(PAIR_OCCUPATIONS[index])

    @staticmethod
    def occupation_rotation() -> np.ndarray:
        """Orthogonal map from the occupation list to the labelled states.

        Rows are the labelled states, columns the occupation states in
        PAIR_OCCUPATIONS order; only the 20/02 pair is mixed.
        """
        rot = np.eye(6)
        s = 1.0 / np.sqrt(2.0)
        rot[4, 4], rot[4, 5] = s, s
        rot[5, 4], rot[5, 5] = s, -s
        return rot


# ---------------------------------------------------------------------------
# Collective states expanded over microscopic product bases
# ---------------------------------------------------------------------------


def atom_phases(basis: CompositeBasis, wave_vector) -> np.ndarray:
    """Plane-wave phase e^(i k.r_j) of every atomic site of the basis.

    All phases are 1 when ``wave_vector`` is None; otherwise it must be a
    finite 3-vector (ValueError).
    """
    phases = np.ones(basis.n_atomic_sites, dtype=complex)
    if wave_vector is None:
        return phases
    k = _finite_vectors(wave_vector, (3,), "wave vector")
    for m, node in enumerate(basis.nodes):
        for site, r in zip(basis.node_sites(m), node.atom_positions()):
            phases[site] = np.exp(1j * (r @ k))
    return phases


def _dicke_pattern(basis: CompositeBasis, excitations, phases):
    """Occupation rows and amplitudes of a product of one-node Dicke states.

    ``excitations`` lists (node_index, level, count) on distinct nodes. The
    factor of a node with N atoms is C(N, count)^(-1/2) times the sum, over
    each choice of ``count`` of its atoms, of the product of their
    ``phases`` times the state with those atoms at ``level``. Every site
    not chosen stays at 0, so an empty list gives the all-ground state.
    """
    if len({m for m, _, _ in excitations}) != len(excitations):
        raise BasisMismatch("product excitations need distinct nodes")
    occs, amps = [[0] * len(basis.shape)], [1.0]
    for node_index, level, count in excitations:
        node = basis.nodes[node_index]
        if level >= node.level_count:
            raise BasisMismatch("node does not have the requested level")
        if count > node.atom_count:
            raise BasisMismatch(f"{count} excitations need at least {count} atoms")
        if count == 0:
            continue  # the node's factor is its ground state, amplitude 1
        norm = np.sqrt(math.comb(node.atom_count, count))
        terms = [
            (chosen, math.prod(phases[site] for site in chosen) / norm)
            for chosen in itertools.combinations(basis.node_sites(node_index), count)
        ]
        grown_occs, grown_amps = [], []
        for occ, amp in zip(occs, amps):
            for chosen, factor in terms:
                grown = list(occ)
                for site in chosen:
                    grown[site] = level
                grown_occs.append(grown)
                grown_amps.append(amp * factor)
        occs, amps = grown_occs, grown_amps
    return occs, amps


def _vector(basis: CompositeBasis, occs, amps) -> np.ndarray:
    vec = np.zeros(basis.dim, dtype=complex)
    vec[basis.rows(np.array(occs))] = amps
    return vec


def collective_excitation_state(
    basis: CompositeBasis,
    node_index: int,
    excited_level: int = 1,
    wave_vector=None,
) -> np.ndarray:
    """Single collective excitation of one node, all other atoms ground.

    N^(-1/2) sum_j e^(i k.r_j) |0 ... excited_level at atom j ... 0>, taken
    over the atoms of the chosen node; every other site stays at level 0.
    """
    return product_excitation_state(basis, [(node_index, excited_level)], wave_vector)


def product_excitation_state(
    basis: CompositeBasis, excitations, wave_vector=None
) -> np.ndarray:
    """Product of single collective excitations on distinct nodes.

    ``excitations`` lists (node_index, excited_level) pairs; every site not
    named stays at 0, so an empty list gives the all-ground state. Raises
    BasisMismatch when the state lies outside a sector basis.
    """
    phases = atom_phases(basis, wave_vector)
    singles = [(m, level, 1) for m, level in excitations]
    return _vector(basis, *_dicke_pattern(basis, singles, phases))


def double_excitation_state(
    basis: CompositeBasis, node_index: int, wave_vector=None
) -> np.ndarray:
    """Symmetric two-excitation state of one two-level node.

    sqrt(2/(N(N-1))) sum_{j>f} e^(i k.(r_j+r_f)) |... e_j ... e_f ...>;
    requires at least two atoms in the node.
    """
    phases = atom_phases(basis, wave_vector)
    return _vector(basis, *_dicke_pattern(basis, [(node_index, 1, 2)], phases))


def pair_isometry(basis: CompositeBasis, wave_vector=None) -> np.ndarray:
    """(6, dim) matrix whose rows are the collective pair states.

    Rows follow PAIR_LABELS, every photon mode (if any) in its vacuum: the
    PAIR_OCCUPATIONS states mixed by CollectiveBasis.occupation_rotation().
    States the basis cannot hold come out as zero rows, so projections onto
    them simply vanish: doubly-excited one-node states of single-atom
    nodes, and on a SectorBasis every state of another excitation count.
    """
    collective = CollectiveBasis(basis.nodes)
    phases = atom_phases(basis, wave_vector)
    states = np.zeros((6, basis.dim), dtype=complex)
    for r, counts in enumerate(PAIR_OCCUPATIONS):
        if any(n > node.atom_count for n, node in zip(counts, basis.nodes)):
            continue
        occs, amps = _dicke_pattern(
            basis, [(m, 1, n) for m, n in enumerate(counts)], phases
        )
        if basis.holds(occs[0]):
            states[r] = _vector(basis, occs, amps)
    return collective.occupation_rotation() @ states


def symmetrize(
    state: StateVector, wave_vector=None
) -> tuple[StateVector, float]:
    """Project a microscopic two-node state onto the collective pair basis.

    Returns the (unnormalized) projection as a StateVector on the matching
    CollectiveBasis together with the leakage 1 - |projection|^2.
    """
    basis = state.basis
    if not isinstance(basis, CompositeBasis):
        raise BasisMismatch("symmetrize expects a microscopic product basis")
    if basis.fock is not None:
        raise BasisMismatch("symmetrize acts on the atomic factor only")
    rows = pair_isometry(basis, wave_vector)
    amps = rows.conj() @ state.amplitudes
    leakage = float(max(0.0, 1.0 - np.linalg.norm(amps) ** 2))
    collective = CollectiveBasis(basis.nodes)
    return StateVector(amps, collective), leakage
