"""Hilbert-space bookkeeping: node specs, product bases, collective states.

Conventions used throughout the package:

* hbar = 1, all energies are angular frequencies;
* atomic levels are indexed 0, 1, 2 from the ground state up;
* a "node" is an ensemble of identical atoms acting as one collective site;
* a product basis splits each node into sites, groups of its atoms whose
  local states are level counts: one site per atom (the default) or one
  symmetric site per node, whose local states are the node's
  permutation-symmetric (Dicke) states;
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
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatch, DimensionCap
from .state import StateVector

BYTES_PER_AMPLITUDE = 16

# Dense bytes (dim^2 x 16) of the largest matrix any build may allocate;
# larger problems raise DimensionCap before allocating.
DENSE_BYTES_CAP = 1 << 30
# Most local states of one site: the dimension of the largest such matrix.
MAX_SITE_STATES = math.isqrt(DENSE_BYTES_CAP // BYTES_PER_AMPLITUDE)

Vector3 = tuple[float, float, float]


def _frozen(value):
    """``value`` with every list or array in it turned into a tuple.

    Specs are hashable and keyed by their repr (see intern_basis), so no
    field may stay a list, and no array, whose repr elides entries.
    """
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(item) for item in value)
    return value


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
        object.__setattr__(self, "level_energies", _frozen(self.level_energies))
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
            object.__setattr__(self, "positions", _frozen(self.positions))

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

    def __post_init__(self):
        object.__setattr__(self, "wave_vector", _frozen(self.wave_vector))


@dataclass(frozen=True)
class FockFactor:
    """Photon-mode factor of a composite basis, with per-mode truncation.

    The truncation must exceed the largest photon number reachable from the
    initial states of interest by at least one guard level. The operator
    products of ``hamiltonian.schrieffer_wolff_hamiltonian`` carry their own
    guard photon per mode, so its entries at the truncation edge are the
    second-order values too.
    """

    modes: tuple[Mode, ...]
    n_max: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "modes", _frozen(self.modes))
        object.__setattr__(self, "n_max", _frozen(self.n_max))
        if len(self.modes) != len(self.n_max):
            raise ValueError("one truncation per mode required")
        if any(n < 1 for n in self.n_max):
            raise ValueError("n_max must be at least 1 per mode")

    @property
    def mode_count(self) -> int:
        return len(self.modes)


def _level_counts(
    atoms: int, levels: int, cap: int | None
) -> tuple[tuple[int, ...], ...]:
    """Level counts (n_0, n_1[, n_2]) of ``atoms`` atoms on 2 or 3 levels.

    Every way of putting the atoms on the levels whose level sum
    n_1 + 2 n_2 is at most ``cap`` (every way, for None), n_2 in the outer
    loop and n_1 in the inner, so that one atom's state k is its level k.
    Counts are Python integers, so no atom count overflows them. Raises
    DimensionCap, before listing more, once the states alone outgrow any
    matrix under DENSE_BYTES_CAP.
    """
    n2_max = atoms if levels == 3 else 0
    if cap is not None:
        n2_max = min(n2_max, cap // 2)
    rows = []
    for n2 in range(n2_max + 1):
        n1_max = atoms - n2 if cap is None else min(atoms - n2, cap - 2 * n2)
        for n1 in range(n1_max + 1):
            if len(rows) == MAX_SITE_STATES:
                raise DimensionCap(
                    f"a site of {atoms} atoms has more than {MAX_SITE_STATES} states, "
                    f"above the cap of {DENSE_BYTES_CAP:.3e} bytes"
                )
            rows.append((atoms - n1 - n2, n1, n2)[:levels])
    return tuple(rows)


def site_groups(nodes, symmetric: bool = False) -> tuple[tuple[int, int], ...]:
    """(node index, atom count) of each atomic site of a product basis.

    A site is a group of one node's atoms: each atom alone, or with
    ``symmetric`` the whole node.
    """
    if symmetric:
        return tuple((m, node.atom_count) for m, node in enumerate(nodes))
    return tuple((m, 1) for m, node in enumerate(nodes) for _ in range(node.atom_count))


def _row_codes(occupations: np.ndarray) -> np.ndarray:
    """Each occupation row as one opaque code; codes sort like the tuples.

    The row is written as big-endian 16-bit digits (no site has more than
    MAX_SITE_STATES < 2^16 states) and compared bytewise, so no
    product-space size can overflow the code.
    """
    rows = np.ascontiguousarray(occupations, dtype=">u2")
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


class CompositeBasis:
    """Product basis: the atomic sites, then one site per photon mode.

    An atomic site is a group of one node's atoms (see site_groups) whose
    local states are level counts (n_0, ..., n_top) summing to its atom
    count (see level_counts): each atom alone by default, whose state k is
    its level k, or with ``symmetric`` the whole node, whose local states
    are its permutation-symmetric (Dicke) states. A per-atom site is the
    symmetric site of a group of one atom. The symmetric layout is exact
    for couplings uniform within each node and no plane-wave phase (see
    atom_phases).

    ``weights`` (one per site) and ``quanta`` select an excitation sector:
    the occupation tuples whose quanta, sum_k weights[k] times the level
    sum (or photon number) of site k's local state, equal ``quanta``. The
    full space is the 0-quanta sector under zero weights, the default. A
    site of several atoms keeps only the level counts of at most
    quanta // weight level sum (all of them at weight 0), so its cost does
    not grow with the atom count; a one-atom site keeps all its levels.

    Index order is lexicographic over the occupation tuple with the last
    site varying fastest, so indices are stable across runs. The states
    are counted before any is listed: a basis whose dense complex matrices
    would exceed DENSE_BYTES_CAP raises DimensionCap before anything of
    that size is allocated, and an empty sector raises BasisMismatch.
    """

    def __init__(
        self,
        nodes: tuple[NodeSpec, ...],
        fock: FockFactor | None = None,
        symmetric: bool = False,
        weights: tuple[int, ...] | None = None,
        quanta: int = 0,
    ):
        self.nodes = tuple(nodes)
        self.fock = fock
        self.symmetric = bool(symmetric)
        groups = site_groups(self.nodes, self.symmetric)
        photons = () if fock is None else fock.n_max
        sites = len(groups) + len(photons)
        if weights is None:
            weights = (0,) * sites
        self.weights = tuple(int(w) for w in weights)
        self.quanta = int(quanta)
        if self.quanta < 0 or any(w < 0 for w in self.weights):
            raise ValueError("quanta and site weights must be non-negative")
        if len(self.weights) != sites:
            raise ValueError("one weight per site required")
        # a one-atom site keeps all its levels, so one-atom operators act on
        # it as written; at weight 0 the sector caps no site
        self._counts = tuple(
            _level_counts(
                atoms,
                self.nodes[m].level_count,
                None if atoms == 1 or w == 0 else self.quanta // w,
            )
            for (m, atoms), w in zip(groups, self.weights)
        )
        self._count_index = tuple(
            {c: i for i, c in enumerate(counts)} for counts in self._counts
        )
        if any(n_max >= MAX_SITE_STATES for n_max in photons):
            raise DimensionCap(
                f"a mode truncation of {max(photons)} photons gives more than "
                f"{MAX_SITE_STATES} states, above the cap of "
                f"{DENSE_BYTES_CAP:.3e} bytes"
            )
        self._levels = _read_only(
            tuple(
                np.array([sum(k * n for k, n in enumerate(c)) for c in counts])
                for counts in self._counts
            )
            + tuple(np.arange(n_max + 1) for n_max in photons)
        )
        self.shape = tuple(len(levels) for levels in self._levels)
        # quanta of each local state, site by site
        self._tables = _read_only(
            tuple(w * levels for w, levels in zip(self.weights, self._levels))
        )
        owners = [m for m, _ in groups]
        self._node_sites = tuple(
            range(owners.index(m), owners.index(m) + owners.count(m))
            for m in range(len(self.nodes))
        )
        # suffixes[k][q]: tuples over sites k, k + 1, ... that carry q quanta
        suffixes = [[1] + [0] * self.quanta]
        for table in reversed(self._tables):
            rest, table = suffixes[0], table.tolist()
            row = (sum(rest[q - s] for s in table if s <= q) for q in range(len(rest)))
            suffixes.insert(0, list(row))
        self.dim = suffixes[0][self.quanta]
        dense_bytes = BYTES_PER_AMPLITUDE * self.dim**2
        if dense_bytes > DENSE_BYTES_CAP:
            raise DimensionCap(
                f"{self!r}: a dense matrix would take {dense_bytes:.3e} bytes, "
                f"above the cap of {DENSE_BYTES_CAP:.3e}"
            )
        if self.dim == 0:
            raise BasisMismatch(f"no product state carries {self.quanta} quanta")
        self._suffixes = _read_only(np.minimum(suffixes, self.dim).astype(np.int64))
        self._derived: dict = {}

    def derived(self, key, build):
        """``build()`` on first use of ``key``, after that the same object.

        For tables that depend on the layout alone. Their arrays are made
        read-only, since every later caller, and every build on an interned
        basis (see intern_basis), shares them.
        """
        table = self._derived.get(key)
        if table is None:
            table = self._derived[key] = _read_only(build())
        return table

    def table_bytes(self) -> int:
        """Most bytes the basis holds once all its layout tables are built.

        16 KiB for the object itself; per site, 8 KiB for its bookkeeping
        and the headers and keys of its factor tables (at most six: one per
        transition and direction on an atomic site, two on a mode); per
        local state, 512 for its level counts and 16 per factor table; per
        state, 96 for the six pair rows, 16 for the diagonal of the static
        part and, per site, 10 for the occupation row and its code; 8 per
        entry of the (sites + 1, quanta + 1) count table.
        """
        sites = len(self.shape)
        return (
            (16 << 10)
            + (8 << 10) * sites
            + 512 * sum(self.shape)
            + self.dim * (112 + 10 * sites)
            + 8 * (sites + 1) * (self.quanta + 1)
        )

    # -- identity ---------------------------------------------------------

    def _key(self):
        return (self.nodes, self.fock, self.symmetric, self.weights, self.quanta)

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, sites={len(self.shape)})"

    # -- site layout ------------------------------------------------------

    @property
    def n_atomic_sites(self) -> int:
        return len(self._counts)

    def node_sites(self, node_index: int) -> range:
        return self._node_sites[node_index]

    def mode_site(self, mode_index: int) -> int:
        if self.fock is None:
            raise BasisMismatch("basis carries no photon modes")
        return self.n_atomic_sites + mode_index

    def level_counts(self, site: int) -> tuple[tuple[int, ...], ...]:
        """Level counts (n_0, ..., n_top) of each local state of an atomic site."""
        return self._counts[site]

    def site_levels(self, site: int) -> np.ndarray:
        """Level sum (atoms) or photon number (modes) of each local state of a site."""
        return self._levels[site]

    def local_index(self, site: int, counts) -> int:
        """Local state of an atomic site with these level counts.

        A state the sector caps away gets the index one past the site's
        last state, which no basis state holds.
        """
        return self._count_index[site].get(tuple(counts), self.shape[site])

    # -- indexing ---------------------------------------------------------

    @property
    def occupations(self) -> np.ndarray:
        """(dim, sites) read-only integer array: row i is the occupation of index i."""
        return self.derived("occupations", self._list_occupations)

    def _list_occupations(self) -> np.ndarray:
        # a block of rows sharing a prefix, ``left`` quanta short, splits at site
        # k into one block per local state s, of suffixes[k + 1] rows at what s
        # leaves: none exceeds dim, so the table is kept clipped to dim in int64
        occupations = np.empty((self.dim, len(self.shape)), dtype=np.int64)
        left = np.array([self.quanta])
        for k, table in enumerate(self._tables):
            after = left[:, None] - table
            sizes = np.where(after < 0, 0, self._suffixes[k + 1][after.clip(0)])
            block, state = np.nonzero(sizes)
            occupations[:, k] = np.repeat(state, sizes[block, state])
            left = after[block, state]
        return occupations

    def rows(self, occupations: np.ndarray) -> np.ndarray:
        """Basis index of each row of an occupation array.

        Raises BasisMismatch, naming the first row the basis does not hold:
        one outside the sector, or with an entry outside its site's local
        states (whose 16-bit code could alias a row in range).
        """
        occupations = np.asarray(occupations)
        table = self.derived("codes", lambda: _row_codes(self.occupations))
        codes = _row_codes(occupations)
        found = np.searchsorted(table, codes)
        inside = ((occupations >= 0) & (occupations < self.shape)).all(axis=1)
        inside &= found < self.dim
        inside[inside] = table[found[inside]] == codes[inside]
        if not inside.all():
            outside = tuple(int(x) for x in occupations[~inside][0])
            raise BasisMismatch(
                f"occupation {outside} lies outside the {self.quanta}-quanta sector"
            )
        return found

    def holds(self, occupations: tuple[int, ...]) -> bool:
        """Whether the product state with these occupations is a basis state."""
        if len(occupations) != len(self.shape):
            return False
        if not all(0 <= n < size for n, size in zip(occupations, self.shape)):
            return False
        return sum(int(t[n]) for n, t in zip(occupations, self._tables)) == self.quanta

    def index(self, occupations: tuple[int, ...]) -> int:
        if not self.holds(occupations):
            raise BasisMismatch(
                f"occupation {tuple(occupations)} is no state of {self!r}"
            )
        return int(self.rows(np.array([occupations]))[0])

    def occupation(self, index: int) -> tuple[int, ...]:
        return tuple(int(x) for x in self.occupations[index])

    # -- photon sector helpers ---------------------------------------------

    def fock_block_indices(self, mode_occupations: tuple[int, ...]) -> np.ndarray:
        """Basis indices whose photon occupations equal the given tuple."""
        if self.fock is None:
            raise BasisMismatch("basis carries no photon modes")
        photons = self.occupations[:, self.n_atomic_sites :]
        return np.flatnonzero((photons == np.asarray(mode_occupations)).all(axis=1))


def _read_only(table):
    """``table``, an array or a tuple of them, with every array made read-only."""
    for array in table if isinstance(table, tuple) else (table,):
        array.setflags(write=False)
    return table


# Most layouts intern_basis keeps, and most bytes one of them may hold.
LAYOUT_TABLE_SIZE = 8
LAYOUT_BYTES_CAP = 1 << 24
# Interned bases by layout key, the least recently used first.
_LAYOUTS: OrderedDict = OrderedDict()


def intern_basis(
    nodes,
    fock: FockFactor | None = None,
    symmetric: bool = False,
    weights=None,
    quanta: int = 0,
) -> CompositeBasis:
    """The one CompositeBasis of a layout in this process, built on first use.

    A layout is (nodes, Fock factor, symmetric, sector weights, quanta),
    and nothing else: a basis, and every table it derives from the layout
    alone (occupation rows and codes, the assembler's factor tables, the
    pair rows, the static part's diagonal), never depends on couplings,
    detunings, rates or times. So a repeated build re-prices only its
    coupling. The first build does the same work as a fresh CompositeBasis.

    Specs are keyed by their repr, not by ==: Python equates 1 with 1.0
    and -0.0 with 0.0 (with equal hashes), but the builders read energies,
    frequencies and positions from the basis's own specs, so equal specs
    written differently get bases of their own. A float's repr round-trips
    it, and the specs hold no lists or arrays (see _frozen).

    The table keeps the LAYOUT_TABLE_SIZE layouts used last, each only if
    it holds at most LAYOUT_BYTES_CAP: its tables (see
    CompositeBasis.table_bytes), and 4 bytes per character of its key for
    the key and the specs it spells out. A larger layout is built fresh on
    every call. So the table holds at most 8 x 16 MiB = 128 MiB; each
    layout of the benchmark's workloads holds under 64 KiB.
    """
    nodes = tuple(nodes)
    weights = None if weights is None else tuple(int(w) for w in weights)
    key = (repr(nodes), repr(fock), bool(symmetric), weights, int(quanta))
    basis = _LAYOUTS.get(key)
    if basis is not None:
        _LAYOUTS.move_to_end(key)
        return basis
    basis = CompositeBasis(nodes, fock, symmetric, weights, quanta)
    spelled = 4 * (len(key[0]) + len(key[1]))
    if basis.table_bytes() + spelled <= LAYOUT_BYTES_CAP:
        _LAYOUTS[key] = basis
        if len(_LAYOUTS) > LAYOUT_TABLE_SIZE:
            _LAYOUTS.popitem(last=False)
    return basis


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
    finite 3-vector (ValueError). A symmetric site is a whole node, whose
    Dicke states carry no per-atom phase: on that layout any nonzero wave
    vector raises BasisMismatch.
    """
    phases = np.ones(basis.n_atomic_sites, dtype=complex)
    if wave_vector is None:
        return phases
    k = _finite_vectors(wave_vector, (3,), "wave vector")
    if basis.symmetric:
        if k.any():
            raise BasisMismatch(
                f"the symmetric layout takes no wave vector, got {wave_vector!r}: "
                "plane-wave phases differ from atom to atom"
            )
        return phases
    for m, node in enumerate(basis.nodes):
        for site, r in zip(basis.node_sites(m), node.atom_positions()):
            phases[site] = np.exp(1j * (r @ k))
    return phases


def _dicke_pattern(basis: CompositeBasis, excitations, phases, choices=None):
    """Occupation rows and amplitudes of a product of one-node Dicke states.

    ``excitations`` lists (node_index, level, count) on distinct nodes. The
    factor of a node with N atoms is C(N, count)^(-1/2) times the sum, over
    each choice of ``count`` of its atoms, of the product of their
    ``phases`` times the state with those atoms at ``level``. Every site
    not chosen stays at 0, so an empty list gives the all-ground state. On
    the symmetric layout that factor is one local state of the node's site,
    so the pattern is one row of amplitude 1 (its phases are all 1). With
    ``choices``, only that many choices per node, the first in order.
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
        if basis.symmetric:
            # the node's site holds the Dicke state itself, amplitude 1
            counts = [node.atom_count - count] + [0] * (node.level_count - 1)
            counts[level] += count
            occs[0][node_index] = basis.local_index(node_index, counts)
            continue
        norm = np.sqrt(math.comb(node.atom_count, count))
        terms = [
            (chosen, math.prod(phases[site] for site in chosen) / norm)
            for chosen in itertools.islice(
                itertools.combinations(basis.node_sites(node_index), count), choices
            )
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
    nodes, and on a sector every state of another excitation count. With
    no wave vector the rows depend on the layout alone: each basis builds
    them once and returns them read-only.
    """
    if wave_vector is None:
        return basis.derived("pair_isometry", lambda: _pair_rows(basis, None))
    return _pair_rows(basis, wave_vector)


def _pair_rows(basis: CompositeBasis, wave_vector) -> np.ndarray:
    collective = CollectiveBasis(basis.nodes)
    phases = atom_phases(basis, wave_vector)
    states = np.zeros((6, basis.dim), dtype=complex)
    for r, counts in enumerate(PAIR_OCCUPATIONS):
        if any(n > node.atom_count for n, node in zip(counts, basis.nodes)):
            continue
        excitations = [(m, 1, n) for m, n in enumerate(counts)]
        # a pattern the basis cannot hold is not expanded: its first row tells
        [first], _ = _dicke_pattern(basis, excitations, phases, choices=1)
        if basis.holds(first):
            states[r] = _vector(basis, *_dicke_pattern(basis, excitations, phases))
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
