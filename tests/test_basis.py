"""Basis construction, collective states, symmetrization."""

import itertools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityqc import (
    CollectiveBasis,
    CompositeBasis,
    CouplingSet,
    DetuningSet,
    FockFactor,
    Mode,
    NodeSpec,
    StateVector,
    build_microscopic_basis,
    collective_excitation_state,
    double_excitation_state,
    microscopic_hamiltonian,
    pair_isometry,
    photon_free_effective_hamiltonian,
    product_excitation_state,
    symmetrize,
    transistor_hamiltonian,
)
from cavityqc import hamiltonian
from cavityqc.basis import _dicke_pattern, _level_counts, atom_phases, site_groups
from cavityqc.dynamics import evolve_on_grid
from cavityqc.errors import BasisMismatch, DimensionCap
from cavityqc.hamiltonian import microscopic_parts


# --- independent brute-force oracle -----------------------------------------


def brute_dicke(n_atoms, n_excited, phases=None):
    """Symmetric n-excitation state by direct enumeration of bitstrings.

    With ``phases`` (one per atom) each bitstring carries the product of
    the phases of its excited atoms. A node with fewer than ``n_excited``
    atoms holds no such state: the zero vector.
    """
    phases = np.ones(n_atoms) if phases is None else phases
    vec = np.zeros(2**n_atoms, dtype=complex)
    for excited in itertools.combinations(range(n_atoms), n_excited):
        index = sum(2 ** (n_atoms - 1 - j) for j in excited)
        vec[index] = np.prod([phases[j] for j in excited])
    if n_excited > n_atoms:
        return vec
    return vec / np.linalg.norm(vec)


def brute_pair_state(n1, n2, exc1, exc2):
    return np.kron(brute_dicke(n1, exc1), brute_dicke(n2, exc2))


# --- two-node collective basis ----------------------------------------------


def test_pair_basis_shape_and_labels():
    basis = CollectiveBasis()
    assert basis.dim == 6
    assert basis.labels == ("00", "10", "01", "11", "2+", "2-")
    assert [basis.sector(i) for i in range(6)] == [0, 1, 1, 2, 2, 2]


def test_psi5_amplitudes_match_brute_force_expansion():
    # symmetric doubly-excited combination for two atoms per node
    nodes = (NodeSpec(2), NodeSpec(2))
    micro = build_microscopic_basis(nodes)
    rows = pair_isometry(micro)
    expected = (brute_pair_state(2, 2, 2, 0) + brute_pair_state(2, 2, 0, 2)) / np.sqrt(2)
    overlap = abs(np.vdot(expected, rows[4]))
    assert overlap == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n_atoms", [2, 3, 4])
def test_collective_states_match_brute_force(n_atoms):
    nodes = (NodeSpec(n_atoms), NodeSpec(n_atoms))
    micro = build_microscopic_basis(nodes)
    rows = pair_isometry(micro)
    reference = {
        0: brute_pair_state(n_atoms, n_atoms, 0, 0),
        1: brute_pair_state(n_atoms, n_atoms, 1, 0),
        2: brute_pair_state(n_atoms, n_atoms, 0, 1),
        3: brute_pair_state(n_atoms, n_atoms, 1, 1),
    }
    for index, expected in reference.items():
        assert np.abs(rows[index] - expected).max() < 1e-12
    plus = (
        brute_pair_state(n_atoms, n_atoms, 2, 0) + brute_pair_state(n_atoms, n_atoms, 0, 2)
    ) / np.sqrt(2)
    assert np.abs(rows[4] - plus).max() < 1e-12


@pytest.mark.parametrize("n_atoms", [2, 3, 4])
def test_gram_matrix_is_identity(n_atoms):
    nodes = (NodeSpec(n_atoms), NodeSpec(n_atoms))
    rows = pair_isometry(build_microscopic_basis(nodes))
    gram = rows.conj() @ rows.T
    assert np.abs(gram - np.eye(6)).max() < 1e-12


def test_single_atom_nodes_have_no_doubly_excited_states():
    rows = pair_isometry(build_microscopic_basis((NodeSpec(1), NodeSpec(1))))
    assert np.abs(rows[4]).max() == 0.0
    assert np.abs(rows[5]).max() == 0.0
    gram = rows[:4].conj() @ rows[:4].T
    assert np.abs(gram - np.eye(4)).max() < 1e-12


# --- microscopic product bases ----------------------------------------------


def test_dimension_two_level_pair_single_mode():
    basis = build_microscopic_basis(
        (NodeSpec(1), NodeSpec(1)), FockFactor((Mode(1.0),), (2,))
    )
    assert basis.dim == 2 * 2 * 3


def test_dimension_three_level_pair_three_modes():
    nodes = (NodeSpec(1, 3, (0.0, 1.0, 2.0)), NodeSpec(1, 3, (0.0, 1.0, 2.0)))
    fock = FockFactor((Mode(1.0), Mode(1.0), Mode(2.0)), (2, 2, 2))
    assert build_microscopic_basis(nodes, fock).dim == 3 * 3 * 27


def test_dimension_three_atoms_per_node():
    basis = build_microscopic_basis(
        (NodeSpec(3), NodeSpec(3)), FockFactor((Mode(1.0),), (1,))
    )
    assert basis.dim == 8 * 8 * 2


def test_dimension_cap_enforced():
    with pytest.raises(DimensionCap):
        build_microscopic_basis(
            (NodeSpec(10), NodeSpec(10)), FockFactor((Mode(1.0),), (300,))
        )


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=2),
)
def test_index_round_trip_bijective(n1, n2, n_max):
    basis = build_microscopic_basis(
        (NodeSpec(n1), NodeSpec(n2)), FockFactor((Mode(1.0),), (n_max,))
    )
    seen = set()
    for index in range(basis.dim):
        occ = basis.occupation(index)
        assert basis.index(occ) == index
        seen.add(occ)
    assert len(seen) == basis.dim


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=2),
    st.integers(min_value=1, max_value=2),
    st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=2),
    st.integers(min_value=0, max_value=5),
)
def test_sector_is_the_sorted_slice_of_the_full_basis(atoms, n_max, mode_weights, quanta):
    nodes = tuple(NodeSpec(n, 3, (0.0, 1.0, 2.0)) for n in atoms)
    fock = FockFactor((Mode(1.0), Mode(2.0)), (n_max + 1, n_max))
    full = build_microscopic_basis(nodes, fock)
    weights = (1,) * full.n_atomic_sites + tuple(mode_weights)
    carried = full.occupations @ np.asarray(weights)
    expected = full.occupations[carried == quanta]
    if len(expected) == 0:
        with pytest.raises(BasisMismatch):
            CompositeBasis(nodes, fock, weights=weights, quanta=quanta)
        return
    sector = CompositeBasis(nodes, fock, weights=weights, quanta=quanta)
    assert sector.dim == len(expected)
    assert np.array_equal(sector.occupations, expected)
    for i in range(sector.dim):
        assert sector.index(sector.occupation(i)) == i
    assert np.array_equal(sector.rows(expected[::-1]), np.arange(sector.dim)[::-1])
    outside = full.occupations[carried != quanta]
    if len(outside):
        with pytest.raises(BasisMismatch):
            sector.index(tuple(outside[0]))


def test_sector_basis_is_a_distinct_basis():
    nodes = (NodeSpec(2), NodeSpec(2))
    fock = FockFactor((Mode(1.0),), (2,))
    one = CompositeBasis(nodes, fock, weights=(1,) * 5, quanta=1)
    assert one == CompositeBasis(nodes, fock, weights=(1,) * 5, quanta=1)
    assert one != CompositeBasis(nodes, fock, weights=(1,) * 5, quanta=2)
    assert one != build_microscopic_basis(nodes, fock)
    assert one.dim == 2 * 2 + 1


def test_equal_bases_hash_alike():
    # two separately built bases of one layout are one dictionary key
    nodes = (NodeSpec(2), NodeSpec(1, 3, (0.0, 1.0, 2.1)))
    fock = FockFactor((Mode(1.0),), (2,))
    first, second = (CompositeBasis(nodes, fock, symmetric=True) for _ in range(2))
    assert first is not second
    assert hash(first) == hash(second)
    assert {first: "layout"}[second] == "layout"


def test_collective_states_on_a_sector_equal_the_full_ones():
    nodes = (NodeSpec(2), NodeSpec(3))
    fock = FockFactor((Mode(1.0),), (2,))
    full = build_microscopic_basis(nodes, fock)
    full_rows = pair_isometry(full)
    # each pair state lies in exactly one sector (|00>: 0, |10>/|01>: 1, the
    # rest: 2), so the sector isometries add up to the full one
    embedded = np.zeros((6, full.dim), dtype=complex)
    for quanta in (0, 1, 2):
        sector = CompositeBasis(nodes, fock, weights=(1,) * 6, quanta=quanta)
        rows = pair_isometry(sector)
        held = [r for r in range(6) if np.abs(rows[r]).max() > 0]
        assert held == [r for r in range(6) if (0, 1, 1, 2, 2, 2)[r] == quanta]
        embedded[:, full.rows(sector.occupations)] = rows
    assert np.array_equal(embedded, full_rows)
    both = product_excitation_state(full, [(0, 1), (1, 1)])
    assert np.array_equal(both, full_rows[3])
    sector = CompositeBasis(nodes, fock, weights=(1,) * 6, quanta=2)
    with pytest.raises(BasisMismatch):
        collective_excitation_state(sector, 0)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.booleans(),
    st.sampled_from([None, 0, 1, 2]),
    st.data(),
)
def test_one_atom_nodes_build_the_same_on_either_layout(levels, photons, quanta, data):
    # a per-atom site is the symmetric site of a group of one atom: both
    # layouts list the same states and build the same matrices, bit for bit
    energies = (0.0, 1.0, 2.1)[:levels]
    nodes = (NodeSpec(1, levels, energies), NodeSpec(1, levels, energies))
    coupling = st.complex_numbers(min_magnitude=0.005, max_magnitude=0.05)
    names = ("g21", "g32")[: levels - 1]
    couplings = CouplingSet(
        **{name: (data.draw(coupling), data.draw(coupling)) for name in names}
    )
    fock = None
    if photons:
        modes = tuple(Mode(data.draw(st.floats(0.5, 1.5))) for _ in names)
        fock = FockFactor(modes, (2,) * len(modes))

    def layouts(build):
        try:
            return [build(symmetric) for symmetric in (False, True)]
        except BasisMismatch:  # an empty sector, on both layouts
            with pytest.raises(BasisMismatch):
                build(True)
            return None

    bases = layouts(
        lambda symmetric: hamiltonian._product_basis(
            nodes, couplings, fock, quanta, symmetric
        )
    )
    if bases is not None:
        assert np.array_equal(bases[0].occupations, bases[1].occupations)
    if photons:
        parts = layouts(
            lambda symmetric: microscopic_parts(
                nodes, couplings, fock, quanta, symmetric
            )
        )
        if parts is not None:
            (atoms, *per_atom), (sites, *symmetric) = parts
            assert np.array_equal(atoms.occupations, sites.occupations)
            for a, b in zip(per_atom, symmetric):
                assert a.tobytes() == b.tobytes()
    three = NodeSpec(1, 3, (0.0, 1.0, 2.1))
    transistor = CouplingSet(g21=data.draw(coupling), g32=data.draw(coupling))
    builds = layouts(
        lambda symmetric: transistor_hamiltonian(
            nodes[0], (three, three), transistor,
            DetuningSet(lower=0.5, upper=(None, 0.7, -0.6)),
            include_target_upper_swap=True, rotating_frame=False,
            quanta=quanta, symmetric=symmetric,
        )
    )
    if builds is not None:
        atoms, sites = builds
        assert np.array_equal(atoms.basis.occupations, sites.basis.occupations)
        assert atoms.matrix.tobytes() == sites.matrix.tobytes()


@pytest.mark.parametrize("quanta", [None, 1])
def test_bad_occupations_are_held_by_no_basis(quanta):
    # a full basis used to hold any tuple, and to index a wrong-length one
    # with a ValueError; both forms now refuse such a tuple the same way
    nodes = (NodeSpec(2), NodeSpec(1))
    fock = FockFactor((Mode(1.0),), (1,))
    if quanta is None:
        basis = build_microscopic_basis(nodes, fock)
    else:
        basis = CompositeBasis(nodes, fock, weights=(1,) * 4, quanta=quanta)
    assert basis.holds(basis.occupation(basis.dim - 1))
    # rows once coded each entry as a 16-bit digit, so 65536 read as 0 and
    # -65535 as 1, and found a row the basis does not hold
    for occupation in ((7, 7), (0,), (0, 0, 0, 0, 0), (0, 0, 0, 2), (0, 0, 2, 0),
                       (0, -1, 0, 0), (7, 7, 7, 7), (65536, 0, 0, 1),
                       (0, 0, -65535, 0)):
        assert not basis.holds(occupation)
        with pytest.raises(BasisMismatch):
            basis.index(occupation)
        if len(occupation) == len(basis.shape):
            refusal = re.escape(f"occupation {occupation} lies outside")
            with pytest.raises(BasisMismatch, match=refusal):
                basis.rows(np.array([basis.occupation(0), occupation]))


def test_index_order_is_lexicographic_and_stable():
    basis = build_microscopic_basis((NodeSpec(2), NodeSpec(1)))
    assert basis.occupation(0) == (0, 0, 0)
    assert basis.occupation(1) == (0, 0, 1)
    assert basis.occupation(4) == (1, 0, 0)
    assert basis.index((1, 1, 1)) == basis.dim - 1


_coordinates = st.floats(min_value=-2.0, max_value=2.0)
_vectors = st.tuples(_coordinates, _coordinates, _coordinates)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    k=_vectors,
    data=st.data(),
)
def test_phased_pair_states_match_a_kronecker_construction(sizes, k, data):
    # every pair-isometry row, 2- included, and the one-node double
    # excitation, against Dicke factors phased atom by atom and joined by kron
    positions = [data.draw(st.lists(_vectors, min_size=n, max_size=n)) for n in sizes]
    nodes = tuple(NodeSpec(n, positions=tuple(r)) for n, r in zip(sizes, positions))
    micro = build_microscopic_basis(nodes)
    phases = [np.exp(1j * (np.array(r) @ np.array(k))) for r in positions]

    def pair(exc1, exc2):
        first = brute_dicke(sizes[0], exc1, phases[0])
        return np.kron(first, brute_dicke(sizes[1], exc2, phases[1]))

    doubles = pair(2, 0), pair(0, 2)
    expected = [pair(0, 0), pair(1, 0), pair(0, 1), pair(1, 1)]
    expected += [(doubles[0] + sign * doubles[1]) / np.sqrt(2) for sign in (1, -1)]
    rows = pair_isometry(micro, wave_vector=k)
    for row, reference in zip(rows, expected):
        assert np.abs(row - reference).max() < 1e-12
    for m, n in enumerate(sizes):
        if n < 2:
            continue
        state = double_excitation_state(micro, m, wave_vector=k)
        assert np.abs(state - doubles[m]).max() < 1e-12


def test_wave_vectors_must_be_finite_3_vectors():
    # a NaN wave vector used to give a non-finite state without an error;
    # every wave_vector argument and Mode.wave_vector reach the one check
    nan = float("nan")
    nodes = (NodeSpec(2, positions=((0, 0, 0), (0.3, 0.1, 0.2))), NodeSpec(1))
    micro = build_microscopic_basis(nodes)
    for k in ((1.0, 2.0), (nan, 0.0, 0.0), (0.0, float("inf"), 0.0), "k"):
        with pytest.raises(ValueError):
            atom_phases(micro, k)
        with pytest.raises(ValueError):
            collective_excitation_state(micro, 0, wave_vector=k)
        with pytest.raises(ValueError):
            pair_isometry(micro, wave_vector=k)
        with pytest.raises(ValueError):
            photon_free_effective_hamiltonian(
                nodes, CouplingSet(g21=1.0), DetuningSet(lower=1.0 / 0.3), {0: k}
            )
    fock = FockFactor((Mode(1.0, wave_vector=(nan, 0.0, 0.0)),), (1,))
    with pytest.raises(ValueError):
        microscopic_hamiltonian(nodes, CouplingSet(g21=0.1), fock)


def test_node_spec_validation():
    with pytest.raises(ValueError):
        NodeSpec(2, 2, (1.0, 0.5))  # not increasing
    # non-finite energies: NaN passes the increasing check, so these used to
    # construct and fail later as a non-Hermitian Hamiltonian
    for energies in ((0.0, float("nan")), (float("-inf"), 0.0), (0.0, float("inf"))):
        with pytest.raises(ValueError, match="finite"):
            NodeSpec(1, 2, energies)
    with pytest.raises(ValueError):
        NodeSpec(2, positions=((0.0, 0.0, 0.0),))  # wrong length
    # positions that are not finite 3-vectors: these two used to construct
    # and fail later, in a matmul or as a non-finite state
    for positions in (((0, 0), (1, 0)), ((0, 0, 0), (float("nan"), 0, 0))):
        with pytest.raises(ValueError):
            NodeSpec(2, positions=positions)


# --- symmetrization ----------------------------------------------------------


def test_symmetrize_symmetric_single_excitation():
    nodes = (NodeSpec(2), NodeSpec(2))
    micro = build_microscopic_basis(nodes)
    state = StateVector(brute_pair_state(2, 2, 1, 0), micro)
    collective, leakage = symmetrize(state)
    assert leakage < 1e-12
    assert abs(collective.amplitudes[1]) == pytest.approx(1.0, abs=1e-12)


def test_symmetrize_antisymmetric_state_leaks_fully():
    nodes = (NodeSpec(2), NodeSpec(2))
    micro = build_microscopic_basis(nodes)
    states = np.eye(micro.dim)
    anti = states[micro.index((1, 0, 0, 0))] - states[micro.index((0, 1, 0, 0))]
    anti = anti / np.sqrt(2)
    _, leakage = symmetrize(StateVector(anti, micro))
    assert leakage == pytest.approx(1.0, abs=1e-12)


def test_symmetrize_rejects_photon_bases():
    basis = build_microscopic_basis(
        (NodeSpec(1), NodeSpec(1)), FockFactor((Mode(1.0),), (1,))
    )
    with pytest.raises(BasisMismatch):
        symmetrize(StateVector(product_excitation_state(basis, []), basis))


def test_swap_evolution_preserves_symmetric_subspace():
    # permutation symmetry of the collective swap keeps leakage at zero
    nodes = (NodeSpec(3), NodeSpec(3))
    micro = build_microscopic_basis(nodes)
    # the two-level swap at rate 0.4: the photon-free form at equal couplings
    h = photon_free_effective_hamiltonian(
        nodes, CouplingSet(g21=1.0), DetuningSet(lower=1.0 / 0.4)
    )
    psi0 = StateVector(collective_excitation_state(micro, 0), micro)
    times = np.linspace(0.0, 20.0, 40)
    grid = evolve_on_grid(h, psi0, times)
    for amplitudes in grid:
        _, leakage = symmetrize(StateVector(amplitudes, micro))
        assert leakage < 1e-12


def test_position_phases_thread_through_collective_states():
    positions = ((0.0, 0.0, 0.0), (0.3, -0.2, 0.9))
    nodes = (NodeSpec(2, positions=positions), NodeSpec(2, positions=positions))
    micro = build_microscopic_basis(nodes)
    k = (1.3, 0.4, -2.0)
    state = collective_excitation_state(micro, 0, wave_vector=k)
    plain = collective_excitation_state(micro, 0)
    assert abs(np.vdot(state, state) - 1.0) < 1e-12
    assert np.abs(np.abs(state) - np.abs(plain)).max() < 1e-12
    # phased symmetrization recovers the phased state exactly
    collective, leakage = symmetrize(StateVector(state, micro), wave_vector=k)
    assert leakage < 1e-12
    assert abs(collective.amplitudes[1]) == pytest.approx(1.0, abs=1e-12)


def test_double_excitation_requires_two_atoms():
    micro = build_microscopic_basis((NodeSpec(1), NodeSpec(2)))
    with pytest.raises(BasisMismatch):
        double_excitation_state(micro, 0)


def test_collective_basis_requires_two_level_nodes():
    with pytest.raises(BasisMismatch):
        CollectiveBasis((NodeSpec(1, 3, (0.0, 1.0, 2.0)), NodeSpec(1)))


# --- level counts against the recursive listing they replace ------------------


def _recursive_level_counts(atoms, levels, cap):
    """Level counts as a recursion over the top level listed them."""

    def excited(n_atoms, top, cap):
        if top == 0:
            yield ()
            return
        n_top = 0
        while n_top <= n_atoms and (cap is None or top * n_top <= cap):
            rest_cap = None if cap is None else cap - top * n_top
            for rest in excited(n_atoms - n_top, top - 1, rest_cap):
                yield rest + (n_top,)
            n_top += 1

    return tuple((atoms - sum(e),) + e for e in excited(atoms, levels - 1, cap))


@settings(max_examples=200, deadline=None)
@given(atoms=st.integers(1, 60), levels=st.sampled_from([2, 3]), data=st.data())
def test_level_counts_equal_the_recursive_listing(atoms, levels, data):
    cap = data.draw(st.none() | st.integers(0, 2 * atoms), label="cap")
    expected = _recursive_level_counts(atoms, levels, cap)
    assert _level_counts(atoms, levels, cap) == expected
    # the cap on a site's states trips at the same row: a listing of
    # exactly `limit` rows passes, one more row raises
    limit = data.draw(st.integers(0, len(expected)), label="limit")
    with mock.patch("cavityqc.basis.MAX_SITE_STATES", limit):
        if len(expected) > limit:
            with pytest.raises(DimensionCap):
                _level_counts(atoms, levels, cap)
        else:
            assert _level_counts(atoms, levels, cap) == expected


# --- the suffix-count listing against the prefix-growing listing it replaces --


def _prefix_growing_listing(basis):
    """Occupation rows as growing prefixes site by site listed them."""
    tables = [w * basis.site_levels(k) for k, w in enumerate(basis.weights)]
    room = [int(table.max()) for table in tables]
    later = np.cumsum(room[::-1])[::-1].tolist()[1:] + [0]
    prefixes = np.zeros((1, 0), dtype=np.int64)
    used = np.zeros(1, dtype=np.int64)
    for table, rest in zip(tables, later):
        total = used[:, None] + table
        keep = (total <= basis.quanta) & (total + rest >= basis.quanta)
        prefix, level = np.nonzero(keep)
        prefixes = np.column_stack([prefixes[prefix], level])
        used = total[prefix, level]
    return prefixes


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_listing_equals_the_prefix_growing_listing(data):
    levels = data.draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=3))
    nodes = tuple(
        NodeSpec(data.draw(st.integers(1, 4)), n, (0.0, 1.0, 2.0)[:n]) for n in levels
    )
    symmetric = data.draw(st.booleans(), label="symmetric")
    n_max = data.draw(st.lists(st.integers(1, 3), max_size=2), label="n_max")
    fock = FockFactor((Mode(1.0),) * len(n_max), n_max) if n_max else None
    sites = len(site_groups(nodes, symmetric)) + len(n_max)
    weights, quanta = None, 0
    if data.draw(st.booleans(), label="sector"):
        weights = data.draw(st.lists(st.integers(0, 2), min_size=sites, max_size=sites))
        quanta = data.draw(st.integers(0, 5), label="quanta")
    try:
        basis = CompositeBasis(nodes, fock, symmetric, weights, quanta)
    except DimensionCap:
        return  # too big to list
    except BasisMismatch:
        # an empty sector: no state of the full space carries its quanta
        try:
            full = CompositeBasis(nodes, fock, symmetric)
        except DimensionCap:
            return
        levels = [full.site_levels(k)[n] for k, n in enumerate(full.occupations.T)]
        carried = sum(w * n for w, n in zip(weights, levels))
        assert not (carried == quanta).any()
        return
    listed, expected = basis.occupations, _prefix_growing_listing(basis)
    assert listed.dtype == expected.dtype and listed.shape == expected.shape
    assert listed.tobytes() == expected.tobytes()
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    order = np.random.default_rng(seed).permutation(basis.dim)
    assert np.array_equal(basis.rows(listed[order]), order)


def test_a_per_atom_sector_lists_a_thousand_atoms_per_node():
    # one quantum on two nodes of 1000 two-level atoms and one mode: row i
    # holds it on site 2000 - i, the photon first (the last site varies fastest)
    n = 1000
    nodes, fock = (NodeSpec(n), NodeSpec(n)), FockFactor((Mode(1.0),), (1,))
    basis = CompositeBasis(nodes, fock, weights=(1,) * (2 * n + 1), quanta=1)
    assert basis.dim == 2 * n + 1
    expected = np.eye(basis.dim, dtype=np.int64)[::-1]
    assert np.array_equal(basis.occupations, expected)
    assert np.array_equal(basis.rows(expected[::-1]), np.arange(basis.dim)[::-1])


def test_pair_rows_expand_only_the_states_a_sector_holds():
    # on the one-quantum sector only |10> and |01> are expanded, N rows
    # each; the other four states cost one probe row, not N^2 or C(N, 2)
    n = 40
    sector = CompositeBasis((NodeSpec(n), NodeSpec(n)), weights=(1,) * 2 * n, quanta=1)
    expanded = []

    def counted(*args, **kwargs):
        occs, amps = _dicke_pattern(*args, **kwargs)
        expanded.append(len(occs))
        return occs, amps

    with mock.patch("cavityqc.basis._dicke_pattern", counted):
        rows = pair_isometry(sector)
    assert sum(expanded) < 3 * n
    assert np.abs(rows[[0, 3, 4, 5]]).max() == 0
    assert np.allclose(np.linalg.norm(rows[1:3], axis=1), 1.0)
