"""Hamiltonian builders against brute-force and perturbation-theory oracles."""

import functools
import itertools
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cavityqc import (
    CollectiveBasis,
    CouplingSet,
    DetuningSet,
    EffectiveRates,
    FockFactor,
    HamiltonianMatrix,
    Mode,
    NodeSpec,
    build_microscopic_basis,
    effective_model_error,
    lamb_shift_hamiltonian,
    microscopic_hamiltonian,
    pair_isometry,
    photon_free_effective_hamiltonian,
    schrieffer_wolff_hamiltonian,
    sw_generator,
    total_excitation_operator,
    transistor_hamiltonian,
    transistor_rate,
    two_level_swap_hamiltonian,
)
from cavityqc.errors import (
    BasisMismatch,
    DimensionCap,
    MissingCoupling,
    ResonanceSingularity,
)
from cavityqc import basis as basis_module
from cavityqc import hamiltonian
from cavityqc.basis import PAIR_OCCUPATIONS, CompositeBasis, atom_phases
from cavityqc.hamiltonian import microscopic_parts

THREE_LEVELS = (0.0, 1.0, 2.1)


# --- independent oracles ------------------------------------------------------


def kron_chain(ops):
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def atom_op(n_atoms, atom, local):
    """Embed a single-atom operator by explicit Kronecker products."""
    eye = np.eye(local.shape[0])
    return kron_chain([local if j == atom else eye for j in range(n_atoms)])


S_RAISE = np.array([[0, 0], [1, 0]], dtype=complex)  # |e><g|


def brute_swap_interaction(n1, n2):
    """sum over all ordered atom pairs (self included) of S+_i S-_j."""
    n = n1 + n2
    j_plus = sum(atom_op(n, j, S_RAISE) for j in range(n))
    return j_plus @ j_plus.conj().T


def brute_dicke(n_atoms, n_excited):
    vec = np.zeros(2**n_atoms, dtype=complex)
    for excited in itertools.combinations(range(n_atoms), n_excited):
        index = sum(2 ** (n_atoms - 1 - j) for j in excited)
        vec[index] = 1.0
    return vec / np.linalg.norm(vec)


def brute_pair_state(n1, n2, exc1, exc2):
    return np.kron(brute_dicke(n1, exc1), brute_dicke(n2, exc2))


# (upper, lower) level of transitions 0, 1, 2, written out independently
LEVEL_PAIRS = ((1, 0), (2, 1), (2, 0))


def kron_microscopic(nodes, couplings, fock):
    """Microscopic Hamiltonian from explicit Kronecker products over sites.

    Sites are the atoms node by node, then the modes; mode slot k serves the
    k-th enabled transition. Each atom carries its level energies, each
    mode omega a^dag a, and each atom-mode pair g e^(i k.r) sigma a + h.c.
    """
    atoms = [(m, j) for m, node in enumerate(nodes) for j in range(node.atom_count)]
    dims = [nodes[m].level_count for m, _ in atoms] + [n + 1 for n in fock.n_max]

    def embed(site, local):
        return kron_chain(
            [local if k == site else np.eye(d) for k, d in enumerate(dims)]
        )

    h = np.zeros((int(np.prod(dims)),) * 2, dtype=complex)
    for site, (m, _) in enumerate(atoms):
        h += embed(site, np.diag(nodes[m].level_energies).astype(complex))
    for slot, t in enumerate(couplings.enabled()):
        mode_site = len(atoms) + slot
        mode = fock.modes[slot]
        n_levels = fock.n_max[slot] + 1
        h += embed(mode_site, mode.frequency * np.diag(np.arange(n_levels)))
        annihilate = embed(mode_site, np.diag(np.sqrt(np.arange(1, n_levels)), k=1))
        upper, lower = LEVEL_PAIRS[t]
        for site, (m, j) in enumerate(atoms):
            node = nodes[m]
            if node.level_count <= upper:
                continue
            sigma = np.zeros((node.level_count,) * 2)
            sigma[upper, lower] = 1.0
            phase = np.exp(1j * node.atom_positions()[j] @ np.asarray(mode.wave_vector))
            term = couplings.coupling(t, m) * phase * embed(site, sigma) @ annihilate
            h += term + term.conj().T
    return h


# --- microscopic model --------------------------------------------------------


@pytest.mark.parametrize(
    "nodes, couplings, fock",
    [
        (
            (NodeSpec(1), NodeSpec(2, 2, (0.0, 1.1))),
            CouplingSet(g21=(0.02, 0.03 - 0.01j)),
            FockFactor((Mode(0.9),), (2,)),
        ),
        (
            (
                NodeSpec(2, 3, THREE_LEVELS, positions=((0, 0, 0), (0.3, -0.2, 0.5))),
                NodeSpec(1, 3, (0.0, 1.05, 2.2), positions=((1.0, 0.4, 0.0),)),
            ),
            CouplingSet(g21=0.02 + 0.003j, g32=0.015, g31=0.01 - 0.002j),
            FockFactor(
                (
                    Mode(0.9, wave_vector=(1.2, 0.0, -0.5)),
                    Mode(1.0, wave_vector=(0.0, 2.0, 0.3)),
                    Mode(1.9, wave_vector=(0.7, 0.7, 0.0)),
                ),
                (1, 2, 1),
            ),
        ),
        (
            (NodeSpec(2, 3, THREE_LEVELS), NodeSpec(2, 2, (0.0, 1.0))),
            CouplingSet(g21=0.02, g32=0.04),
            FockFactor((Mode(0.95), Mode(1.05)), (2, 1)),
        ),
    ],
)
def test_microscopic_matches_kronecker_construction(nodes, couplings, fock):
    h = microscopic_hamiltonian(nodes, couplings, fock)
    assert np.abs(h.matrix - kron_microscopic(nodes, couplings, fock)).max() < 1e-15




def test_single_atom_coupling_element():
    nodes = (NodeSpec(1, 2, (0.0, 1.0)),)
    g = 0.02
    fock = FockFactor((Mode(0.9),), (1,))
    h = microscopic_hamiltonian(nodes, CouplingSet(g21=g), fock)
    basis = h.basis
    excited_vac = basis.index((1, 0))
    ground_one = basis.index((0, 1))
    assert h.matrix[excited_vac, ground_one] == pytest.approx(g)


@settings(max_examples=60, deadline=None)
@given(
    # (atoms, levels) of each node and (omega, n_max) of each mode
    st.lists(st.tuples(st.integers(1, 2), st.sampled_from([2, 3])), min_size=1, max_size=2),
    st.lists(st.tuples(st.floats(0.5, 2.0), st.integers(1, 2)), min_size=1, max_size=2),
    st.sampled_from([None, 0, 1, 2, 3]),
    st.booleans(),
    st.data(),
)
def test_decoupled_limit_is_diagonal(groups, modes, quanta, symmetric, data):
    # every coupling 0: the matrix is diagonal, and each entry is the sum
    # over atoms of its level energy plus the sum over modes of omega n
    energy = st.floats(min_value=-2.0, max_value=2.0)
    nodes = tuple(
        NodeSpec(atoms, levels, tuple(sorted(data.draw(
            st.lists(energy, min_size=levels, max_size=levels, unique=True)
        ))))
        for atoms, levels in groups
    )
    second = data.draw(st.sampled_from(["g32", "g31"]))
    couplings = CouplingSet(**{name: 0.0 for name in ["g21", second][: len(modes)]})
    fock = FockFactor(tuple(Mode(w) for w, _ in modes), tuple(n for _, n in modes))
    try:
        basis, h0, h1 = microscopic_parts(nodes, couplings, fock, quanta, symmetric)
    except BasisMismatch:  # an empty sector
        return
    h = h0 + h1
    assert np.array_equal(h, np.diag(np.diag(h)))
    expected = []
    for occ in basis.occupations:
        total = 0.0
        for m, node in enumerate(nodes):
            for site in basis.node_sites(m):
                if symmetric:
                    counts = basis.level_counts(site)[occ[site]]
                    total += sum(e * n for e, n in zip(node.level_energies, counts))
                else:
                    total += node.level_energies[occ[site]]
        for a, (w, _) in enumerate(modes):
            total += w * occ[basis.mode_site(a)]
        expected.append(total)
    scale = max(1.0, np.abs(expected).max())
    assert np.abs(np.diag(h) - expected).max() <= 1e-12 * scale


def test_total_excitation_commutes_with_microscopic():
    nodes = (NodeSpec(1, 3, THREE_LEVELS), NodeSpec(1, 3, (0.0, 1.05, 2.2)))
    coup = CouplingSet(g21=0.02 + 0.003j, g32=0.015, g31=0.01 - 0.002j)
    fock = FockFactor((Mode(0.9), Mode(1.0), Mode(1.9)), (2, 2, 2))
    h = microscopic_hamiltonian(nodes, coup, fock)
    counter = total_excitation_operator(h.basis, coup)
    comm = h.matrix @ counter - counter @ h.matrix
    assert np.abs(comm).max() < 1e-12


def test_mode_count_must_match_enabled_transitions():
    nodes = (NodeSpec(1, 3, THREE_LEVELS),)
    with pytest.raises(MissingCoupling):
        microscopic_hamiltonian(
            nodes, CouplingSet(g21=0.1), FockFactor((Mode(1.0), Mode(1.0)), (1, 1))
        )


# --- generator entries -----------------------------------------------------------


def _absorbing_entry(fock, g=0.01):
    """The generator's entry <e g; 0| s |g g; 1> of the photon-absorbing monomial."""
    nodes = (NodeSpec(1, 2, (0.0, 1.0)), NodeSpec(1, 2, (0.0, 1.0)))
    s = sw_generator(nodes, CouplingSet(g21=g), fock)
    basis = build_microscopic_basis(nodes, fock)
    return s[basis.index((1, 0, 0)), basis.index((0, 0, 1))]


def test_generator_entry_is_minus_g_over_delta():
    # gap 1.0 against mode frequency 0.9: -g / Delta = -0.01 / 0.1
    assert _absorbing_entry(FockFactor((Mode(0.9),), (1,))) == pytest.approx(-0.1)


def test_generator_vanishes_at_large_detuning():
    assert abs(_absorbing_entry(FockFactor((Mode(1.0 - 1e9),), (1,)))) < 1e-8


def test_resonance_singularity_raised():
    with pytest.raises(ResonanceSingularity):
        _absorbing_entry(FockFactor((Mode(1.0 - 1e-12),), (1,)))


def _two_level_pair(scale):
    return (NodeSpec(1, 2, (0.0, scale)),) * 2


def _with_mode(build):
    """An entry point whose detuning is the gap minus a mode frequency."""

    def call(delta, scale):
        fock = FockFactor((Mode(scale - delta),), (1,))
        return build(_two_level_pair(scale), CouplingSet(g21=0.01), fock)

    return call


def _transistor(build):
    """A transistor entry point with both detunings at ``delta``."""

    def call(delta, scale):
        node = NodeSpec(1, 3, (0.0, 0.5 * scale, scale))
        detunings = DetuningSet(lower=(delta,) * 3, upper=(None, delta, delta))
        return build(node, CouplingSet(g21=0.01, g32=0.01), detunings)

    return call


# Every entry point that divides by a detuning, called as (delta, scale) on
# nodes whose largest level energy is ``scale``.
RESONANT_ENTRY_POINTS = {
    "check_detuning": lambda delta, scale: hamiltonian.check_detuning(
        delta, _two_level_pair(scale), "test"
    ),
    "sw_generator": _with_mode(sw_generator),
    "schrieffer_wolff_hamiltonian": _with_mode(schrieffer_wolff_hamiltonian),
    "photon_free_effective_hamiltonian": lambda delta, scale: (
        photon_free_effective_hamiltonian(
            _two_level_pair(scale), CouplingSet(g21=0.01), DetuningSet((delta, delta))
        )
    ),
    "lamb_shift_hamiltonian": lambda delta, scale: lamb_shift_hamiltonian(
        _two_level_pair(scale), CouplingSet(g21=0.01), DetuningSet((delta, delta)), 1
    ),
    "transistor_hamiltonian": _transistor(
        lambda node, c, d: transistor_hamiltonian(node, (node, node), c, d)
    ),
    "transistor_rate": _transistor(lambda node, c, d: transistor_rate((node,), c, d)),
    "EffectiveRates.from_couplings": lambda delta, scale: (
        EffectiveRates.from_couplings(_two_level_pair(scale), 0.01, 0.01, delta, delta)
    ),
    "effective_model_error": lambda delta, scale: effective_model_error(
        _two_level_pair(scale), CouplingSet(g21=0.01), [delta], grid_points=2
    ),
}


@pytest.mark.parametrize("entry", sorted(RESONANT_ENTRY_POINTS))
@settings(max_examples=25, deadline=None)
@given(
    scale=st.floats(min_value=1e-3, max_value=1e3),
    below=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.99)),
    above=st.floats(min_value=1.01, max_value=1.1),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_every_entry_point_refuses_detunings_within_the_floor(
    entry, scale, below, above, sign
):
    # refused for |delta| < RESONANCE_FLOOR * max|energy|, accepted just above
    build = RESONANT_ENTRY_POINTS[entry]
    floor = hamiltonian.RESONANCE_FLOOR * scale
    with pytest.raises(ResonanceSingularity):
        build(sign * below * floor, scale)
    build(sign * above * floor, scale)


@pytest.mark.parametrize("factor, refused", [(2.0, False), (0.5, True)])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_resonance_floor_sits_at_one_part_in_a_billion(factor, refused, sign):
    # the documented floor (RESONANCE_FLOOR) is 1e-9 of the largest
    # |level energy|, here 3, both for the check and for a builder using it
    nodes = (NodeSpec(1, 2, (0.0, 3.0)), NodeSpec(1, 2, (0.0, 3.0)))
    delta = sign * factor * 1e-9 * 3.0

    def build():
        return photon_free_effective_hamiltonian(
            nodes, CouplingSet(g21=1e-6), DetuningSet(lower=delta)
        )

    if refused:
        with pytest.raises(ResonanceSingularity):
            hamiltonian.check_detuning(delta, nodes, "boundary")
        with pytest.raises(ResonanceSingularity):
            build()
    else:
        hamiltonian.check_detuning(delta, nodes, "boundary")
        build()


def _three_level_system():
    nodes = (NodeSpec(1, 3, THREE_LEVELS), NodeSpec(1, 3, (0.0, 1.05, 2.2)))
    coup = CouplingSet(g21=0.02 + 0.003j, g32=0.015, g31=0.01 - 0.002j)
    fock = FockFactor((Mode(0.9), Mode(1.0), Mode(1.9)), (2, 2, 2))
    return nodes, coup, fock


def test_generator_cancels_first_order_coupling():
    nodes, coup, fock = _three_level_system()
    _, h0, h1 = microscopic_parts(nodes, coup, fock)
    s = sw_generator(nodes, coup, fock)
    assert np.abs(s + s.conj().T).max() < 1e-14  # anti-Hermitian
    residual = np.linalg.norm(h1 + h0 @ s - s @ h0) / np.linalg.norm(h1)
    assert residual < 1e-10


def _vacuum_block(nodes, couplings, fock):
    """The oracle's block on the photon vacuum."""
    oracle = schrieffer_wolff_hamiltonian(nodes, couplings, fock)
    vac = oracle.basis.fock_block_indices((0,) * fock.mode_count)
    return oracle.matrix[np.ix_(vac, vac)]


def _photon_free(nodes, couplings, fock):
    """The photon-free form at the system's detunings and mode wave vectors."""
    detunings = DetuningSet.from_system(nodes, couplings, fock)
    wave_vectors = {
        t: fock.modes[slot].wave_vector for slot, t in enumerate(couplings.enabled())
    }
    return photon_free_effective_hamiltonian(nodes, couplings, detunings, wave_vectors)


def test_photon_free_form_is_the_vacuum_block_for_multi_atom_nodes():
    # two atoms per node exercises the intra-node cross sums (i != j)
    nodes = (NodeSpec(2, 2, (0.0, 1.0)), NodeSpec(2, 2, (0.0, 1.1)))
    coup = CouplingSet(g21=(0.02, 0.03 - 0.004j))
    fock = FockFactor((Mode(0.8),), (2,))
    free = _photon_free(nodes, coup, fock)
    assert np.abs(_vacuum_block(nodes, coup, fock) - free.matrix).max() < 1e-12


def test_photon_free_form_is_the_vacuum_block_with_position_phases():
    positions = (((0.0, 0.0, 0.0), (0.4, -0.1, 0.2)), ((1.0, 0.3, 0.0),))
    nodes = (
        NodeSpec(2, 3, THREE_LEVELS, positions=positions[0]),
        NodeSpec(1, 3, (0.0, 1.05, 2.2), positions=positions[1]),
    )
    coup = CouplingSet(g21=0.02, g32=0.015, g31=0.01)
    fock = FockFactor(
        (
            Mode(0.9, wave_vector=(1.2, 0.0, -0.5)),
            Mode(1.0, wave_vector=(0.0, 2.0, 0.3)),
            Mode(1.9, wave_vector=(0.7, 0.7, 0.0)),
        ),
        (1, 1, 1),
    )
    block = _vacuum_block(nodes, coup, fock)
    free = _photon_free(nodes, coup, fock)
    assert np.abs(block - free.matrix).max() < 1e-12
    # wave vectors given as arrays build the same oracle
    modes = tuple(Mode(m.frequency, np.array(m.wave_vector)) for m in fock.modes)
    arrays = _vacuum_block(nodes, coup, FockFactor(modes, (1, 1, 1)))
    assert np.array_equal(arrays, block)


def test_zero_photon_block_equals_photon_free_form():
    nodes, coup, fock = _three_level_system()
    oracle = schrieffer_wolff_hamiltonian(nodes, coup, fock)
    vac = oracle.basis.fock_block_indices((0, 0, 0))
    detunings = DetuningSet.from_system(nodes, coup, fock)
    free = photon_free_effective_hamiltonian(nodes, coup, detunings)
    assert np.abs(oracle.matrix[np.ix_(vac, vac)] - free.matrix).max() < 1e-10
    # and on each excitation sector: its vacuum states against the sector build
    for quanta in (1, 2, 3):
        sector = schrieffer_wolff_hamiltonian(nodes, coup, fock, quanta=quanta)
        vac = sector.basis.fock_block_indices((0, 0, 0))
        free = photon_free_effective_hamiltonian(nodes, coup, detunings, quanta=quanta)
        assert np.abs(sector.matrix[np.ix_(vac, vac)] - free.matrix).max() < 1e-10


def test_two_level_diagonal_is_the_closed_form_up_to_the_truncation():
    # |e, n> at w_a + n w + (|g|^2 / Delta)(n + 1), |g, n> at n w - (|g|^2 / Delta) n,
    # for every n up to n_max: the guard photon gives |e, n_max> its (n + 1)
    w_a, w, g, n_max = 1.0, 0.8, np.sqrt(5e-4) * np.exp(0.4j), 3
    nodes = (NodeSpec(1, 2, (0.0, w_a)),)
    h = schrieffer_wolff_hamiltonian(
        nodes, CouplingSet(g21=g), FockFactor((Mode(w),), (n_max,))
    )
    shift = abs(g) ** 2 / (w_a - w)
    diagonal = np.diag(h.matrix)
    for n in range(n_max + 1):
        excited = diagonal[h.basis.index((1, n))]
        ground = diagonal[h.basis.index((0, n))]
        assert excited == pytest.approx(w_a + n * w + shift * (n + 1), abs=1e-12)
        assert ground == pytest.approx(n * w - shift * n, abs=1e-12)


def test_cross_terms_are_their_closed_forms_up_to_the_truncation():
    # one three-level atom, three modes at n_max 2: the two-photon climb and
    # the two Raman entries at every photon number, those at n_max included
    energies, n_max = (0.0, 1.0, 2.1), 2
    g21, g32, g31 = 0.02 + 0.003j, 0.015 - 0.006j, 0.01 - 0.002j
    freqs = (0.9, 1.3, 1.85)
    d0, d1, d2 = (
        energies[1] - freqs[0], energies[2] - energies[1] - freqs[1], energies[2] - freqs[2]
    )
    h = schrieffer_wolff_hamiltonian(
        (NodeSpec(1, 3, energies),),
        CouplingSet(g21=g21, g32=g32, g31=g31),
        FockFactor(tuple(Mode(f) for f in freqs), (n_max,) * 3),
    )

    def entry(to, fr):
        return h.matrix[h.basis.index(to), h.basis.index(fr)]

    for n0, n1, n2 in itertools.product(range(n_max + 1), repeat=3):
        if n0 and n1:
            climb = 0.5 * (1 / d1 - 1 / d0) * g21 * g32 * np.sqrt(n0 * n1)
            got = entry((2, n0 - 1, n1 - 1, n2), (0, n0, n1, n2))
            assert abs(got - climb) < 1e-12
        if n2 and n0 < n_max:
            upper = 0.5 * (1 / d0 + 1 / d2) * np.conj(g21) * g31 * np.sqrt(n2 * (n0 + 1))
            got = entry((2, n0 + 1, n1, n2 - 1), (1, n0, n1, n2))
            assert abs(got - upper) < 1e-12
        if n2 and n1 < n_max:
            lower = -0.5 * (1 / d1 + 1 / d2) * np.conj(g32) * g31 * np.sqrt(n2 * (n1 + 1))
            got = entry((1, n0, n1 + 1, n2 - 1), (0, n0, n1, n2))
            assert abs(got - lower) < 1e-12


@pytest.mark.parametrize("n1, n2", itertools.product(range(1, 5), repeat=2))
def test_lamb_shift_form_is_the_oracle_on_one_excitation(n1, n2):
    # the oracle's block on the two collective one-excitation states with n
    # photons, less n w, is the pair form's one-excitation block; complex,
    # unequal couplings and a negative detuning on node 1
    w, n_max = 1.1, 2
    nodes = (NodeSpec(n1, 2, (-0.5, 0.5)), NodeSpec(n2, 2, (-0.55, 0.6)))
    couplings = CouplingSet(g21=(0.02 * np.exp(0.7j), 0.035 * np.exp(-1.9j)))
    fock = FockFactor((Mode(w),), (n_max,))
    detunings = DetuningSet.from_system(nodes, couplings, fock)
    assert detunings.value(0, 0) < 0 < detunings.value(0, 1)
    atoms = n1 + n2
    for n in range(n_max + 1):
        oracle = schrieffer_wolff_hamiltonian(nodes, couplings, fock, quanta=n + 1)
        states = []
        for first, count in ((0, n1), (n1, n2)):
            occupations = np.zeros((count, atoms + 1), dtype=int)
            occupations[np.arange(count), first + np.arange(count)] = 1
            occupations[:, atoms] = n
            state = np.zeros(oracle.basis.dim)
            state[oracle.basis.rows(occupations)] = 1 / np.sqrt(count)
            states.append(state)
        states = np.array(states)
        block = states @ oracle.matrix @ states.T - n * w * np.eye(2)
        pair = lamb_shift_hamiltonian(nodes, couplings, detunings, n)
        assert np.abs(block - pair.matrix[np.ix_([1, 2], [1, 2])]).max() < 1e-12


# --- collective two-level swap --------------------------------------------------


def microscopic_swap(nodes, rate, rotating_frame):
    """The two-level swap at ``rate`` over the atoms: the photon-free form
    at equal couplings g = 1 and equal detunings 1 / rate."""
    couplings, detunings = CouplingSet(g21=1.0), DetuningSet(lower=1.0 / rate)
    return photon_free_effective_hamiltonian(
        nodes, couplings, detunings, rotating_frame=rotating_frame
    )


def symmetric_site_swap(nodes, rate, rotating_frame=True):
    """The microscopic swap on one symmetric site per node, in the pair basis.

    _product_basis is the one place the site layout is chosen, so patching
    it builds microscopic_swap on the nodes' Dicke states.
    """
    symmetric = functools.partial(hamiltonian._product_basis, symmetric=True)
    with mock.patch.object(hamiltonian, "_product_basis", symmetric):
        h = microscopic_swap(nodes, rate, rotating_frame=rotating_frame)
    assert h.basis.symmetric
    rows = pair_isometry(h.basis)
    return rows.conj() @ h.matrix @ rows.T


@pytest.mark.parametrize("n_atoms", [2, 3])
def test_single_excitation_element_equals_brute_force(n_atoms):
    rate = 0.7
    interaction = rate * brute_swap_interaction(n_atoms, n_atoms)
    psi2 = brute_pair_state(n_atoms, n_atoms, 1, 0)
    psi3 = brute_pair_state(n_atoms, n_atoms, 0, 1)
    element = psi3.conj() @ interaction @ psi2
    assert element == pytest.approx(n_atoms * rate, abs=1e-12)

    nodes = (NodeSpec(n_atoms), NodeSpec(n_atoms))
    h = two_level_swap_hamiltonian(nodes, rate, rotating_frame=True)
    for matrix in (h.matrix, symmetric_site_swap(nodes, rate)):
        assert matrix[2, 1] == pytest.approx(element, abs=1e-12)
        assert matrix[1, 1] == pytest.approx(n_atoms * rate, abs=1e-12)


@pytest.mark.parametrize("n_atoms", [2, 3])
def test_doubly_excited_element_conventions(n_atoms):
    rate = 0.7
    nodes = (NodeSpec(n_atoms), NodeSpec(n_atoms))

    # finite-N combinatorics, checked against the brute-force projection
    interaction = rate * brute_swap_interaction(n_atoms, n_atoms)
    psi4 = brute_pair_state(n_atoms, n_atoms, 1, 1)
    plus = (
        brute_pair_state(n_atoms, n_atoms, 2, 0) + brute_pair_state(n_atoms, n_atoms, 0, 2)
    ) / np.sqrt(2)
    element = plus.conj() @ interaction @ psi4
    expected_exact = 2.0 * np.sqrt(n_atoms * (n_atoms - 1)) * rate
    assert element == pytest.approx(expected_exact, abs=1e-12)
    assert symmetric_site_swap(nodes, rate)[4, 3] == pytest.approx(element, abs=1e-12)

    # large-ensemble convention carries the doubled-frequency coupling 2 N rate
    h = two_level_swap_hamiltonian(nodes, rate, rotating_frame=True)
    assert h.matrix[4, 3] == pytest.approx(2.0 * n_atoms * rate, abs=1e-12)
    assert h.matrix[3, 3] == pytest.approx(2.0 * n_atoms * rate, abs=1e-12)
    assert h.matrix[4, 4] == pytest.approx(2.0 * n_atoms * rate, abs=1e-12)


def test_zero_rate_leaves_only_bare_energies():
    nodes = (NodeSpec(2), NodeSpec(2))
    h = two_level_swap_hamiltonian(nodes, 0.0, rotating_frame=True)
    assert np.abs(h.matrix).max() == 0.0


def test_swap_rate_must_be_real_to_round_off():
    # an imaginary part of 1e-12 x max(1, |rate|) is round-off of a real rate
    nodes = (NodeSpec(2), NodeSpec(2))
    with pytest.raises(ValueError, match="real"):
        two_level_swap_hamiltonian(nodes, 0.1 + 1e-9j)
    inside = two_level_swap_hamiltonian(nodes, 0.1 + 5e-13j).matrix
    assert inside.tobytes() == two_level_swap_hamiltonian(nodes, 0.1).matrix.tobytes()


def test_antisymmetric_doubly_excited_state_is_decoupled():
    # the node-exchange-odd combination is an eigenstate of the swap
    n_atoms, rate = 3, 0.7
    nodes = (NodeSpec(n_atoms), NodeSpec(n_atoms))
    h = two_level_swap_hamiltonian(nodes, rate, rotating_frame=True)
    for matrix in (h.matrix, symmetric_site_swap(nodes, rate)):
        assert abs(matrix[5, 3]) < 1e-15
        assert abs(matrix[5, 4]) < 1e-15
    assert h.matrix[5, 5] == pytest.approx(2 * n_atoms * rate, abs=1e-12)


@pytest.mark.parametrize("n1, n2", [(2, 2), (2, 3), (4, 3)])
def test_symmetric_site_swap_equals_brute_force_in_pair_basis(n1, n2):
    # every entry of the finite-N pair model, bare energies included, from
    # Kronecker products over the atoms projected on the six pair states
    rate, energies = 0.7, (0.1, 1.3)
    nodes = (NodeSpec(n1, 2, energies), NodeSpec(n2, 2, energies))
    bare = sum(
        atom_op(n1 + n2, j, np.diag(energies)) for j in range(n1 + n2)
    )
    brute = bare + rate * brute_swap_interaction(n1, n2)
    states = [brute_pair_state(n1, n2, *counts) for counts in PAIR_OCCUPATIONS]
    rows = CollectiveBasis.occupation_rotation() @ np.array(states)
    expected = rows.conj() @ brute @ rows.T
    model = symmetric_site_swap(nodes, rate, rotating_frame=False)
    assert np.abs(model - expected).max() <= 1e-12


def test_swap_microscopic_matches_collective_single_sector():
    n_atoms = 3
    rate = 0.4
    nodes = (NodeSpec(n_atoms), NodeSpec(n_atoms))
    h_micro = microscopic_swap(nodes, rate, rotating_frame=True)
    assert np.abs(h_micro.matrix - rate * brute_swap_interaction(n_atoms, n_atoms)).max() < 1e-12


# --- photon-number blockade form -------------------------------------------------


def _blockade_setup(n1, n2, g1, g2, d1, d2):
    freq = 1.0
    nodes = (
        NodeSpec(n1, 2, (-freq / 2, freq / 2)),
        NodeSpec(n2, 2, (-freq / 2, freq / 2)),
    )
    couplings = CouplingSet(g21=(g1, g2))
    detunings = DetuningSet(lower=(d1, d2))
    return nodes, couplings, detunings


def test_lamb_shift_reduces_to_swap_at_zero_photons():
    nodes, couplings, detunings = _blockade_setup(2, 2, 0.03, 0.03, 0.5, 0.5)
    h = lamb_shift_hamiltonian(nodes, couplings, detunings, n_photons=0)
    rate = 0.03**2 / 0.5
    h_swap = two_level_swap_hamiltonian(nodes, rate)
    assert np.abs(h.matrix - h_swap.matrix).max() < 1e-14


def test_single_excitation_diagonal_matches_dressed_phases():
    # diagonal entries reproduce the dressed-frequency structure of the
    # single-excitation amplitude equations (standard Schrodinger sign)
    n1, n2, n_ph = 2, 3, 2
    g1, g2, d1, d2 = 0.03, 0.04, 0.5, 0.8
    nodes, couplings, detunings = _blockade_setup(n1, n2, g1, g2, d1, d2)
    h = lamb_shift_hamiltonian(nodes, couplings, detunings, n_photons=n_ph)
    w1, w2 = g1**2 / d1, g2**2 / d2
    wt1 = 1.0 + 2 * n_ph * w1
    wt2 = 1.0 + 2 * n_ph * w2
    expected_22 = -((n1 / 2 - 1) * wt1 + (n2 / 2) * wt2 - n1 * w1)
    expected_33 = -((n1 / 2) * wt1 + (n2 / 2 - 1) * wt2 - n2 * w2)
    assert h.matrix[1, 1] == pytest.approx(expected_22, abs=1e-12)
    assert h.matrix[2, 2] == pytest.approx(expected_33, abs=1e-12)


def test_single_excitation_offdiagonal_from_collective_oracle():
    # cross-coupling for unequal nodes, against the brute-force inter-node sum
    n1, n2 = 2, 3
    g1, g2, d1, d2 = 0.03, 0.04, 0.5, 0.8
    nodes, couplings, detunings = _blockade_setup(n1, n2, g1, g2, d1, d2)
    h = lamb_shift_hamiltonian(nodes, couplings, detunings, n_photons=1)

    swap = 0.5 * g1 * g2 * (1 / d1 + 1 / d2)
    n = n1 + n2
    plus_1 = sum(atom_op(n, j, S_RAISE) for j in range(n1))
    plus_2 = sum(atom_op(n, j, S_RAISE) for j in range(n1, n))
    inter = swap * (plus_1 @ plus_2.conj().T + plus_2 @ plus_1.conj().T)
    psi2 = brute_pair_state(n1, n2, 1, 0)
    psi3 = brute_pair_state(n1, n2, 0, 1)
    element = psi3.conj() @ inter @ psi2
    assert element == pytest.approx(np.sqrt(n1 * n2) * swap, abs=1e-12)
    assert h.matrix[2, 1] == pytest.approx(element, abs=1e-12)


def test_effective_collective_equals_swap_form_without_photons():
    nodes, couplings, detunings = _blockade_setup(1, 1, 0.02, 0.02, 0.4, 0.4)
    h = lamb_shift_hamiltonian(nodes, couplings, detunings, n_photons=0)
    rate = 0.02**2 / 0.4
    h_swap = two_level_swap_hamiltonian(nodes, rate)
    assert np.abs(h.matrix - h_swap.matrix).max() < 1e-14
    # exchange element for single atoms is the bare swap rate
    assert h.matrix[2, 1] == pytest.approx(rate, abs=1e-14)


def test_effective_collective_doublet_splitting():
    nodes, couplings, detunings = _blockade_setup(1, 1, 0.02, 0.02, 0.4, 0.4)
    h = lamb_shift_hamiltonian(nodes, couplings, detunings, 0, rotating_frame=True)
    rate = 0.02**2 / 0.4
    block = h.matrix[1:3, 1:3]
    values = np.linalg.eigvalsh(block)
    assert values[1] - values[0] == pytest.approx(2.0 * rate, rel=1e-12)


def test_effective_collective_rejects_three_level_nodes():
    nodes = (NodeSpec(1, 3, THREE_LEVELS), NodeSpec(1, 3, THREE_LEVELS))
    with pytest.raises(BasisMismatch):
        lamb_shift_hamiltonian(
            nodes, CouplingSet(g21=0.1), DetuningSet(lower=(0.5, 0.5)), 0
        )


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.001, max_value=0.3),
    st.floats(min_value=0.001, max_value=0.3),
    st.floats(min_value=0.05, max_value=2.0),
)
def test_rate_identity_at_equal_detunings(g1, g2, delta):
    rates = EffectiveRates.from_couplings(_two_level_pair(1.0), g1, g2, delta, delta)
    assert abs(rates.swap_rate) ** 2 == pytest.approx(
        rates.shift_rate_1 * rates.shift_rate_2, rel=1e-12
    )


# --- transistor coupling ----------------------------------------------------------


def _transistor_setup(n_atoms):
    node = NodeSpec(n_atoms, 3, THREE_LEVELS)
    couplings = CouplingSet(g21=0.02, g32=0.03)
    detunings = DetuningSet(lower=(0.5,) * 3, upper=(None, 0.7, 0.7))
    return node, couplings, detunings


@pytest.mark.parametrize("n_atoms", [1, 2])
def test_transistor_collective_element_scales_with_sqrt_n(n_atoms):
    node, couplings, detunings = _transistor_setup(n_atoms)
    h = transistor_hamiltonian(node, (node, node), couplings, detunings)
    rate = transistor_rate((node,), couplings, detunings)

    # collective states assembled independently over 3-level product space
    n = node.atom_count
    dim_node = 3**n

    def level_state(level):
        vec = np.zeros(dim_node, dtype=complex)
        for j in range(n):
            digits = [0] * n
            digits[j] = level
            index = int("".join(str(d) for d in digits), 3)
            vec[index] = 1.0
        return vec / np.sqrt(n)

    ground = np.zeros(dim_node, dtype=complex)
    ground[0] = 1.0
    ctrl1_t1 = kron_chain([level_state(1), level_state(1), ground])
    ctrl0_t2 = kron_chain([ground, level_state(2), ground])
    element = ctrl0_t2.conj() @ h.matrix @ ctrl1_t1
    assert abs(element) == pytest.approx(np.sqrt(n_atoms) * rate, rel=1e-12)


def test_transistor_zero_upper_coupling_gives_zero_matrix():
    node = NodeSpec(1, 3, THREE_LEVELS)
    couplings = CouplingSet(g21=0.02, g32=0.0)
    detunings = DetuningSet(lower=(0.5,) * 3, upper=(None, 0.7, 0.7))
    h = transistor_hamiltonian(node, (node, node), couplings, detunings)
    assert np.abs(h.matrix).max() == 0.0


def test_one_detuning_for_every_node_builds_the_tuple_form_bit_for_bit():
    node = NodeSpec(2, 3, THREE_LEVELS)
    couplings = CouplingSet(g21=(0.02, 0.025, 0.03), g32=0.03)
    uniform = DetuningSet(lower=0.5, upper=0.7)
    per_node = DetuningSet(lower=(0.5,) * 3, upper=(None, 0.7, 0.7))
    for swap in (False, True):
        a, b = (
            transistor_hamiltonian(
                node, (node, node), couplings, d, include_target_upper_swap=swap
            )
            for d in (uniform, per_node)
        )
        assert a.matrix.tobytes() == b.matrix.tobytes()
    pair = (NodeSpec(2), NodeSpec(3))
    a, b = (
        lamb_shift_hamiltonian(pair, CouplingSet(g21=(0.02, 0.03)), d, 2)
        for d in (uniform, per_node)
    )
    assert a.matrix.tobytes() == b.matrix.tobytes()


def test_transistor_rate_past_the_float_range_is_not_finite_without_a_warning():
    # Python complex arithmetic: inf (or inf+nanj), where a numpy scalar
    # product met inf x 0 and warned
    node, _, detunings = _transistor_setup(1)
    couplings = CouplingSet(g21=1.7e308, g32=0.03)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rate = transistor_rate((node,), couplings, detunings)
    assert not np.isfinite(rate)


def test_transistor_conserves_weighted_excitation():
    node, couplings, detunings = _transistor_setup(2)
    h = transistor_hamiltonian(
        node, (node, node), couplings, detunings, include_target_upper_swap=True
    )
    basis = h.basis
    diag = np.zeros(basis.dim)
    for site in range(basis.n_atomic_sites):
        diag += basis.occupations[:, site]
    counter = np.diag(diag)
    assert np.abs(h.matrix @ counter - counter @ h.matrix).max() < 1e-12


def test_transistor_upper_swap_channel_changes_matrix():
    node, couplings, detunings = _transistor_setup(2)
    bare = transistor_hamiltonian(node, (node, node), couplings, detunings)
    with_channel = transistor_hamiltonian(
        node, (node, node), couplings, detunings, include_target_upper_swap=True
    )
    assert np.abs(bare.matrix - with_channel.matrix).max() > 1e-6


def test_full_space_transistor_refused_before_allocating():
    # three atoms per node: dimension 3^9 = 19683, a 6.2 GB dense matrix
    node, couplings, detunings = _transistor_setup(3)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionCap, match="cap"):
            transistor_hamiltonian(node, (node, node), couplings, detunings)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10e6


# --- blanket hermiticity -----------------------------------------------------------


def test_every_builder_returns_hermitian_matrices():
    nodes, coup, fock = _three_level_system()
    builders = [
        microscopic_hamiltonian(nodes, coup, fock),
        schrieffer_wolff_hamiltonian(nodes, coup, fock),
    ]
    pair = (NodeSpec(2), NodeSpec(3))
    builders.append(two_level_swap_hamiltonian(pair, 0.3))
    bl_nodes, bl_coup, bl_det = _blockade_setup(2, 3, 0.03, 0.04, 0.5, 0.8)
    builders.append(lamb_shift_hamiltonian(bl_nodes, bl_coup, bl_det, 1))
    node, t_coup, t_det = _transistor_setup(2)
    builders.append(transistor_hamiltonian(node, (node, node), t_coup, t_det))
    for h in builders:
        dev = np.abs(h.matrix - h.matrix.conj().T).max()
        scale = max(1.0, np.abs(h.matrix).max())
        assert dev <= 1e-12 * scale


def test_hermiticity_check_refuses_nan():
    # a NaN deviation fails the check; eigh would return a NaN eigenvalue
    with pytest.raises(ValueError, match="not Hermitian"):
        HamiltonianMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]), None)


# --- properties of every microscopic builder over random small systems -------------


def _sector_blocks_match(full, build_sector, couplings):
    """Every excitation sector block of ``full`` equals its sector build."""
    counter = np.diag(total_excitation_operator(full.basis, couplings)).real
    for quanta in np.unique(counter).astype(int):
        sector = build_sector(quanta)
        index = full.basis.rows(sector.basis.occupations)
        assert np.array_equal(np.sort(index), np.flatnonzero(counter == quanta))
        block = full.matrix[np.ix_(index, index)]
        assert np.abs(block - sector.matrix).max() <= 1e-14


def _check_builder(full, build_sector, couplings, hermitian=True):
    matrix = full.matrix if hermitian else 1j * full.matrix
    assert np.abs(matrix - matrix.conj().T).max() <= 1e-12 * max(
        1.0, np.abs(matrix).max()
    )
    counter = total_excitation_operator(full.basis, couplings)
    assert np.abs(full.matrix @ counter - counter @ full.matrix).max() < 1e-12
    _sector_blocks_match(full, build_sector, couplings)


class _Generator:
    """sw_generator output dressed with its basis for the shared checks."""

    def __init__(self, matrix, basis):
        self.matrix, self.basis = matrix, basis


def _vectors(draw, count):
    coordinate = st.floats(min_value=-1.0, max_value=1.0)
    return tuple(
        (draw(coordinate), draw(coordinate), draw(coordinate)) for _ in range(count)
    )


@st.composite
def small_systems(draw):
    nodes = []
    for _ in range(2):
        levels = draw(st.sampled_from([2, 3]))
        atoms = draw(st.integers(min_value=1, max_value=2))
        # gaps within 3% keep every node at least 0.07 from resonance
        gap = draw(st.floats(min_value=0.97, max_value=1.03))
        energies = (0.0, gap) if levels == 2 else (0.0, gap, 2.1 * gap)
        positions = _vectors(draw, atoms) if draw(st.booleans()) else None
        nodes.append(NodeSpec(atoms, levels, energies, positions))
    top = max(node.level_count for node in nodes)
    enabled = [0] if top == 2 else draw(
        st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=3, unique=True)
    )
    coupling = st.complex_numbers(min_magnitude=0.005, max_magnitude=0.05)
    values = {}
    for t in sorted(enabled):
        name = ("g21", "g32", "g31")[t]
        if draw(st.booleans()):
            values[name] = draw(coupling)
        else:
            values[name] = (draw(coupling), draw(coupling))
    couplings = CouplingSet(**values)
    modes, n_max = [], []
    for t in couplings.enabled():
        upper, lower = LEVEL_PAIRS[t]
        detuning = draw(st.floats(min_value=0.2, max_value=0.4)) * draw(
            st.sampled_from([-1.0, 1.0])
        )
        driven = next(node for node in nodes if node.level_count > upper)
        modes.append(Mode(driven.energy_gap(upper, lower) - detuning, _vectors(draw, 1)[0]))
        n_max.append(draw(st.integers(min_value=1, max_value=2)))
    fock = FockFactor(tuple(modes), tuple(n_max))
    dim = np.prod(
        [n.level_count ** n.atom_count for n in nodes] + [n + 1 for n in n_max]
    )
    assume(dim <= 400)
    return tuple(nodes), couplings, fock


@settings(max_examples=25, deadline=None)
@given(small_systems())
def test_microscopic_builders_hermitian_conserving_and_sector_exact(system):
    nodes, couplings, fock = system
    photonic = {
        "microscopic": lambda q=None: microscopic_hamiltonian(
            nodes, couplings, fock, quanta=q
        ),
        "schrieffer-wolff": lambda q=None: schrieffer_wolff_hamiltonian(
            nodes, couplings, fock, quanta=q
        ),
    }
    for build in photonic.values():
        _check_builder(build(), build, couplings)

    full_basis = photonic["microscopic"]().basis

    def generator(q=None):
        basis = full_basis if q is None else photonic["microscopic"](q).basis
        return _Generator(sw_generator(nodes, couplings, fock, quanta=q), basis)

    _check_builder(generator(), generator, couplings, hermitian=False)

    detunings = DetuningSet.from_system(nodes, couplings, fock)
    wave_vectors = {
        t: fock.modes[slot].wave_vector for slot, t in enumerate(couplings.enabled())
    }

    def photon_free(q=None):
        return photon_free_effective_hamiltonian(
            nodes, couplings, detunings, wave_vectors, quanta=q
        )

    _check_builder(photon_free(), photon_free, couplings)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=1, max_value=2),
    st.floats(min_value=0.005, max_value=0.05),
    st.floats(min_value=0.005, max_value=0.05),
    st.floats(min_value=0.2, max_value=1.0),
    st.floats(min_value=0.2, max_value=1.0),
    st.booleans(),
    st.booleans(),
    st.data(),
)
def test_transistor_hermitian_conserving_and_sector_exact(
    n_atoms, g21, g32, delta_c, delta_t, upper_swap, rotating, data
):
    positions = _vectors(data.draw, n_atoms)
    node = NodeSpec(n_atoms, 3, THREE_LEVELS, positions)
    couplings = CouplingSet(g21=g21, g32=g32)
    detunings = DetuningSet(lower=(delta_c,) * 3, upper=(None, delta_t, -delta_t))
    wave_vectors = _vectors(data.draw, 2)

    def build(q=None):
        return transistor_hamiltonian(
            node, (node, node), couplings, detunings, wave_vectors,
            include_target_upper_swap=upper_swap, rotating_frame=rotating, quanta=q,
        )

    _check_builder(build(), build, couplings)


# --- the family assembler against the term-at-a-time assembler ------------------------


def per_term_assemble(basis, terms, diagonal=None):
    """Reference assembler: one scatter-add per term, in the order of the sum.

    The sum starts from ``diagonal``. Each term applies its factors to the
    occupations one at a time, the last factor first, so that factors on
    one site compose.
    """
    h = np.zeros((basis.dim, basis.dim), dtype=complex)
    if diagonal is not None:
        h[np.diag_indices(basis.dim)] = diagonal
    for coeff, factors in terms:
        if coeff == 0:
            continue
        amp = np.full(basis.dim, complex(coeff))
        image = basis.occupations.copy()
        for site, entries in reversed(factors):
            to = np.arange(basis.shape[site])
            local = np.zeros(basis.shape[site])
            for t, f, a in entries:
                to[f], local[f] = t, a
            amp *= local[image[:, site]]
            image[:, site] = to[image[:, site]]
        src = np.flatnonzero(amp)
        h[basis.rows(image[src]), src] += amp[src]
    return h


def _bits(matrix):
    return np.asarray(matrix, dtype=complex).view(np.uint64)


@settings(max_examples=60, deadline=None)
@given(small_systems(), st.data())
def test_family_assembler_equals_per_term_assembler(system, data):
    nodes, couplings, fock = system
    detunings = DetuningSet.from_system(nodes, couplings, fock)
    wave_vectors = {
        t: fock.modes[slot].wave_vector for slot, t in enumerate(couplings.enabled())
    }
    quanta = data.draw(st.sampled_from([None, 0, 1, 2]))
    builds = [
        lambda: microscopic_hamiltonian(nodes, couplings, fock, quanta=quanta).matrix,
        lambda: sw_generator(nodes, couplings, fock, quanta=quanta),
        lambda: photon_free_effective_hamiltonian(
            nodes, couplings, detunings, wave_vectors, quanta=quanta
        ).matrix,
    ]
    # a transistor of drawn size, couplings, positions and channels
    n_atoms = data.draw(st.integers(min_value=1, max_value=2))
    target = NodeSpec(n_atoms, 3, THREE_LEVELS, _vectors(data.draw, n_atoms))
    control = data.draw(st.sampled_from([target, NodeSpec(n_atoms, 3, THREE_LEVELS)]))
    rate = st.floats(min_value=0.005, max_value=0.05)
    detuning = st.floats(min_value=0.2, max_value=1.0)
    transistor_couplings = CouplingSet(g21=data.draw(rate), g32=data.draw(rate))
    transistor_detunings = DetuningSet(
        lower=(data.draw(detuning),) * 3,
        upper=(None, data.draw(detuning), -data.draw(detuning)),
    )
    transistor_waves = _vectors(data.draw, 2)
    options = data.draw(st.tuples(st.booleans(), st.booleans()))
    builds.append(
        lambda: transistor_hamiltonian(
            control, (target, target), transistor_couplings, transistor_detunings,
            transistor_waves, include_target_upper_swap=options[0],
            rotating_frame=options[1], quanta=None if quanta is None else quanta + 1,
        ).matrix
    )
    for build in builds:
        try:
            family = build()
        except BasisMismatch:  # an empty sector
            continue
        with mock.patch.object(hamiltonian, "_assemble", per_term_assemble):
            reference = build()
        assert np.array_equal(_bits(family), _bits(reference))


def test_family_assembler_keeps_the_order_of_the_sum():
    # Terms that land on one diagonal element, each a move and its reverse
    # on one atom, with values whose floating-point sum depends on the
    # order: (1 + 2^-53) - 2^-53 = 1 - 2^-53, but (1 - 2^-53) + 2^-53 = 1.
    basis = build_microscopic_basis((NodeSpec(3),))
    tiny = 2.0**-53
    raise_, lower = [(1, 0, 1.0)], [(0, 1, 1.0)]
    terms = [
        (1.0, ((0, lower), (0, raise_))),
        (tiny, ((1, raise_), (1, lower))),
        (-tiny, ((2, lower), (2, raise_))),
    ]
    state = basis.index((0, 1, 0))
    family = hamiltonian._assemble(basis, terms)
    assert family[state, state] == 1.0 - tiny
    assert np.array_equal(_bits(family), _bits(per_term_assemble(basis, terms)))
    # the sum starts from the diagonal: 1 first, then the two moves
    diagonal = np.zeros(basis.dim)
    diagonal[state] = 1.0
    family = hamiltonian._assemble(basis, terms[1:], diagonal)
    assert family[state, state] == 1.0 - tiny
    reference = per_term_assemble(basis, terms[1:], diagonal)
    assert np.array_equal(_bits(family), _bits(reference))


def _count_row_lookups(build):
    """(terms, basis.rows calls) of every _assemble call that ``build`` makes."""
    rows, assemble = CompositeBasis.rows, hamiltonian._assemble
    lookups, counts = [], []

    def counted_rows(basis, occupations):
        lookups.append(len(occupations))
        return rows(basis, occupations)

    def counted_assemble(basis, terms, diagonal=None):
        terms = list(terms)
        before = len(lookups)
        h = assemble(basis, terms, diagonal)
        counts.append((len(terms), len(lookups) - before))
        return h

    with mock.patch.object(CompositeBasis, "rows", counted_rows), mock.patch.object(
        hamiltonian, "_assemble", counted_assemble
    ):
        build()
    return counts


def test_assembler_locates_all_images_with_one_row_lookup():
    # the error sweep's model build: one sum of a few terms on one sector,
    # cold or warm; the static part is a per-site sum, never assembled
    nodes = (NodeSpec(4), NodeSpec(4))
    layout = FockFactor((Mode(frequency=0.0),), (1,))
    basis_module._LAYOUTS.clear()
    for expected in ([1], [1]):
        counts = _count_row_lookups(
            lambda: microscopic_parts(nodes, CouplingSet(g21=0.02), layout, 1, True)
        )
        assert [lookups for _, lookups in counts] == expected
    # a per-atom build of many terms: still one lookup for the whole sum
    node = NodeSpec(3, 3, THREE_LEVELS)
    couplings = CouplingSet(g21=0.02, g32=0.03)
    detunings = DetuningSet(lower=0.5, upper=0.7)
    counts = _count_row_lookups(
        lambda: photon_free_effective_hamiltonian(
            (node, node), couplings, detunings, quanta=2
        )
    )
    [(terms, lookups)] = counts
    assert terms > 50
    assert lookups == 1


def _one_atom_moves(levels):
    """A transition |to><from|, to != from, with a drawn real amplitude."""
    amplitude = st.floats(min_value=-2.0, max_value=2.0)
    transition = st.tuples(
        st.integers(0, levels - 1), st.integers(0, levels - 1), amplitude
    ).filter(lambda entry: entry[0] != entry[1])
    return transition.map(lambda entry: [entry])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=2),
    st.data(),
)
def test_factors_on_one_symmetric_site_compose_as_a_matrix_product(
    levels, atom_counts, data
):
    # full space, so no image is capped away: the two-factor term is exactly
    # the product of the two one-factor builds, the last factor acting first
    energies = (0.0, 1.0, 2.1)[:levels]
    nodes = tuple(NodeSpec(n, levels, energies) for n in atom_counts)
    basis = CompositeBasis(nodes, None, symmetric=True)
    site = data.draw(st.integers(0, len(nodes) - 1))
    outer = data.draw(_one_atom_moves(levels))
    inner = data.draw(_one_atom_moves(levels))

    def build(*operators):
        return hamiltonian._assemble(basis, [(1.0, [(site, op) for op in operators])])

    product = build(outer) @ build(inner)
    composed = build(outer, inner)
    scale = max(1.0, np.abs(product).max())
    assert np.allclose(composed, product, rtol=0.0, atol=1e-12 * scale)


# --- the exchange generator against the loops it replaced --------------------------
#
# The builders below are the per-builder double loops as they stood before
# one exchange generator replaced them. Every build must stay bit for bit
# equal.


def loop_transition_exchange_terms(basis, t, couplings, deltas, phases):
    upper, lower = LEVEL_PAIRS[t]
    up, down = (upper, lower), (lower, upper)
    for m, delta in deltas.items():
        rate = abs(couplings.coupling(t, m)) ** 2 / delta
        for i in basis.node_sites(m):
            for j in basis.node_sites(m):
                coeff = rate * phases[i] * np.conj(phases[j])
                yield hamiltonian._exchange(i, j, coeff, up, down)
    for m1, m2 in itertools.combinations(deltas, 2):
        g1 = couplings.coupling(t, m1)
        g2 = couplings.coupling(t, m2)
        pref = 0.5 * (1.0 / deltas[m1] + 1.0 / deltas[m2])
        for i in basis.node_sites(m1):
            for j in basis.node_sites(m2):
                coeff = pref * g1 * np.conj(g2) * phases[i] * np.conj(phases[j])
                yield hamiltonian._exchange(i, j, coeff, up, down)
                yield hamiltonian._exchange(j, i, np.conj(coeff), up, down)


def loop_swap_terms(basis, couplings, deltas_of, slot_wave_vectors):
    nodes = basis.nodes
    for t in couplings.enabled():
        upper, _ = LEVEL_PAIRS[t]
        deltas = {
            m: deltas_of(t, m) for m, node in enumerate(nodes) if node.level_count > upper
        }
        for m, delta in deltas.items():
            hamiltonian.check_detuning(delta, nodes, f"{t}, {m}")
        phases = atom_phases(basis, slot_wave_vectors.get(t))
        yield from loop_transition_exchange_terms(basis, t, couplings, deltas, phases)


def loop_transistor(nodes, couplings, detunings, wave_vectors, upper_swap, rotating,
                    quanta):
    basis = hamiltonian._product_basis(nodes, couplings, None, quanta)
    phases_lower = atom_phases(basis, wave_vectors[0])
    phases_upper = atom_phases(basis, wave_vectors[1])
    g21c = couplings.coupling(0, 0)
    delta_c = detunings.value(0, 0)
    cross = []
    for m in (1, 2):
        g32m = couplings.coupling(1, m)
        pref = 0.5 * (1.0 / delta_c + 1.0 / detunings.value(1, m))
        for jc in basis.node_sites(0):
            for jm in basis.node_sites(m):
                coeff = (
                    pref * g21c * np.conj(g32m) * phases_lower[jc]
                    * np.conj(phases_upper[jm])
                )
                cross.append(hamiltonian._exchange(jc, jm, coeff, (1, 0), (1, 2)))
                cross.append(
                    hamiltonian._exchange(jm, jc, np.conj(coeff), (2, 1), (0, 1))
                )
    swap = ()
    if upper_swap:
        deltas = {m: detunings.value(1, m) for m in (1, 2)}
        swap = loop_transition_exchange_terms(basis, 1, couplings, deltas, phases_upper)
    bare = None if rotating else hamiltonian._bare_diagonal(basis)
    return hamiltonian._assemble(basis, itertools.chain(cross, swap), bare)


@settings(max_examples=60, deadline=None)
@given(small_systems(), st.data())
def test_exchange_builders_equal_their_loops_bit_for_bit(system, data):
    nodes, couplings, fock = system
    detunings = DetuningSet.from_system(nodes, couplings, fock)
    wave_vectors = {
        t: fock.modes[slot].wave_vector for slot, t in enumerate(couplings.enabled())
    }
    quanta = data.draw(st.sampled_from([None, 0, 1, 2]))
    rotating = data.draw(st.booleans())

    def build():
        return photon_free_effective_hamiltonian(
            nodes, couplings, detunings, wave_vectors, rotating, quanta=quanta
        ).matrix

    try:
        matrix = build()
    except BasisMismatch:  # an empty sector
        return
    with mock.patch.object(hamiltonian, "_swap_terms", loop_swap_terms):
        reference = build()
    assert np.array_equal(_bits(matrix), _bits(reference))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=2),
    st.sampled_from([None, 1, 2, 3]),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.data(),
)
def test_transistor_equals_its_loops_bit_for_bit(
    n_atoms, quanta, upper_swap, rotating, phased, data
):
    rate = st.floats(min_value=0.005, max_value=0.05)
    detuning = st.floats(min_value=0.2, max_value=1.0)
    positions = _vectors(data.draw, n_atoms) if phased else None
    target = NodeSpec(n_atoms, 3, THREE_LEVELS, positions)
    control = data.draw(st.sampled_from([target, NodeSpec(n_atoms, 3, THREE_LEVELS)]))
    couplings = CouplingSet(
        g21=data.draw(rate) * np.exp(1j * data.draw(st.floats(0.0, 6.0))),
        g32=(None, data.draw(rate), -data.draw(rate) * 1j),
    )
    detunings = DetuningSet(
        lower=(data.draw(detuning),) * 3,
        upper=(None, data.draw(detuning), -data.draw(detuning)),
    )
    waves = _vectors(data.draw, 2) if phased else (None, None)
    nodes = (control, target, target)
    h = transistor_hamiltonian(
        control, (target, target), couplings, detunings, waves,
        include_target_upper_swap=upper_swap, rotating_frame=rotating, quanta=quanta,
    )
    reference = loop_transistor(
        nodes, couplings, detunings, waves, upper_swap, rotating, quanta
    )
    assert np.array_equal(_bits(h.matrix), _bits(reference))
