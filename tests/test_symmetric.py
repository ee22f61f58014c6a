"""Symmetric node sites: one site per node, holding its Dicke states."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityqc import (
    CouplingSet,
    DetuningSet,
    FockFactor,
    Mode,
    NodeSpec,
    StateVector,
    evolve_on_grid,
    pair_isometry,
    population_peak_time,
    product_excitation_state,
    transistor_evolution,
    transistor_hamiltonian,
    transistor_rate,
)
from cavityqc.basis import _dicke_pattern
from cavityqc.dynamics import transistor_oracle
from cavityqc.errors import BasisMismatch
from cavityqc.hamiltonian import HamiltonianMatrix, microscopic_parts


def dicke_embedding(symmetric, atoms):
    """(atoms.dim, symmetric.dim) isometry: each symmetric basis state per atom.

    A symmetric state's node sites name one Dicke state per node, which
    _dicke_pattern expands over the atoms of the per-atom basis; the photon
    sites are copied.
    """
    columns = np.zeros((atoms.dim, symmetric.dim), dtype=complex)
    phases = np.ones(atoms.n_atomic_sites)
    sites = symmetric.n_atomic_sites
    for column, occupation in enumerate(symmetric.occupations):
        excitations = [
            (m, level, count)
            for m in range(sites)
            for level, count in enumerate(symmetric.level_counts(m)[occupation[m]])
            if level and count
        ]
        occs, amps = _dicke_pattern(atoms, excitations, phases)
        occs = np.array(occs)
        occs[:, atoms.n_atomic_sites :] = occupation[sites:]
        columns[atoms.rows(occs), column] = amps
    return columns


@st.composite
def symmetric_systems(draw):
    """Two nodes of 1-4 atoms, two or three levels, random couplings; 1-2 quanta."""
    levels = draw(st.sampled_from([2, 3]))
    energies = (0.0, 1.0, draw(st.floats(1.6, 2.4)))[:levels]
    nodes = tuple(
        NodeSpec(draw(st.integers(1, 4)), levels, energies) for _ in range(2)
    )
    coupling = st.floats(0.01, 0.1)
    g21 = tuple(draw(coupling) for _ in nodes)
    if levels == 2:
        couplings = CouplingSet(g21=g21)
    else:
        couplings = CouplingSet(g21=g21, g32=tuple(draw(coupling) for _ in nodes))
    quanta = draw(st.integers(1, 2))
    modes = tuple(Mode(draw(st.floats(0.5, 1.5))) for _ in couplings.enabled())
    fock = FockFactor(modes, (quanta,) * len(modes))
    return nodes, couplings, fock, quanta


@settings(max_examples=40, deadline=None)
@given(symmetric_systems(), st.integers(0, 2**32 - 1))
def test_symmetric_sites_propagate_as_the_projected_per_atom_sector(system, seed):
    nodes, couplings, fock, quanta = system
    per_atom = microscopic_parts(nodes, couplings, fock, quanta)
    symmetric = microscopic_parts(nodes, couplings, fock, quanta, symmetric=True)
    h_atoms = HamiltonianMatrix(per_atom[1] + per_atom[2], per_atom[0])
    h_sym = HamiltonianMatrix(symmetric[1] + symmetric[2], symmetric[0])
    embed = dicke_embedding(h_sym.basis, h_atoms.basis)
    assert np.abs(embed.conj().T @ embed - np.eye(h_sym.dim)).max() <= 1e-12

    rng = np.random.default_rng(seed)
    amps = rng.normal(size=h_sym.dim) + 1j * rng.normal(size=h_sym.dim)
    amps /= np.linalg.norm(amps)
    times = np.linspace(0.0, 60.0, 7)
    sym = evolve_on_grid(h_sym, StateVector(amps, h_sym.basis), times)
    atoms = evolve_on_grid(h_atoms, StateVector(embed @ amps, h_atoms.basis), times)
    projected = atoms @ embed.conj()
    assert np.abs(projected - sym).max() <= 1e-12
    # nothing leaves the Dicke states
    assert np.abs(np.linalg.norm(projected, axis=1) - 1.0).max() <= 1e-12


@settings(max_examples=20, deadline=None)
@given(
    st.integers(1, 3),
    st.floats(0.01, 0.05),
    st.floats(0.01, 0.05),
    st.booleans(),
    st.booleans(),
)
def test_symmetric_transistor_is_the_projected_per_atom_sector(
    n_atoms, g21, g32, upper_swap, rotating
):
    node = NodeSpec(n_atoms, 3, (0.0, 1.0, 2.1))
    couplings = CouplingSet(g21=g21, g32=g32)
    detunings = DetuningSet(lower=0.5, upper=(None, 0.7, -0.6))

    def build(symmetric):
        return transistor_hamiltonian(
            node, (node, node), couplings, detunings,
            include_target_upper_swap=upper_swap, rotating_frame=rotating,
            quanta=2, symmetric=symmetric,
        )

    h_atoms, h_sym = build(False), build(True)
    embed = dicke_embedding(h_sym.basis, h_atoms.basis)
    assert np.abs(h_atoms.matrix @ embed - embed @ h_sym.matrix).max() <= 1e-12


def test_symmetric_sector_size_does_not_grow_with_the_atom_count():
    two = CouplingSet(g21=0.01)
    fock = FockFactor((Mode(0.9),), (1,))
    for n_atoms in (1, 7, 10**6):
        nodes = (NodeSpec(n_atoms), NodeSpec(n_atoms))
        basis = microscopic_parts(nodes, two, fock, 1, symmetric=True)[0]
        assert basis.dim == 3
        # each collective pair state is one basis state
        rows = pair_isometry(basis)
        assert sorted(np.abs(rows).sum(axis=1).tolist()) == [0, 0, 0, 0, 1, 1]


def test_symmetric_sector_refuses_a_state_beyond_its_quanta():
    node = NodeSpec(5)
    basis = microscopic_parts(
        (node, node), CouplingSet(g21=0.01), FockFactor((Mode(0.9),), (1,)), 1,
        symmetric=True,
    )[0]
    with pytest.raises(BasisMismatch, match="outside the 1-quanta sector"):
        product_excitation_state(basis, [(0, 1), (1, 1)])


@pytest.mark.parametrize("n_atoms", [100, 400])
def test_transistor_oracle_at_hundreds_of_atoms(n_atoms):
    # criterion 5's sqrt(N) speed-up, now from the oracle at macroscopic N
    start = time.perf_counter()
    node = NodeSpec(n_atoms, 3, (0.0, 1.0, 2.0))
    couplings = CouplingSet(g21=0.02, g32=0.03)
    detunings = DetuningSet(lower=0.5, upper=0.7)
    rate = transistor_rate((node,), couplings, detunings)
    alpha, beta = 0.6, 0.8j
    h, psi0, projector = transistor_oracle(
        node, (node, node), couplings, detunings, alpha, beta
    )
    assert h.dim == 9
    period = np.pi / (np.sqrt(n_atoms) * rate)
    times = np.linspace(0.0, 2 * period, 100)
    projected = evolve_on_grid(h, psi0, times) @ projector.conj().T
    for t, amplitudes in zip(times, projected):
        closed = transistor_evolution(alpha, beta, n_atoms, rate, t)
        assert abs(np.vdot(closed.amplitudes, amplitudes)) ** 2 >= 1.0 - 1e-9
    t_star = population_peak_time(h, psi0, projector.conj()[2:], 0.0, period)
    assert abs(t_star - 0.5 * period) / (0.5 * period) <= 1e-6
    assert time.perf_counter() - start < 1.0
