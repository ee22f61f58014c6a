"""Hamiltonian builders for ensemble nodes coupled through a common cavity.

Microscopic model: each atom is a two- or three-level system; cavity modes
drive the transitions

    transition 0: level 1 <-> level 0 via mode slot 0
    transition 1: level 2 <-> level 1 via mode slot 1
    transition 2: level 2 <-> level 0 via mode slot 2

with rotating-wave (excitation conserving) couplings g S_ul a + h.c.
Eliminating the photon exchange to second order (unitary transformation
H_s = exp(-s) H exp(s) with H_1 + [H_0, s] = 0) yields the effective
Hamiltonians built here: the general photon-dressed form, the photon-free
exchange form, the two-level swap special case, the photon-number
(Lamb-shift) blockade form, and the cross-transition transistor coupling.

The six-state collective pair builders use the large-ensemble ("bosonic")
ladder, sqrt(N n) amplitudes, under which the closed-form pair evolution
and its doubled-frequency sector are exact at any N. Finite-N Dicke
combinatorics come from the microscopic builders with ``symmetric=True``,
where each node is one site of basis.CompositeBasis whose local states
are the node's Dicke states.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .basis import (
    CollectiveBasis,
    CompositeBasis,
    FockFactor,
    NodeSpec,
    PAIR_OCCUPATIONS,
    atom_phases,
    site_groups,
)
from .errors import (
    BasisMismatch,
    EigenFailure,
    MissingCoupling,
    ResonanceSingularity,
)

# (upper_level, lower_level) per transition index
TRANSITIONS = ((1, 0), (2, 1), (2, 0))

HERMITICITY_TOL = 1e-12
# smallest |detuning| per unit of the largest level energy
RESONANCE_FLOOR = 1e-9


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------


def _per_node(value, node_index: int):
    """A node's entry of a per-node field: None, one value, or a tuple per node."""
    if isinstance(value, tuple):
        return value[node_index] if node_index < len(value) else None
    return value


@dataclass(frozen=True)
class CouplingSet:
    """Interaction constants per transition.

    ``g21`` couples transition 0 (levels 1<->0), ``g32`` transition 1
    (2<->1), ``g31`` transition 2 (2<->0). Each is None (the transition is
    disabled), one number for every node, or a tuple with one value per
    node.
    """

    g21: complex | tuple[complex, ...] | None = None
    g32: complex | tuple[complex, ...] | None = None
    g31: complex | tuple[complex, ...] | None = None

    def enabled(self) -> tuple[int, ...]:
        values = (self.g21, self.g32, self.g31)
        return tuple(t for t, g in enumerate(values) if g is not None)

    def coupling(self, transition: int, node_index: int) -> complex:
        g = _per_node((self.g21, self.g32, self.g31)[transition], node_index)
        if g is None:
            upper, lower = TRANSITIONS[transition]
            raise MissingCoupling(
                f"transition {upper + 1}<->{lower + 1} has no interaction "
                f"constant for node {node_index}"
            )
        return complex(g)


@dataclass(frozen=True)
class DetuningSet:
    """Detunings of each transition from its driving mode.

    ``lower``      : gap(1,0) minus the mode-0 frequency,
    ``upper``      : gap(2,1) minus the mode-1 frequency,
    ``two_photon`` : gap(2,0) minus the mode-2 frequency.
    Each takes CouplingSet's per-node form: None (the transition is unused),
    one number for every node, or a tuple with one value (or None) per node.
    """

    lower: float | tuple[float | None, ...] | None = None
    upper: float | tuple[float | None, ...] | None = None
    two_photon: float | tuple[float | None, ...] | None = None

    @classmethod
    def from_system(cls, nodes, couplings: CouplingSet, fock: FockFactor):
        """Derive detunings from level energies and mode frequencies."""
        values = {}
        for t, slot in _mode_slots(couplings, fock).items():
            upper, lower = TRANSITIONS[t]
            freq = fock.modes[slot].frequency
            values[t] = tuple(
                n.energy_gap(upper, lower) - freq if n.level_count > upper else None
                for n in nodes
            )
        return cls(*(values.get(t) for t in range(3)))

    def value(self, transition: int, node_index: int) -> float:
        fields = (self.lower, self.upper, self.two_photon)
        delta = _per_node(fields[transition], node_index)
        if delta is None:
            raise ResonanceSingularity(
                f"no detuning available for transition {transition}, node {node_index}"
            )
        return float(delta)


@dataclass(frozen=True)
class EffectiveRates:
    """Second-order rates of a driven two-level node pair.

    ``shift_rate_m`` is |g_m|^2 / Delta_m, the per-photon level shift of
    node m; ``swap_rate`` is the inter-node exchange rate
    g_1 conj(g_2) (1/Delta_1 + 1/Delta_2) / 2; ``transition_freq_m`` is the
    bare two-level splitting. Dressed frequencies grow linearly with the
    photon number: freq + 2 n shift. ``from_couplings`` refuses a detuning
    within the resonance floor of ``nodes`` (see check_detuning).
    """

    swap_rate: complex
    shift_rate_1: float
    shift_rate_2: float
    transition_freq_1: float = 0.0
    transition_freq_2: float = 0.0

    @classmethod
    def from_couplings(cls, nodes, g1, g2, delta_1, delta_2, freq_1=0.0, freq_2=0.0):
        deltas = {0: delta_1, 1: delta_2}
        for m, delta in deltas.items():
            check_detuning(delta, nodes, f"lower transition, node {m}")
        pairs = _transition_pairs(0, CouplingSet(g21=(g1, g2)), deltas)
        return cls(
            swap_rate=complex(pairs[0, 1]),
            shift_rate_1=pairs[0, 0],
            shift_rate_2=pairs[1, 1],
            transition_freq_1=freq_1,
            transition_freq_2=freq_2,
        )


def require_hermitian(matrices: np.ndarray) -> None:
    """ValueError unless the matrix, or every matrix of a (..., d, d) stack,
    is Hermitian to HERMITICITY_TOL x max(1, its largest |entry|)."""
    scale = np.maximum(1.0, np.abs(matrices).max(axis=(-2, -1), initial=0.0))
    dev = np.abs(matrices - np.swapaxes(matrices.conj(), -1, -2)).max(
        axis=(-2, -1), initial=0.0
    )
    # written so that a NaN deviation fails too
    failed = ~(dev <= HERMITICITY_TOL * scale)
    if failed.any():
        raise ValueError(f"matrix is not Hermitian (deviation {dev[failed][0]:.3e})")


def eigendecomposition(matrices: np.ndarray):
    """np.linalg.eigh of a Hermitian matrix or (..., d, d) stack.

    A stack is one LAPACK call per matrix inside one numpy call, so each
    slice's (values, vectors) equal those of its own call bit for bit. A
    LAPACK failure raises EigenFailure.
    """
    try:
        return np.linalg.eigh(matrices)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc


@dataclass
class HamiltonianMatrix:
    """Dense Hermitian matrix tagged with its basis."""

    matrix: np.ndarray
    basis: object = field(repr=False)
    _eig: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("Hamiltonian must be a square matrix")
        if self.basis is not None and self.matrix.shape[0] != self.basis.dim:
            raise BasisMismatch(
                f"matrix of dimension {self.matrix.shape[0]} does not fit basis "
                f"of dimension {self.basis.dim}"
            )
        require_hermitian(self.matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigensystem(self):
        """Cached eigendecomposition (values, vectors)."""
        if self._eig is None:
            w, v = eigendecomposition(self.matrix)
            self._eig = (w, v)
        return self._eig


# ---------------------------------------------------------------------------
# Term assembly over product bases
# ---------------------------------------------------------------------------

# Local operators are lists of (to, from, amplitude) triples with at most one
# triple per ``from`` level; a term is (coeff, factors) with factors
# (site, local operator), standing for coeff * prod O_site. Generators write
# one-atom operators. An atomic site is a group of atoms: each atomic factor
# stands for its operator summed over the group's atoms (see _collective),
# and factors on one site multiply in order, the last acting first.


def _transition(upper: int, lower: int):
    return [(upper, lower, 1.0)]


def _projector(level: int):
    return [(level, level, 1.0)]


def _levels(values):
    return [(n, n, v) for n, v in enumerate(values)]


def _annihilate(n_levels: int):
    return [(n - 1, n, np.sqrt(n)) for n in range(1, n_levels)]


def _create(n_levels: int):
    return [(n + 1, n, np.sqrt(n + 1)) for n in range(n_levels - 1)]


def _number(n_levels: int):
    return [(n, n, float(n)) for n in range(n_levels)]


def _collective(basis: CompositeBasis, site: int, entries):
    """(image, amplitude) arrays of a factor over a site's local states.

    On an atomic site, labelled by level counts n, the one-atom operator is
    summed over the site's atoms: a diagonal operator gives sum_f a_f n_f,
    and one transition a |t><f| moves an atom from f to t with amplitude
    a sqrt(n_f (n_t + 1)); on a one-atom site both are the operator as
    written. A mode factor is its operator as written. A local state the
    operator annihilates, or whose image the sector caps away (it carries
    more quanta than the whole sector), keeps itself as image and gets
    amplitude 0.
    """
    image = np.arange(basis.shape[site])
    amp = np.zeros(basis.shape[site])
    if site >= basis.n_atomic_sites:
        for t, f, a in entries:
            image[f], amp[f] = t, a
        return image, amp
    counts = basis.level_counts(site)
    if all(t == f for t, f, _ in entries):
        amp[:] = [sum(a * n[f] for _, f, a in entries) for n in counts]
        return image, amp
    [(t, f, a)] = entries
    for i, n in enumerate(counts):
        if n[f] == 0:
            continue
        moved = list(n)
        moved[f] -= 1
        moved[t] += 1
        j = basis.local_index(site, moved)
        if j < basis.shape[site]:
            image[i], amp[i] = j, a * math.sqrt(n[f] * (n[t] + 1))
    return image, amp


def _assemble(basis: CompositeBasis, terms) -> np.ndarray:
    """Dense matrix of a sum of terms over a full or sector product basis.

    One term at a time: each factor becomes its _collective arrays, and
    factors on one site compose by indexing, the last acting first. A
    state's amplitude under the term is coeff times its local amplitudes,
    its image the state with every factor's site moved to its local image.
    Each local operator maps distinct levels to distinct levels, so the
    images of one term are distinct. The images of all terms are located
    with one ``basis.rows`` call and added in the order of the sum, source
    state by source state within a term.
    """
    occ = basis.occupations
    images, sources, values = [], [], []
    for coeff, factors in terms:
        if coeff == 0:
            continue
        local: dict = {}
        for site, entries in factors:
            image, amp = _collective(basis, site, entries)
            if site in local:
                outer_image, outer_amp = local[site]
                image, amp = outer_image[image], outer_amp[image] * amp
            local[site] = image, amp
        amp = np.full(basis.dim, complex(coeff))
        for site, (_, site_amp) in local.items():
            amp *= site_amp[occ[:, site]]
        src = np.flatnonzero(amp)
        image = occ[src]
        for site, (site_image, _) in local.items():
            image[:, site] = site_image[image[:, site]]
        images.append(image)
        sources.append(src)
        values.append(amp[src])
    h = np.zeros((basis.dim, basis.dim), dtype=complex)
    if values:
        rows = basis.rows(np.concatenate(images))
        cells = rows * basis.dim + np.concatenate(sources)
        np.add.at(h.reshape(-1), cells, np.concatenate(values))
    return h


def _mode_slots(couplings: CouplingSet, fock: FockFactor) -> dict[int, int]:
    """Map enabled transition index -> mode slot in the Fock factor."""
    enabled = couplings.enabled()
    if fock.mode_count != len(enabled):
        raise MissingCoupling(
            f"{fock.mode_count} modes declared for {len(enabled)} enabled "
            "transitions; one mode per enabled transition is required"
        )
    return {t: slot for slot, t in enumerate(enabled)}


def check_detuning(delta: float, nodes, context: str):
    """Refuse a detuning within RESONANCE_FLOOR x the largest level energy.

    The second-order rates divide by detunings and hold only off resonance.
    """
    scale = max((abs(e) for node in nodes for e in node.level_energies), default=1.0)
    scale = max(scale, 1.0e-300)
    if abs(delta) < RESONANCE_FLOOR * scale:
        raise ResonanceSingularity(
            f"{context}: |detuning| {abs(delta):.3e} below floor "
            f"{RESONANCE_FLOOR:.1e} x max|energy| {scale:.3e}"
        )


def excitation_weights(
    atomic_sites: int, couplings: CouplingSet, fock: FockFactor | None = None
) -> tuple[int, ...]:
    """Quanta per unit level sum or photon of each site of a product basis.

    Atoms count their level index (the top level carries two quanta),
    summed over the atoms of a site; photons count 1
    quantum per photon on transitions 0 and 1 and 2 quanta on the direct
    2<->0 transition, matching the photon cost of the level they create.
    """
    weights = [1] * atomic_sites
    if fock is not None:
        slot_of = _mode_slots(couplings, fock)
        for t in sorted(slot_of, key=slot_of.get):
            upper, lower = TRANSITIONS[t]
            weights.append(upper - lower)
    return tuple(weights)


def _product_basis(nodes, couplings, fock, quanta, symmetric=False) -> CompositeBasis:
    """Full product basis, or with ``quanta`` its sector of that many quanta.

    The one place the site layout is chosen: one site per atom, or with
    ``symmetric`` one site per node holding its Dicke states.
    """
    nodes = tuple(nodes)
    if quanta is None:
        return CompositeBasis(nodes, fock, symmetric)
    sites = len(site_groups(nodes, symmetric))
    weights = excitation_weights(sites, couplings, fock)
    return CompositeBasis(nodes, fock, symmetric, weights, quanta)


def _bare_terms(basis: CompositeBasis):
    """Level energies of every atomic site and photon energies of every mode."""
    for m, node in enumerate(basis.nodes):
        for site in basis.node_sites(m):
            yield 1.0, ((site, _levels(node.level_energies)),)
    if basis.fock is not None:
        for a, mode in enumerate(basis.fock.modes):
            site = basis.mode_site(a)
            energies = [mode.frequency * n for n in range(basis.shape[site])]
            yield 1.0, ((site, _levels(energies)),)


def _exchange(i: int, j: int, coeff: complex, raise_i, lower_j, symmetric=False):
    """coeff S(raise_i)_i S(lower_j)_j with S(a, b) = |a><b| on one site.

    On a single atom (i == j, the transition and its reverse) the product
    is the projector on the upper level. A ``symmetric`` site is a whole
    node, whose two collective factors the assembler multiplies.
    """
    if i == j and not symmetric:
        return coeff, ((i, _projector(raise_i[0])),)
    return coeff, ((i, _transition(*raise_i)), (j, _transition(*lower_j)))


def _photon_exchange_terms(basis, couplings: CouplingSet, fock: FockFactor, alpha=None):
    """Rotating-wave couplings g S(upper<-lower) a + h.c., one per atom.

    With generator coefficients ``alpha`` (node x transition) each term is
    scaled by alpha and its conjugate enters with a minus sign, giving the
    anti-Hermitian Schrieffer-Wolff generator instead.
    """
    sign = 1.0 if alpha is None else -1.0
    for t, slot in _mode_slots(couplings, fock).items():
        upper, lower = TRANSITIONS[t]
        mode_site = basis.mode_site(slot)
        n_levels = fock.n_max[slot] + 1
        phases = atom_phases(basis, fock.modes[slot].wave_vector)
        for m, node in enumerate(basis.nodes):
            if node.level_count <= upper:
                continue
            g = couplings.coupling(t, m)
            if alpha is not None:
                g = alpha[m, t] * g
            for site in basis.node_sites(m):
                coeff = g * phases[site]
                yield coeff, (
                    (site, _transition(upper, lower)),
                    (mode_site, _annihilate(n_levels)),
                )
                yield sign * np.conj(coeff), (
                    (site, _transition(lower, upper)),
                    (mode_site, _create(n_levels)),
                )


def real_rate(rate: complex, message: str) -> float:
    """The real part of ``rate``; ValueError(message) unless it is finite and real."""
    rate = complex(rate)
    # written so that a NaN part fails too
    if not (np.isfinite(rate) and abs(rate.imag) <= 1e-12 * max(1.0, abs(rate))):
        raise ValueError(message)
    return rate.real


def _pair_rate(g_a, g_b, delta_a: float, delta_b: float):
    """Virtual-photon exchange rate (1/Delta_a + 1/Delta_b)/2 g_a conj(g_b)."""
    return 0.5 * (1.0 / delta_a + 1.0 / delta_b) * g_a * np.conj(g_b)


def _exchange_terms(channels, pairs, symmetric=False):
    """Second-order exchange between atomic transitions (James & Jerke 2007).

    A channel is (sites, transition, phases): some atomic sites driven on
    one transition, with the plane-wave phase of every atomic site.
    ``pairs`` maps each pair (a, b) of channel keys to its rate c_ab.
    Within one channel (a == b) the terms are the double sum over its
    sites, self terms included, c_aa phi_i conj(phi_j) S(up)_i S(down)_j;
    between two channels c_ab phi_i conj(phi_j) S(up_a)_i S(down_b)_j, each
    followed by its Hermitian conjugate. On ``symmetric`` sites the same
    sum runs over nodes with collective operators, J_+ J_- on one node.
    """
    for (a, b), rate in pairs.items():
        sites_a, t_a, phases_a = channels[a]
        sites_b, t_b, phases_b = channels[b]
        up_a, up_b = TRANSITIONS[t_a], TRANSITIONS[t_b]
        down_a, down_b = up_a[::-1], up_b[::-1]
        for i in sites_a:
            for j in sites_b:
                coeff = rate * phases_a[i] * np.conj(phases_b[j])
                yield _exchange(i, j, coeff, up_a, down_b, symmetric)
                if a != b:
                    yield _exchange(j, i, np.conj(coeff), up_b, down_a, symmetric)


def _transition_pairs(t: int, couplings: CouplingSet, deltas: dict) -> dict:
    """Exchange rates of transition ``t`` among the nodes of ``deltas``.

    ``deltas`` maps each node to its detuning; each node runs at
    |g_m|^2/Delta_m with itself, and each pair of nodes at their _pair_rate.
    """
    g = {m: couplings.coupling(t, m) for m in deltas}
    pairs = {(m, m): abs(g[m]) ** 2 / delta for m, delta in deltas.items()}
    for m1, m2 in itertools.combinations(deltas, 2):
        pairs[m1, m2] = _pair_rate(g[m1], g[m2], deltas[m1], deltas[m2])
    return pairs


def _driven_deltas(t: int, nodes, deltas_of) -> dict:
    """Detuning ``deltas_of(t, m)`` of every node m with transition ``t``, checked."""
    upper, _ = TRANSITIONS[t]
    deltas = {m: deltas_of(t, m) for m, n in enumerate(nodes) if n.level_count > upper}
    for m, delta in deltas.items():
        check_detuning(delta, nodes, f"transition {t}, node {m}")
    return deltas


def _swap_terms(basis, couplings, deltas_of, slot_wave_vectors):
    """Intra- and inter-node exchange of every enabled transition."""
    for t in couplings.enabled():
        deltas = _driven_deltas(t, basis.nodes, deltas_of)
        phases = atom_phases(basis, slot_wave_vectors.get(t))
        channels = {m: (basis.node_sites(m), t, phases) for m in deltas}
        pairs = _transition_pairs(t, couplings, deltas)
        yield from _exchange_terms(channels, pairs, basis.symmetric)


# ---------------------------------------------------------------------------
# Microscopic Hamiltonian and excitation counter
# ---------------------------------------------------------------------------


def microscopic_parts(
    nodes, couplings: CouplingSet, fock: FockFactor, quanta=None, symmetric=False
):
    """(basis, static part, interaction part) of the microscopic model.

    The static part carries atomic level energies and photon energies; the
    interaction part carries the rotating-wave atom-photon couplings. With
    ``quanta`` everything is built on that excitation sector only. With
    ``symmetric`` each node is one site holding its Dicke states, which the
    model never leaves (couplings are uniform within a node); any nonzero
    mode wave vector is then refused (see basis.atom_phases).
    """
    basis = _product_basis(nodes, couplings, fock, quanta, symmetric)
    h0 = _assemble(basis, _bare_terms(basis))
    h1 = _assemble(basis, _photon_exchange_terms(basis, couplings, fock))
    return basis, h0, h1


def microscopic_hamiltonian(
    nodes, couplings: CouplingSet, fock: FockFactor, quanta=None
) -> HamiltonianMatrix:
    """Full microscopic Hamiltonian: atoms + photons + rotating-wave coupling.

    ``quanta`` restricts it to the excitation sector of that many quanta
    (see excitation_weights); the model conserves it, so the sector matrix
    is exactly the corresponding block of the full one.
    """
    basis, h0, h1 = microscopic_parts(nodes, couplings, fock, quanta)
    return HamiltonianMatrix(h0 + h1, basis)


def total_excitation_operator(
    basis: CompositeBasis, couplings: CouplingSet
) -> np.ndarray:
    """Diagonal quanta counter that commutes with the microscopic model.

    Weights per site are those of excitation_weights, times each site's
    level sum or photon number.
    """
    weights = excitation_weights(basis.n_atomic_sites, couplings, basis.fock)
    occ = basis.occupations
    quanta = sum(w * basis.site_levels(k)[occ[:, k]] for k, w in enumerate(weights))
    return np.diag(quanta.astype(complex))


# ---------------------------------------------------------------------------
# Schrieffer-Wolff generator and numeric oracle
# ---------------------------------------------------------------------------


def sw_coefficients(nodes, couplings: CouplingSet, fock: FockFactor) -> np.ndarray:
    """First-order generator coefficients alpha = -1/Delta, node x transition.

    alpha multiplies the photon-absorbing monomial g S_ul a; the emitting
    conjugate carries -alpha. Disabled transitions carry zeros.
    """
    nodes = tuple(nodes)
    detunings = DetuningSet.from_system(nodes, couplings, fock)
    alpha = np.zeros((len(nodes), 3))
    for t in _mode_slots(couplings, fock):
        for m, delta in _driven_deltas(t, nodes, detunings.value).items():
            alpha[m, t] = -1.0 / delta
    return alpha


def sw_generator(
    nodes, couplings: CouplingSet, fock: FockFactor, quanta=None
) -> np.ndarray:
    """Anti-Hermitian generator s eliminating the first-order coupling."""
    nodes = tuple(nodes)
    alpha = sw_coefficients(nodes, couplings, fock)
    basis = _product_basis(nodes, couplings, fock, quanta)
    return _assemble(basis, _photon_exchange_terms(basis, couplings, fock, alpha))


def schrieffer_wolff_hamiltonian(
    nodes, couplings: CouplingSet, fock: FockFactor, quanta=None
) -> HamiltonianMatrix:
    """Numeric second-order Hamiltonian H_0 + [H_1, s]/2.

    Built entirely from matrix products; serves as the independent oracle
    for the analytic effective builders. H_1 and s conserve the quanta, so
    with ``quanta`` the products close on that sector.
    """
    basis, h0, h1 = microscopic_parts(nodes, couplings, fock, quanta)
    s = sw_generator(nodes, couplings, fock, quanta)
    h = h0 + 0.5 * (h1 @ s - s @ h1)
    return HamiltonianMatrix(h, basis)


# ---------------------------------------------------------------------------
# Analytic effective Hamiltonians (microscopic bases)
# ---------------------------------------------------------------------------


# Second-order cross terms of two driven transitions on one three-level
# atom: the atomic transition (to, from), then its two photons in
# transition order as (transition of the mode, +1 absorbed or -1 emitted,
# sign of its 1/Delta). The rate is half the signed sum of the 1/Delta,
# times g of an absorbed and conj(g) of an emitted photon; the phase
# follows the same signed sum of wave vectors. Annihilators come first in
# the product.
_CROSS_TERMS = (
    ((2, 0), ((0, 1, -1.0), (1, 1, 1.0))),  # two-photon climb S(2<-0) a_0 a_1
    ((2, 1), ((0, -1, 1.0), (2, 1, 1.0))),  # Raman, upper levels S(2<-1) a_2 adag_0
    ((1, 0), ((1, -1, -1.0), (2, 1, -1.0))),  # Raman, lower levels S(1<-0) a_2 adag_1
)


def _photon_shift_and_cross_terms(basis, couplings, fock, detunings, wave_vectors):
    """Photon-number level shifts and the two-photon / Raman cross terms."""
    nodes = basis.nodes
    slot_of = _mode_slots(couplings, fock)

    def _mode(t):
        slot = slot_of[t]
        return basis.mode_site(slot), fock.n_max[slot] + 1

    def _photon(t, absorbed):
        mode_site, n_levels = _mode(t)
        return mode_site, _annihilate(n_levels) if absorbed else _create(n_levels)

    # photon-number level shifts (P_upper - P_lower) n_mode
    for t in slot_of:
        upper, lower = TRANSITIONS[t]
        mode_site, n_levels = _mode(t)
        number = (mode_site, _number(n_levels))
        deltas = _driven_deltas(t, nodes, detunings.value)
        rates = _transition_pairs(t, couplings, deltas)
        for m in deltas:
            for j in basis.node_sites(m):
                yield rates[m, m], ((j, _projector(upper)), number)
                yield -rates[m, m], ((j, _projector(lower)), number)

    # cross terms between transition pairs, one atom at a time
    zero = (0.0, 0.0, 0.0)
    k_of = {
        t: np.asarray(zero if wave_vectors[t] is None else wave_vectors[t], dtype=float)
        for t in slot_of
    }
    rows = []
    for (to, fr), photons in _CROSS_TERMS:
        if all(t in slot_of for t, _, _ in photons):
            (ta, pa, _), (tb, pb, _) = photons
            ordered = sorted(photons, key=lambda photon: photon[1] < 0)
            phases = atom_phases(basis, pa * k_of[ta] + pb * k_of[tb])
            rows.append((to, fr, photons, ordered, phases))
    for m, node in enumerate(nodes):
        if node.level_count < 3:
            continue
        for site in basis.node_sites(m):
            for to, fr, photons, ordered, phases in rows:
                (ta, pa, sa), (tb, pb, sb) = photons
                ga, gb = couplings.coupling(ta, m), couplings.coupling(tb, m)
                coeff = (
                    0.5
                    * (sa / detunings.value(ta, m) + sb / detunings.value(tb, m))
                    * (ga if pa > 0 else np.conj(ga))
                    * (gb if pb > 0 else np.conj(gb))
                    * phases[site]
                )
                yield coeff, ((site, _transition(to, fr)),) + tuple(
                    _photon(t, p > 0) for t, p, _ in ordered
                )
                yield np.conj(coeff), ((site, _transition(fr, to)),) + tuple(
                    _photon(t, p < 0) for t, p, _ in ordered
                )


def effective_hamiltonian_microscopic(
    nodes, couplings: CouplingSet, fock: FockFactor, quanta=None
) -> HamiltonianMatrix:
    """Analytic second-order Hamiltonian with explicit photon operators.

    Contains, per enabled transition: the intra-node and inter-node
    exchange terms, the photon-number level shifts
    (P_upper - P_lower) n_mode, and, when several transitions are enabled,
    the Hermitian-symmetrized two-photon and Raman cross terms. Agrees with
    the numeric Schrieffer-Wolff oracle away from the Fock truncation edge.
    ``quanta`` restricts the build to that excitation sector.
    """
    nodes = tuple(nodes)
    basis = _product_basis(nodes, couplings, fock, quanta)
    detunings = DetuningSet.from_system(nodes, couplings, fock)
    slot_of = _mode_slots(couplings, fock)
    wave_vectors = {t: fock.modes[slot].wave_vector for t, slot in slot_of.items()}
    h = _assemble(
        basis,
        itertools.chain(
            _bare_terms(basis),
            _swap_terms(basis, couplings, detunings.value, wave_vectors),
            _photon_shift_and_cross_terms(
                basis, couplings, fock, detunings, wave_vectors
            ),
        ),
    )
    return HamiltonianMatrix(h, basis)


def photon_free_effective_hamiltonian(
    nodes,
    couplings: CouplingSet,
    detunings: DetuningSet,
    wave_vectors: dict[int, tuple] | None = None,
    rotating_frame: bool = False,
    quanta=None,
) -> HamiltonianMatrix:
    """Effective exchange Hamiltonian with no real photons, atomic basis only.

    Bare level energies plus the intra- and inter-node exchange terms of
    every enabled transition; equals the zero-photon block of the general
    photon-dressed form. ``quanta`` restricts it to that excitation sector.
    """
    nodes = tuple(nodes)
    basis = _product_basis(nodes, couplings, None, quanta)
    bare = () if rotating_frame else _bare_terms(basis)
    swap = _swap_terms(basis, couplings, detunings.value, wave_vectors or {})
    h = _assemble(basis, itertools.chain(bare, swap))
    return HamiltonianMatrix(h, basis)


def swap_hamiltonian_microscopic(
    nodes,
    swap_rate: float,
    wave_vector=None,
    rotating_frame: bool = False,
    quanta=None,
) -> HamiltonianMatrix:
    """Two-level swap Hamiltonian over the full product basis.

    Bare energies plus swap_rate * Jtilde_+ Jtilde_- where Jtilde_+ is the
    phase-threaded collective raising operator over all atoms of both
    nodes; the double sum includes the self terms. Equal couplings and
    detunings are assumed (the equal-rate special case of the photon-free
    form). ``quanta`` restricts it to that excitation sector.
    """
    nodes = tuple(nodes)
    if any(node.level_count != 2 for node in nodes):
        raise BasisMismatch("swap Hamiltonian requires two-level nodes")
    basis = _product_basis(nodes, None, None, quanta)
    # every atom of both nodes in one channel: one double sum at one rate
    atoms = (range(basis.n_atomic_sites), 0, atom_phases(basis, wave_vector))
    exchange = _exchange_terms({0: atoms}, {(0, 0): swap_rate}, basis.symmetric)
    bare = () if rotating_frame else _bare_terms(basis)
    h = _assemble(basis, itertools.chain(bare, exchange))
    return HamiltonianMatrix(h, basis)


# ---------------------------------------------------------------------------
# Collective-basis builders (two-level node pairs)
# ---------------------------------------------------------------------------


def _ladder_amp(node: NodeSpec, n_from: int) -> float:
    """Bosonic amplitude sqrt(N n_from) of J_- taking |n_from> to |n_from - 1>."""
    if n_from == 1:
        return np.sqrt(node.atom_count)
    if n_from == 2:
        return np.sqrt(2.0 * node.atom_count)
    return 0.0


def collective_pair_matrices(
    nodes,
    swap_rates,
    shift_rates,
    n_photons: int = 0,
    rotating_frame: bool = False,
) -> np.ndarray:
    """(K, 6, 6) stack of collective pair matrices, one per rate entry.

    ``swap_rates`` and each of the two ``shift_rates`` are length-K rate
    vectors. The table runs each entry's scalar arithmetic, in the same
    order, elementwise over the rates and the six rows, so slice k does not
    depend on the other rates: it is collective_pair_hamiltonian at the
    k-th rates bit for bit. The matrices are not checked here;
    collective_pair_hamiltonian and the error sweep check them.
    """
    nodes = tuple(nodes)
    # refuses anything but a pair of two-level nodes
    CollectiveBasis(nodes)
    if n_photons < 0:
        raise ValueError("photon number must be non-negative")
    occ = PAIR_OCCUPATIONS
    # each row's diagonal sums the terms of node 1, then node 2, in order
    diag = 0.0
    for m, (node, shift) in enumerate(zip(nodes, shift_rates)):
        n_m = [n[m] for n in occ]
        shift = np.asarray(shift)[..., None]
        if not rotating_frame:
            lower, upper = node.level_energies[0], node.level_energies[1]
            diag = diag + np.array(
                [n * upper + (node.atom_count - n) * lower for n in n_m]
            )
        diag = diag + shift * [2 * n - node.atom_count for n in n_m] * n_photons
        diag = diag + shift * [_ladder_amp(node, n) ** 2 for n in n_m]
    # inter-node exchange: row src (n1, n2) -> row dst (n1 + 1, n2 - 1)
    src = [a for a, (n1, n2) in enumerate(occ) if (n1 + 1, n2 - 1) in occ]
    dst = [occ.index((occ[a][0] + 1, occ[a][1] - 1)) for a in src]
    amp = (
        np.asarray(swap_rates)[..., None]
        * [_ladder_amp(nodes[0], occ[a][0] + 1) for a in src]
        * [_ladder_amp(nodes[1], occ[a][1]) for a in src]
    )
    h = np.zeros(amp.shape[:-1] + (6, 6), dtype=complex)
    h[..., range(6), range(6)] = diag
    h[..., dst, src] += amp
    h[..., src, dst] += np.conj(amp)

    rot = CollectiveBasis.occupation_rotation()
    return rot @ h @ rot.T


def collective_pair_hamiltonian(
    nodes,
    swap_rate: complex,
    shift_rates: tuple[float, float],
    n_photons: int = 0,
    rotating_frame: bool = False,
) -> HamiltonianMatrix:
    """Two-node collective Hamiltonian on the six-state pair basis.

    Diagonal: bare energies, the intra-node exchange shifts
    shift_m * (J_+ J_-)_m and the photon-number level shifts
    shift_m (2 n_m - N_m) n_photons. Off-diagonal: the inter-node exchange
    swap_rate J_+^(1) J_-^(2) + h.c. The one-rate case of
    collective_pair_matrices.
    """
    nodes = tuple(nodes)
    matrices = collective_pair_matrices(
        nodes,
        [swap_rate],
        [[rate] for rate in shift_rates],
        n_photons,
        rotating_frame,
    )
    return HamiltonianMatrix(matrices[0], CollectiveBasis(nodes))


def two_level_swap_hamiltonian(
    nodes,
    swap_rate: float,
    rotating_frame: bool = False,
) -> HamiltonianMatrix:
    """Equal-rate collective swap Hamiltonian on the six-state pair basis.

    The single-excitation block is exact for any atom number: diagonal
    shifts N_m * swap_rate, off-diagonal sqrt(N1 N2) * swap_rate. The
    doubly-excited block uses the large-ensemble ladder (coupling
    2 N swap_rate for equal nodes), under which the closed-form pair
    evolution holds exactly. The finite-N Dicke value, 2 sqrt(N(N-1))
    swap_rate, is what the microscopic swap gives on the symmetric site
    layout (basis.CompositeBasis).
    """
    rate = real_rate(swap_rate, "swap_rate must be real for the equal-coupling form")
    return collective_pair_hamiltonian(
        nodes,
        swap_rate=rate,
        shift_rates=(rate, rate),
        n_photons=0,
        rotating_frame=rotating_frame,
    )


def lamb_shift_hamiltonian(
    nodes,
    couplings: CouplingSet,
    detunings: DetuningSet,
    n_photons: int,
    rotating_frame: bool = False,
) -> HamiltonianMatrix:
    """Photon-number dependent pair Hamiltonian with per-node couplings.

    Real cavity photons shift each node's transition by
    2 n |g_m|^2 / Delta_m, detuning the inter-node exchange; with n = 0 and
    equal couplings this reduces to the plain two-level swap form.
    """
    nodes = tuple(nodes)
    if len(nodes) != 2:
        raise BasisMismatch("lamb shift builder works on a node pair")
    rates = _transition_pairs(0, couplings, _driven_deltas(0, nodes, detunings.value))
    return collective_pair_hamiltonian(
        nodes,
        swap_rate=rates[0, 1],
        shift_rates=(rates[0, 0], rates[1, 1]),
        n_photons=n_photons,
        rotating_frame=rotating_frame,
    )


# ---------------------------------------------------------------------------
# Quantum-transistor coupling
# ---------------------------------------------------------------------------


def _cross_rate(nodes, couplings: CouplingSet, detunings: DetuningSet, m: int):
    """Exchange rate of the control's lower transition with target m's upper one."""
    d_c, d_m = detunings.value(0, 0), detunings.value(1, m)
    check_detuning(d_c, nodes, "control lower transition")
    check_detuning(d_m, nodes, f"target {m} upper transition")
    return _pair_rate(couplings.coupling(0, 0), couplings.coupling(1, m), d_c, d_m)


def transistor_hamiltonian(
    control: NodeSpec,
    targets: tuple[NodeSpec, NodeSpec],
    couplings: CouplingSet,
    detunings: DetuningSet,
    wave_vectors: tuple | None = None,
    include_target_upper_swap: bool = False,
    rotating_frame: bool = True,
    quanta=None,
    symmetric: bool = False,
) -> HamiltonianMatrix:
    """Cross-transition exchange between a control node and two target nodes.

    The control's lower transition (1<->0) exchanges excitation with each
    target's upper transition (2<->1):

        H = sum_m c_m sum_{jc, jm} ( g21_c conj(g32_m) phi S(1<-0)_jc S(1<-2)_jm
                                     + h.c. ),
        c_m = (1/Delta_lower_control + 1/Delta_upper_target_m) / 2.

    ``include_target_upper_swap`` adds the co-propagating exchange of the
    targets' upper transition among the target atoms (the channel that is
    negligible when the cross rate dominates); it is off by default so the
    default matrix is the pure cross-transition form. The interaction frame
    is used by default; set rotating_frame=False to add bare energies.
    ``quanta`` restricts the build to the sector with that many atomic
    excitation quanta (level indices summed over all atoms). ``symmetric``
    builds on one site per node, its Dicke states (see microscopic_parts);
    it refuses nonzero ``wave_vectors``.
    """
    nodes = (control,) + tuple(targets)
    if len(nodes) != 3:
        raise BasisMismatch("transistor coupling needs one control and two targets")
    if any(node.level_count != 3 for node in nodes[1:]):
        raise BasisMismatch("target nodes must be three-level")
    basis = _product_basis(nodes, couplings, None, quanta, symmetric)
    k_lower, k_upper = wave_vectors if wave_vectors is not None else (None, None)
    phases_lower = atom_phases(basis, k_lower)
    phases_upper = atom_phases(basis, k_upper)

    channels = {0: (basis.node_sites(0), 0, phases_lower)}
    pairs = {}
    for m in (1, 2):
        channels[m] = (basis.node_sites(m), 1, phases_upper)
        pairs[0, m] = _cross_rate(nodes, couplings, detunings, m)
    if include_target_upper_swap:
        deltas = {m: detunings.value(1, m) for m in (1, 2)}
        pairs.update(_transition_pairs(1, couplings, deltas))
    bare = () if rotating_frame else _bare_terms(basis)
    exchange = _exchange_terms(channels, pairs, basis.symmetric)
    h = _assemble(basis, itertools.chain(bare, exchange))
    return HamiltonianMatrix(h, basis)


def transistor_rate(nodes, couplings: CouplingSet, detunings: DetuningSet) -> float:
    """Single-atom cross-transition exchange rate of the transistor coupling.

    ``nodes`` scale the resonance floor, as in ``transistor_hamiltonian``.
    """
    return float(abs(_cross_rate(nodes, couplings, detunings, 1)))
