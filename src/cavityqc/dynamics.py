"""Time evolution: exact propagation, closed forms, and the model-error sweep.

Propagation is by eigendecomposition of the (desk-scale) dense Hermitian
matrix, so no integrator tolerance enters any comparison. Closed forms
implemented here: the two-pair swap evolution, the photon-number blockade
amplitudes, and the transistor transfer; each is validated elsewhere
against direct numeric propagation of the corresponding Hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (
    CollectiveBasis,
    FockFactor,
    Mode,
    collective_excitation_state,
    pair_isometry,
    product_excitation_state,
)
from .hamiltonian import (
    CouplingSet,
    DetuningSet,
    EffectiveRates,
    HamiltonianMatrix,
    microscopic_parts,
    real_rate,
    transistor_hamiltonian,
    two_level_swap_hamiltonian,
)
from .state import StateVector, require_same_basis


# Largest | |alpha|^2 + |beta|^2 - 1 | accepted for an amplitude pair.
NORM_TOL = 1e-9

# Scan points that bracket the population maxima before the Newton polish.
# The scan must resolve the population's fastest beat, max(w) - min(w), over
# the window: 257 points keep at least eight per beat period up to 32 beats.
PEAK_SCAN_POINTS = 257
# Cap on the polish steps. Bisection alone halves a scan bracket down to
# 4 eps max(|lo|, |hi|) in at most 52 steps (a bracket is never wider than
# twice that maximum). Newton from the bracket end with the smaller |f'|
# needs one evaluation for a peak on a scan point and three to eight for
# one inside an interval (random spectra scanned at 16 points per beat).
PEAK_POLISH_STEPS = 100


def require_normalized(
    alpha: complex, beta: complex, error: type[Exception], message: str
) -> None:
    """Raise ``error(message)`` unless |alpha|^2 + |beta|^2 is 1 to NORM_TOL.

    ``{norm}`` in ``message`` stands for that sum.
    """
    norm = abs(alpha) ** 2 + abs(beta) ** 2
    # written so that a NaN norm fails too
    if not abs(norm - 1.0) <= NORM_TOL:
        raise error(message.format(norm=norm))


def _spectral_expansion(h: HamiltonianMatrix, psi0: StateVector, times):
    """Checked eigen-expansion (w, v, v^H psi0) of psi0 under h.

    psi(t) = v @ (exp(-i w t) * coeffs) at every one of ``times``, which
    must be finite; the state must live on the Hamiltonian's basis.
    """
    require_same_basis(psi0, h)
    if not np.all(np.isfinite(times)):
        raise ValueError("propagation time must be finite")
    w, v = h.eigensystem()
    return w, v, v.conj().T @ psi0.amplitudes


def propagate(h: HamiltonianMatrix, psi0: StateVector, t: float) -> StateVector:
    """psi(t) = exp(-i H t) psi(0): ``evolve_on_grid`` at t, an exact copy at t = 0."""
    amps = evolve_on_grid(h, psi0, [t])[0]
    return StateVector(psi0.amplitudes.copy() if t == 0.0 else amps, psi0.basis)


def evolve_on_grid(
    h: HamiltonianMatrix, psi0: StateVector, times: np.ndarray
) -> np.ndarray:
    """(len(times), dim) array of propagated amplitudes."""
    times = np.asarray(times, dtype=float)
    w, v, coeffs = _spectral_expansion(h, psi0, times)
    phases = np.exp(-1j * np.outer(times, w))
    return (phases * coeffs) @ v.T


def _population_derivatives(amps: np.ndarray, w: np.ndarray, t: float):
    """f = |a|^2 and its first two time derivatives for a(t) = amps @ e^(-i w t).

    f' = 2 Re<a, a'> and f'' = 2 Re(|a'|^2 + <a, a''>).
    """
    phase = np.exp(-1j * w * t)
    a, da, d2a = (amps @ np.stack([phase, -1j * w * phase, -(w**2) * phase], 1)).T
    return (
        np.vdot(a, a).real,
        2.0 * np.vdot(a, da).real,
        2.0 * (np.vdot(da, da).real + np.vdot(a, d2a).real),
    )


def _polish_peak(
    amps: np.ndarray, w: np.ndarray, lo: float, hi: float, t: float
) -> float:
    """Safeguarded Newton for the root of f' in [lo, hi], f'(lo) > 0 >= f'(hi).

    The iteration starts at ``t`` in [lo, hi] and keeps every iterate in the
    bracket, which each evaluation of f' shrinks. A Newton step is taken
    where f'' is negative and the step lands on the closed bracket, so a
    polish started on a root at a bracket end stops after one evaluation;
    otherwise the bracket is bisected.
    """
    tol = 4.0 * np.finfo(float).eps * max(abs(lo), abs(hi))
    for _ in range(PEAK_POLISH_STEPS):
        _, slope, curvature = _population_derivatives(amps, w, t)
        if slope == 0.0:
            return t
        if slope > 0.0:
            lo = t
        else:
            hi = t
        step = 0.5 * (lo + hi)
        if curvature < 0.0 and lo <= t - slope / curvature <= hi:
            step = t - slope / curvature
        if abs(step - t) <= tol or hi - lo <= tol:
            return step
        t = step
    return t


def population_peak_time(
    h: HamiltonianMatrix,
    psi0: StateVector,
    rows: np.ndarray,
    t_low: float,
    t_high: float,
) -> float:
    """Time of the largest population |R psi(t)|^2 on [t_low, t_high].

    ``rows`` is the (r, dim) matrix R. On the eigen-expansion the projected
    state is a(t) = A exp(-i w t) with A = (R v) * (v^H psi0). One batched
    scan of PEAK_SCAN_POINTS times evaluates f and f'; every scan interval
    where f' turns from positive to non-positive holds a local maximum,
    which a safeguarded Newton polish on the analytic derivatives places to
    machine precision. Each polish starts at the interval end with the
    smaller scanned |f'|, so a peak that falls on a scan point (as the
    transistor's does, at the middle of its window) takes one Newton step
    instead of a bisection down to round-off. The largest of these maxima
    and of the two window ends (read off the scan) wins, the earliest on a
    tie. The scan must resolve the fastest beat max(w) - min(w) over the
    window (see PEAK_SCAN_POINTS).
    """
    t_low, t_high = float(t_low), float(t_high)
    w, v, coeffs = _spectral_expansion(h, psi0, (t_low, t_high))
    if t_low > t_high:
        raise ValueError(f"empty time window [{t_low}, {t_high}]")
    # populations ignore a global phase: centring the spectrum keeps the
    # derivative sums free of a large common frequency
    w = w - 0.5 * (w.max() + w.min())
    amps = (np.asarray(rows) @ v) * coeffs
    grid = np.linspace(t_low, t_high, PEAK_SCAN_POINTS)
    scan = np.exp(-1j * np.outer(grid, w)) @ np.concatenate([amps, -1j * w * amps]).T
    a, da = np.split(scan, 2, axis=1)
    slope = 2.0 * np.sum(a.conj() * da, axis=1).real
    peaks = np.flatnonzero((slope[:-1] > 0.0) & (slope[1:] <= 0.0))
    # the window ends are the first and last scan points
    candidates = [t_low]
    values = [np.vdot(a[0], a[0]).real]
    for k in peaks:
        start = grid[k] if abs(slope[k]) < abs(slope[k + 1]) else grid[k + 1]
        t = _polish_peak(amps, w, grid[k], grid[k + 1], start)
        candidates.append(t)
        values.append(_population_derivatives(amps, w, t)[0])
    candidates.append(t_high)
    values.append(np.vdot(a[-1], a[-1]).real)
    return float(candidates[int(np.argmax(values))])


def first_maximum_time(fn, t_low: float, t_high: float) -> float:
    """Location of the maximum of a unimodal function by 200 ternary steps."""
    lo, hi = float(t_low), float(t_high)
    for _ in range(200):
        third = (hi - lo) / 3.0
        m1, m2 = lo + third, hi - third
        if fn(m1) < fn(m2):
            lo = m1
        else:
            hi = m2
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Closed-form pair evolution
# ---------------------------------------------------------------------------


def analytic_pair_amplitudes(
    alpha1: complex,
    beta1: complex,
    alpha2: complex,
    beta2: complex,
    swap_rate: float,
    n_atoms: int,
    times,
) -> np.ndarray:
    """Closed-form swap evolution of a product pair state, interaction frame.

    Starting from (alpha1|0> + beta1|1>)(alpha2|0> + beta2|1>) the two
    coherent oscillations run at swap_rate * N in the single-excitation
    sector and at twice that in the doubly-excited sector, each sector
    carrying its own overall phase:

        psi(t) = a1 a2 |00>
               + e^(-i w t) { b1 a2 [cos(wt)|10> - i sin(wt)|01>]
                            + a1 b2 [cos(wt)|01> - i sin(wt)|10>] }
               + e^(-2 i w t) b1 b2 [cos(2wt)|11> - i sin(2wt)|2+>],

    with w = swap_rate * n_atoms. Returns the collective-basis amplitudes
    at every one of ``times``, shape times.shape + (6,).
    """
    message = "each node amplitude pair must be normalized"
    for alpha, beta in ((alpha1, beta1), (alpha2, beta2)):
        require_normalized(alpha, beta, ValueError, message)
    t = np.asarray(times, dtype=float)
    w = swap_rate * n_atoms
    c1, s1 = np.cos(w * t), np.sin(w * t)
    c2, s2 = np.cos(2 * w * t), np.sin(2 * w * t)
    ph1 = np.exp(-1j * w * t)
    ph2 = np.exp(-2j * w * t)
    amps = np.zeros(t.shape + (6,), dtype=complex)
    amps[..., 0] = alpha1 * alpha2
    amps[..., 1] = ph1 * (beta1 * alpha2 * c1 - 1j * alpha1 * beta2 * s1)
    amps[..., 2] = ph1 * (alpha1 * beta2 * c1 - 1j * beta1 * alpha2 * s1)
    amps[..., 3] = ph2 * beta1 * beta2 * c2
    amps[..., 4] = ph2 * beta1 * beta2 * (-1j) * s2
    return amps


def analytic_pair_evolution(
    alpha1: complex,
    beta1: complex,
    alpha2: complex,
    beta2: complex,
    swap_rate: float,
    n_atoms: int,
    t: float,
    basis: CollectiveBasis | None = None,
) -> StateVector:
    """The closed-form pair state of analytic_pair_amplitudes at one time."""
    amps = analytic_pair_amplitudes(alpha1, beta1, alpha2, beta2, swap_rate, n_atoms, t)
    return StateVector(amps, basis if basis is not None else CollectiveBasis())


# ---------------------------------------------------------------------------
# Photon-number blockade amplitudes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockadeSolution:
    """Closed-form single-excitation amplitudes under n cavity photons.

    c2 rides the state with the excitation on node 1, c3 on node 2, for the
    initial condition c2(0) = 1, c3(0) = 0. The evolution solves

        dc2/dt = i E2' c2 - i sqrt(N1 N2) W c3
        dc3/dt = i E3' c3 - i sqrt(N1 N2) W c2

    with dressed diagonal phases E2', E3' and exchange rate W; c3 is the
    two-frequency superposition C1 e^(i r1 t) + C2 e^(i r2 t).
    """

    r1: float
    r2: float
    c_const_1: float
    c_const_2: float
    energy_2: float
    energy_3: float
    exchange: float
    diag_2: float
    diag_3: float

    def c3(self, t):
        t = np.asarray(t, dtype=float)
        return self.c_const_1 * np.exp(1j * self.r1 * t) + self.c_const_2 * np.exp(
            1j * self.r2 * t
        )

    def c2(self, t):
        t = np.asarray(t, dtype=float)
        if self.exchange == 0.0:
            return np.exp(1j * self.diag_2 * t)
        return (self.c_const_1 / self.exchange) * (
            (self.diag_3 - self.r1) * np.exp(1j * self.r1 * t)
            - (self.diag_3 - self.r2) * np.exp(1j * self.r2 * t)
        )


def blockade_solution(
    rates: EffectiveRates, n1: int, n2: int, n_photons: int
) -> BlockadeSolution:
    """Solve the dressed two-state exchange for c2(0)=1, c3(0)=0.

    The two frequencies are

        r_{1,2} = [ (N1-1) wt1 + (N2-1) wt2 - N1 W1 - N2 W2
                    +/- sqrt( (wt2 - wt1 + N2 W2 - N1 W1)^2
                              + 4 N1 N2 Ws^2 ) ] / 2

    with dressed frequencies wt_m = w_m + 2 n W_m; the constants obey
    C1 = -C2 = -sqrt(N1 N2) Ws / (r1 - r2). The stored energies are the
    bare-frequency diagonal values (symmetric in the two nodes).
    """
    ws = real_rate(rates.swap_rate, "blockade closed form assumes a real exchange rate")
    w1, w2 = rates.shift_rate_1, rates.shift_rate_2
    wt1 = rates.transition_freq_1 + 2.0 * n_photons * w1
    wt2 = rates.transition_freq_2 + 2.0 * n_photons * w2

    def diagonal(f1, f2):
        """(E2, E3) at node frequencies (f1, f2)."""
        return (
            (n1 / 2.0 - 1.0) * f1 + (n2 / 2.0) * f2 - n1 * w1,
            (n1 / 2.0) * f1 + (n2 / 2.0 - 1.0) * f2 - n2 * w2,
        )

    diag_2, diag_3 = diagonal(wt1, wt2)
    energy_2, energy_3 = diagonal(rates.transition_freq_1, rates.transition_freq_2)
    exchange = np.sqrt(n1 * n2) * ws
    disc = np.sqrt((wt2 - wt1 + n2 * w2 - n1 * w1) ** 2 + 4.0 * n1 * n2 * ws**2)
    mean = 0.5 * (diag_2 + diag_3)
    r1 = mean + 0.5 * disc
    r2 = mean - 0.5 * disc
    c1 = 0.0 if disc == 0.0 else -exchange / disc
    return BlockadeSolution(
        r1=float(r1),
        r2=float(r2),
        c_const_1=float(c1),
        c_const_2=float(-c1),
        energy_2=float(energy_2),
        energy_3=float(energy_3),
        exchange=float(exchange),
        diag_2=float(diag_2),
        diag_3=float(diag_3),
    )


# ---------------------------------------------------------------------------
# Transistor transfer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransistorBasis:
    """Four collective states reachable from the transistor initial state.

    Labels give the control excitation and the two target node states,
    where target "1" is a lower-transition excitation and "2" a parked
    upper-level excitation.
    """

    dim = 4
    labels = ("ctrl1|01", "ctrl1|10", "ctrl0|02", "ctrl0|20")


def transistor_amplitudes(
    alpha: complex, beta: complex, n_atoms: int, rate: float, times
) -> np.ndarray:
    """Closed-form transistor transfer of a target superposition.

    The excited control drains into the targets' parked level at the
    collectively enhanced rate sqrt(N) * rate:

        psi(t) =   cos(sqrt(N) W t) |ctrl1>(alpha|01> + beta|10>)
               - i sin(sqrt(N) W t) |ctrl0>(alpha|02> + beta|20>).

    Returns the TransistorBasis amplitudes at every one of ``times``,
    shape times.shape + (4,).
    """
    require_normalized(alpha, beta, ValueError, "target amplitudes must be normalized")
    arg = np.sqrt(n_atoms) * rate * np.asarray(times, dtype=float)
    c, s = np.cos(arg), np.sin(arg)
    return np.stack([alpha * c, beta * c, -1j * alpha * s, -1j * beta * s], axis=-1)


def transistor_evolution(
    alpha: complex,
    beta: complex,
    n_atoms: int,
    rate: float,
    t: float,
) -> StateVector:
    """The closed-form transistor state of transistor_amplitudes at one time."""
    amps = transistor_amplitudes(alpha, beta, n_atoms, rate, t)
    return StateVector(amps, TransistorBasis())


def transistor_oracle(
    control,
    targets,
    couplings: CouplingSet,
    detunings: DetuningSet,
    alpha: complex,
    beta: complex,
    include_target_upper_swap: bool = False,
):
    """Numeric ingredients for checking the closed-form transistor transfer.

    Returns (hamiltonian, initial StateVector, projector) where the
    projector rows are the four reachable collective states in
    TransistorBasis order; projecting a propagated microscopic state onto
    them yields amplitudes directly comparable to transistor_evolution.
    All three live on the two-quanta sector that holds the initial state.
    """
    # ctrl1|01 and ctrl1|10: one control and one target excitation, which
    # fixes the excitation sector everything below is built on
    initial = [((0, 1), (2, 1)), ((0, 1), (1, 1))]
    quanta = sum(level for _, level in initial[0])
    h = transistor_hamiltonian(
        control,
        targets,
        couplings,
        detunings,
        include_target_upper_swap=include_target_upper_swap,
        quanta=quanta,
    )
    mb = h.basis
    states = np.array(
        [product_excitation_state(mb, excitations) for excitations in initial]
        + [collective_excitation_state(mb, m, 2) for m in (2, 1)]
    )
    psi0 = StateVector(alpha * states[0] + beta * states[1], mb)
    return h, psi0, states


# ---------------------------------------------------------------------------
# Effective-model error sweep
# ---------------------------------------------------------------------------

ERROR_METRIC = (
    "max over the time grid of 1 - |<psi_eff(t)|P psi_full(t)>|^2 / |P psi_full(t)|^2, "
    "P projecting onto the zero-photon collective pair subspace; leakage "
    "1 - |P psi_full|^2 is reported separately"
)


@dataclass(frozen=True)
class ErrorReport:
    """Effective-versus-microscopic error study over a detuning sweep.

    ``max_infidelity`` is measured as ERROR_METRIC describes.
    """

    deltas: tuple[float, ...]
    max_infidelity: tuple[float, ...]
    max_leakage: tuple[float, ...]


def effective_model_error(
    nodes,
    couplings: CouplingSet,
    deltas,
    swap_periods: float = 1.0,
    grid_points: int = 200,
) -> ErrorReport:
    """Compare microscopic and effective swap dynamics over a detuning sweep.

    For each detuning the same initial state (one collective excitation on
    node 1, photon vacuum) is propagated under (a) the microscopic
    Hamiltonian with one cavity mode at frequency gap - delta, built on the
    one-quantum sector that holds the initial state, and (b) the
    collective swap Hamiltonian with rate |g|^2/delta, over ``swap_periods``
    full swap periods pi / (sqrt(N1 N2) rate). The report carries, per
    delta, the maximum projected infidelity and the maximum leakage out of
    the zero-photon collective subspace. A detuning within the resonance
    floor (see check_detuning) raises ResonanceSingularity.
    """
    nodes = tuple(nodes)
    # refuses anything but a pair of two-level nodes
    collective = CollectiveBasis(nodes)
    gaps = {node.transition_freq for node in nodes}
    if len(gaps) != 1:
        raise ValueError("nodes must share a transition frequency")
    gap = gaps.pop()
    g = couplings.coupling(0, 0)
    if couplings.coupling(0, 1) != g:
        raise ValueError("error study assumes equal couplings")

    n1, n2 = (node.atom_count for node in nodes)
    # one collective excitation on node 1, photon vacuum: its sector is
    # the only part of the microscopic space the dynamics can reach
    start = collective.index("10")
    quanta = collective.sector(start)

    # Only the mode frequency gap - delta changes along the sweep, and it
    # enters only as the photon energy on the diagonal. With the mode at
    # zero frequency the static part holds just the atomic energies, so
    # each detuning adds (gap - delta) n_photon to that diagonal and then
    # the coupling part, the order in which a fresh build sums them. The
    # one-quantum sector holds at most one photon, whatever the truncation.
    layout = FockFactor((Mode(frequency=0.0),), (1,))
    basis, atomic, coupling = microscopic_parts(nodes, couplings, layout, quanta)
    atomic_energy = np.diag(atomic)
    photons = basis.occupations[:, basis.mode_site(0)]
    isometry = pair_isometry(basis)
    psi_full0 = StateVector(isometry[start], basis)
    psi_eff0 = StateVector(isometry.conj() @ psi_full0.amplitudes, collective)

    max_inf, max_leak = [], []
    for delta in deltas:
        rates = EffectiveRates.from_couplings(nodes, g, g, delta, delta)
        # equal couplings: the swap rate is each node's self rate |g|^2/delta
        swap_rate = rates.shift_rate_1
        if swap_rate != 0.0:
            period = np.pi / (np.sqrt(n1 * n2) * abs(swap_rate))
        else:
            period = np.pi  # arbitrary finite window for uncoupled nodes
        times = np.linspace(0.0, swap_periods * period, grid_points)

        static = np.diag(atomic_energy + (gap - delta) * photons)
        h_full = HamiltonianMatrix(static + coupling, basis)
        h_eff = two_level_swap_hamiltonian(nodes, swap_rate)

        full = evolve_on_grid(h_full, psi_full0, times)
        eff = evolve_on_grid(h_eff, psi_eff0, times)

        projected = full @ isometry.conj().T
        proj_norm_sq = np.sum(np.abs(projected) ** 2, axis=1)
        overlap = np.abs(np.sum(np.conj(eff) * projected, axis=1)) ** 2
        with np.errstate(invalid="ignore", divide="ignore"):
            infidelity = 1.0 - np.where(proj_norm_sq > 0, overlap / proj_norm_sq, 0.0)
        leakage = 1.0 - proj_norm_sq

        max_inf.append(float(np.clip(infidelity, 0.0, 1.0).max()))
        max_leak.append(float(np.clip(leakage, 0.0, 1.0).max()))

    return ErrorReport(
        deltas=tuple(float(d) for d in deltas),
        max_infidelity=tuple(max_inf),
        max_leakage=tuple(max_leak),
    )
