"""Scenario runner: parse a config file, dispatch a study, emit reports.

Scenario files are JSON with optional leading comment lines starting with
``#`` (typically a units header). Every number in a report comes from a
library operation; the runner only orchestrates, formats and asserts.

Subcommands::

    cavityqc run <scenario.json> -o <output-dir>
    cavityqc describe <kind>
    cavityqc list

Exit codes: 0 ok, 2 parse error, 3 validation error, 4 assertion failure,
5 internal error. ``report.json`` and the per-table CSV files are
byte-identical across repeated runs with the same scenario and seed; wall
time goes to a separate ``run_meta.json``.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import circuits, dynamics, gates
from .basis import BYTES_PER_AMPLITUDE, DENSE_BYTES_CAP, NodeSpec
from .errors import (
    ParseError,
    ResonanceSingularity,
    SimulationError,
    UnknownKind,
    ValidationError,
)
from .hamiltonian import (
    CouplingSet,
    DetuningSet,
    EffectiveRates,
    check_detuning,
    transistor_rate,
)


@dataclass(frozen=True)
class Field:
    name: str
    kind: str  # int | float | complex | list[float] | list[int] | bool
    required: bool = False
    default: object = None
    help: str = ""
    minimum: int | None = None  # lower bound of an int field or list[int] item
    maximum: int | None = None  # upper bound of the same


# Largest atom count per node. The product of two counts, which the runners
# and closed forms take square roots of, then stays a 64-bit integer; numpy
# has no square root for a Python int past that range.
MAX_ATOMS = 2**31


# Amplitude pairs of a scenario that must be normalized, per kind.
NORMALIZED_PAIRS = {
    "pair-evolution": (("alpha1", "beta1"), ("alpha2", "beta2")),
    "transistor": (("alpha", "beta"),),
}

# Complex amplitudes in the widest array a run keeps per time point, per
# kind: the pair's (points, 6) grid, the transistor's sector grid (at most
# nine states), the sweep's six-state effective stack per detuning and the
# blockade's one amplitude.
POINT_AMPLITUDES = {
    "pair-evolution": 6,
    "blockade": 1,
    "transistor": 9,
    "effective-error-sweep": 6,
}

# Largest number of complex amplitudes whose array fits the byte cap.
MAX_AMPLITUDES = DENSE_BYTES_CAP // BYTES_PER_AMPLITUDE


def _grid_help(kind: str) -> str:
    """Help of a kind's ``points`` field, with its limit under the byte cap."""
    count = POINT_AMPLITUDES[kind]
    per, grid = ("point", "points")
    if kind == "effective-error-sweep":
        per, grid = ("point and detuning", "points x detunings")
    amplitudes = f"{count} complex amplitude" + ("s" if count > 1 else "")
    return (
        f"time grid size; {amplitudes} per {per} must fit the byte cap "
        f"({grid} <= {MAX_AMPLITUDES // count})"
    )


# Help of the fields that several kinds share.
FIDELITY_TOLERANCE_HELP = (
    "closed-form agreement bound; below 1, as fidelities lie in [0, 1]"
)
UNITARY_HELP = "below 2, the largest deviation between two unitaries"

SCHEMAS: dict[str, tuple[Field, ...]] = {
    "pair-evolution": (
        Field(
            "n_atoms",
            "int",
            True,
            help="atoms per node (equal nodes)",
            minimum=1,
            maximum=MAX_ATOMS,
        ),
        Field("swap_rate", "float", True, help="inter-node exchange rate [rad/time]"),
        Field("alpha1", "complex", True, help="node-1 ground amplitude [re, im]"),
        Field("beta1", "complex", True, help="node-1 excited amplitude [re, im]"),
        Field("alpha2", "complex", True, help="node-2 ground amplitude [re, im]"),
        Field("beta2", "complex", True, help="node-2 excited amplitude [re, im]"),
        Field("t_max", "float", False, None, "time window; default two swap periods"),
        Field("points", "int", False, 100, _grid_help("pair-evolution"), minimum=2),
        Field("tolerance", "float", False, 1e-9, FIDELITY_TOLERANCE_HELP),
    ),
    "blockade": (
        Field("n_1", "int", True, help="atoms in node 1", minimum=1, maximum=MAX_ATOMS),
        Field("n_2", "int", True, help="atoms in node 2", minimum=1, maximum=MAX_ATOMS),
        Field("n_photons", "int", True, help="real cavity photons", minimum=0),
        Field("shift_rate_1", "float", True, help="|g1|^2/Delta1 [rad/time]"),
        Field("shift_rate_2", "float", True, help="|g2|^2/Delta2 [rad/time]"),
        Field("swap_rate", "float", True, help="inter-node exchange rate [rad/time]"),
        Field("freq_1", "float", False, 0.0, "bare transition frequency, node 1"),
        Field(
            "freq_2",
            "float",
            False,
            None,
            "bare transition frequency, node 2; default satisfies the "
            "resonance freq_2 - freq_1 + N2 shift_2 - N1 shift_1 = 0",
        ),
        Field("t_max", "float", False, None, "time window; default two transfer periods"),
        Field("points", "int", False, 200, _grid_help("blockade"), minimum=2),
        Field(
            "max_c3_sq_below",
            "float",
            False,
            None,
            "optional blocking bound; at most 1, as |c3|^2 is",
        ),
    ),
    "transistor": (
        Field(
            "n_atoms", "int", True, help="atoms per node", minimum=1, maximum=MAX_ATOMS
        ),
        Field("g21", "float", True, help="lower-transition coupling"),
        Field("g32", "float", True, help="upper-transition coupling"),
        Field("delta_control", "float", True, help="control lower-transition detuning"),
        Field("delta_target", "float", True, help="target upper-transition detuning"),
        Field("alpha", "complex", True, help="target |01> amplitude [re, im]"),
        Field("beta", "complex", True, help="target |10> amplitude [re, im]"),
        Field("periods", "float", False, 1.0, "transfer periods to cover"),
        Field("points", "int", False, 100, _grid_help("transistor"), minimum=2),
        Field("tolerance", "float", False, 1e-9, FIDELITY_TOLERANCE_HELP),
    ),
    "effective-error-sweep": (
        Field(
            "n_atoms",
            "int",
            True,
            help="atoms per node (equal nodes)",
            minimum=1,
            maximum=MAX_ATOMS,
        ),
        Field("coupling", "float", True, help="atom-mode coupling g"),
        Field(
            "delta_factors",
            "list[float]",
            True,
            help="detunings in units of sqrt(n_atoms) * coupling; must hold "
            "assert_factor",
        ),
        Field("periods", "float", False, 1.0, "swap periods per point"),
        Field(
            "points", "int", False, 200, _grid_help("effective-error-sweep"), minimum=2
        ),
        Field("assert_factor", "float", False, 30.0, "factor carrying the error bound"),
        Field(
            "assert_below",
            "float",
            False,
            1e-3,
            "infidelity bound at that factor; at most 1, as the clipped "
            "infidelity is",
        ),
        Field("check_monotone", "bool", False, True, "assert envelope decrease"),
    ),
    "verify-gates": (
        Field("seed", "int", True, help="random seed (mandatory)", minimum=0),
        Field(
            "samples",
            "int",
            False,
            10,
            "random unitaries for synthesis checks",
            minimum=1,
        ),
        Field("tolerance", "float", False, 1e-10, f"deviation bound; {UNITARY_HELP}"),
    ),
    "verify-circuits": (
        Field("seed", "int", True, help="random seed (mandatory)", minimum=0),
        Field(
            "t_values",
            "list[int]",
            False,
            [2, 3, 4],
            "control counts to verify; dense 2^(t+1)-state matrices must fit "
            "the byte cap (t <= 12)",
            minimum=2,
        ),
        Field(
            "samples", "int", False, 10, "random unitaries per control count", minimum=1
        ),
        Field("tolerance", "float", False, 1e-9, f"equivalence bound; {UNITARY_HELP}"),
    ),
}
SCENARIO_KINDS = tuple(SCHEMAS)

# Largest log2 of the entry count of a dense complex matrix under the cap.
DENSE_LOG2_ENTRIES = MAX_AMPLITUDES.bit_length() - 1

# Rates of a scenario that must be nonzero, per kind: with nothing
# exchanged, every check passes on the unchanged initial state.
NONZERO_FIELDS = {
    "pair-evolution": ("swap_rate",),
    "blockade": ("swap_rate",),
    "effective-error-sweep": ("coupling",),
}

# Bounds under which a check can no longer fail, per kind: each field is
# refused at (">=") or past (">") the value from which every result
# passes. Fidelities lie in [0, 1], as do the clipped infidelity and
# |c3|^2, and a deviation between two unitaries is at most 2.
VACUOUS_BOUNDS = {
    "pair-evolution": (("tolerance", ">=", 1.0),),
    "blockade": (("max_c3_sq_below", ">", 1.0),),
    "transistor": (("tolerance", ">=", 1.0),),
    "effective-error-sweep": (("assert_below", ">", 1.0),),
    "verify-gates": (("tolerance", ">=", 2.0),),
    "verify-circuits": (("tolerance", ">=", 2.0),),
}


# ---------------------------------------------------------------------------
# Loading and validation
# ---------------------------------------------------------------------------


def load_scenario(path) -> tuple[str, dict]:
    """Read a scenario file: '#' comment lines, then one JSON object."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from exc
    body = "\n".join(
        line for line in text.splitlines() if not line.lstrip().startswith("#")
    )
    try:
        raw = json.loads(body or "null")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: scenario must be a JSON object")
    kind = raw.pop("kind", None)
    if kind is None:
        raise ValidationError("missing required field 'kind'")
    if kind not in SCENARIO_KINDS:
        raise UnknownKind(f"unknown scenario kind {kind!r}")
    return kind, validate_params(kind, raw)


def _finite(field: Field, value) -> float:
    """The one number rule: a JSON number, not a string or a boolean, and finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError
    # json.loads accepts Infinity and NaN, which no scenario value may be
    number = float(value)
    if not np.isfinite(number):
        raise ValidationError(f"field {field.name!r} must be finite, got {value!r}")
    return number


def _integer(field: Field, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError
    # the one number rule again: every count is a finite float too
    try:
        float(value)
    except OverflowError:
        raise ValidationError(
            f"field {field.name!r} must be finite, got an integer past the float range"
        ) from None
    if field.minimum is not None and value < field.minimum:
        raise ValidationError(
            f"field {field.name!r} must be >= {field.minimum}, got {value}"
        )
    if field.maximum is not None and value > field.maximum:
        raise ValidationError(
            f"field {field.name!r} must be <= {field.maximum}, got {value}"
        )
    return value


def _coerce(field: Field, value):
    try:
        if field.kind == "int":
            return _integer(field, value)
        if field.kind == "float":
            return _finite(field, value)
        if field.kind == "bool":
            if not isinstance(value, bool):
                raise TypeError
            return value
        if field.kind == "complex":
            re_part, im_part = value
            return complex(_finite(field, re_part), _finite(field, im_part))
        if field.kind.startswith("list["):
            if not isinstance(value, list):
                raise TypeError
            if not value:
                raise ValidationError(f"field {field.name!r} must not be empty")
            item = _finite if field.kind == "list[float]" else _integer
            return [item(field, v) for v in value]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(
            f"field {field.name!r} expects {field.kind}, got {value!r}"
        ) from exc
    raise ValidationError(f"unhandled field kind {field.kind!r}")


def validate_params(kind: str, raw: dict) -> dict:
    schema = SCHEMAS[kind]
    known = {f.name for f in schema}
    for key in raw:
        if key not in known:
            raise ValidationError(f"unknown field {key!r} for scenario {kind!r}")
    params = {}
    for f in schema:
        if f.name in raw and raw[f.name] is not None:
            params[f.name] = _coerce(f, raw[f.name])
        elif f.required:
            raise ValidationError(f"missing required field {f.name!r}")
        else:
            params[f.name] = f.default
    for a, b in NORMALIZED_PAIRS.get(kind, ()):
        dynamics.require_normalized(
            params[a],
            params[b],
            ValidationError,
            f"fields {a!r} and {b!r} must be normalized, "
            f"|{a}|^2 + |{b}|^2 = {{norm:.12g}}",
        )
    for name in NONZERO_FIELDS.get(kind, ()):
        if params[name] == 0.0:
            raise ValidationError(f"field {name!r} must be nonzero")
    for name, refused, limit in VACUOUS_BOUNDS.get(kind, ()):
        value = params[name]
        if value is not None and (value > limit or value == limit and refused == ">="):
            raise ValidationError(
                f"field {name!r} = {value!r} is {refused} {limit:g}, "
                "under which the check can no longer fail"
            )
    if "points" in params:
        # the widest per-point array, per detuning for the sweep
        entries = (
            params["points"]
            * POINT_AMPLITUDES[kind]
            * len(params.get("delta_factors", [0]))
        )
        if entries > MAX_AMPLITUDES:
            raise ValidationError(
                f"field 'points' = {params['points']} gives per-point complex "
                f"arrays of {entries * BYTES_PER_AMPLITUDE:.3e} bytes, above the "
                f"cap of {DENSE_BYTES_CAP:.3e}"
            )
    if kind == "effective-error-sweep":
        # the sweep's headline bound must not drop out of the report, nor
        # pass on a run that has no time to evolve
        if params["assert_factor"] not in params["delta_factors"]:
            raise ValidationError(
                "field 'delta_factors' must hold the asserted factor "
                f"(assert_factor {params['assert_factor']:g})"
            )
        _window(params["periods"], "periods")
    if kind == "verify-circuits":
        # the reference and the logical matrix are dense over 2^(t+1) states
        for t in params["t_values"]:
            if 2 * (t + 1) > DENSE_LOG2_ENTRIES:
                raise ValidationError(
                    f"field 't_values' holds t = {t}, whose dense 2^{t + 1}-state "
                    f"matrices exceed the cap of {DENSE_BYTES_CAP:.3e} bytes"
                )
    return params


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def _cpx(value: complex) -> list[float]:
    return [float(value.real), float(value.imag)]


def _default_window(rate_scale: float) -> float:
    """Time window of two natural periods of a nonzero rate."""
    return 2.0 * np.pi / rate_scale


def _check_detuning(delta: float, nodes, field: str) -> None:
    """check_detuning on a detuning set by ``field``, as a validation error."""
    try:
        check_detuning(delta, nodes, f"field {field!r}")
    except ResonanceSingularity as exc:
        raise ValidationError(str(exc)) from exc


def _window(window: float, field: str) -> float:
    """The time window set by ``field``, refused unless positive and finite.

    Finite inputs can still give an infinite window (a huge period count,
    a vanishing rate), and an empty or reversed window checks nothing.
    """
    if not (np.isfinite(window) and window > 0.0):
        raise ValidationError(
            f"field {field!r} gives a time window of {window}, "
            "which must be positive and finite"
        )
    return window


@contextmanager
def _refuse_overflow(*fields: str):
    """Refuse, as a validation error naming ``fields``, an overflowing input.

    The closed forms square Python floats (see _abs_squares for why), and
    a Python float raises OverflowError past the float range where numpy
    would return inf. ``fields`` are those the failing arithmetic reads.
    """
    try:
        yield
    except OverflowError as exc:
        label = "field" if len(fields) == 1 else "fields"
        names = ", ".join(map(repr, fields))
        raise ValidationError(
            f"float arithmetic on {label} {names} overflows: {exc}"
        ) from exc


def _time_grid(window: float, points: int, field: str) -> np.ndarray:
    """``points`` times spanning [0, window], the window set by ``field``."""
    return np.linspace(0.0, _window(window, field), points)


def _abs_squares(z: np.ndarray) -> list[float]:
    """``float(abs(x) ** 2)`` for every x of a 1-d complex array, in one pass.

    Bit for bit: the scalar ``abs`` of a numpy complex is ``hypot(re, im)``,
    which ``np.hypot`` computes and ``np.abs`` on a complex array does not,
    and the scalar square is ``pow(m, 2)``, which Python float ``** 2``
    computes and an array ``** 2`` replaces by m * m (the two differ in
    about one value in a thousand).
    """
    return [m**2 for m in np.hypot(z.real, z.imag).tolist()]


def _blockade_rows(times: np.ndarray, c2: np.ndarray, c3: np.ndarray) -> list[dict]:
    """The blockade amplitude table: |c2|^2, |c3|^2 and their sum per time."""
    return [
        {"t": t, "abs_c2_sq": a, "abs_c3_sq": b, "total": a + b}
        for t, a, b in zip(times.tolist(), _abs_squares(c2), _abs_squares(c3))
    ]


def _transistor_rows(
    times: np.ndarray, projected: np.ndarray, closed: np.ndarray
) -> list[dict]:
    """The transistor evolution table from the projected and closed-form amplitudes.

    The fidelity is |<closed, projected>|^2; the batched 1 x 4 by 4 x 1
    products give the sums of ``np.vdot`` bit for bit.
    """
    overlaps = (closed.conj()[:, None, :] @ projected[:, :, None])[:, 0, 0]
    p0, p1, p2, p3 = map(_abs_squares, projected.T)
    return [
        {
            "t": t,
            "control_excited": a + b,
            "transferred": c + d,
            "closed_form_fidelity": f,
        }
        for t, a, b, c, d, f in zip(
            times.tolist(), p0, p1, p2, p3, _abs_squares(overlaps)
        )
    ]


def _run_pair_evolution(p: dict):
    n = p["n_atoms"]
    rate = p["swap_rate"]
    nodes = (NodeSpec(n), NodeSpec(n))
    from .hamiltonian import two_level_swap_hamiltonian

    h = two_level_swap_hamiltonian(nodes, rate, rotating_frame=True)
    a1, b1, a2, b2 = p["alpha1"], p["beta1"], p["alpha2"], p["beta2"]
    t_max = p["t_max"]
    if t_max is None:
        t_max = _default_window(abs(rate) * n)
    times = _time_grid(t_max, p["points"], "t_max")
    psi0 = dynamics.analytic_pair_evolution(a1, b1, a2, b2, rate, n, 0.0, basis=h.basis)

    grid = dynamics.evolve_on_grid(h, psi0, times)
    closed = dynamics.analytic_pair_amplitudes(a1, b1, a2, b2, rate, n, times)
    probabilities = np.abs(grid) ** 2
    # state.fidelity per point, in one pass: <numeric|closed> as batched
    # 1 x 6 by 6 x 1 products, |.|^2 as _abs_squares, clipped into [0, 1]
    overlaps = (grid.conj()[:, None, :] @ closed[:, :, None])[:, 0, 0]
    fidelities = [min(max(f, 0.0), 1.0) for f in _abs_squares(overlaps)]

    rows = [
        {
            "t": float(t),
            "p_00": float(probs[0]),
            "p_10": float(probs[1]),
            "p_01": float(probs[2]),
            "p_11": float(probs[3]),
            "p_2plus": float(probs[4]),
            "closed_form_fidelity": f,
        }
        for t, probs, f in zip(times, probabilities, fidelities)
    ]
    # np.min, unlike a running min(), lets a NaN fidelity fail the check
    worst = float(np.min([row["closed_form_fidelity"] for row in rows]))
    assertions = [
        {
            "name": "closed-form-agreement",
            "passed": bool(worst >= 1.0 - p["tolerance"]),
            "detail": f"min fidelity {worst:.12e} over {p['points']} points",
        }
    ]
    return {"evolution": rows}, assertions


def _run_blockade(p: dict):
    n1, n2, n_ph = p["n_1"], p["n_2"], p["n_photons"]
    freq_1 = p["freq_1"]
    freq_2 = p["freq_2"]
    if freq_2 is None:
        freq_2 = freq_1 + n1 * p["shift_rate_1"] - n2 * p["shift_rate_2"]
    rates = EffectiveRates(
        swap_rate=p["swap_rate"],
        shift_rate_1=p["shift_rate_1"],
        shift_rate_2=p["shift_rate_2"],
        transition_freq_1=freq_1,
        transition_freq_2=freq_2,
    )
    # every field of the scenario's rates enters the two frequencies
    with _refuse_overflow(
        "n_1", "n_2", "n_photons", "shift_rate_1", "shift_rate_2", "swap_rate",
        "freq_1", "freq_2",
    ):
        sol = dynamics.blockade_solution(rates, n1, n2, n_ph)
    t_max = p["t_max"]
    if t_max is None:
        t_max = _default_window(abs(sol.exchange))
    times = _time_grid(t_max, p["points"], "t_max")
    c2 = sol.c2(times)
    c3 = sol.c3(times)
    rows = _blockade_rows(times, c2, c3)
    solution_row = {
        "r_1": sol.r1,
        "r_2": sol.r2,
        "c_const_1": sol.c_const_1,
        "c_const_2": sol.c_const_2,
        "energy_2": sol.energy_2,
        "energy_3": sol.energy_3,
    }
    closure = float(np.abs(np.abs(c2) ** 2 + np.abs(c3) ** 2 - 1.0).max())
    assertions = [
        {
            "name": "norm-closure",
            "passed": bool(closure <= 1e-9),
            "detail": f"max ||c2|^2 + |c3|^2 - 1| = {closure:.3e}",
        }
    ]
    if p["max_c3_sq_below"] is not None:
        peak = float((np.abs(c3) ** 2).max())
        assertions.append(
            {
                "name": "transfer-blocked",
                "passed": bool(peak < p["max_c3_sq_below"]),
                "detail": f"max |c3|^2 = {peak:.3e}, bound {p['max_c3_sq_below']:.3e}",
            }
        )
    return {"amplitudes": rows, "solution": [solution_row]}, assertions


def _run_transistor(p: dict):
    n = p["n_atoms"]
    node = NodeSpec(n, 3, (0.0, 1.0, 2.0))
    for name in ("delta_control", "delta_target"):
        _check_detuning(p[name], (node,), name)
    couplings = CouplingSet(g21=p["g21"], g32=p["g32"])
    detunings = DetuningSet(lower=p["delta_control"], upper=p["delta_target"])
    rate = transistor_rate((node,), couplings, detunings)
    if rate == 0.0:
        raise ValidationError("fields 'g21' and 'g32' give a transfer rate of 0")
    # a Python float, so that an overflowing window is inf without a warning
    period = float(np.pi / (np.sqrt(n) * rate))
    times = _time_grid(p["periods"] * period, p["points"], "periods")
    h, psi0, projector = dynamics.transistor_oracle(
        node, (node, node), couplings, detunings, p["alpha"], p["beta"]
    )
    grid = dynamics.evolve_on_grid(h, psi0, times)
    projected = grid @ projector.conj().T
    closed = dynamics.transistor_amplitudes(p["alpha"], p["beta"], n, rate, times)

    rows = _transistor_rows(times, projected, closed)
    # np.min, unlike a running min(), lets a NaN fidelity fail the check
    worst = float(np.min([row["closed_form_fidelity"] for row in rows]))

    t_star = dynamics.population_peak_time(h, psi0, projector.conj()[2:], 0.0, period)
    expected = 0.5 * period
    t_err = abs(t_star - expected) / expected
    assertions = [
        {
            "name": "closed-form-agreement",
            "passed": bool(worst >= 1.0 - p["tolerance"]),
            "detail": f"min fidelity {worst:.12e}",
        },
        {
            "name": "transfer-time",
            "passed": bool(t_err <= 1e-6),
            "detail": f"first maximum at {t_star:.9e}, expected {expected:.9e}",
        },
    ]
    summary = [{"rate": float(rate), "transfer_time": float(t_star)}]
    return {"evolution": rows, "summary": summary}, assertions


def _run_effective_error_sweep(p: dict):
    n = p["n_atoms"]
    g = p["coupling"]
    nodes = (NodeSpec(n), NodeSpec(n))
    couplings = CouplingSet(g21=g)
    deltas = [f * np.sqrt(n) * abs(g) for f in p["delta_factors"]]
    for delta in deltas:
        _check_detuning(delta, nodes, "delta_factors")
    # the one Python float square is the swap rate's |g|^2
    with _refuse_overflow("coupling"):
        report = dynamics.effective_model_error(
            nodes,
            couplings,
            deltas,
            swap_periods=p["periods"],
            grid_points=p["points"],
        )
    rows = [
        {
            "delta_factor": float(f),
            "delta": float(d),
            "max_infidelity": float(i),
            "max_leakage": float(l),
        }
        for f, d, i, l in zip(
            p["delta_factors"], report.deltas, report.max_infidelity, report.max_leakage
        )
    ]
    # validation guarantees the asserted factor is in the sweep
    factor = p["assert_factor"]
    value = report.max_infidelity[p["delta_factors"].index(factor)]
    assertions = [
        {
            "name": f"infidelity-at-{factor:g}x",
            "passed": bool(value < p["assert_below"]),
            "detail": f"max infidelity {value:.3e}, bound {p['assert_below']:.1e}",
        }
    ]
    if p["check_monotone"] and len(rows) >= 2:
        ordered = sorted(rows, key=lambda r: r["delta_factor"])
        ok = all(
            b["max_infidelity"] <= 1.1 * a["max_infidelity"]
            for a, b in zip(ordered, ordered[1:])
        )
        assertions.append(
            {
                "name": "envelope-monotone",
                "passed": bool(ok),
                "detail": "max infidelity non-increasing across the sweep "
                "(10% fringe jitter allowed)",
            }
        )
    metric = [{"description": dynamics.ERROR_METRIC}]
    return {"sweep": rows, "metric": metric}, assertions


def _run_verify_gates(p: dict):
    rng = np.random.default_rng(p["seed"])
    tol = p["tolerance"]
    rows = []

    def add(name, deviation, bound):
        rows.append(
            {
                "check": name,
                "deviation": float(deviation),
                "bound": float(bound),
                "passed": bool(deviation <= bound),
            }
        )

    res = circuits.equivalence_up_to_global_phase(gates.pcet(), gates.CNOT, 1e-12)
    add("pcet-equals-cnot", res.max_deviation, 1e-12)

    square = gates.pcet() @ gates.pcet()
    res = circuits.equivalence_up_to_global_phase(square, np.eye(4), 1e-12)
    add("pcet-involution", res.max_deviation, 1e-12)

    phase, transfer = gates.phase_gate(np.pi), gates.et_gate(np.pi)
    anti = phase @ transfer + transfer @ phase
    add("phase-et-anticommutation", np.abs(anti).max(), 1e-12)

    worst = 0.0
    for _ in range(p["samples"]):
        t1, t2 = rng.uniform(-2 * np.pi, 2 * np.pi, size=2)
        dev = np.abs(
            gates.et_gate(t1) @ gates.et_gate(t2) - gates.et_gate(t1 + t2)
        ).max()
        worst = max(worst, dev)
    add("et-group-law", worst, 1e-12)

    worst = 0.0
    for _ in range(p["samples"]):
        u = gates.haar_random_unitary(rng)
        synthesis = gates.synthesize_rotation(u, tol=tol)
        dev = np.abs(u - synthesis.global_phase * synthesis.matrix()).max()
        worst = max(worst, dev)
    add("rotation-synthesis", worst, tol)

    assertions = [
        {
            "name": "all-gate-checks",
            "passed": all(r["passed"] for r in rows),
            "detail": f"{sum(r['passed'] for r in rows)}/{len(rows)} checks passed",
        }
    ]
    return {"checks": rows}, assertions


def _run_verify_circuits(p: dict):
    rng = np.random.default_rng(p["seed"])
    tol = p["tolerance"]
    rows = []

    toffoli = circuits.CircuitBundle(circuits.encoded_toffoli(0, 1, 2, 0), 3, 1)
    matrix, _ = circuits.logical_matrix(toffoli)
    res = circuits.equivalence_up_to_global_phase(matrix, gates.TOFFOLI, 1e-10)
    rows.append(
        {
            "case": "encoded-toffoli",
            "construction": "pcet",
            "deviation": res.max_deviation,
            "count_ok": True,
            "passed": bool(res.equal),
        }
    )

    margolus, _ = circuits.logical_matrix(
        circuits.CircuitBundle(circuits.standard_toffoli_upto_phase(), 3)
    )
    dev = float(np.abs(np.abs(margolus) - np.abs(gates.TOFFOLI)).max())
    rows.append(
        {
            "case": "toffoli-up-to-phase",
            "construction": "rotation-ladder",
            "deviation": dev,
            "count_ok": True,
            "passed": bool(dev <= 1e-10),
        }
    )

    for t in p["t_values"]:
        for sample in range(p["samples"]):
            u = gates.haar_random_unitary(rng)
            reference = circuits.controlled_power_matrix(t, u)
            for name, builder in (
                ("standard", circuits.controlled_power_standard),
                ("improved", circuits.controlled_power_improved),
            ):
                bundle = builder(t, u)
                matrix, _ = circuits.logical_matrix(bundle)
                res = circuits.equivalence_up_to_global_phase(matrix, reference, tol)
                counts = circuits.gate_counts(bundle.circuit)
                if name == "standard":
                    count_ok = counts["TOFFOLI"] == 2 * (t - 1)
                else:
                    count_ok = counts.get("PCET", 0) == 2 * (t - 1)
                rows.append(
                    {
                        "case": f"controlled-power-t{t}-s{sample}",
                        "construction": name,
                        "deviation": res.max_deviation,
                        "count_ok": bool(count_ok),
                        "passed": bool(res.equal and count_ok),
                    }
                )

    assertions = [
        {
            "name": "all-circuit-checks",
            "passed": all(r["passed"] for r in rows),
            "detail": f"{sum(r['passed'] for r in rows)}/{len(rows)} cases passed",
        }
    ]
    return {"cases": rows}, assertions


RUNNERS = {
    "pair-evolution": _run_pair_evolution,
    "blockade": _run_blockade,
    "transistor": _run_transistor,
    "effective-error-sweep": _run_effective_error_sweep,
    "verify-gates": _run_verify_gates,
    "verify-circuits": _run_verify_circuits,
}


# ---------------------------------------------------------------------------
# Report writing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunReport:
    """Deterministic result of one scenario run (wall time kept separate)."""

    kind: str
    scenario: dict
    tables: dict
    assertions: list
    wall_time_seconds: float

    @property
    def passed(self) -> bool:
        return all(a["passed"] for a in self.assertions)

    def payload(self) -> dict:
        return {
            "kind": self.kind,
            "scenario": self.scenario,
            "tables": self.tables,
            "assertions": self.assertions,
            "passed": self.passed,
        }


# JSON text of the non-finite floats, as json.dumps writes them
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# Characters that would end a CSV line or a quoted cell. A comma is let
# through, inside double quotes: the effective-error-sweep's metric
# description holds one.
_CSV_BREAKERS = frozenset('"\r\n')


def _block(items: list[str], brackets: str, depth: int) -> str:
    """A JSON array or object holding ``items``, one per line, at ``depth``."""
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return (
        brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * depth + brackets[1]
    )


def _json(value, depth: int = 0) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes it.

    ``depth`` is the indent level of the line that ``value`` starts on.
    Object keys must be strings. A ``_Table`` renders itself.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    if isinstance(value, _Table):
        return value.json(depth)
    if isinstance(value, (list, tuple)):
        return _block([_json(v, depth + 1) for v in value], "[]", depth)
    if isinstance(value, dict):
        items = [
            encode_basestring_ascii(k) + ": " + _json(value[k], depth + 1)
            for k in sorted(value)
        ]
        return _block(items, "{}", depth)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class _Table:
    """One report table: rows that all have the first row's columns.

    Its JSON fills one row template (sorted keys, indented at the table's
    depth) and its CSV one line template (the first row's column order,
    ``%.12e`` floats, ``true``/``false``), row by row. A column name or
    cell that is not a float goes through ``_csv_text``.
    """

    def __init__(self, name: str, rows: list):
        self.name = name
        for row in rows:
            if not isinstance(row, dict):
                raise ValueError(f"table {name!r} holds a row that is not an object")
            if row.keys() != rows[0].keys():
                raise ValueError(
                    f"table {name!r} is ragged: a row has columns {sorted(row)}, "
                    f"the first row {sorted(rows[0])}"
                )
        self.count = len(rows)
        self.columns = list(rows[0]) if rows else []
        self.values = {c: [row[c] for row in rows] for c in self.columns}
        # columns whose every value is a float take the fast text paths
        self.floats = {
            c
            for c, values in self.values.items()
            if all(issubclass(t, float) for t in set(map(type, values)))
        }

    def _fill(self, template: str, cells: list[list]) -> list[str]:
        """``template`` filled with each row of the columns ``cells``."""
        return list(map(template.__mod__, zip(*cells) if cells else [()] * self.count))

    def json(self, depth: int) -> str:
        keys = sorted(self.columns)
        template = _block(
            [encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys],
            "{}",
            depth + 1,
        )
        cells = []
        for k in keys:
            if k in self.floats:
                text = list(map(float.__repr__, self.values[k]))
                cells.append(list(map(_NON_FINITE.get, text, text)))
            else:
                cells.append([_json(v, depth + 2) for v in self.values[k]])
        return _block(self._fill(template, cells), "[]", depth)

    def _csv_text(self, value) -> str:
        """One CSV cell: ``%.12e`` for a float, else its text, a comma quoted.

        The text of a bool is ``true``/``false``, of any other value its
        ``str``. A text holding a double quote, CR or LF is refused, so
        nothing inside the quotes needs escaping.
        """
        if isinstance(value, float):
            return "%.12e" % value
        text = ("true" if value else "false") if isinstance(value, bool) else str(value)
        if not _CSV_BREAKERS.isdisjoint(text):
            raise ValueError(
                f"table {self.name!r} holds the CSV text {text!r}, "
                "which has a double quote, CR or LF"
            )
        return '"' + text + '"' if "," in text else text

    def csv(self) -> str:
        text = self._csv_text
        header = ",".join(map(text, self.columns))
        template = ",".join("%.12e" if c in self.floats else "%s" for c in self.columns)
        cells = [
            self.values[c] if c in self.floats else list(map(text, self.values[c]))
            for c in self.columns
        ]
        return "\n".join([header, *self._fill(template, cells)]) + "\n"


def write_report(outdir, report: RunReport) -> None:
    """Write ``report.json``, one CSV per non-empty table and ``run_meta.json``.

    ``report.json`` is the payload as ``json.dumps(payload, indent=2,
    sort_keys=True)`` writes it, plus one LF. Every file is rendered before
    any is created, so a ragged table, a CSV text that would break its line
    or a value that JSON cannot encode raises with no file written.
    """
    tables = {name: _Table(name, rows) for name, rows in report.tables.items()}
    files = {"report.json": _json({**report.payload(), "tables": tables}) + "\n"}
    for name, table in tables.items():
        if table.count:
            files[f"{name}.csv"] = table.csv()
    meta = {
        "wall_time_seconds": report.wall_time_seconds,
        "written_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
    }
    files["run_meta.json"] = _json(meta) + "\n"
    data = {name: text.encode("utf-8") for name, text in files.items()}
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, content in data.items():
        (outdir / name).write_bytes(content)


def run(path, outdir) -> int:
    """Execute a scenario file; returns the process exit code."""
    kind, params = load_scenario(path)
    start = time.perf_counter()
    tables, assertions = RUNNERS[kind](params)
    elapsed = time.perf_counter() - start
    scenario_echo = {
        k: (_cpx(v) if isinstance(v, complex) else v) for k, v in params.items()
    }
    report = RunReport(
        kind=kind,
        scenario=scenario_echo,
        tables=tables,
        assertions=assertions,
        wall_time_seconds=elapsed,
    )
    write_report(outdir, report)
    for a in report.assertions:
        status = "pass" if a["passed"] else "FAIL"
        print(f"[{status}] {a['name']}: {a['detail']}")
    return 0 if report.passed else 4


def describe(kind: str) -> str:
    if kind not in SCENARIO_KINDS:
        raise UnknownKind(f"unknown scenario kind {kind!r}")
    lines = [f"scenario kind: {kind}", "fields:"]
    for f in SCHEMAS[kind]:
        req = "required" if f.required else f"default {f.default!r}"
        lines.append(f"  {f.name:<16} {f.kind:<12} {req:<22} {f.help}")
    return "\n".join(lines)


def list_scenarios() -> str:
    return "\n".join(SCENARIO_KINDS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cavityqc",
        description="Scenario runner for the ensemble-pair cavity simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("scenario", help="path to the scenario JSON file")
    run_p.add_argument("-o", "--output", required=True, help="output directory")
    desc_p = sub.add_parser("describe", help="print the schema of a scenario kind")
    desc_p.add_argument("kind")
    sub.add_parser("list", help="list scenario kinds")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run(args.scenario, args.output)
        if args.command == "describe":
            print(describe(args.kind))
            return 0
        if args.command == "list":
            print(list_scenarios())
            return 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, UnknownKind) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except Exception as exc:  # noqa: BLE001 - map anything unexpected to exit 5
        print(f"internal error: {exc}", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
