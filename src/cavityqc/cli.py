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
import math
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
    """One scenario field: its type, default, help and valid range.

    The range holds the number, or each list item: ``minimum`` and
    ``maximum`` are included ends, ``above`` and ``below`` excluded ones,
    and a ``nonzero`` field refuses 0. A list holds 1 to MAX_TABLE_ROWS items.
    """

    name: str
    kind: str  # int | float | complex | list[float] | list[int] | bool
    required: bool = False
    default: object = None
    help: str = ""
    minimum: float | None = None
    maximum: float | None = None
    above: float | None = None
    below: float | None = None
    nonzero: bool = False

    @property
    def range(self) -> str:
        """The range as text, such as ``[0, 1)``, ``nonzero``, ``1-262144 items``."""
        low = "(-inf" if self.above is None else f"({self.above}"
        high = "inf)" if self.below is None else f"{self.below})"
        low = low if self.minimum is None else f"[{self.minimum}"
        high = high if self.maximum is None else f"{self.maximum}]"
        interval = "" if (low, high) == ("(-inf", "inf)") else f"{low}, {high}"
        items = f"1-{MAX_TABLE_ROWS} items" if self.kind.startswith("list[") else ""
        return " ".join(filter(None, (interval, "nonzero" * self.nonzero, items)))


# Largest atom count per node. The product of two counts, which the runners
# and closed forms take square roots of, then stays a 64-bit integer; numpy
# has no square root for a Python int past that range.
MAX_ATOMS = 2**31

# Largest number of complex amplitudes whose array fits the byte cap.
MAX_AMPLITUDES = DENSE_BYTES_CAP // BYTES_PER_AMPLITUDE

# Most time points of a pair-evolution, blockade or transistor grid, or
# items of a list field, each at least one report row. A row costs far
# more than its amplitudes: the slope of peak RSS between 65,536 and
# 262,144 rows (single runs, ru_maxrss) is about 1.6 KB per row for the
# pair, 1.2 KB for the transistor and 1.1 KB for the blockade, so at this
# cap the widest, the pair's, peaked at 450 MB, within DENSE_BYTES_CAP.
MAX_TABLE_ROWS = 2**18

# Bytes a sweep keeps per time point and detuning, and per detuning: a fit
# to its peak RSS (single runs, ru_maxrss) over 1-65,536 detunings and
# 2-400,000 points, which counts 404 MB at 2,000 x 500 where a run kept
# 373 MB. Their sum over a sweep must fit DENSE_BYTES_CAP.
SWEEP_SAMPLE_BYTES = 400
SWEEP_DETUNING_BYTES = 2000

# Shortest time window a run may check, in periods of the transfer its
# check samples (see _time_window). By a quarter period an undisturbed
# transfer has moved half its population (cos^2(pi/4) = 1/2), so a wrong
# rate can fail every check; over a much shorter window it passes them all.
MIN_WINDOW_PERIODS = 0.25

# Amplitude pairs of a scenario that must be normalized, per kind.
NORMALIZED_PAIRS = {
    "pair-evolution": (("alpha1", "beta1"), ("alpha2", "beta2")),
    "transistor": (("alpha", "beta"),),
}

# Fields that several kinds share. Each bound is refused where no run can
# fail it and where no run can pass it: a fidelity lies in [0, 1], so a
# tolerance on 1 - fidelity lies in [0, 1); the clipped infidelity and
# |c3|^2 lie in [0, 1] and are checked with a strict <, so their bounds lie
# in (0, 1]; a deviation between two unitaries lies in [0, 2]. A zero rate
# exchanges nothing, so every check would pass on the initial state.
N_ATOMS = Field(
    "n_atoms", "int", True, help="atoms in each node", minimum=1, maximum=MAX_ATOMS
)
SWAP_RATE = Field(
    "swap_rate", "float", True, help="inter-node exchange rate [rad/time]", nonzero=True
)
FIDELITY_TOLERANCE = Field(
    "tolerance", "float", False, 1e-9, "closed-form agreement bound", minimum=0, below=1
)
T_MAX = Field("t_max", "float", False, None, "window; default two periods", above=0)
PERIODS = Field(
    "periods", "float", False, 1.0, "transfer periods", minimum=MIN_WINDOW_PERIODS
)
SEED = Field("seed", "int", True, help="random seed (mandatory)", minimum=0)
# the help of a points field capped at MAX_TABLE_ROWS
GRID = "time grid size, one report row per point"

SCHEMAS: dict[str, tuple[Field, ...]] = {
    "pair-evolution": (
        N_ATOMS,
        SWAP_RATE,
        Field("alpha1", "complex", True, help="node-1 ground amplitude [re, im]"),
        Field("beta1", "complex", True, help="node-1 excited amplitude [re, im]"),
        Field("alpha2", "complex", True, help="node-2 ground amplitude [re, im]"),
        Field("beta2", "complex", True, help="node-2 excited amplitude [re, im]"),
        T_MAX,
        Field("points", "int", False, 100, GRID, minimum=2, maximum=MAX_TABLE_ROWS),
        FIDELITY_TOLERANCE,
    ),
    "blockade": (
        Field("n_1", "int", True, help="atoms in node 1", minimum=1, maximum=MAX_ATOMS),
        Field("n_2", "int", True, help="atoms in node 2", minimum=1, maximum=MAX_ATOMS),
        Field("n_photons", "int", True, help="real cavity photons", minimum=0),
        Field("shift_rate_1", "float", True, help="|g1|^2/Delta1 [rad/time]"),
        Field("shift_rate_2", "float", True, help="|g2|^2/Delta2 [rad/time]"),
        SWAP_RATE,
        Field("freq_1", "float", False, 0.0, "bare transition frequency, node 1"),
        Field(
            "freq_2",
            "float",
            False,
            None,
            "bare transition frequency, node 2; default satisfies the "
            "resonance freq_2 - freq_1 + N2 shift_2 - N1 shift_1 = 0",
        ),
        T_MAX,
        Field("points", "int", False, 200, GRID, minimum=2, maximum=MAX_TABLE_ROWS),
        Field(
            "max_c3_sq_below",
            "float",
            False,
            None,
            "optional blocking bound on max |c3|^2",
            above=0,
            maximum=1,
        ),
    ),
    "transistor": (
        N_ATOMS,
        Field("g21", "float", True, help="lower-transition coupling"),
        Field("g32", "float", True, help="upper-transition coupling"),
        Field("delta_control", "float", True, help="control lower-transition detuning"),
        Field("delta_target", "float", True, help="target upper-transition detuning"),
        Field("alpha", "complex", True, help="target |01> amplitude [re, im]"),
        Field("beta", "complex", True, help="target |10> amplitude [re, im]"),
        PERIODS,
        Field("points", "int", False, 100, GRID, minimum=2, maximum=MAX_TABLE_ROWS),
        FIDELITY_TOLERANCE,
    ),
    "effective-error-sweep": (
        N_ATOMS,
        Field("coupling", "float", True, help="atom-mode coupling g", nonzero=True),
        Field(
            "delta_factors",
            "list[float]",
            True,
            help="detunings in units of sqrt(n_atoms) * coupling, one report row "
            "each; must hold assert_factor",
        ),
        PERIODS,
        # checked with delta_factors in validate_params
        Field(
            "points",
            "int",
            False,
            200,
            "time grid size; with delta_factors, the sweep's memory must fit "
            "the byte cap",
            minimum=2,
        ),
        Field("assert_factor", "float", False, 30.0, "factor carrying the error bound"),
        Field(
            "assert_below",
            "float",
            False,
            1e-3,
            "infidelity bound at assert_factor",
            above=0,
            maximum=1,
        ),
        Field("check_monotone", "bool", False, True, "assert envelope decrease"),
    ),
    "verify-gates": (
        SEED,
        Field("samples", "int", False, 10, "random unitaries to synthesize", minimum=1),
        Field(
            "tolerance", "float", False, 1e-10, "deviation bound", minimum=0, below=2
        ),
    ),
    "verify-circuits": (
        SEED,
        # the reference and the logical matrix are dense over 2^(t+1) states,
        # so 2 (t + 1) <= log2(MAX_AMPLITUDES)
        Field(
            "t_values",
            "list[int]",
            False,
            [2, 3, 4],
            "control counts to verify; dense 2^(t+1)-state matrices must fit "
            "the byte cap",
            minimum=2,
            maximum=(MAX_AMPLITUDES.bit_length() - 1) // 2 - 1,
        ),
        Field(
            "samples", "int", False, 10, "random unitaries per control count", minimum=1
        ),
        Field(
            "tolerance", "float", False, 1e-9, "equivalence bound", minimum=0, below=2
        ),
    ),
}
SCENARIO_KINDS = tuple(SCHEMAS)


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
    return value


def _in_range(field: Field, number):
    """``number``, a value or list item of ``field``, if the field's range holds it."""
    if (
        (field.minimum is not None and number < field.minimum)
        or (field.maximum is not None and number > field.maximum)
        or (field.above is not None and number <= field.above)
        or (field.below is not None and number >= field.below)
        or (field.nonzero and number == 0)
    ):
        rule = f"lies outside {field.range}"
        if field.nonzero and number == 0:
            rule = "must be nonzero"
        raise ValidationError(f"field {field.name!r}: {number!r} {rule} ({field.help})")
    return number


def _coerce(field: Field, value):
    try:
        if field.kind == "int":
            return _in_range(field, _integer(field, value))
        if field.kind == "float":
            return _in_range(field, _finite(field, value))
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
            if not 0 < len(value) <= MAX_TABLE_ROWS:
                items = f"{len(value)} items lie outside 1-{MAX_TABLE_ROWS}"
                raise ValidationError(f"field {field.name!r}: {items} ({field.help})")
            item = _finite if field.kind == "list[float]" else _integer
            return [_in_range(field, item(field, v)) for v in value]
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
    if kind == "effective-error-sweep":
        # the sweep's headline bound must not drop out of the report
        if params["assert_factor"] not in params["delta_factors"]:
            raise ValidationError(
                "field 'delta_factors' must hold the asserted factor "
                f"(assert_factor {params['assert_factor']:g})"
            )
        k, points = len(params["delta_factors"]), params["points"]
        needed = k * (points * SWEEP_SAMPLE_BYTES + SWEEP_DETUNING_BYTES)
        if needed > DENSE_BYTES_CAP:
            raise ValidationError(
                f"fields 'points' and 'delta_factors' give a sweep that keeps "
                f"about {needed:.3e} bytes, above the cap of {DENSE_BYTES_CAP:.3e}"
            )
    return params


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def _cpx(value: complex) -> list[float]:
    return [float(value.real), float(value.imag)]


def _check_detuning(delta: float, nodes, field: str) -> None:
    """check_detuning on a finite detuning set by ``field``, as a validation error."""
    if not math.isfinite(delta):
        raise ValidationError(f"field {field!r}: detuning {delta} past the float range")
    try:
        check_detuning(delta, nodes, f"field {field!r}")
    except ResonanceSingularity as exc:
        raise ValidationError(str(exc)) from exc


def _named(fields) -> str:
    """``field 'a'`` or ``fields 'a', 'b'``, as a message names them."""
    label = "field" if len(fields) == 1 else "fields"
    return f"{label} {', '.join(map(repr, fields))}"


def _time_window(p: dict, period: float, fields: tuple[str, ...]) -> float:
    """The time window of a run whose check samples a transfer of ``period``.

    ``t_max`` if the scenario sets it, else ``periods`` x ``period``, else
    two periods; ``fields`` are those that set ``period``. Refused: a
    period that is not positive and finite (a vanishing rate, or one past
    the float range), naming ``fields``; a window that is not, or one
    shorter than MIN_WINDOW_PERIODS periods, within which no check can
    fail, naming the field that sets it (``fields`` for the default).
    """
    if not 0.0 < period < math.inf:
        raise ValidationError(
            f"period {period:.3e} set by {_named(fields)} must be positive and finite"
        )
    if p.get("t_max") is not None:
        window, source = p["t_max"], ("t_max",)
    elif p.get("periods") is not None:
        window, source = p["periods"] * period, ("periods",)
    else:
        window, source = 2.0 * period, fields
    if not 0.0 < window < math.inf:
        raise ValidationError(
            f"time window {window} set by {_named(source)} must be positive "
            "and finite"
        )
    if window < MIN_WINDOW_PERIODS * period:
        raise ValidationError(
            f"time window {window:.3e} set by {_named(source)} is shorter than "
            f"{MIN_WINDOW_PERIODS:g} of the period {period:.3e}, within which "
            "no check can fail"
        )
    return window


@contextmanager
def _refuse_overflow(*fields: str):
    """Refuse, as a validation error naming ``fields``, an overflowing input.

    The closed forms square Python floats (see _abs_squares for why), and
    a Python float raises OverflowError past the float range where numpy
    would return inf; the error sweep raises one for a swap window past
    it. ``fields`` are those the failing arithmetic reads.
    """
    try:
        yield
    except OverflowError as exc:
        raise ValidationError(
            f"float arithmetic on {_named(fields)} overflows: {exc}"
        ) from exc


def _abs_squares(z: np.ndarray) -> list[float]:
    """``float(abs(x) ** 2)`` for every x of a 1-d complex array, in one pass.

    Bit for bit: the scalar ``abs`` of a numpy complex is ``hypot(re, im)``,
    which ``np.hypot`` computes and ``np.abs`` on a complex array does not,
    and the scalar square is ``pow(m, 2)``, which Python float ``** 2``
    computes and an array ``** 2`` replaces by m * m (the two differ in
    about one value in a thousand).
    """
    return [m**2 for m in np.hypot(z.real, z.imag).tolist()]


def _blockade_columns(times: np.ndarray, c2: np.ndarray, c3: np.ndarray) -> dict:
    """The blockade amplitude table: |c2|^2, |c3|^2 and their sum per time."""
    c2_sq, c3_sq = _abs_squares(c2), _abs_squares(c3)
    return {
        "t": times.tolist(),
        "abs_c2_sq": c2_sq,
        "abs_c3_sq": c3_sq,
        "total": [a + b for a, b in zip(c2_sq, c3_sq)],
    }


def _transistor_columns(
    times: np.ndarray, projected: np.ndarray, closed: np.ndarray
) -> dict:
    """The transistor evolution table from the projected and closed-form amplitudes.

    The fidelity is |<closed, projected>|^2; the batched 1 x 4 by 4 x 1
    products give the sums of ``np.vdot`` bit for bit.
    """
    overlaps = (closed.conj()[:, None, :] @ projected[:, :, None])[:, 0, 0]
    p0, p1, p2, p3 = map(_abs_squares, projected.T)
    return {
        "t": times.tolist(),
        "control_excited": [a + b for a, b in zip(p0, p1)],
        "transferred": [c + d for c, d in zip(p2, p3)],
        "closed_form_fidelity": _abs_squares(overlaps),
    }


def _add_row(table: dict, *row) -> None:
    """Append ``row``, one value per column of ``table`` in its order."""
    for column, value in zip(table.values(), row, strict=True):
        column.append(value)


def _all_passed(name: str, table: dict, noun: str) -> tuple:
    """The check that every row of ``table`` passed, counting them in its detail."""
    passed = table["passed"]
    return name, all(passed), f"{sum(passed)}/{len(passed)} {noun} passed"


def _run_pair_evolution(p: dict):
    n = p["n_atoms"]
    rate = p["swap_rate"]
    # the single-excitation swap runs at n |rate|
    window = _time_window(p, math.pi / (n * abs(rate)), ("swap_rate", "n_atoms"))
    times = np.linspace(0.0, window, p["points"])
    nodes = (NodeSpec(n), NodeSpec(n))
    from .hamiltonian import two_level_swap_hamiltonian

    h = two_level_swap_hamiltonian(nodes, rate, rotating_frame=True)
    a1, b1, a2, b2 = p["alpha1"], p["beta1"], p["alpha2"], p["beta2"]
    psi0 = dynamics.analytic_pair_evolution(a1, b1, a2, b2, rate, n, 0.0, basis=h.basis)

    grid = dynamics.evolve_on_grid(h, psi0, times)
    closed = dynamics.analytic_pair_amplitudes(a1, b1, a2, b2, rate, n, times)
    # state.fidelity per point, in one pass: <numeric|closed> as batched
    # 1 x 6 by 6 x 1 products, |.|^2 as _abs_squares, clipped into [0, 1]
    overlaps = (grid.conj()[:, None, :] @ closed[:, :, None])[:, 0, 0]
    populations = (np.abs(grid) ** 2).T.tolist()
    evolution = {
        "t": times.tolist(),
        # the basis states 00, 10, 01, 11 and 2+; zip leaves out 2-
        **dict(zip(("p_00", "p_10", "p_01", "p_11", "p_2plus"), populations)),
        "closed_form_fidelity": [min(max(f, 0.0), 1.0) for f in _abs_squares(overlaps)],
    }
    # np.min, unlike a running min(), lets a NaN fidelity fail the check
    worst = float(np.min(evolution["closed_form_fidelity"]))
    detail = f"min fidelity {worst:.12e} over {p['points']} points"
    checks = [("closed-form-agreement", worst >= 1.0 - p["tolerance"], detail)]
    return {"evolution": evolution}, checks


def _run_blockade(p: dict):
    n1, n2, n_ph = p["n_1"], p["n_2"], p["n_photons"]
    freq_1 = p["freq_1"]
    freq_2 = p["freq_2"]
    if freq_2 is None:
        freq_2 = freq_1 + n1 * p["shift_rate_1"] - n2 * p["shift_rate_2"]
        if not math.isfinite(freq_2):
            fields = ("freq_1", "n_1", "shift_rate_1", "n_2", "shift_rate_2")
            raise ValidationError(
                f"the default freq_2 set by {_named(fields)} is past the float range"
            )
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
    # the transfer between the nodes runs at |exchange| = sqrt(n_1 n_2) |swap_rate|
    period = math.pi / abs(sol.exchange)
    window = _time_window(p, period, ("swap_rate", "n_1", "n_2"))
    times = np.linspace(0.0, window, p["points"])
    c2 = sol.c2(times)
    c3 = sol.c3(times)
    solution = {
        "r_1": [sol.r1],
        "r_2": [sol.r2],
        "c_const_1": [sol.c_const_1],
        "c_const_2": [sol.c_const_2],
        "energy_2": [sol.energy_2],
        "energy_3": [sol.energy_3],
    }
    closure = float(np.abs(np.abs(c2) ** 2 + np.abs(c3) ** 2 - 1.0).max())
    checks = [
        ("norm-closure", closure <= 1e-9, f"max ||c2|^2 + |c3|^2 - 1| = {closure:.3e}")
    ]
    if p["max_c3_sq_below"] is not None:
        peak, bound = float((np.abs(c3) ** 2).max()), p["max_c3_sq_below"]
        detail = f"max |c3|^2 = {peak:.3e}, bound {bound:.3e}"
        checks.append(("transfer-blocked", peak < bound, detail))
    amplitudes = _blockade_columns(times, c2, c3)
    return {"amplitudes": amplitudes, "solution": solution}, checks


def _run_transistor(p: dict):
    n = p["n_atoms"]
    node = NodeSpec(n, 3, (0.0, 1.0, 2.0))
    for name in ("delta_control", "delta_target"):
        _check_detuning(p[name], (node,), name)
    couplings = CouplingSet(g21=p["g21"], g32=p["g32"])
    detunings = DetuningSet(lower=p["delta_control"], upper=p["delta_target"])
    rate = transistor_rate((node,), couplings, detunings)
    # Python floats, so that a vanishing or overflowing rate gives a period
    # of inf or 0 without a warning
    period = math.pi / (math.sqrt(n) * abs(rate)) if rate else math.inf
    fields = ("g21", "g32", "delta_control", "delta_target", "n_atoms")
    window = _time_window(p, period, fields)
    times = np.linspace(0.0, window, p["points"])
    h, psi0, projector = dynamics.transistor_oracle(
        node, (node, node), couplings, detunings, p["alpha"], p["beta"]
    )
    grid = dynamics.evolve_on_grid(h, psi0, times)
    projected = grid @ projector.conj().T
    closed = dynamics.transistor_amplitudes(p["alpha"], p["beta"], n, rate, times)

    evolution = _transistor_columns(times, projected, closed)
    # np.min, unlike a running min(), lets a NaN fidelity fail the check
    worst = float(np.min(evolution["closed_form_fidelity"]))

    # the locator's derivatives grow with the square of the spectrum, which
    # these fields scale
    with _refuse_overflow(*fields):
        t_star = dynamics.population_peak_time(
            h, psi0, projector.conj()[2:], 0.0, period
        )
    expected = 0.5 * period
    t_err = abs(t_star - expected) / expected
    agreement = f"min fidelity {worst:.12e}"
    timing = f"first maximum at {t_star:.9e}, expected {expected:.9e}"
    checks = [
        ("closed-form-agreement", worst >= 1.0 - p["tolerance"], agreement),
        ("transfer-time", t_err <= 1e-6, timing),
    ]
    summary = {"rate": [float(rate)], "transfer_time": [float(t_star)]}
    return {"evolution": evolution, "summary": summary}, checks


def _run_effective_error_sweep(p: dict):
    n = p["n_atoms"]
    g = p["coupling"]
    nodes = (NodeSpec(n), NodeSpec(n))
    couplings = CouplingSet(g21=g)
    deltas = [f * math.sqrt(n) * abs(g) for f in p["delta_factors"]]
    for delta in deltas:
        _check_detuning(delta, nodes, "delta_factors")
    # in units of each detuning's swap period, whose grid the error study builds
    periods = _time_window(p, 1.0, ("coupling", "delta_factors", "n_atoms"))
    # the swap rate's |g|^2 and the swap window
    with _refuse_overflow("coupling", "delta_factors", "periods"):
        report = dynamics.effective_model_error(
            nodes,
            couplings,
            deltas,
            swap_periods=periods,
            grid_points=p["points"],
        )
    sweep = {
        "delta_factor": list(map(float, p["delta_factors"])),
        "delta": list(map(float, report.deltas)),
        "max_infidelity": list(map(float, report.max_infidelity)),
        "max_leakage": list(map(float, report.max_leakage)),
    }
    # validation guarantees the asserted factor is in the sweep
    factor = p["assert_factor"]
    value = report.max_infidelity[p["delta_factors"].index(factor)]
    bound = p["assert_below"]
    detail = f"max infidelity {value:.3e}, bound {bound:.1e}"
    checks = [(f"infidelity-at-{factor:g}x", value < bound, detail)]
    if p["check_monotone"] and len(sweep["delta"]) >= 2:
        # (factor, infidelity) by factor; a stable sort keeps equal factors' order
        ordered = sorted(
            zip(sweep["delta_factor"], sweep["max_infidelity"]), key=lambda r: r[0]
        )
        ok = all(b <= 1.1 * a for (_, a), (_, b) in zip(ordered, ordered[1:]))
        jitter = "10% fringe jitter allowed"
        detail = f"max infidelity non-increasing across the sweep ({jitter})"
        checks.append(("envelope-monotone", ok, detail))
    metric = {"description": [dynamics.ERROR_METRIC]}
    return {"sweep": sweep, "metric": metric}, checks


def _run_verify_gates(p: dict):
    rng = np.random.default_rng(p["seed"])
    tol = p["tolerance"]
    checks = {c: [] for c in ("check", "deviation", "bound", "passed")}

    def add(name, deviation, bound):
        _add_row(checks, name, float(deviation), float(bound), bool(deviation <= bound))

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
        # the row holds the deviation to tol; no deviation exceeds 2
        synthesis = gates.synthesize_rotation(u, tol=2.0)
        dev = np.abs(u - synthesis.global_phase * synthesis.matrix()).max()
        worst = max(worst, dev)
    add("rotation-synthesis", worst, tol)

    return {"checks": checks}, [_all_passed("all-gate-checks", checks, "checks")]


def _run_verify_circuits(p: dict):
    rng = np.random.default_rng(p["seed"])
    tol = p["tolerance"]
    cases = {c: [] for c in ("case", "construction", "deviation", "count_ok", "passed")}

    toffoli = circuits.CircuitBundle(circuits.encoded_toffoli(0, 1, 2, 0), 3, 1)
    matrix, _ = circuits.logical_matrix(toffoli)
    res = circuits.equivalence_up_to_global_phase(matrix, gates.TOFFOLI, 1e-10)
    _add_row(cases, "encoded-toffoli", "pcet", res.max_deviation, True, bool(res.equal))

    margolus, _ = circuits.logical_matrix(
        circuits.CircuitBundle(circuits.standard_toffoli_upto_phase(), 3)
    )
    dev = float(np.abs(np.abs(margolus) - np.abs(gates.TOFFOLI)).max())
    _add_row(cases, "toffoli-up-to-phase", "rotation-ladder", dev, True, dev <= 1e-10)

    for t in p["t_values"]:
        for sample in range(p["samples"]):
            u = gates.haar_random_unitary(rng)
            reference = gates.controlled_power_matrix(t, u)
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
                _add_row(
                    cases,
                    f"controlled-power-t{t}-s{sample}",
                    name,
                    res.max_deviation,
                    bool(count_ok),
                    bool(res.equal and count_ok),
                )

    return {"cases": cases}, [_all_passed("all-circuit-checks", cases, "cases")]


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
    """One report table: a dict of equal-length column lists, in CSV order.

    Its JSON fills one row template (sorted keys, indented at the table's
    depth) and its CSV one line template (the columns' order, ``%.12e``
    floats, ``true``/``false``), row by row. A column name or cell that is
    not a float goes through ``_csv_text``.
    """

    def __init__(self, name: str, columns: dict):
        self.name = name
        for column, values in columns.items():
            if not isinstance(values, list):
                raise ValueError(
                    f"table {name!r} has a column {column!r} that is not a list"
                )
        counts = {len(values) for values in columns.values()}
        if len(counts) > 1:
            raise ValueError(
                f"table {name!r} is ragged: its columns hold {sorted(counts)} values"
            )
        self.count = max(counts, default=0)
        self.columns = columns
        # columns whose every value is a float take the fast text paths
        self.floats = {
            c
            for c, values in columns.items()
            if all(issubclass(t, float) for t in set(map(type, values)))
        }

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
                text = list(map(float.__repr__, self.columns[k]))
                cells.append(list(map(_NON_FINITE.get, text, text)))
            else:
                cells.append([_json(v, depth + 2) for v in self.columns[k]])
        return _block(list(map(template.__mod__, zip(*cells))), "[]", depth)

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
            values if c in self.floats else list(map(text, values))
            for c, values in self.columns.items()
        ]
        return "\n".join([header, *map(template.__mod__, zip(*cells))]) + "\n"


def write_report(outdir, payload: dict, wall_time_seconds: float) -> None:
    """Write ``report.json``, one CSV per non-empty table and ``run_meta.json``.

    ``report.json`` is ``payload`` as ``json.dumps(payload, indent=2,
    sort_keys=True)`` writes it, plus one LF; its ``tables`` map each name
    to a column table. ``run_meta.json`` holds ``wall_time_seconds`` and
    the time of writing. Every file is rendered before any is created, so
    a column that is not a list, columns of unequal length, a CSV text
    that would break its line or a value that JSON cannot encode raises
    with no file written.
    """
    tables = {name: _Table(name, cols) for name, cols in payload["tables"].items()}
    files = {"report.json": _json({**payload, "tables": tables}) + "\n"}
    for name, table in tables.items():
        if table.count:
            files[f"{name}.csv"] = table.csv()
    meta = {
        "wall_time_seconds": wall_time_seconds,
        "written_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
    }
    files["run_meta.json"] = _json(meta) + "\n"
    data = {name: text.encode("utf-8") for name, text in files.items()}
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, content in data.items():
        (outdir / name).write_bytes(content)


def run(path, outdir) -> int:
    """Execute a scenario file; returns the process exit code.

    The runner returns its tables and its checks, each a ``(name, passed,
    detail)`` triple; each check becomes one assertion of the report and
    one ``[pass]`` or ``[FAIL]`` line.
    """
    kind, params = load_scenario(path)
    start = time.perf_counter()
    tables, checks = RUNNERS[kind](params)
    elapsed = time.perf_counter() - start
    assertions = [
        {"name": name, "passed": bool(passed), "detail": detail}
        for name, passed, detail in checks
    ]
    passed = all(a["passed"] for a in assertions)
    payload = {
        "kind": kind,
        "scenario": {
            k: (_cpx(v) if isinstance(v, complex) else v) for k, v in params.items()
        },
        "tables": tables,
        "assertions": assertions,
        "passed": passed,
    }
    write_report(outdir, payload, elapsed)
    for a in assertions:
        status = "pass" if a["passed"] else "FAIL"
        print(f"[{status}] {a['name']}: {a['detail']}")
    return 0 if passed else 4


def describe(kind: str) -> str:
    if kind not in SCENARIO_KINDS:
        raise UnknownKind(f"unknown scenario kind {kind!r}")
    lines = [f"scenario kind: {kind}", "fields:"]
    for f in SCHEMAS[kind]:
        req = "required" if f.required else f"default {f.default!r}"
        lines.append(f"  {f.name:<16} {f.kind:<12} {f.range:<24} {req:<22} {f.help}")
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
