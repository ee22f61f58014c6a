"""Logical-register simulation and encoded circuit constructions.

The register is a set of nodes: two per logical qubit plus any number of
single ancilla nodes. States are kept as sparse maps from node-occupation
tuples to amplitudes; every primitive maps a basis occupation to at most
two, so circuits over the pi-transfer gates stay exactly representable at
any register width. The 2x2 actions of transfers and phases are the ideal
matrices of ``gates``, not copies of them.

Address grammar: ``q<i>`` names a whole pair, ``q<i>.a`` / ``q<i>.b`` its
halves, ``anc<j>`` an ancilla node. The text form of a circuit is one
operation per line, ``KIND(params) controls -> targets``, with a trailing
apostrophe on the kind marking the inverse, e.g.::

    PCET() q0 -> q1.a anc0
    CONTROLLED_U(0.6,0, -0.8,0, 0.8,0, 0.6,0) anc0 -> q2
    PCET'() q0 -> q1.a anc0
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    AddressError,
    AncillaNotGround,
    DimensionMismatch,
    LeakageError,
    ParseError,
)
from .gates import UNITARITY_TOL, decode, encode, et_gate, phase_gate
from .gates import require_unitary, synthesize_rotation

# re-exported: the reference the controlled-power constructions are checked
# against, named here by the CLI, the tests and perfbench/tracing.py
from .gates import controlled_power_matrix  # noqa: F401

# kind: (allowed parameter counts, control count); every kind acts on two
# target nodes, PHASE also on one
KINDS = {
    "ET": ((1,), 0),
    "PHASE": ((1,), 0),
    "CET": ((0, 1), 1),
    "PCET": ((0,), 1),
    "NODE_CSWAP": ((0,), 1),
    "CONTROLLED_U": ((8,), 1),
}

_DROP = 1e-14  # snap threshold for locally vanishing mixing coefficients
_SWAP = np.array([[0, 1], [1, 0]], dtype=complex)
# Per input column: encoded weight a circuit may lose or gain (a CONTROLLED_U
# payload may deviate from unitarity by as much), and weight it may leave on
# ancilla nodes or scratch pairs.
LEAKAGE_TOL = UNITARITY_TOL
ANCILLA_TOL = 1e-10

_ADDRESS = re.compile(r"q(\d+)(?:\.([ab]))?|anc(\d+)")


def _address_nodes(address: str) -> tuple[tuple[str, int], ...]:
    """Nodes an address names, as ("q", 2q + half) or ("anc", j) keys.

    A bare pair ``q<i>`` names its two halves (a, b).
    """
    m = _ADDRESS.fullmatch(address)
    if m is None:
        raise AddressError(f"malformed node address {address!r}")
    q, half, anc = m.groups()
    if anc is not None:
        return (("anc", int(anc)),)
    if half is None:
        return (("q", 2 * int(q)), ("q", 2 * int(q) + 1))
    return (("q", 2 * int(q) + (half == "b")),)


@dataclass(frozen=True)
class Operation:
    """One physical operation with control and target addresses.

    Its shape is checked when it is built: the parameter count of its kind,
    finite parameters, one control address for the controlled kinds and none otherwise, two
    distinct target nodes (one or two for PHASE), no node both control and
    target, and a unitary CONTROLLED_U payload. Whether the addresses fit a
    register is checked when it is applied.
    """

    kind: str
    params: tuple[float, ...] = ()
    controls: tuple[str, ...] = ()
    targets: tuple[str, ...] = ()
    dagger: bool = False
    group: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown operation kind {self.kind!r}")
        counts, n_controls = KINDS[self.kind]
        if len(self.params) not in counts:
            expected = " or ".join(str(c) for c in counts)
            raise ValueError(
                f"{self.kind} takes {expected} parameters, not {len(self.params)}"
            )
        if not all(np.isfinite(self.params)):
            raise ValueError(f"{self.kind} parameters must be finite")
        if len(self.controls) != n_controls:
            raise AddressError(
                f"{self.kind} takes {n_controls} control addresses, "
                f"not {len(self.controls)}"
            )
        targets = [n for address in self.targets for n in _address_nodes(address)]
        sizes = (1, 2) if self.kind == "PHASE" else (2,)
        if len(targets) not in sizes or len(set(targets)) != len(targets):
            raise AddressError(
                f"{self.kind} needs {' or '.join(map(str, sizes))} distinct "
                f"target nodes, not {' '.join(self.targets) or 'none'}"
            )
        controls = {n for address in self.controls for n in _address_nodes(address)}
        if controls & set(targets):
            raise AddressError(f"{self.kind} control and targets share a node")
        if self.kind == "CONTROLLED_U":
            require_unitary(
                _u_from_params(self.params),
                ValueError,
                "CONTROLLED_U payload is not unitary (max |U^dag U - 1| {dev:.3e})",
            )

    def inverse(self) -> "Operation":
        return replace(self, dagger=not self.dagger)


@dataclass(frozen=True)
class Circuit:
    """Ordered list of operations, applied left to right."""

    ops: tuple[Operation, ...] = ()

    def __iter__(self):
        return iter(self.ops)

    def __len__(self):
        return len(self.ops)

    def __add__(self, other: "Circuit") -> "Circuit":
        return Circuit(self.ops + other.ops)

    def dagger(self) -> "Circuit":
        return Circuit(tuple(op.inverse() for op in reversed(self.ops)))


# ---------------------------------------------------------------------------
# Register
# ---------------------------------------------------------------------------


class LogicalRegister:
    """n logical node pairs plus m ancilla nodes, one excitation flag each."""

    def __init__(self, n_qubits: int, n_ancillas: int = 0, amplitudes=None):
        self.n_qubits = n_qubits
        self.n_ancillas = n_ancillas
        if amplitudes is None:
            amplitudes = {encode("0" * n_qubits) + (0,) * n_ancillas: 1.0 + 0.0j}
        self.amplitudes = dict(amplitudes)

    @classmethod
    def from_bits(cls, bits: str, n_ancillas: int = 0) -> "LogicalRegister":
        occ = encode(bits) + (0,) * n_ancillas
        return cls(len(bits), n_ancillas, {occ: 1.0 + 0.0j})

    def resolve(self, address: str) -> tuple[int, ...]:
        """Node indices of an address; a bare pair expands to (a, b)."""
        nodes = []
        for space, i in _address_nodes(address):
            if space == "anc":
                if i >= self.n_ancillas:
                    raise AddressError(
                        f"ancilla {i} outside register of {self.n_ancillas}"
                    )
                i += 2 * self.n_qubits
            elif i >= 2 * self.n_qubits:
                raise AddressError(
                    f"qubit {i // 2} outside register of {self.n_qubits}"
                )
            nodes.append(i)
        return tuple(nodes)

    def _read_out(self, external_qubits, scratch_qubits=()):
        """Decode the register over ``external_qubits``.

        Returns the logical column, the leakage ``decode`` reports for it,
        the weight with an excited ancilla node and the weight with a
        scratch pair outside |0_L>. Both of those weights are left out of
        the column, so the leakage counts them too.
        """
        anc_pop = 0.0
        scratch_pop = 0.0
        column: dict[tuple[int, ...], complex] = {}
        for occ, amp in self.amplitudes.items():
            if any(occ[2 * self.n_qubits :]):
                anc_pop += abs(amp) ** 2
            elif any((occ[2 * q], occ[2 * q + 1]) != (0, 1) for q in scratch_qubits):
                scratch_pop += abs(amp) ** 2
            else:
                key = tuple(v for q in external_qubits for v in occ[2 * q : 2 * q + 2])
                column[key] = column.get(key, 0.0) + amp
        vec, leak = decode(column, len(external_qubits))
        return vec, leak, anc_pop, scratch_pop

    def logical_state(self) -> tuple[np.ndarray, float]:
        """Logical amplitudes over the pairs and the leakage outside them.

        Ancilla nodes must be in |0>; any weight with an excited ancilla
        counts as leakage too.
        """
        vec, leak, anc_pop, _ = self._read_out(range(self.n_qubits))
        return vec, float(leak + anc_pop)

    def ancilla_excited_population(self) -> float:
        return self._read_out(range(self.n_qubits))[2]


# ---------------------------------------------------------------------------
# Operation application
# ---------------------------------------------------------------------------


def _mix_pair(amps, x: int, y: int, u2: np.ndarray, control: int | None):
    """Apply a 2x2 unitary on span{|01>, |10>} of nodes (x, y).

    Zero- and double-occupation patterns pass through; ``control`` gates
    the action on that node being excited.
    """
    out: dict[tuple[int, ...], complex] = {}

    def _acc(occ, amp):
        if amp == 0.0:
            return
        out[occ] = out.get(occ, 0.0) + amp

    for occ, amp in sorted(amps.items()):
        if control is not None and occ[control] == 0:
            _acc(occ, amp)
            continue
        nx, ny = occ[x], occ[y]
        if nx == ny:
            _acc(occ, amp)
            continue
        i = 0 if (nx, ny) == (0, 1) else 1
        swapped = list(occ)
        swapped[x], swapped[y] = occ[y], occ[x]
        swapped = tuple(swapped)
        basis_states = (occ, swapped) if i == 0 else (swapped, occ)
        for j, target in enumerate(basis_states):
            coeff = u2[j, i]
            if abs(coeff) > _DROP:
                _acc(target, amp * coeff)
    return out


def _phase(amps, nodes: tuple[int, ...], chi: float):
    """Differential phase: phase_gate(chi) on span{|01>, |10>} of two nodes.

    A single node gets the same diagonal on its own occupation: e^(-i chi/2)
    when empty, e^(i chi/2) when occupied.
    """
    u2 = phase_gate(chi)
    if len(nodes) == 2:
        return _mix_pair(amps, *nodes, u2, control=None)
    (node,) = nodes
    down, up = np.diag(u2)
    out: dict[tuple[int, ...], complex] = {}
    for occ, amp in sorted(amps.items()):
        out[occ] = out.get(occ, 0.0) + amp * (up if occ[node] else down)
    return out


def _u_from_params(params) -> np.ndarray:
    vals = [params[2 * k] + 1j * params[2 * k + 1] for k in range(4)]
    return np.array([[vals[0], vals[1]], [vals[2], vals[3]]])


def _apply_operation(amps, op: Operation, register: LogicalRegister):
    targets = tuple(n for address in op.targets for n in register.resolve(address))
    controls = register.resolve(op.controls[0]) if op.controls else ()
    # a pair control conditions on its first half holding the excitation
    control = controls[0] if controls else None
    sign = -1.0 if op.dagger else 1.0
    if op.kind == "PHASE":
        return _phase(amps, targets, sign * op.params[0])
    if op.kind == "PCET":
        u2 = et_gate(sign * np.pi)
        transfer = lambda a: _mix_pair(a, *targets, u2, control)
        phase = lambda a: _phase(a, controls, sign * np.pi / 2.0)
        return phase(transfer(amps)) if op.dagger else transfer(phase(amps))
    if op.kind == "NODE_CSWAP":
        u2 = _SWAP
    elif op.kind == "CONTROLLED_U":
        u2 = _u_from_params(op.params)
        if op.dagger:
            u2 = u2.conj().T
    else:  # ET, CET
        u2 = et_gate(sign * (op.params[0] if op.params else np.pi))
    return _mix_pair(amps, *targets, u2, control)


def apply(register: LogicalRegister, circuit: Circuit) -> LogicalRegister:
    """Run a circuit on a register, returning the evolved register."""
    amps = register.amplitudes
    for op in circuit:
        amps = _apply_operation(amps, op, register)
    return LogicalRegister(register.n_qubits, register.n_ancillas, amps)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def and_gate(
    control_qubit: int, input_qubit: int, ancilla: int, group: str | None = None
) -> Circuit:
    """Move the input pair's excitation onto the ancilla iff the control is set.

    One phased controlled transfer with the ancilla node standing in for the
    second node of the transfer pair: afterwards the ancilla holds
    control AND input. The branch amplitudes keep their magnitudes; the
    transferred branch carries the -i of a full transfer and the control
    pair the +-pi/4 differential phases, all of which cancel once the gate
    is uncomputed with its inverse.
    """
    op = Operation(
        kind="PCET",
        controls=(f"q{control_qubit}",),
        targets=(f"q{input_qubit}.a", f"anc{ancilla}"),
        group=group,
    )
    return Circuit((op,))


def encoded_toffoli(
    control_1: int,
    control_2: int,
    target: int,
    ancilla: int,
    group: str = "toffoli",
) -> Circuit:
    """Doubly controlled flip from three phased controlled transfers.

    Computes control_1 AND control_2 onto the ancilla node, flips the
    target pair conditioned on the ancilla, then uncomputes. Equal to the
    doubly-controlled-NOT up to one global phase, with the ancilla returned
    to its ground state on every logical input.
    """
    compute = and_gate(control_1, control_2, ancilla, group=group)
    flip = Operation(
        kind="PCET",
        controls=(f"anc{ancilla}",),
        targets=(f"q{target}.a", f"q{target}.b"),
        group=group,
    )
    return compute + Circuit((flip,)) + compute.dagger()


def _rotation_ops(qubit: int, target_unitary: np.ndarray) -> tuple[Operation, ...]:
    synthesis = synthesize_rotation(target_unitary)
    return tuple(
        Operation(kind=kind, params=(angle,), targets=(f"q{qubit}",))
        for kind, angle in synthesis.ops
    )


def _cnot_op(control_qubit: int, target_qubit: int) -> Operation:
    return Operation(
        kind="PCET",
        controls=(f"q{control_qubit}",),
        targets=(f"q{target_qubit}.a", f"q{target_qubit}.b"),
    )


def standard_toffoli_upto_phase() -> Circuit:
    """Doubly controlled flip up to relative phases, no ancilla.

    The y-rotation ladder: Ry(pi/4), CNOT from the second control, Ry(pi/4),
    CNOT from the first control, Ry(-pi/4), CNOT from the second control,
    Ry(-pi/4), with rotations synthesized into transfer/phase gates and
    CNOTs realized as phased controlled transfers. Entrywise magnitudes
    match the exact doubly-controlled flip.
    """

    def ry(theta):
        c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
        return np.array([[c, -s], [s, c]], dtype=complex)

    plus = _rotation_ops(2, ry(np.pi / 4.0))
    minus = _rotation_ops(2, ry(-np.pi / 4.0))
    ops = (
        plus
        + (_cnot_op(1, 2),)
        + plus
        + (_cnot_op(0, 2),)
        + minus
        + (_cnot_op(1, 2),)
        + minus
    )
    return Circuit(ops)


@dataclass(frozen=True)
class CircuitBundle:
    """A circuit together with the register it runs on.

    ``logical_matrix`` reads the circuit over ``external_qubits`` (every
    qubit by default). The other pairs start in |0_L>, and so do the ancilla
    nodes (none by default); the ``scratch_qubits`` pairs and the ancilla
    nodes must end there too.
    """

    circuit: Circuit
    n_qubits: int
    n_ancillas: int = 0
    external_qubits: tuple[int, ...] | None = None
    scratch_qubits: tuple[int, ...] = ()

    def __post_init__(self):
        if self.external_qubits is None:
            object.__setattr__(self, "external_qubits", tuple(range(self.n_qubits)))


def _u_params(u: np.ndarray) -> tuple[float, ...]:
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("controlled unitary payload must be 2x2")
    out: list[float] = []
    for v in u.reshape(-1):
        out.extend((float(v.real), float(v.imag)))
    return tuple(out)


def controlled_power_standard(t: int, u: np.ndarray) -> CircuitBundle:
    """t-controlled unitary from doubly-controlled flips and scratch qubits.

    AND-chains the controls into t-1 scratch pairs with encoded
    doubly-controlled flips (three phased transfers and one shared ancilla
    node each), applies the controlled unitary off the last scratch pair,
    and uncomputes: 2(t-1) flips in total.
    """
    if t < 2:
        raise ValueError("need at least two controls")
    target = t
    scratch = tuple(range(t + 1, 2 * t))
    gid = 0

    def tof(c1, c2, out):
        nonlocal gid
        circ = encoded_toffoli(c1, c2, out, 0, group=f"toffoli{gid}")
        gid += 1
        return circ

    compute_steps = [(0, 1, scratch[0])]
    for k in range(2, t):
        compute_steps.append((scratch[k - 2], k, scratch[k - 1]))

    circuit = Circuit(())
    for c1, c2, out in compute_steps:
        circuit = circuit + tof(c1, c2, out)
    circuit = circuit + Circuit(
        (
            Operation(
                kind="CONTROLLED_U",
                params=_u_params(u),
                controls=(f"q{scratch[-1]}.a",),
                targets=(f"q{target}",),
            ),
        )
    )
    for c1, c2, out in reversed(compute_steps):
        circuit = circuit + tof(c1, c2, out)

    return CircuitBundle(
        circuit=circuit,
        n_qubits=2 * t,
        n_ancillas=1,
        external_qubits=tuple(range(t + 1)),
        scratch_qubits=scratch,
    )


def controlled_power_improved(t: int, u: np.ndarray) -> CircuitBundle:
    """t-controlled unitary from an AND-chain over bare ancilla nodes.

    The first phased transfer moves the second control's excitation onto an
    ancilla node iff the first control is set; each further ancilla picks
    up the AND with the next control. After the node-controlled unitary on
    the target pair the chain is uncomputed: 2(t-1) phased transfers and
    t-1 ancilla nodes, no scratch pairs.
    """
    if t < 2:
        raise ValueError("need at least two controls")
    target = t
    compute = [
        Operation(kind="PCET", controls=("q0",), targets=("q1.a", "anc0"))
    ]
    for k in range(2, t):
        compute.append(
            Operation(
                kind="PCET",
                controls=(f"anc{k - 2}",),
                targets=(f"q{k}.a", f"anc{k - 1}"),
            )
        )
    middle = Operation(
        kind="CONTROLLED_U",
        params=_u_params(u),
        controls=(f"anc{t - 2}",),
        targets=(f"q{target}",),
    )
    uncompute = [op.inverse() for op in reversed(compute)]
    return CircuitBundle(
        circuit=Circuit(tuple(compute) + (middle,) + tuple(uncompute)),
        n_qubits=t + 1,
        n_ancillas=t - 1,
        external_qubits=tuple(range(t + 1)),
    )


# ---------------------------------------------------------------------------
# Matrix assembly and equivalence checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssemblyReport:
    max_leakage: float
    max_ancilla_residual: float


def logical_matrix(bundle: CircuitBundle) -> tuple[np.ndarray, AssemblyReport]:
    """Assemble the logical matrix of a bundle's circuit over its external qubits.

    Every external basis bitstring is encoded (the other pairs to |0_L>,
    ancilla nodes to |0>), run through the circuit, and decoded. Encoded
    weight lost or gained beyond LEAKAGE_TOL raises LeakageError, and
    ancilla or scratch weight beyond ANCILLA_TOL raises AncillaNotGround.
    """
    n_ext = len(bundle.external_qubits)
    dim = 2**n_ext
    matrix = np.zeros((dim, dim), dtype=complex)
    max_leak = 0.0
    max_anc = 0.0

    for col in range(dim):
        bits = format(col, f"0{n_ext}b")
        full_bits = ["0"] * bundle.n_qubits
        for q, b in zip(bundle.external_qubits, bits):
            full_bits[q] = b
        register = LogicalRegister.from_bits("".join(full_bits), bundle.n_ancillas)
        out = apply(register, bundle.circuit)
        vec, total_leak, anc_pop, scratch_pop = out._read_out(
            bundle.external_qubits, bundle.scratch_qubits
        )
        matrix[:, col] = vec
        # negative when the column carries more than unit norm
        pair_leak = total_leak - anc_pop - scratch_pop

        max_anc = max(max_anc, anc_pop)
        max_leak = max(max_leak, pair_leak)

        if anc_pop > ANCILLA_TOL:
            raise AncillaNotGround(f"ancilla weight {anc_pop:.3e} after input {bits}")
        if scratch_pop > ANCILLA_TOL:
            raise AncillaNotGround(
                f"scratch-qubit weight {scratch_pop:.3e} after input {bits}"
            )
        if abs(pair_leak) > LEAKAGE_TOL:
            raise LeakageError(f"leakage {pair_leak:.3e} after input {bits}")

    return matrix, AssemblyReport(max_leak, max_anc)


@dataclass(frozen=True)
class EquivalenceResult:
    equal: bool
    phase: complex
    max_deviation: float


def equivalence_up_to_global_phase(
    a: np.ndarray, b: np.ndarray, tol: float = 1e-10
) -> EquivalenceResult:
    """Check a == e^(i phi) b, extracting phi from b's largest entry."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {b.shape}")
    k = int(np.argmax(np.abs(b)))
    pivot = b.flat[k]
    if abs(pivot) < tol:
        return EquivalenceResult(False, 1.0 + 0j, float(np.abs(a - b).max()))
    phase = a.flat[k] / pivot
    if abs(phase) > 0:
        phase = phase / abs(phase)
    deviation = float(np.abs(a - phase * b).max())
    return EquivalenceResult(
        equal=deviation <= tol, phase=complex(phase), max_deviation=deviation
    )


def gate_counts(circuit: Circuit) -> dict[str, int]:
    """Operation counts by kind; grouped flips are counted once each."""
    counts: dict[str, int] = {}
    for op in circuit:
        counts[op.kind] = counts.get(op.kind, 0) + 1
    groups = {op.group for op in circuit if op.group and op.group.startswith("toffoli")}
    counts["TOFFOLI"] = len(groups)
    return counts


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------

_LINE = re.compile(
    r"^(?P<kind>[A-Z_]+)(?P<dag>')?\((?P<params>[^)]*)\)\s*"
    r"(?P<controls>[^->]*?)\s*->\s*(?P<targets>.+)$"
)


def circuit_to_text(circuit: Circuit) -> str:
    """Text form of a circuit; ``circuit_from_text`` reads it back exactly.

    Operation groups are not written.
    """
    lines = []
    for op in circuit:
        params = ",".join(repr(float(p)) for p in op.params)
        dag = "'" if op.dagger else ""
        controls = " ".join(op.controls)
        targets = " ".join(op.targets)
        sep = " " if controls else ""
        lines.append(f"{op.kind}{dag}({params}) {controls}{sep}-> {targets}")
    return "\n".join(lines) + ("\n" if lines else "")


def circuit_from_text(text: str) -> Circuit:
    ops = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _LINE.match(line)
        if m is None:
            raise ParseError(f"line {lineno}: cannot parse {raw!r}")
        params_text = m.group("params").strip()
        try:
            params = tuple(
                float(p) for p in params_text.split(",") if p.strip() != ""
            )
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad parameters {params_text!r}") from exc
        try:
            op = Operation(
                kind=m.group("kind"),
                params=params,
                controls=tuple(m.group("controls").split()),
                targets=tuple(m.group("targets").split()),
                dagger=m.group("dag") == "'",
            )
        except (ValueError, AddressError) as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        ops.append(op)
    return Circuit(tuple(ops))
