"""Logical-register simulation and encoded circuit constructions.

The register is a set of nodes: two per logical qubit plus any number of
single ancilla nodes. States are kept as sparse maps from node-occupation
tuples to amplitudes; every primitive maps a basis occupation to at most
two, so circuits over the pi-transfer gates stay exactly representable at
any register width.

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
from .gates import decode, encode, et_gate, synthesize_rotation

KINDS = ("ET", "PHASE", "CET", "PCET", "NODE_CSWAP", "CONTROLLED_U")

_DROP = 1e-14  # snap threshold for locally vanishing mixing coefficients
# Per input column: encoded weight a circuit may lose or gain (a CONTROLLED_U
# payload may deviate from unitarity by as much), and weight it may leave on
# ancilla nodes or scratch pairs.
LEAKAGE_TOL = 1e-8
ANCILLA_TOL = 1e-10


@dataclass(frozen=True)
class Operation:
    """One physical operation with control and target addresses."""

    kind: str
    params: tuple[float, ...] = ()
    controls: tuple[str, ...] = ()
    targets: tuple[str, ...] = ()
    dagger: bool = False
    group: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown operation kind {self.kind!r}")
        if self.kind == "CONTROLLED_U":
            u = _u_from_params(self.params)
            dev = float(np.abs(u.conj().T @ u - np.eye(2)).max())
            if dev > LEAKAGE_TOL:
                raise ValueError(
                    f"CONTROLLED_U payload is not unitary (max |U^dag U - 1| {dev:.3e})"
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
        self.n_nodes = 2 * n_qubits + n_ancillas
        if amplitudes is None:
            amplitudes = {encode("0" * n_qubits) + (0,) * n_ancillas: 1.0 + 0.0j}
        self.amplitudes = dict(amplitudes)

    @classmethod
    def from_bits(cls, bits: str, n_ancillas: int = 0) -> "LogicalRegister":
        occ = encode(bits) + (0,) * n_ancillas
        return cls(len(bits), n_ancillas, {occ: 1.0 + 0.0j})

    def node_index(self, address: str) -> int:
        m = re.fullmatch(r"q(\d+)\.([ab])", address)
        if m:
            q, half = int(m.group(1)), m.group(2)
            if q >= self.n_qubits:
                raise AddressError(f"qubit {q} outside register of {self.n_qubits}")
            return 2 * q + (0 if half == "a" else 1)
        m = re.fullmatch(r"anc(\d+)", address)
        if m:
            a = int(m.group(1))
            if a >= self.n_ancillas:
                raise AddressError(f"ancilla {a} outside register of {self.n_ancillas}")
            return 2 * self.n_qubits + a
        raise AddressError(f"malformed node address {address!r}")

    def resolve(self, address: str) -> tuple[int, ...]:
        """Node indices of an address; a bare pair expands to (a, b)."""
        m = re.fullmatch(r"q(\d+)", address)
        if m:
            q = int(m.group(1))
            if q >= self.n_qubits:
                raise AddressError(f"qubit {q} outside register of {self.n_qubits}")
            return (2 * q, 2 * q + 1)
        return (self.node_index(address),)

    def norm(self) -> float:
        return float(np.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values())))

    def logical_state(self) -> tuple[np.ndarray, float]:
        """Logical amplitudes over the pairs and the leakage outside them.

        Ancilla nodes must be in |0>; any weight with an excited ancilla
        counts as leakage too.
        """
        pairs_only: dict[tuple[int, ...], complex] = {}
        stray = 0.0
        for occ, amp in self.amplitudes.items():
            if any(occ[2 * self.n_qubits + a] for a in range(self.n_ancillas)):
                stray += abs(amp) ** 2
                continue
            key = occ[: 2 * self.n_qubits]
            pairs_only[key] = pairs_only.get(key, 0.0) + amp
        vec, leak = decode(pairs_only, self.n_qubits)
        return vec, float(leak + stray)

    def ancilla_excited_population(self) -> float:
        total = 0.0
        for occ, amp in self.amplitudes.items():
            if any(occ[2 * self.n_qubits + a] for a in range(self.n_ancillas)):
                total += abs(amp) ** 2
        return total


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


def _phase_nodes(amps, nodes: tuple[int, ...], chi: float):
    """Differential phase: e^(-i chi/2) on |01>, e^(i chi/2) on |10>.

    A single-node address gets the one-node convention e^(+-i chi/2) for
    occupied/empty.
    """
    out: dict[tuple[int, ...], complex] = {}
    half = chi / 2.0
    for occ, amp in sorted(amps.items()):
        if len(nodes) == 1:
            factor = np.exp(1j * half) if occ[nodes[0]] else np.exp(-1j * half)
        else:
            x, y = nodes
            if (occ[x], occ[y]) == (0, 1):
                factor = np.exp(-1j * half)
            elif (occ[x], occ[y]) == (1, 0):
                factor = np.exp(1j * half)
            else:
                factor = 1.0
        out[occ] = out.get(occ, 0.0) + amp * factor
    return out


def _swap_nodes(amps, x: int, y: int, control: int | None):
    out: dict[tuple[int, ...], complex] = {}
    for occ, amp in sorted(amps.items()):
        if control is not None and occ[control] == 0:
            out[occ] = out.get(occ, 0.0) + amp
            continue
        swapped = list(occ)
        swapped[x], swapped[y] = occ[y], occ[x]
        key = tuple(swapped)
        out[key] = out.get(key, 0.0) + amp
    return out


def _control_node(register: LogicalRegister, op: Operation) -> int:
    if len(op.controls) != 1:
        raise AddressError(f"{op.kind} takes exactly one control address")
    nodes = register.resolve(op.controls[0])
    # a pair control conditions on its first half holding the excitation
    return nodes[0]


def _target_nodes(register: LogicalRegister, op: Operation) -> tuple[int, int]:
    nodes: list[int] = []
    for address in op.targets:
        nodes.extend(register.resolve(address))
    if len(nodes) != 2:
        raise AddressError(f"{op.kind} needs exactly two target nodes")
    if nodes[0] == nodes[1]:
        raise AddressError(f"{op.kind} targets must be distinct nodes")
    return nodes[0], nodes[1]


def _u_from_params(params) -> np.ndarray:
    if len(params) != 8:
        raise AddressError("CONTROLLED_U expects 8 parameters (re, im pairs)")
    vals = [params[2 * k] + 1j * params[2 * k + 1] for k in range(4)]
    return np.array([[vals[0], vals[1]], [vals[2], vals[3]]])


def _apply_operation(amps, op: Operation, register: LogicalRegister):
    sign = -1.0 if op.dagger else 1.0
    if op.kind == "ET":
        theta = sign * op.params[0]
        x, y = _target_nodes(register, op)
        return _mix_pair(amps, x, y, et_gate(theta).matrix, control=None)
    if op.kind == "PHASE":
        chi = sign * op.params[0]
        nodes: list[int] = []
        for address in op.targets:
            nodes.extend(register.resolve(address))
        if len(nodes) not in (1, 2):
            raise AddressError("PHASE acts on one node or one pair")
        return _phase_nodes(amps, tuple(nodes), chi)
    if op.kind == "CET":
        theta = sign * (op.params[0] if op.params else np.pi)
        control = _control_node(register, op)
        x, y = _target_nodes(register, op)
        return _mix_pair(amps, x, y, et_gate(theta).matrix, control=control)
    if op.kind == "PCET":
        control_nodes = register.resolve(op.controls[0])
        x, y = _target_nodes(register, op)
        phase_op = lambda a: _phase_nodes(a, control_nodes, sign * np.pi / 2.0)
        cet_op = lambda a: _mix_pair(
            a, x, y, et_gate(sign * np.pi).matrix, control=control_nodes[0]
        )
        if op.dagger:
            return phase_op(cet_op(amps))
        return cet_op(phase_op(amps))
    if op.kind == "NODE_CSWAP":
        control = _control_node(register, op)
        x, y = _target_nodes(register, op)
        return _swap_nodes(amps, x, y, control)
    if op.kind == "CONTROLLED_U":
        control = _control_node(register, op)
        x, y = _target_nodes(register, op)
        u = _u_from_params(op.params)
        if op.dagger:
            u = u.conj().T
        return _mix_pair(amps, x, y, u, control=control)
    raise ValueError(f"unhandled operation kind {op.kind!r}")


def apply(register: LogicalRegister, circuit: Circuit) -> LogicalRegister:
    """Run a circuit on a register, returning the evolved register."""
    amps = register.amplitudes
    for op in circuit:
        amps = _apply_operation(amps, op, register)
    out = LogicalRegister(register.n_qubits, register.n_ancillas, amps)
    return out


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
    """A construction together with its register layout."""

    circuit: Circuit
    n_qubits: int
    n_ancillas: int
    external_qubits: tuple[int, ...]
    scratch_qubits: tuple[int, ...] = ()


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


def controlled_power_matrix(t: int, u: np.ndarray) -> np.ndarray:
    """Reference matrix: apply u to the last qubit iff all t controls are set."""
    dim = 2 ** (t + 1)
    m = np.eye(dim, dtype=complex)
    base = dim - 2
    m[base:, base:] = np.asarray(u, dtype=complex)
    return m


# ---------------------------------------------------------------------------
# Matrix assembly and equivalence checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssemblyReport:
    max_leakage: float
    max_ancilla_residual: float
    max_scratch_residual: float


def logical_matrix(
    bundle_or_circuit,
    n_qubits: int | None = None,
    n_ancillas: int = 0,
    external_qubits: tuple[int, ...] | None = None,
    scratch_qubits: tuple[int, ...] = (),
) -> tuple[np.ndarray, AssemblyReport]:
    """Assemble the logical matrix of a circuit over its external qubits.

    Every external basis bitstring is encoded (scratch pairs to |0_L>,
    ancilla nodes to |0>), run through the circuit, and decoded. Encoded
    weight lost or gained beyond LEAKAGE_TOL raises LeakageError, and
    ancilla or scratch weight beyond ANCILLA_TOL raises AncillaNotGround.
    """
    if isinstance(bundle_or_circuit, CircuitBundle):
        bundle = bundle_or_circuit
        circuit = bundle.circuit
        n_qubits = bundle.n_qubits
        n_ancillas = bundle.n_ancillas
        external_qubits = bundle.external_qubits
        scratch_qubits = bundle.scratch_qubits
    else:
        circuit = bundle_or_circuit
        if n_qubits is None:
            raise ValueError("n_qubits required when passing a bare circuit")
        if external_qubits is None:
            external_qubits = tuple(range(n_qubits))

    n_ext = len(external_qubits)
    dim = 2**n_ext
    matrix = np.zeros((dim, dim), dtype=complex)
    max_leak = 0.0
    max_anc = 0.0
    max_scratch = 0.0

    for col in range(dim):
        bits = format(col, f"0{n_ext}b")
        full_bits = ["0"] * n_qubits
        for q, b in zip(external_qubits, bits):
            full_bits[q] = b
        register = LogicalRegister.from_bits("".join(full_bits), n_ancillas)
        out = apply(register, circuit)

        anc_pop = out.ancilla_excited_population()
        scratch_pop = 0.0
        column: dict[tuple[int, ...], complex] = {}
        for occ, amp in out.amplitudes.items():
            if any(occ[2 * n_qubits + a] for a in range(n_ancillas)):
                continue  # accounted by anc_pop
            bad_scratch = any(
                (occ[2 * q], occ[2 * q + 1]) != (0, 1) for q in scratch_qubits
            )
            if bad_scratch:
                scratch_pop += abs(amp) ** 2
                continue
            ext_occ = tuple(
                v for q in external_qubits for v in (occ[2 * q], occ[2 * q + 1])
            )
            column[ext_occ] = column.get(ext_occ, 0.0) + amp
        vec, total_leak = decode(column, n_ext)
        matrix[:, col] = vec
        # negative when the column carries more than unit norm
        pair_leak = total_leak - anc_pop - scratch_pop

        max_anc = max(max_anc, anc_pop)
        max_scratch = max(max_scratch, scratch_pop)
        max_leak = max(max_leak, pair_leak)

        if anc_pop > ANCILLA_TOL:
            raise AncillaNotGround(f"ancilla weight {anc_pop:.3e} after input {bits}")
        if scratch_pop > ANCILLA_TOL:
            raise AncillaNotGround(
                f"scratch-qubit weight {scratch_pop:.3e} after input {bits}"
            )
        if abs(pair_leak) > LEAKAGE_TOL:
            raise LeakageError(f"leakage {pair_leak:.3e} after input {bits}")

    return matrix, AssemblyReport(max_leak, max_anc, max_scratch)


@dataclass(frozen=True)
class EquivalenceResult:
    equal: bool
    phase: complex
    max_deviation: float
    transcript: tuple[str, ...]


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
        return EquivalenceResult(False, 1.0 + 0j, float(np.abs(a - b).max()), ())
    phase = a.flat[k] / pivot
    if abs(phase) > 0:
        phase = phase / abs(phase)
    deviation = float(np.abs(a - phase * b).max())
    transcript = []
    dim = a.shape[1] if a.ndim == 2 else 1
    if a.ndim == 2:
        width = max(1, int(np.ceil(np.log2(dim))))
        for col in range(dim):
            row = int(np.argmax(np.abs(a[:, col])))
            transcript.append(
                f"|{col:0{width}b}> -> |{row:0{width}b}> "
                f"(amp {a[row, col]:.6f}, dev {np.abs(a[:, col] - phase * b[:, col]).max():.2e})"
            )
    return EquivalenceResult(
        equal=deviation <= tol,
        phase=complex(phase),
        max_deviation=deviation,
        transcript=tuple(transcript),
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
    lines = []
    for op in circuit:
        params = ",".join(f"{p:.12g}" for p in op.params)
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
        kind = m.group("kind")
        if kind not in KINDS:
            raise ParseError(f"line {lineno}: unknown kind {kind!r}")
        params_text = m.group("params").strip()
        try:
            params = tuple(
                float(p) for p in params_text.split(",") if p.strip() != ""
            )
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad parameters {params_text!r}") from exc
        try:
            op = Operation(
                kind=kind,
                params=params,
                controls=tuple(m.group("controls").split()),
                targets=tuple(m.group("targets").split()),
                dagger=m.group("dag") == "'",
            )
        except (ValueError, AddressError) as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        ops.append(op)
    return Circuit(tuple(ops))
