"""Input refusals: each bad input fails loudly, with its own error type."""

import numpy as np
import pytest

from cavityqc import (
    CollectiveBasis,
    CompositeBasis,
    CouplingSet,
    DetuningSet,
    EffectiveRates,
    FockFactor,
    Mode,
    NodeSpec,
    SectorBasis,
    StateVector,
    blockade_solution,
    collective_pair_hamiltonian,
    controlled_power_improved,
    controlled_power_standard,
    decode,
    effective_model_error,
    encode,
    lamb_shift_hamiltonian,
    product_excitation_state,
    swap_hamiltonian_microscopic,
    symmetrize,
    synthesize_rotation,
    transistor_hamiltonian,
    two_level_swap_hamiltonian,
)
from cavityqc.cli import load_scenario
from cavityqc.dynamics import analytic_pair_amplitudes, transistor_amplitudes
from cavityqc.errors import (
    BasisMismatch,
    DecompositionFailure,
    MissingCoupling,
    ParseError,
    ResonanceSingularity,
    UnknownKind,
    ValidationError,
)

TWO = NodeSpec(1)
THREE = NodeSpec(1, 3, (0.0, 1.0, 2.0))
PHOTONS = FockFactor((Mode(1.0),), (1,))
TRANSISTOR = (
    CouplingSet(g21=0.02, g32=0.03),
    DetuningSet(lower=(0.5,) * 3, upper=(None, 0.7, 0.7)),
)


def _scenario(text):
    """A loader call on a scenario file holding ``text``."""

    def load(tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(text, encoding="utf-8")
        return load_scenario(path)

    return load


def _case(name, error, match, call):
    return pytest.param(error, match, call, id=name)


# error type, message pattern, and a call on a scratch directory
REFUSALS = [
    _case("node-atom-count", ValueError, "atom_count", lambda _: NodeSpec(0)),
    _case(
        "node-level-count",
        ValueError,
        "level_count",
        lambda _: NodeSpec(1, 4, (0.0, 1.0, 2.0, 3.0)),
    ),
    _case(
        "node-energy-length",
        ValueError,
        "level_energies length",
        lambda _: NodeSpec(1, 2, (0.0,)),
    ),
    _case(
        "fock-truncation-count",
        ValueError,
        "one truncation per mode",
        lambda _: FockFactor((Mode(1.0),), (1, 1)),
    ),
    _case(
        "fock-truncation-zero",
        ValueError,
        "n_max",
        lambda _: FockFactor((Mode(1.0),), (0,)),
    ),
    _case(
        "sector-negative-quanta",
        ValueError,
        "non-negative",
        lambda _: SectorBasis((TWO,), None, (1,), -1),
    ),
    _case(
        "sector-weight-count",
        ValueError,
        "one weight per site",
        lambda _: SectorBasis((TWO,), None, (1, 1), 1),
    ),
    _case(
        "sector-empty",
        BasisMismatch,
        "no product state",
        lambda _: SectorBasis((TWO,), None, (1,), 2),
    ),
    _case(
        "dicke-repeated-node",
        BasisMismatch,
        "distinct nodes",
        lambda _: product_excitation_state(
            CompositeBasis((TWO, TWO)), [(0, 1), (0, 1)]
        ),
    ),
    _case(
        "dicke-missing-level",
        BasisMismatch,
        "requested level",
        lambda _: product_excitation_state(CompositeBasis((TWO,)), [(0, 2)]),
    ),
    _case(
        "symmetrize-collective-state",
        BasisMismatch,
        "microscopic product basis",
        lambda _: symmetrize(StateVector(np.eye(6)[1], CollectiveBasis())),
    ),
    _case(
        "symmetrize-photon-state",
        BasisMismatch,
        "atomic factor",
        lambda _: symmetrize(
            StateVector(np.eye(8)[2], CompositeBasis((TWO, TWO), PHOTONS))
        ),
    ),
    _case("encode-bit", ValueError, "0 or 1", lambda _: encode("012")),
    _case(
        "decode-occupation-length",
        ValueError,
        "2 \\* n_qubits",
        lambda _: decode({(0, 1, 0): 1.0}, 1),
    ),
    _case(
        "synthesize-rotation-3x3",
        DecompositionFailure,
        "2x2",
        lambda _: synthesize_rotation(np.eye(3)),
    ),
    _case(
        "pair-negative-photons",
        ValueError,
        "photon number",
        lambda _: collective_pair_hamiltonian(
            (TWO, TWO), 0.1, (0.1, 0.1), n_photons=-1
        ),
    ),
    _case(
        "pair-unknown-ladder",
        ValueError,
        "unknown ladder",
        lambda _: collective_pair_hamiltonian(
            (TWO, TWO), 0.1, (0.1, 0.1), ladder="fermionic"
        ),
    ),
    _case(
        "swap-complex-rate",
        ValueError,
        "must be real",
        lambda _: two_level_swap_hamiltonian((TWO, TWO), 0.1 + 0.1j),
    ),
    _case(
        "blockade-complex-rate",
        ValueError,
        "real exchange rate",
        lambda _: blockade_solution(EffectiveRates(0.1 + 0.1j, 0.1, 0.2), 1, 1, 0),
    ),
    _case(
        "swap-nan-rate",
        ValueError,
        "must be real",
        lambda _: two_level_swap_hamiltonian((TWO, TWO), complex(0.1, np.nan)),
    ),
    _case(
        "blockade-nan-rate",
        ValueError,
        "real exchange rate",
        lambda _: blockade_solution(
            EffectiveRates(complex(0.1, np.nan), 0.1, 0.2), 1, 1, 0
        ),
    ),
    _case(
        "transistor-unnormalized",
        ValueError,
        "normalized",
        lambda _: transistor_amplitudes(1.0, 1.0, 1, 0.1, [0.0]),
    ),
    _case(
        "transistor-nan-amplitude",
        ValueError,
        "normalized",
        lambda _: transistor_amplitudes(np.nan, 1.0, 1, 0.1, [0.0]),
    ),
    _case(
        "pair-nan-amplitude",
        ValueError,
        "normalized",
        lambda _: analytic_pair_amplitudes(np.nan, 1.0, 1.0, 0.0, 0.7, 2, [0.0]),
    ),
    _case(
        "sweep-unequal-gaps",
        ValueError,
        "transition frequency",
        lambda _: effective_model_error(
            (TWO, NodeSpec(1, 2, (0.0, 1.1))), CouplingSet(g21=0.01), [0.3]
        ),
    ),
    _case(
        "sweep-unequal-couplings",
        ValueError,
        "equal couplings",
        lambda _: effective_model_error(
            (TWO, TWO), CouplingSet(g21=(0.01, 0.02)), [0.3]
        ),
    ),
    _case(
        "coupling-tuple-too-short",
        MissingCoupling,
        "for node 1",
        lambda _: CouplingSet(g21=(0.01,)).coupling(0, 1),
    ),
    _case(
        "coupling-tuple-none-entry",
        MissingCoupling,
        "3<->2 has no interaction constant for node 0",
        lambda _: CouplingSet(g32=(None, 0.01)).coupling(1, 0),
    ),
    _case(
        "detuning-tuple-too-short",
        ResonanceSingularity,
        "transition 1, node 2",
        lambda _: DetuningSet(upper=(None, 0.7)).value(1, 2),
    ),
    _case(
        "detuning-tuple-none-entry",
        ResonanceSingularity,
        "transition 1, node 0",
        lambda _: DetuningSet(lower=0.5, upper=(None, 0.7, 0.7)).value(1, 0),
    ),
    _case(
        "transistor-one-target",
        BasisMismatch,
        "two targets",
        lambda _: transistor_hamiltonian(THREE, (THREE,), *TRANSISTOR),
    ),
    _case(
        "transistor-two-level-target",
        BasisMismatch,
        "three-level",
        lambda _: transistor_hamiltonian(THREE, (THREE, TWO), *TRANSISTOR),
    ),
    _case(
        "lamb-shift-one-node",
        BasisMismatch,
        "node pair",
        lambda _: lamb_shift_hamiltonian(
            (TWO,), CouplingSet(g21=0.01), DetuningSet(lower=(0.3,)), 0
        ),
    ),
    _case(
        "swap-three-level",
        BasisMismatch,
        "two-level nodes",
        lambda _: swap_hamiltonian_microscopic((THREE, THREE), 0.1),
    ),
    _case(
        "controlled-power-standard-t1",
        ValueError,
        "two controls",
        lambda _: controlled_power_standard(1, np.eye(2)),
    ),
    _case(
        "controlled-power-improved-t1",
        ValueError,
        "two controls",
        lambda _: controlled_power_improved(1, np.eye(2)),
    ),
    _case(
        "scenario-unreadable",
        ParseError,
        "cannot read",
        lambda tmp_path: load_scenario(tmp_path / "missing.json"),
    ),
    _case("scenario-not-object", ParseError, "JSON object", _scenario("[1, 2]")),
    _case("scenario-missing-kind", ValidationError, "'kind'", _scenario('{"n_1": 1}')),
    _case(
        "scenario-unknown-kind",
        UnknownKind,
        "unknown scenario kind",
        _scenario('{"kind": "frobnicate"}'),
    ),
]


@pytest.mark.parametrize("error, match, call", REFUSALS)
def test_bad_input_raises_its_error_type(tmp_path, error, match, call):
    with pytest.raises(error, match=match) as info:
        call(tmp_path)
    assert type(info.value) is error
