"""Interned layouts: one basis per layout, its tables built once and shared."""

import gc
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityqc import (
    CompositeBasis,
    CouplingSet,
    DetuningSet,
    FockFactor,
    Mode,
    NodeSpec,
    cli,
    hamiltonian,
    pair_isometry,
    transistor_hamiltonian,
)
from cavityqc import basis as basis_module
from cavityqc.dynamics import effective_model_error
from cavityqc.hamiltonian import microscopic_parts

ROOT = Path(__file__).resolve().parent.parent

# Groups of equal specs written differently: Python's == equates each
# group's members, but the builders read the numbers themselves. A symmetric
# site's energy sums n_0 e_0 + n_1 e_1 + n_2 e_2 are exact in integers and
# rounded twice in floats, so the last group's two forms build different
# bits at level counts (1, 1, 1): 2^54 + 4 and 2^54.
ENERGIES = {
    2: (((0, 1), (0.0, 1.0), (-0.0, 1.0), [0, 1.0]),),
    3: (
        ((0, 1, 2), (0.0, 1.0, 2.0), [-0.0, 1, 2.0]),
        ((1, 2**53, 2**53 + 2), [1.0, 2.0**53, 2.0**53 + 2]),
    ),
}
FREQUENCIES = (0, 0.0, -0.0, 1, 1.0)
WAVE_VECTORS = ((0.0, 0.0, 0.0), [0, -0.0, 0.0])


def _bits(arrays) -> list[bytes]:
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def _fresh(build, *args):
    """``build(*args)`` with every product basis built anew, none interned."""
    with mock.patch.object(hamiltonian, "intern_basis", CompositeBasis):
        return build(*args)


def _pair_model(atoms, energies, fock, quanta, symmetric):
    """Basis and arrays of the error sweep's model on a two-level pair."""
    nodes = tuple(NodeSpec(n, 2, energies) for n in atoms)
    basis, h0, h1 = microscopic_parts(
        nodes, CouplingSet(g21=0.05), fock, quanta, symmetric
    )
    return basis, _bits([h0, h1, basis.occupations, pair_isometry(basis)])


def _transistor_model(atoms, energies, quanta, symmetric):
    """Basis and matrix of the transistor coupling with bare energies."""
    control, target = (NodeSpec(n, 3, energies) for n in atoms)
    h = transistor_hamiltonian(
        control,
        (target, target),
        CouplingSet(g21=0.02, g32=0.03),
        # clear of the resonance floor at energies up to 2^53
        DetuningSet(lower=5e7, upper=7e7),
        rotating_frame=False,
        quanta=quanta,
        symmetric=symmetric,
    )
    return h.basis, _bits([h.matrix, h.basis.occupations])


@settings(max_examples=60, deadline=None)
@given(
    atoms=st.lists(st.integers(1, 3), min_size=2, max_size=2),
    symmetric=st.booleans(),
    quanta=st.sampled_from([None, 1, 2, 3]),
    data=st.data(),
)
def test_interned_builds_equal_fresh_builds_bit_for_bit(atoms, symmetric, quanta, data):
    # two forms of one layout, each built fresh, then both through the table
    # in either order and twice: every build equals its own fresh one, so no
    # bit depends on which equal spec came first
    if quanta is None and not symmetric:
        atoms = [1, 1]  # keeps the full per-atom spaces small
    pick = st.sampled_from
    pair_group, transistor_group = (
        data.draw(pick(ENERGIES[levels])) for levels in (2, 3)
    )
    pair_forms = [
        (
            tuple(atoms),
            data.draw(pick(pair_group)),
            FockFactor(
                data.draw(pick([list, tuple]))(
                    [Mode(data.draw(pick(FREQUENCIES)), data.draw(pick(WAVE_VECTORS)))]
                ),
                data.draw(pick([[1], (1,), [2]])),
            ),
            quanta,
            symmetric,
        )
        for _ in range(2)
    ]
    transistor_forms = [
        (tuple(atoms), data.draw(pick(transistor_group)), quanta, symmetric)
        for _ in range(2)
    ]
    for build, forms in (
        (_pair_model, pair_forms),
        (_transistor_model, transistor_forms),
    ):
        basis_module._LAYOUTS.clear()
        fresh = [_fresh(build, *form)[1] for form in forms]
        bases = {}
        for k in (0, 1, 1, 0):
            basis, bits = build(*forms[k])
            assert bits == fresh[k]
            assert bases.setdefault(k, basis) is basis
        spelled = [repr(basis.nodes) + repr(basis.fock) for basis in bases.values()]
        assert (bases[0] is bases[1]) == (spelled[0] == spelled[1])


def test_cached_tables_are_read_only():
    nodes = (NodeSpec(4), NodeSpec(4))
    layout = FockFactor((Mode(frequency=0.0),), (1,))
    basis, _, _ = microscopic_parts(
        nodes, CouplingSet(g21=0.01), layout, quanta=1, symmetric=True
    )
    rows = pair_isometry(basis)
    assert pair_isometry(basis) is rows
    tables = [rows, basis.site_levels(0)]
    for table in basis._derived.values():
        tables.extend(table if isinstance(table, tuple) else [table])
    # occupations, codes, pair rows and three or more factor tables
    assert len(tables) >= 2 + 3 + 2 * 3
    assert not any(table.flags.writeable for table in tables)
    for table in (rows, basis.occupations, basis.site_levels(0)):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0


def test_layouts_that_differ_never_share_a_basis():
    def layout(
        atoms=2, levels=2, energies=(0.0, 1.0), n_max=1, quanta=1, symmetric=False
    ):
        nodes = (NodeSpec(atoms, levels, energies),) * 2
        fock = FockFactor((Mode(frequency=0.9),), (n_max,))
        return hamiltonian._product_basis(
            nodes, CouplingSet(g21=0.1), fock, quanta, symmetric
        )

    variants = [
        {},
        {"atoms": 3},
        {"levels": 3, "energies": (0.0, 1.0, 2.0)},
        {"energies": (0.0, 1.5)},
        {"n_max": 2},
        {"quanta": 2},
        {"symmetric": True},
    ]
    basis_module._LAYOUTS.clear()
    bases = [layout(**variant) for variant in variants]
    assert len({id(basis) for basis in bases}) == len(variants)
    assert len(basis_module._LAYOUTS) == len(variants)
    # each layout again: its own basis
    assert all(layout(**variant) is basis for variant, basis in zip(variants, bases))


def test_sweeps_with_different_couplings_build_one_basis(monkeypatch):
    builds = []

    class Counted(CompositeBasis):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(basis_module, "CompositeBasis", Counted)
    basis_module._LAYOUTS.clear()
    nodes = (NodeSpec(4), NodeSpec(4))
    reports = [
        effective_model_error(nodes, CouplingSet(g21=g), [60.0 * g, 200.0 * g])
        for g in (0.01, 0.013)
    ]
    assert len(builds) == 1
    # the coupling is re-priced on the shared basis
    assert reports[0].max_infidelity != reports[1].max_infidelity


def test_table_keeps_the_last_layouts_under_the_byte_cap(monkeypatch):
    def layout(atoms):
        return hamiltonian._product_basis(
            (NodeSpec(atoms),), CouplingSet(g21=0.1), None, 1
        )

    basis_module._LAYOUTS.clear()
    first = layout(1)
    for atoms in range(2, basis_module.LAYOUT_TABLE_SIZE + 2):
        layout(atoms)
    assert len(basis_module._LAYOUTS) == basis_module.LAYOUT_TABLE_SIZE
    # the least recently used layout went first
    assert layout(1) is not first
    # a layout past the byte cap is built anew on every call, and not kept
    monkeypatch.setattr(basis_module, "LAYOUT_BYTES_CAP", 0)
    basis_module._LAYOUTS.clear()
    assert layout(2) is not layout(2)
    assert not basis_module._LAYOUTS


@pytest.mark.parametrize(
    "atoms, levels, n_max, quanta, symmetric",
    [
        (4, 2, 1, 1, True),
        (3, 2, 2, None, False),
        (20, 2, 3, 2, False),
        (9, 3, 3, 3, True),
    ],
)
def test_an_interned_layout_holds_at_most_its_stated_bytes(
    atoms, levels, n_max, quanta, symmetric
):
    # everything the table keeps alive for one layout, its specs, key and
    # every table the builders derive included, against the figure the
    # byte cap is checked on
    def build():
        energies = (0.0, 1.0, 2.0)[:levels]
        positions = [[0.1 * j, 0.0, 0.0] for j in range(atoms)]
        nodes = (NodeSpec(atoms, levels, energies, positions),) * 2
        couplings = CouplingSet(g21=0.05, g32=0.02 if levels == 3 else None)
        fock = FockFactor([Mode(0.9)] * (levels - 1), [n_max] * (levels - 1))
        basis, _, _ = microscopic_parts(nodes, couplings, fock, quanta, symmetric)
        if levels == 2:
            pair_isometry(basis)
        return basis

    basis_module._LAYOUTS.clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        basis = build()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    [key] = basis_module._LAYOUTS
    stated = basis.table_bytes() + 4 * (len(key[0]) + len(key[1]))
    assert 0 < held <= stated <= basis_module.LAYOUT_BYTES_CAP


def test_list_valued_specs_build_like_tuples():
    def model(energies, modes, n_max):
        nodes = (NodeSpec(2, 3, energies),) * 2
        basis, h0, h1 = microscopic_parts(
            nodes, CouplingSet(g21=0.1), FockFactor(modes, n_max), quanta=2
        )
        return basis.dim, _bits([h0, h1])

    as_lists = model([0.0, 1.0, 2.0], [Mode(0.9, [0.0, 0.0, 0.0])], [2])
    as_tuples = model((0.0, 1.0, 2.0), (Mode(0.9),), (2,))
    assert as_lists[0] == 15
    assert as_lists == as_tuples
    node = NodeSpec(2, 2, [0.0, 1.0], np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]]))
    assert node.positions == ((0.0, 0.0, 0.0), (0.1, 0.0, 0.0))
    assert hash(node) == hash(NodeSpec(2, 2, (0.0, 1.0), node.positions))


def test_every_shipped_scenario_twice_in_one_process_gives_the_same_bytes(tmp_path):
    # the second pass runs in reverse order, on layouts the first one left
    scenarios = sorted((ROOT / "scenarios").glob("*.json"))
    reports = {}
    for rounds, order in enumerate((scenarios, scenarios[::-1])):
        for path in order:
            outdir = tmp_path / f"{path.stem}-{rounds}"
            assert cli.run(path, outdir) == 0
            reports.setdefault(path.stem, []).append(
                (outdir / "report.json").read_bytes()
            )
    assert len(reports) == 7
    assert all(first == second for first, second in reports.values())
