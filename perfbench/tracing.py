"""Span tracing of cavityqc's public functions, installed from outside.

``Tracer.install`` replaces each traced function at every name callers
look it up by: every ``cavityqc.*`` module attribute bound to the function
object (so ``cavityqc.cli.dynamics.propagate``, ``cavityqc.dynamics.
propagate`` and a ``from .x import f`` copy are all covered), class
attributes for methods such as ``HamiltonianMatrix.eigensystem``, and the
``cli.RUNNERS`` table. Leaving the context restores the originals, so
untraced and traced runs can alternate in one process. The program's source
is not touched.

Each call records a ``Span``; its ``attrs`` carry the problem size
(dimension, computed dense bytes, columns, operations applied) where the
call has one. Spans stay in memory until ``write_spans``. A span's self time
is its duration minus the ``outer`` durations of its direct children, which
also cover the wrappers' own bookkeeping, so tracing cost is charged to no
layer; ``trace.overhead_frac`` reports it instead.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

BYTES_PER_COMPLEX = 16


class Span(NamedTuple):
    id: int
    parent: int | None
    run: int
    name: str
    start: float
    end: float
    outer: float  # seconds from wrapper entry to exit, hooks included
    attrs: dict


def _dim(args, kwargs, result):
    return {"dim": result.dim if hasattr(result, "dim") else len(result)}


def _hamiltonian_size(args, kwargs, result):
    return {"dim": result.dim, "dense_bytes": BYTES_PER_COMPLEX * result.dim**2}


def _report_bytes(args, kwargs, result):
    outdir = Path(args[0] if args else kwargs["outdir"])
    return {"bytes": sum(p.stat().st_size for p in outdir.iterdir())}


# (span name, owner "module" or "module:Class", attribute, pre hook, post hook)
# Hooks map (args, kwargs[, result]) to span attributes; ``pre`` runs before
# the call, ``post`` after it, both outside the span's own start and end.
TARGETS = (
    ("basis.build_microscopic_basis", "cavityqc.basis", "build_microscopic_basis",
     None, lambda a, k, r: {"dim": r.dim}),
    ("basis.pair_isometry", "cavityqc.basis", "pair_isometry",
     None, lambda a, k, r: {"dim": a[0].dim}),
    ("basis.collective_excitation_state", "cavityqc.basis",
     "collective_excitation_state", None, lambda a, k, r: {"dim": a[0].dim}),
    ("hamiltonian.microscopic_hamiltonian", "cavityqc.hamiltonian",
     "microscopic_hamiltonian", None, _hamiltonian_size),
    ("hamiltonian.transistor_hamiltonian", "cavityqc.hamiltonian",
     "transistor_hamiltonian", None, _hamiltonian_size),
    ("hamiltonian.two_level_swap_hamiltonian", "cavityqc.hamiltonian",
     "two_level_swap_hamiltonian", None, _hamiltonian_size),
    ("hamiltonian.eigensystem", "cavityqc.hamiltonian:HamiltonianMatrix",
     "eigensystem",
     # A cached decomposition is held in ``_eig``; without it no call is a hit.
     lambda a, k: {"dim": a[0].dim, "hit": getattr(a[0], "_eig", None) is not None},
     None),
    ("dynamics.propagate", "cavityqc.dynamics", "propagate", None, _dim),
    ("dynamics.evolve_on_grid", "cavityqc.dynamics", "evolve_on_grid",
     None, lambda a, k, r: {"dim": r.shape[1], "points": r.shape[0]}),
    ("dynamics.first_maximum_time", "cavityqc.dynamics", "first_maximum_time",
     None, None),
    ("dynamics.transistor_oracle", "cavityqc.dynamics", "transistor_oracle",
     None, lambda a, k, r: {"dim": r[0].dim}),
    ("dynamics.effective_model_error", "cavityqc.dynamics", "effective_model_error",
     None, lambda a, k, r: {"deltas": len(r.deltas)}),
    ("dynamics.closed_forms", "cavityqc.dynamics", "analytic_pair_evolution",
     None, _dim),
    ("dynamics.closed_forms", "cavityqc.dynamics", "blockade_solution", None, None),
    ("dynamics.closed_forms", "cavityqc.dynamics:BlockadeSolution", "c2", None, _dim),
    ("dynamics.closed_forms", "cavityqc.dynamics:BlockadeSolution", "c3", None, _dim),
    ("dynamics.closed_forms", "cavityqc.dynamics", "transistor_evolution", None, _dim),
    ("state.fidelity", "cavityqc.state", "fidelity",
     lambda a, k: {"dim": a[0].dim}, None),
    ("gates.synthesize_rotation", "cavityqc.gates", "synthesize_rotation", None, None),
    ("gates.decode", "cavityqc.gates", "decode",
     None, lambda a, k, r: {"dim": len(r[0])}),
    ("gates.haar_random_unitary", "cavityqc.gates", "haar_random_unitary", None, _dim),
    ("circuits.logical_matrix", "cavityqc.circuits", "logical_matrix",
     None, lambda a, k, r: {"columns": r[0].shape[1]}),
    ("circuits.apply", "cavityqc.circuits", "apply",
     lambda a, k: {"ops": len(a[1])}, None),
    ("circuits.equivalence_up_to_global_phase", "cavityqc.circuits",
     "equivalence_up_to_global_phase", None, lambda a, k, r: {"dim": len(a[0])}),
    ("circuits.controlled_power_matrix", "cavityqc.circuits",
     "controlled_power_matrix", None, lambda a, k, r: {"dim": len(r)}),
    ("cli.load_scenario", "cavityqc.cli", "load_scenario", None, None),
    ("cli.write_report", "cavityqc.cli", "write_report", None, _report_bytes),
    ("cli.run", "cavityqc.cli", "run", None, None),
)
RUNNER_SPAN = "cli.runner"

MODULES = ("basis", "hamiltonian", "dynamics", "state", "gates", "circuits", "cli")


class Tracer:
    """Collects spans from wrapped cavityqc functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._next_id = 0

    def _wrap(self, name, fn, pre, post):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entry = clock()
            attrs = pre(args, kwargs) if pre else {}
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
            if post:
                attrs.update(post(args, kwargs, result))
            self.spans.append(
                Span(span_id, parent, self.run, name, start, end, clock() - entry, attrs)
            )
            return result

        return traced

    @contextlib.contextmanager
    def install(self):
        """Route every traced name through a span-recording wrapper."""
        undo = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cavityqc" or n.startswith("cavityqc."))]
        try:
            for name, owner, attr, pre, post in TARGETS:
                module_name, _, class_name = owner.partition(":")
                if class_name:
                    cls = getattr(sys.modules[module_name], class_name)
                    original = cls.__dict__[attr]
                    undo.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(name, original, pre, post))
                    continue
                original = getattr(sys.modules[module_name], attr)
                traced = self._wrap(name, original, pre, post)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, key, original))
                            setattr(module, key, traced)
            runners = sys.modules["cavityqc.cli"].RUNNERS
            for kind, original in list(runners.items()):
                undo.append((runners, kind, original))
                runners[kind] = self._wrap(RUNNER_SPAN, original, None, None)
            yield self
        finally:
            for target, key, original in reversed(undo):
                if isinstance(target, dict):
                    target[key] = original
                else:
                    setattr(target, key, original)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fields = span._asdict()
                fields.update(fields.pop("attrs"))
                fh.write(json.dumps(fields) + "\n")


def self_times(spans) -> list[float]:
    """Self time of each span, in the order given."""
    child = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.outer
    return [span.end - span.start - child[span.id] for span in spans]


def layer_metrics(spans, runs: int) -> dict[str, float]:
    """Per-layer metrics, each a mean per scenario run unless named otherwise.

    ``hamiltonian.dim_max`` is the largest Hamiltonian dimension seen,
    ``hamiltonian.eigensystem.hit_ratio`` the share of eigensystem calls that
    found the cached decomposition (0 when there were none), and
    ``hamiltonian.dense_bytes`` the computed size dim^2 * 16 of the dense
    Hamiltonians built.
    """
    runs = max(1, runs)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    sums = defaultdict(float)
    dim_max = 0
    for span, own in zip(spans, self_times(spans)):
        name, attrs = span.name, span.attrs
        calls[name] += 1
        self_s[name] += own
        for key, value in attrs.items():
            sums[name, key] += value
        if name.startswith("hamiltonian."):
            dim_max = max(dim_max, attrs.get("dim", 0))

    metrics = {}
    for name in {t[0] for t in TARGETS} | {RUNNER_SPAN}:
        metrics[f"{name}.calls"] = calls[name] / runs
        metrics[f"{name}.self_s"] = self_s[name] / runs
    for module in MODULES:
        metrics[f"{module}.self_s"] = sum(
            v for k, v in self_s.items() if k.split(".")[0] == module
        ) / runs
    eig_calls = calls["hamiltonian.eigensystem"]
    metrics["hamiltonian.eigensystem.hit_ratio"] = (
        sums["hamiltonian.eigensystem", "hit"] / eig_calls if eig_calls else 0.0
    )
    metrics["hamiltonian.dim_max"] = float(dim_max)
    metrics["hamiltonian.dense_bytes"] = sum(
        v for (name, key), v in sums.items() if key == "dense_bytes"
    ) / runs
    metrics["dynamics.evolve_on_grid.points"] = sums["dynamics.evolve_on_grid", "points"] / runs
    metrics["circuits.logical_matrix.columns"] = (
        sums["circuits.logical_matrix", "columns"] / runs
    )
    metrics["circuits.ops_applied"] = sums["circuits.apply", "ops"] / runs
    metrics["cli.report_bytes"] = sums["cli.write_report", "bytes"] / runs
    return metrics


def leaders(metrics: dict[str, float], count: int = 5) -> list[tuple[str, float]]:
    """The traced functions with the largest self time, with their share."""
    own = {k[: -len(".self_s")]: v for k, v in metrics.items()
           if k.endswith(".self_s") and k.count(".") >= 2}
    total = sum(own.values()) or 1.0
    ranked = sorted(own.items(), key=lambda kv: kv[1], reverse=True)
    return [(name, value / total) for name, value in ranked[:count]]
