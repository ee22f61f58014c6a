"""Compare the reports two source trees write for the same scenarios.

Usage::

    python3 tools/report_diff.py OLD_SRC NEW_SRC [--seed 7] [--cycles 6]

OLD_SRC and NEW_SRC are directories that hold a ``cavityqc`` package (the
``src`` directory of two checkouts). The scenarios are the shipped
``scenarios/*.json`` of this checkout, cycles 0 .. cycles-1 of every
benchmark workload at one seed, read from ``perfbench/workloads.py``, and
one fixed verify-circuits scenario at t = 5 and 6, and one fixed
effective-error-sweep at N = 10^4 over 13 detunings, each wider than any
of those (they reach t <= 4, and N = 4 with at most 3 detunings). Each
tree runs all of them in its own subprocess, NEW_SRC in reverse order, so a
report that depends on what ran before it in the process differs even
between two runs of one tree. The tool prints how many
``report.json`` files are byte-identical, every exit code that differs,
and, per report field, the largest absolute and relative difference and
the number of differing values. It then prints how many per-table CSV
files are byte-identical, naming each one that differs or that only one
tree wrote. It exits 0 when every report and every CSV file is
byte-identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WIDE_CIRCUITS = {
    "kind": "verify-circuits",
    "seed": 42,
    "t_values": [5, 6],
    "samples": 2,
}

# geomspace(8, 240, 12) rounded to 6 places, and the asserted factor 30
WIDE_SWEEP = {
    "kind": "effective-error-sweep",
    "n_atoms": 10**4,
    "coupling": 0.01,
    "delta_factors": [round(8.0 * 30.0 ** (k / 11), 6) for k in range(12)] + [30.0],
}

# Runs every scenario of a list through cavityqc.cli.run in one process and
# prints the exit codes as one JSON object; the tree comes from PYTHONPATH.
CHILD = """
import contextlib, json, os, sys
from cavityqc import cli
codes = {}
for name in json.loads(sys.argv[1]):
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \\
            contextlib.redirect_stderr(sink):
        codes[name] = cli.main(["run", os.path.join(sys.argv[2], name + ".json"),
                                "-o", os.path.join(sys.argv[3], name)])
print(json.dumps(codes))
"""


def scenarios(seed: int, cycles: int) -> dict[str, str]:
    """Scenario file text by name: shipped samples, benchmark cycles, wide cases."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    out = {
        f"shipped-{path.stem}": path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "scenarios").glob("*.json"))
    }
    for workload in workloads.WORKLOADS:
        for index in range(cycles):
            for j, scenario in enumerate(workloads.cycle(workload, seed, index)):
                out[f"{workload}-c{index}-{j:02d}"] = json.dumps(scenario)
    out["wide-verify-circuits"] = json.dumps(WIDE_CIRCUITS)
    out["wide-sweep"] = json.dumps(WIDE_SWEEP)
    return out


def run_tree(src: Path, names: list[str], indir: Path, outdir: Path) -> dict:
    result = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(names), str(indir), str(outdir)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


def leaves(value, path=""):
    """(field path, leaf) pairs of a JSON value; list indices become []."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from leaves(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for item in value:
            yield from leaves(item, path + "[]")
    else:
        yield path, value


def compare(old: bytes, new: bytes, fields: dict) -> None:
    """Fold the leaf-by-leaf differences of two reports into ``fields``."""
    old_doc, new_doc = json.loads(old), json.loads(new)
    kind = old_doc.get("kind", "?")
    old_leaves, new_leaves = list(leaves(old_doc)), list(leaves(new_doc))
    if [p for p, _ in old_leaves] != [p for p, _ in new_leaves]:
        fields[f"{kind}: report layout"]["count"] += 1
        return
    for (path, a), (_, b) in zip(old_leaves, new_leaves):
        if a == b and type(a) is type(b):
            continue
        entry = fields[f"{kind}: {path}"]
        entry["count"] += 1
        numbers = all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b)
        )
        if numbers and math.isfinite(a) and math.isfinite(b):
            diff = abs(a - b)
            entry["abs"] = max(entry["abs"], diff)
            entry["rel"] = max(entry["rel"], diff / max(abs(a), abs(b)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--cycles", type=int, default=6)
    args = parser.parse_args(argv)

    texts = scenarios(args.seed, args.cycles)
    names = list(texts)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        indir = tmp / "scenarios"
        indir.mkdir()
        for name, text in texts.items():
            (indir / f"{name}.json").write_text(text, encoding="utf-8")
        codes = {
            "old": run_tree(args.old_src.resolve(), names, indir, tmp / "old"),
            "new": run_tree(args.new_src.resolve(), names[::-1], indir, tmp / "new"),
        }

        identical = 0
        fields = defaultdict(lambda: {"count": 0, "abs": 0.0, "rel": 0.0})
        csv_identical, csv_differing = 0, []
        for name in names:
            if codes["old"][name] != codes["new"][name]:
                print(f"{name}: exit code {codes['old'][name]} -> {codes['new'][name]}")
            dirs = [tmp / side / name for side in ("old", "new")]
            for csv in sorted({path.name for d in dirs for path in d.glob("*.csv")}):
                old, new = (d / csv for d in dirs)
                if old.exists() and new.exists() and old.read_bytes() == new.read_bytes():
                    csv_identical += 1
                else:
                    csv_differing.append(f"{name}/{csv}")
            reports = [tmp / side / name / "report.json" for side in ("old", "new")]
            if not all(path.exists() for path in reports):
                fields["missing report.json"]["count"] += 1
                continue
            old, new = (path.read_bytes() for path in reports)
            if old == new:
                identical += 1
            else:
                compare(old, new, fields)

    print(f"{identical}/{len(names)} report.json byte-identical")
    for field in sorted(fields):
        entry = fields[field]
        print(
            f"  {field}: {entry['count']} differing values, "
            f"max abs {entry['abs']:.3e}, max rel {entry['rel']:.3e}"
        )
    csv_total = csv_identical + len(csv_differing)
    print(f"{csv_identical}/{csv_total} CSV files byte-identical")
    for path in csv_differing:
        print(f"  {path} differs")
    return 0 if identical == len(names) and not csv_differing else 1


if __name__ == "__main__":
    sys.exit(main())
