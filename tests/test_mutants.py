"""tools/mutants.py: a catalogued mutant is killed, a harmless edit survives."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

# an edit of a comment, which no test can see
SURVIVOR = mutants.Mutant(
    "comment",
    "src/cavityqc/cli.py",
    "# Largest number of complex amplitudes whose array fits the byte cap.",
    "# The largest number of complex amplitudes whose array fits the byte cap.",
    "tests/test_cli.py::test_list_scenarios_has_six_kinds",
)


def test_mutants_kills_an_entry_and_reports_a_survivor(capsys):
    assert mutants.main(["pcet-equals-cnot-bound"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("pcet-equals-cnot-bound: killed (tests/test_cli.py::")
    assert out[1] == "1/1 mutants killed"

    assert mutants.run([SURVIVOR]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [f"comment: SURVIVED ({SURVIVOR.test})", "0/1 mutants killed"]


def test_mutants_refuses_a_stale_entry_and_an_unknown_name(capsys):
    stale = SURVIVOR._replace(name="stale", old="no such text")
    assert mutants.run([stale]) == 1
    assert capsys.readouterr().out.splitlines()[0] == f"stale: STALE ({SURVIVOR.test})"
    assert mutants.main(["no-such-mutant"]) == 2
    assert "no-such-mutant" in capsys.readouterr().err
