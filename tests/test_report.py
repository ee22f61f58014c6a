"""Report writer: the bytes of report.json and the CSVs, and when nothing is written."""

import csv
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityqc import cli

SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))

# A small valid blockade scenario for full runs through cli.run
BLOCKADE = {
    "kind": "blockade",
    "n_1": 1,
    "n_2": 2,
    "n_photons": 0,
    "shift_rate_1": 0.1,
    "shift_rate_2": 0.2,
    "swap_rate": 0.3,
    "points": 5,
}


def _csv_text(value) -> str:
    """The text of a CSV cell or column name before quoting."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.12e" % value
    return str(value)


def _csv_cell(value) -> str:
    """How a CSV cell or column name is written: the oracle.

    A text holding a comma goes in double quotes; it holds no double
    quote, CR or LF, which the writer refuses.
    """
    text = _csv_text(value)
    return f'"{text}"' if "," in text else text


def _csv_oracle(rows) -> bytes:
    columns = list(rows[0].keys())
    lines = [",".join(map(_csv_cell, columns))]
    for row in rows:
        lines.append(",".join(_csv_cell(row[c]) for c in columns))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _json_oracle(value) -> bytes:
    return (json.dumps(value, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _rows(columns) -> list[dict]:
    """The rows of a column table, each with the columns in table order."""
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


def _breaks_a_csv_line(tables) -> bool:
    """Whether the text of a CSV column name or cell holds a double quote, CR or LF."""
    texts = [
        _csv_text(value)
        for columns in tables.values()
        if _rows(columns)
        for value in [*columns, *(v for values in columns.values() for v in values)]
    ]
    return any(c in text for text in texts for c in '"\r\n')


# --- the writer against the json module and the old CSV cells -------------

FLOATS = st.floats() | st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16, 1e-5]
)
TEXT = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "é✓\U0001f600", "%s", "100%", "a,b\nc"]
)
SCALARS = st.none() | st.booleans() | st.integers() | FLOATS | TEXT
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.tuples(inner, inner)
    | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=12,
)


@st.composite
def tables(draw):
    """Equal-length column lists under distinct names."""
    names = draw(st.lists(TEXT, unique=True, max_size=4))
    count = draw(st.integers(0, 5))
    cell = st.one_of(FLOATS, SCALARS, JSON_VALUES)
    column = st.lists(cell, min_size=count, max_size=count)
    return {name: draw(column) for name in names}


PAYLOADS = st.fixed_dictionaries(
    {
        "kind": TEXT,
        "scenario": st.dictionaries(TEXT, JSON_VALUES, max_size=4),
        "tables": st.dictionaries(
            st.from_regex(r"[a-z_]{1,8}", fullmatch=True), tables(), max_size=3
        ),
        "assertions": st.lists(
            st.fixed_dictionaries(
                {"name": TEXT, "passed": st.booleans(), "detail": TEXT},
                optional={"extra": JSON_VALUES},
            ),
            max_size=3,
        ),
        "passed": st.booleans(),
    }
)


def _payload(tables, scenario=None) -> dict:
    """A report payload holding ``tables``, with the keys ``cli.run`` gives it."""
    return {
        "kind": "k",
        "scenario": scenario or {},
        "tables": tables,
        "assertions": [],
        "passed": True,
    }


@settings(max_examples=200, deadline=None)
@given(PAYLOADS, st.floats(0.0, 1e3))
def test_writer_equals_the_json_and_csv_oracles(payload, wall_time_seconds):
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp) / "out"
        if _breaks_a_csv_line(payload["tables"]):
            with pytest.raises(ValueError, match="CSV text"):
                cli.write_report(outdir, payload, wall_time_seconds)
            assert not outdir.exists()
            return
        cli.write_report(outdir, payload, wall_time_seconds)
        written = {path.name: path.read_bytes() for path in outdir.iterdir()}
    rows = {name: _rows(columns) for name, columns in payload["tables"].items()}
    assert written.pop("report.json") == _json_oracle({**payload, "tables": rows})
    meta = written.pop("run_meta.json")
    written_at = json.loads(meta)["written_at"]
    assert meta == (
        json.dumps(
            {"wall_time_seconds": wall_time_seconds, "written_at": written_at},
            indent=2,
        )
        + "\n"
    ).encode("utf-8")
    assert written == {
        f"{name}.csv": _csv_oracle(table) for name, table in rows.items() if table
    }


# --- ragged tables and values JSON cannot hold ------------------------------


@pytest.mark.parametrize(
    "table",
    [
        {"a": [1.0, 2.0], "b": [3.0, 4.0, 5.0]},
        {"a": [1.0, 2.0], "b": [3.0]},
        {"a": [1.0], "b": (2.0,)},
        {"a": [1.0], "b": "x"},
        {"a": [1.0], "b": np.array([2.0])},
    ],
    ids=["longer", "shorter", "tuple", "str", "ndarray"],
)
def test_ragged_table_writes_nothing(tmp_path, table):
    payload = _payload({"good": {"x": [1.0]}, "t": table})
    with pytest.raises(ValueError, match="table 't'"):
        cli.write_report(tmp_path / "out", payload, 0.0)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text", ['say "hi"', "a\rb", "a\nb", "a\r\n"])
@pytest.mark.parametrize("where", ["column", "cell"])
def test_csv_text_that_breaks_a_line_writes_nothing(tmp_path, text, where):
    table = {text: [1.0]} if where == "column" else {"name": [text], "x": [1.0]}
    payload = _payload({"good": {"x": [1.0]}, "t": table})
    with pytest.raises(ValueError, match="table 't' holds the CSV text"):
        cli.write_report(tmp_path / "out", payload, 0.0)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "table",
    [
        {"x": [[1, 2]], "y": [1.0]},
        {"x": [{"a": 1, "b": 2}], "y": [1.0]},
        {"x": [(1, 2)]},
    ],
    ids=["list", "dict", "tuple"],
)
def test_csv_cell_that_is_not_a_float_or_string_keeps_its_comma_inside(tmp_path, table):
    # a cell's text was quoted only for a string, so "[1, 2]" split in two
    cli.write_report(tmp_path, _payload({"t": table}), 0.0)
    with (tmp_path / "t.csv").open(newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert [len(r) for r in rows] == [len(header)]
    assert rows[0][0] == str(table["x"][0])


def test_csv_cell_whose_text_breaks_a_line_writes_nothing(tmp_path):
    payload = _payload({"t": {"x": [['a"b']]}})
    with pytest.raises(ValueError, match="table 't' holds the CSV text"):
        cli.write_report(tmp_path / "out", payload, 0.0)
    assert list(tmp_path.iterdir()) == []


def test_run_exits_5_on_csv_text_that_breaks_a_line(tmp_path, monkeypatch, capsys):
    def runner(params):
        return {"cases": {"case": ["a\nb"], "passed": [True]}}, []

    monkeypatch.setitem(cli.RUNNERS, "blockade", runner)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(BLOCKADE), encoding="utf-8")
    assert cli.main(["run", str(scenario), "-o", str(tmp_path / "out")]) == 5
    assert "CSV text" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_value_json_cannot_encode_writes_nothing(tmp_path):
    payload = _payload({"good": {"x": [1.0]}}, scenario={"nodes": {1, 2}})
    with pytest.raises(TypeError, match="set"):
        cli.write_report(tmp_path / "out", payload, 0.0)
    assert list(tmp_path.iterdir()) == []


# --- the shipped scenarios -------------------------------------------------


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda path: path.stem)
def test_shipped_report_bytes_are_canonical(tmp_path, scenario, capsys):
    """report.json is canonical JSON; each CSV line is its JSON row."""
    assert cli.run(scenario, tmp_path) == 0
    raw = (tmp_path / "report.json").read_bytes()
    report = json.loads(raw)
    assert raw == _json_oracle(report)
    assert {path.stem for path in tmp_path.glob("*.csv")} == {
        name for name, rows in report["tables"].items() if rows
    }
    for name, rows in report["tables"].items():
        if not rows:
            continue
        header, *lines = (tmp_path / f"{name}.csv").read_text().split("\n")[:-1]
        columns = header.split(",")
        assert len(lines) == len(rows)
        for line, row in zip(lines, rows):
            assert sorted(columns) == sorted(row)
            assert line == ",".join(_csv_cell(row[c]) for c in columns)


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda path: path.stem)
def test_shipped_csvs_read_back_with_the_header_width(tmp_path, scenario, capsys):
    """csv.reader finds as many cells in every row as in the header."""
    assert cli.run(scenario, tmp_path) == 0
    for path in tmp_path.glob("*.csv"):
        with path.open(newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert rows
        assert {len(row) for row in rows} == {len(header)}, path.name


# --- what run prints ---------------------------------------------------------

SWEEP = {
    "kind": "effective-error-sweep",
    "n_atoms": 1,
    "coupling": 0.01,
    "delta_factors": [10, 30],
}


@pytest.mark.parametrize(
    "payload, code, statuses",
    [
        (SWEEP, 0, ["pass", "pass"]),
        ({**BLOCKADE, "max_c3_sq_below": 1e-3}, 4, ["pass", "FAIL"]),
    ],
    ids=["passing-sweep", "failing-blockade"],
)
def test_run_prints_one_line_per_assertion_in_report_order(
    tmp_path, capsys, payload, code, statuses
):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(payload), encoding="utf-8")
    assert cli.run(scenario, tmp_path / "out") == code
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assertions = report["assertions"]
    assert [a["passed"] for a in assertions] == [s == "pass" for s in statuses]
    assert capsys.readouterr().out.splitlines() == [
        f"[{status}] {a['name']}: {a['detail']}"
        for status, a in zip(statuses, assertions, strict=True)
    ]


def test_run_writes_a_numpy_bool_verdict_as_a_json_bool(tmp_path, monkeypatch, capsys):
    """A runner's verdict may be a numpy bool; run makes it a bool once."""

    def runner(params):
        checks = [("kept", np.bool_(True), "one"), ("lost", np.False_, "two")]
        return {"t": {"x": [1.0]}}, checks

    monkeypatch.setitem(cli.RUNNERS, "blockade", runner)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(BLOCKADE), encoding="utf-8")
    assert cli.run(scenario, tmp_path / "out") == 4
    raw = (tmp_path / "out" / "report.json").read_text()
    assert json.loads(raw)["assertions"] == [
        {"name": "kept", "passed": True, "detail": "one"},
        {"name": "lost", "passed": False, "detail": "two"},
    ]
    assert '"passed": true' in raw and '"passed": false' in raw
    assert capsys.readouterr().out == "[pass] kept: one\n[FAIL] lost: two\n"


# --- the benchmark's writer span --------------------------------------------


def test_run_calls_write_report_once_with_the_outdir(tmp_path, monkeypatch, capsys):
    """The benchmark wraps cli.write_report by name and reads its outdir."""
    calls = []
    real = cli.write_report

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        real(*args, **kwargs)

    monkeypatch.setattr(cli, "write_report", recording)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(BLOCKADE), encoding="utf-8")
    outdir = tmp_path / "out"
    assert cli.run(scenario, outdir) == 0
    assert len(calls) == 1
    args, kwargs = calls[0]
    assert args[0] == outdir and not kwargs
    assert (outdir / "report.json").exists()
