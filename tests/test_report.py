"""Report writer: the bytes of report.json and the CSVs, and when nothing is written."""

import csv
import json
import tempfile
from pathlib import Path

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


def _breaks_a_csv_line(tables) -> bool:
    """Whether the text of a CSV column name or cell holds a double quote, CR or LF."""
    texts = [
        _csv_text(value)
        for rows in tables.values()
        if rows
        for value in [*rows[0], *(v for row in rows for v in row.values())]
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
    """Flat rows over one column set, each row's keys in its own order."""
    columns = draw(st.lists(TEXT, unique=True, max_size=4))
    cell = st.one_of(FLOATS, SCALARS, JSON_VALUES)
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        order = draw(st.permutations(columns))
        rows.append({c: draw(cell) for c in order})
    return rows


REPORTS = st.builds(
    cli.RunReport,
    kind=TEXT,
    scenario=st.dictionaries(TEXT, JSON_VALUES, max_size=4),
    tables=st.dictionaries(
        st.from_regex(r"[a-z_]{1,8}", fullmatch=True), tables(), max_size=3
    ),
    assertions=st.lists(
        st.fixed_dictionaries(
            {"name": TEXT, "passed": st.booleans(), "detail": TEXT},
            optional={"extra": JSON_VALUES},
        ),
        max_size=3,
    ),
    wall_time_seconds=st.floats(0.0, 1e3),
)


@settings(max_examples=200, deadline=None)
@given(REPORTS)
def test_writer_equals_the_json_and_csv_oracles(report):
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp) / "out"
        if _breaks_a_csv_line(report.tables):
            with pytest.raises(ValueError, match="CSV text"):
                cli.write_report(outdir, report)
            assert not outdir.exists()
            return
        cli.write_report(outdir, report)
        written = {path.name: path.read_bytes() for path in outdir.iterdir()}
    assert written.pop("report.json") == _json_oracle(report.payload())
    meta = written.pop("run_meta.json")
    written_at = json.loads(meta)["written_at"]
    assert meta == (
        json.dumps(
            {"wall_time_seconds": report.wall_time_seconds, "written_at": written_at},
            indent=2,
        )
        + "\n"
    ).encode("utf-8")
    assert written == {
        f"{name}.csv": _csv_oracle(rows) for name, rows in report.tables.items() if rows
    }


# --- ragged tables and values JSON cannot hold ------------------------------


@pytest.mark.parametrize(
    "tables",
    [
        {"good": [{"x": 1.0}], "t": [{"a": 1.0}, {"a": 2.0, "b": 3.0}]},
        {"good": [{"x": 1.0}], "t": [{"a": 1.0, "b": 3.0}, {"a": 2.0}]},
        {"good": [{"x": 1.0}], "t": [{"a": 1.0}, 2.0]},
    ],
    ids=["extra-column", "missing-column", "not-a-row"],
)
def test_ragged_table_writes_nothing(tmp_path, tables):
    report = cli.RunReport("k", {}, tables, [], 0.0)
    with pytest.raises(ValueError, match="table 't'"):
        cli.write_report(tmp_path / "out", report)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text", ['say "hi"', "a\rb", "a\nb", "a\r\n"])
@pytest.mark.parametrize("where", ["column", "cell"])
def test_csv_text_that_breaks_a_line_writes_nothing(tmp_path, text, where):
    row = {text: 1.0} if where == "column" else {"name": text, "x": 1.0}
    report = cli.RunReport("k", {}, {"good": [{"x": 1.0}], "t": [row]}, [], 0.0)
    with pytest.raises(ValueError, match="table 't' holds the CSV text"):
        cli.write_report(tmp_path / "out", report)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "row",
    [{"x": [1, 2], "y": 1.0}, {"x": {"a": 1, "b": 2}, "y": 1.0}, {"x": (1, 2)}],
    ids=["list", "dict", "tuple"],
)
def test_csv_cell_that_is_not_a_float_or_string_keeps_its_comma_inside(tmp_path, row):
    # a cell's text was quoted only for a string, so "[1, 2]" split in two
    cli.write_report(tmp_path, cli.RunReport("k", {}, {"t": [row]}, [], 0.0))
    with (tmp_path / "t.csv").open(newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert [len(r) for r in rows] == [len(header)]
    assert rows[0][0] == str(row["x"])


def test_csv_cell_whose_text_breaks_a_line_writes_nothing(tmp_path):
    report = cli.RunReport("k", {}, {"t": [{"x": ['a"b']}]}, [], 0.0)
    with pytest.raises(ValueError, match="table 't' holds the CSV text"):
        cli.write_report(tmp_path / "out", report)
    assert list(tmp_path.iterdir()) == []


def test_run_exits_5_on_csv_text_that_breaks_a_line(tmp_path, monkeypatch, capsys):
    def runner(params):
        return {"cases": [{"case": "a\nb", "passed": True}]}, []

    monkeypatch.setitem(cli.RUNNERS, "blockade", runner)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(BLOCKADE), encoding="utf-8")
    assert cli.main(["run", str(scenario), "-o", str(tmp_path / "out")]) == 5
    assert "CSV text" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_value_json_cannot_encode_writes_nothing(tmp_path):
    report = cli.RunReport("k", {"nodes": {1, 2}}, {"good": [{"x": 1.0}]}, [], 0.0)
    with pytest.raises(TypeError, match="set"):
        cli.write_report(tmp_path / "out", report)
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
