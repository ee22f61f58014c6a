"""tools/report_diff.py: it names the one field a patched tree changes."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _report_diff(old, new):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_diff.py"), str(old), str(new),
         "--cycles", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_report_diff_names_the_changed_field_and_nothing_else(tmp_path):
    # one constant patched: the precision of the transistor's transfer-time
    # detail, which reaches no table and no other kind
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    cli = src / "cavityqc" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count("{t_star:.9e}") == 1
    cli.write_text(text.replace("{t_star:.9e}", "{t_star:.8e}"), encoding="utf-8")

    result = _report_diff(ROOT / "src", src)
    assert result.returncode == 1, result.stderr
    out = result.stdout
    identical, total = map(int, re.search(r"(\d+)/(\d+) report.json", out).groups())
    fields = re.findall(r"^  (.+): (\d+) differing values", out, re.MULTILINE)
    assert fields == [("transistor: assertions[].detail", str(total - identical))]
    # every other report, the other kinds' among them, is byte-identical
    assert 0 < total - identical < total
    csv_identical, csv_total = re.search(r"(\d+)/(\d+) CSV files", out).groups()
    assert csv_identical == csv_total != "0"
    assert "exit code" not in out


def test_report_diff_fails_a_tree_whose_reports_depend_on_run_order(tmp_path):
    # the transistor's transfer-time detail counts the transistor runs made
    # so far in the process: one tree, compared with itself, differs
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    cli = src / "cavityqc" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    runner = "def _run_transistor(p: dict):\n"
    detail = 'f"first maximum at {t_star:.9e}, expected {expected:.9e}"'
    assert text.count(runner) == text.count(detail) == 1
    text = text.replace(runner, "_RUNS = []\n\n\n" + runner + "    _RUNS.append(p)\n")
    cli.write_text(text.replace(detail, detail + ' + f" (run {len(_RUNS)})"'),
                   encoding="utf-8")

    result = _report_diff(src, src)
    assert result.returncode == 1, result.stderr
    fields = re.findall(r"^  (.+): (\d+) differing values", result.stdout, re.MULTILINE)
    assert [field for field, _ in fields] == ["transistor: assertions[].detail"]
