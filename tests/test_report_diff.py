"""tools/report_diff.py: it names the one field a patched tree changes."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_report_diff_names_the_changed_field_and_nothing_else(tmp_path):
    # one constant patched: the precision of the transistor's transfer-time
    # detail, which reaches no table and no other kind
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    cli = src / "cavityqc" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count("{t_star:.9e}") == 1
    cli.write_text(text.replace("{t_star:.9e}", "{t_star:.8e}"), encoding="utf-8")

    result = subprocess.run(
        [
            sys.executable,
            str(ROOT / "tools" / "report_diff.py"),
            str(ROOT / "src"),
            str(src),
            "--cycles",
            "1",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
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
