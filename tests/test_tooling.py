"""Source-level rules that keep the package's decisions in one place."""

import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "heegaard"
# a check status spelled as a string literal, in either quote style
STATUS_LITERAL = re.compile(r"""(["'])(pass|fail|known-discrepancy)\1""")


def test_only_reports_spells_a_check_status():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "reports.py" in modules
    assert STATUS_LITERAL.search((SRC / "reports.py").read_text())
    offenders = [
        f"{path.name}:{n}: {line.strip()}"
        for path in modules
        if path.name != "reports.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if STATUS_LITERAL.search(line)
    ]
    assert not offenders, offenders
