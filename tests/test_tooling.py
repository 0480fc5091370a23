"""Source-level rules that keep the package's decisions in one place."""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "heegaard"
# a check status spelled as a string literal, in either quote style
STATUS_LITERAL = re.compile(r"""(["'])(pass|fail|known-discrepancy)\1""")
# the names a hand-threaded first-failure flag goes by
FLAG_NAME = re.compile(r"(bad|ok)(_\w+)?$")
STATUS_NAMES = {"PASS", "FAIL", "KNOWN"}


def _modules():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "reports.py" in modules
    return [path for path in modules if path.name != "reports.py"]


def test_only_reports_spells_a_check_status():
    assert STATUS_LITERAL.search((SRC / "reports.py").read_text())
    offenders = [
        f"{path.name}:{n}: {line.strip()}"
        for path in _modules()
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if STATUS_LITERAL.search(line)
    ]
    assert not offenders, offenders


def _verdict_bookkeeping(node):
    """Why ``node`` decides a verdict outside ``reports.py``, or None."""
    if isinstance(node, ast.Assign):
        flags = {t.id for t in node.targets if isinstance(t, ast.Name) and FLAG_NAME.match(t.id)}
        value = node.value
        if flags and isinstance(value, ast.Constant) and (value.value is None or value.value is True):
            return "starts a first-failure flag"
        if (
            flags
            and isinstance(value, ast.BoolOp)
            and isinstance(value.values[0], ast.Name)
            and value.values[0].id in flags
        ):
            return "threads a first-failure flag"
    if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("reports"):
        if STATUS_NAMES & {alias.name for alias in node.names}:
            return "imports a check status"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id == "CheckEntry":
            return "builds a CheckEntry by hand"
    return None


def test_only_reports_keeps_first_failures_and_builds_entries():
    offenders = [
        f"{path.name}:{node.lineno}: {why}"
        for path in _modules()
        for node in ast.walk(ast.parse(path.read_text()))
        for why in [_verdict_bookkeeping(node)]
        if why
    ]
    assert not offenders, offenders


def _scalars_private_names():
    """The private functions and classes of ``scalars.py`` (the packing
    helpers among them) and the private methods of its classes."""
    tree = ast.parse((SRC / "scalars.py").read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
            names.add(node.name)
        if isinstance(node, ast.ClassDef) and node.name == "Coefficient":
            names |= {
                f.name for f in node.body
                if isinstance(f, ast.FunctionDef) and f.name.startswith("_") and not f.name.endswith("__")
            }
    return names


def test_only_scalars_reads_coefficient_internals():
    private = _scalars_private_names()
    assert {"_kronecker", "_lay", "_encode", "_unpack", "_from_cells", "_Packed"} <= private
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "scalars.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and (node.attr == "_terms" or node.attr in private):
                offenders.append(f"{path.name}:{node.lineno}: .{node.attr}")
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("scalars"):
                offenders += [
                    f"{path.name}:{node.lineno}: imports {a.name}" for a in node.names if a.name.startswith("_")
                ]
    assert not offenders, offenders
