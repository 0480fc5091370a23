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


# the Bareiss determinant runs on int rows by design; it is no matrix operation
INT_ROW_ALGORITHMS = {"mat_det"}


def _is_rows_alias(value):
    """Whether ``value`` spells ``List[List[...]]`` (or ``list[list[...]]``)."""
    return (
        isinstance(value, ast.Subscript)
        and isinstance(value.value, ast.Name)
        and value.value.id in ("List", "list")
        and isinstance(value.slice, ast.Subscript)
        and isinstance(value.slice.value, ast.Name)
        and value.slice.value.id in ("List", "list")
    )


def _matrix_definitions(path):
    """What ``path`` defines that the one ``Matrix`` type already is."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ClassDef) and node.name.endswith("Matrix"):
            found.append(f"{path.name}:{node.lineno}: class {node.name}")
        if isinstance(node, ast.FunctionDef) and node.name not in INT_ROW_ALGORITHMS and (
            node.name.startswith("mat_") or node.name == "matrix_product"
        ):
            found.append(f"{path.name}:{node.lineno}: function {node.name}")
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_rows_alias(node.value):
            found.append(f"{path.name}:{node.lineno}: List[List[...]] alias")
    return found


def test_only_matrix_defines_a_matrix():
    assert [found.endswith(": class Matrix") for found in _matrix_definitions(SRC / "matrix.py")] == [True]
    offenders = [
        found for path in sorted(SRC.glob("*.py")) if path.name != "matrix.py" for found in _matrix_definitions(path)
    ]
    assert not offenders, offenders


# the names a memo table goes by: module-level ``_*MEMO*`` and the engines' tables
MEMO_NAME = re.compile(r"_\w*MEMO\w*$")
ENGINE_MEMOS = {"_mul_memo", "_intern"}


def _memo_assignments(path):
    """(line, target, whether the value comes from the registry) for every
    assignment in ``path`` to a memo table's name."""
    tree = ast.parse(path.read_text())
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
            if isinstance(target, ast.Name) and node in tree.body and MEMO_NAME.match(target.id):
                name = target.id
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr in ENGINE_MEMOS
            ):
                name = f"self.{target.attr}"
            else:
                continue
            value = node.value
            registered = (
                isinstance(value, ast.Call) and isinstance(value.func, ast.Name) and value.func.id == "memo_table"
            )
            found.append((node.lineno, name, registered))
    return found


def test_every_memo_table_comes_from_the_registry():
    found = {path.name: _memo_assignments(path) for path in sorted(SRC.glob("*.py"))}
    registered = sorted(name for assignments in found.values() for _, name, ok in assignments if ok)
    assert registered == sorted(
        ["_ROW_MEMO", "_QBINOM_MEMO", "_QPOLY_MEMO", "_IMG_MEMO", "_BASIS_IMAGE_MEMO", "_PREIMAGE_MEMO"]
        + ["self._mul_memo", "self._intern"]
    )
    offenders = [
        f"{name}:{line}: {target}" for name, assignments in found.items() for line, target, ok in assignments if not ok
    ]
    assert not offenders, offenders


TESTS = pathlib.Path(__file__).resolve().parent


def _memo_replacements(source: str):
    """(line, name) for every ``setattr``/``delattr`` call, a monkeypatch's
    or the builtin, whose string argument names a memo table."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else func.id if isinstance(func, ast.Name) else None
        if name not in ("setattr", "delattr"):
            continue
        for arg in node.args[:2]:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str) and "MEMO" in arg.value.rsplit(".", 1)[-1]:
                found.append((node.lineno, arg.value))
    return found


def test_no_test_replaces_a_memo_table():
    # a replaced table is no longer the registry's, so memo_sizes() and the
    # clears would miss it: tests empty tables in place (cold_process_memos)
    assert _memo_replacements('monkeypatch.setattr(scalars, "_QPOLY_MEMO", {})') == [(1, "_QPOLY_MEMO")]
    assert _memo_replacements('mp.setattr("heegaard.lens._IMG_MEMO", {})') == [(1, "heegaard.lens._IMG_MEMO")]
    offenders = [
        f"{path.name}:{line}: {name}"
        for path in sorted(TESTS.glob("*.py"))
        for line, name in _memo_replacements(path.read_text())
    ]
    assert not offenders, offenders


def _calls(path, name):
    """The lines of ``path`` that call ``name`` (by name or as an attribute)."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == name or getattr(node.func, "attr", None) == name)
    ]


def test_one_contraction_rule_outside_scalars():
    # the disc rule of qalgebras is the one place a monomial product contracts
    # generator powers; the sphere's product calls it once per side
    sites = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "scalars.py"
        for line in _calls(path, "qpoly_Qpair_base")
    ]
    assert len(sites) == 1 and sites[0].startswith("qalgebras.py:"), sites
