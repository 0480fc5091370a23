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


# the only places in scalars.py that branch on a coefficient's form (a key
# dict or packed): a new packed shortcut joins this list, in a change that
# measures how often it is taken
FORM_BRANCHES = {"_box", "_top", "_lay", "Coefficient.__add__", "Coefficient.__mul__"}


def _tests_form(node):
    """Whether ``node`` is ``type(...) is dict``, ``... is not dict`` or
    ``isinstance(..., dict)`` (dict alone or in a tuple)."""
    if isinstance(node, ast.Compare) and isinstance(node.left, ast.Call):
        return (
            getattr(node.left.func, "id", None) == "type"
            and all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
            and any(getattr(c, "id", None) == "dict" for c in node.comparators)
        )
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
        return any(getattr(n, "id", None) == "dict" for n in ast.walk(node.args[1]))
    return False


def _form_branches(source):
    """The functions and methods (``Class.name``) of ``source`` that test a
    value's form; ``<module>`` for a test outside any function."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if _tests_form(child):
                found.add(scope or "<module>")
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_one_list_of_places_that_branch_on_a_coefficients_form():
    planted = "class C:\n    def f(self, t):\n        return type(t) is not dict\n"
    assert _form_branches(planted) == {"C.f"}
    assert _form_branches("def g(t):\n    return isinstance(t, (list, dict))\n") == {"g"}
    assert _form_branches("x = type(y) is dict\ndef h(t):\n    return type(t) is list\n") == {"<module>"}
    found = _form_branches((SRC / "scalars.py").read_text())
    assert found == FORM_BRANCHES, sorted(found ^ FORM_BRANCHES)


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


def _circle_degree_sums(source):
    """(line, object) for every sum that adds ``.mu`` and ``.nu`` of the same
    object, outside ``SphereMonomial.deg``; a chain of additions counts as
    one sum, so ``m.mu + m.nu + N * k`` is caught too."""

    def operands(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return operands(node.left) + operands(node.right)
        return [node]

    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.BinOp) and isinstance(child.op, ast.Add) and scope != "SphereMonomial.deg":
                attrs = {}
                for term in operands(child):
                    if isinstance(term, ast.Attribute) and term.attr in ("mu", "nu"):
                        attrs.setdefault(ast.dump(term.value), set()).add(term.attr)
                found.update((child.lineno, obj) for obj, names in attrs.items() if names == {"mu", "nu"})
            visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(found)


def test_the_circle_degree_is_spelled_once():
    # deg(A^k a^mu b^nu) = mu + nu is SphereMonomial.deg; a sum of the two
    # exponents of one monomial anywhere else re-spells it
    assert [line for line, _ in _circle_degree_sums("d = (m.mu + m.nu) // N\n")] == [1]
    assert [line for line, _ in _circle_degree_sums("x = 1\nd = mm[0].mu + N * k + mm[0].nu\n")] == [2]
    assert _circle_degree_sums("mu = m1.mu + m2.nu\nd = mu + nu\n") == []
    qalgebras = (SRC / "qalgebras.py").read_text()
    assert "return self.mu + self.nu" in qalgebras
    offenders = [
        f"{path.name}:{line}" for path in sorted(SRC.glob("*.py")) for line, _ in _circle_degree_sums(path.read_text())
    ]
    assert not offenders, offenders


def _unused_imports(source):
    """The names that ``source`` imports and never references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({alias.asname or alias.name: node.lineno for alias in node.names})
        elif isinstance(node, ast.Import):
            imported.update({(alias.asname or alias.name).split(".")[0]: node.lineno for alias in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{line}: {name}" for name, line in imported.items() if name not in used)


def test_every_import_is_used():
    # __init__.py re-exports what it imports, so it is exempt
    planted = "from typing import Dict, List\nimport os.path\n\ndef f(x: List[int]) -> int:\n    return len(x)\n"
    assert _unused_imports(planted) == ["1: Dict", "2: os"]
    assert _unused_imports("from __future__ import annotations\nimport sys\nsys.exit()\n") == []
    offenders = [
        f"{path.name}:{found}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for found in _unused_imports(path.read_text())
    ]
    assert not offenders, offenders


ROOT = SRC.parent.parent
CALLERS = ("src", "tests", "demos", "perfbench")


def _defaulted_parameters(source):
    """(line, names, parameter, position) for every defaulted parameter of a
    function in ``source``: the names a call may use for the function (a
    class's ``__init__`` also goes by the class's name), and the position
    counted from the first argument a call passes (after ``self`` or
    ``cls``), None for a keyword-only parameter."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                decorators = {getattr(d, "id", None) for d in child.decorator_list}
                bound = cls is not None and "staticmethod" not in decorators
                names = (child.name, cls.name) if cls is not None and child.name == "__init__" else (child.name,)
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], first):
                    found.append((child.lineno, names, arg.arg, i - bound))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((child.lineno, names, arg.arg, None))
                visit(child, None)
                continue
            visit(child, cls)

    visit(ast.parse(source), None)
    return found


def _called_name(func):
    return getattr(func, "id", getattr(func, "attr", None))


def _parameter_settings(source):
    """(function name, positional count, keyword names) for every call in
    ``source``, a call through ``functools.partial`` included.  A ``*args``
    counts as every position and a ``**kwargs`` as every keyword."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name, args = _called_name(node.func), node.args
        if name == "partial" and args:
            name, args = _called_name(args[0]), args[1:]
        if name is None:
            continue
        count = float("inf") if any(isinstance(a, ast.Starred) for a in args) else len(args)
        keywords = {k.arg for k in node.keywords}
        found.append((name, count, None if None in keywords else keywords))
    return found


def _unset_defaults(sources, callers):
    settings = {}
    for source in callers:
        for name, count, keywords in _parameter_settings(source):
            settings.setdefault(name, []).append((count, keywords))

    def is_set(names, param, position):
        return any(
            keywords is None or param in keywords or (position is not None and count > position)
            for name in names
            for count, keywords in settings.get(name, ())
        )

    return sorted(
        f"{label}:{line}: {names[-1]}({param}=...)"
        for label, source in sources
        for line, names, param, position in _defaulted_parameters(source)
        if not is_set(names, param, position)
    )


def test_every_defaulted_parameter_is_set_by_some_call():
    # a default that no call overrides is a constant dressed as an option
    planted = (
        "def f(x, y=1, *, z=2):\n    pass\n"
        "class C:\n    def __init__(self, a=0):\n        pass\n    def m(self, b=3):\n        pass\n"
    )
    assert _unset_defaults([("p", planted)], []) == [
        "p:1: f(y=...)", "p:1: f(z=...)", "p:4: C(a=...)", "p:6: m(b=...)"
    ]
    assert _unset_defaults([("p", planted)], ["f(0, 1, z=2)\nC(1)\nc.m(**kw)\n"]) == []
    assert _unset_defaults([("p", planted)], ["g = partial(f, z=5)\nc.m()\nf(0)\n"]) == [
        "p:1: f(y=...)", "p:4: C(a=...)", "p:6: m(b=...)"
    ]
    assert "p:4: C(a=...)" not in _unset_defaults([("p", planted)], ["super().__init__(1)\n"])
    callers = [path.read_text() for folder in CALLERS for path in sorted((ROOT / folder).rglob("*.py"))]
    sources = [(path.name, path.read_text()) for path in sorted(SRC.glob("*.py"))]
    offenders = _unset_defaults(sources, callers)
    assert not offenders, offenders


# the only loops in the package that multiply an accumulator by a fixed
# name: the one signed power, and two tables of powers that a power per
# entry would rebuild from the start (each measured)
POWER_LOOPS = {"scalars.LinComb.pow_signed", "qalgebras.kappa_iso.image", "principal._connection_of_powers"}


def _multiplies_by_a_name(node):
    """Whether ``node`` is ``acc = acc * g``, ``acc = g * acc``, ``acc *= g``,
    ``seq.append(seq[-1] * g)`` or ``seq.append(g * seq[-1])``, g a name."""
    if isinstance(node, ast.AugAssign):
        return isinstance(node.op, ast.Mult) and isinstance(node.value, ast.Name)
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        acc, value = ast.unparse(node.targets[0]), node.value
    elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "append" and len(node.args) == 1:
        acc, value = f"{ast.unparse(node.func.value)}[-1]", node.args[0]
    else:
        return False
    if not (isinstance(value, ast.BinOp) and isinstance(value.op, ast.Mult)):
        return False
    sides = (value.left, value.right)
    return any(ast.unparse(a) == acc and isinstance(b, ast.Name) for a, b in (sides, sides[::-1]))


def _power_loops(source):
    """The functions (``Class.name``, a nested one as ``outer.inner``) of
    ``source`` with a loop that multiplies an accumulator by a fixed name."""
    found = set()

    def visit(node, scope, looped):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name, False)
                continue
            if looped and _multiplies_by_a_name(child):
                found.add(scope or "<module>")
            visit(child, scope, looped or isinstance(child, (ast.For, ast.While)))

    visit(ast.parse(source), "", False)
    return found


def test_one_list_of_loops_that_multiply_by_a_fixed_name():
    # a power is pow_signed: a new hand loop re-derives it, unless it builds
    # a table whose cost was measured, and then it joins the list
    assert _power_loops("def f(g, n):\n    acc = 1\n    for _ in range(n):\n        acc = acc * g\n") == {"f"}
    assert _power_loops("class C:\n    def f(self, s):\n        while s:\n            s.append(self * s[-1])\n") == {
        "C.f"
    }
    assert _power_loops("def f(g):\n    def h(a):\n        for _ in a:\n            a = g * a\n") == {"f.h"}
    assert _power_loops("for _ in r:\n    t[0] *= g\n") == {"<module>"}
    missed = (
        "def f(g, s):\n    acc = acc * g\n    for _ in s:\n        acc = acc * h(g)\n"
        "        acc = acc + g\n        s.append(s[-2] * g)\n        acc = b * g\n"
    )
    assert _power_loops(missed) == set()
    found = {
        f"{path.stem}.{scope}" for path in sorted(SRC.glob("*.py")) for scope in _power_loops(path.read_text())
    }
    assert found == POWER_LOOPS, sorted(found ^ POWER_LOOPS)


# the only places that empty the run-scoped memo tables: a full run after each
# suite, and the lens suite after each type; an engine or lens path that
# emptied them would cost library callers (and lens-warm) their memo hits
MEMO_CLEARERS = {"suites.run_suite", "suites.suite_lens"}


def _callers(source, name):
    """The functions (``Class.name``, a nested one as ``outer.inner``) of
    ``source`` that call ``name``, by name or as an attribute."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call) and name in (
                getattr(child.func, "id", None),
                getattr(child.func, "attr", None),
            ):
                found.add(scope or "<module>")
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_one_list_of_places_that_empty_the_run_memos():
    def clearers(source):
        return _callers(source, "clear_run_memos")

    assert clearers("def f():\n    clear_run_memos()\n") == {"f"}
    assert clearers("class C:\n    def f(self):\n        scalars.clear_run_memos()\n") == {"C.f"}
    assert clearers("def f():\n    def g():\n        for _ in r:\n            clear_run_memos()\n") == {"f.g"}
    assert clearers("clear_run_memos()\n") == {"<module>"}
    assert clearers("def f():\n    clear = clear_run_memos\n    clear_run_memos\n    clear_memos()\n") == set()
    found = {
        f"{path.stem}.{scope}"
        for path in sorted(SRC.glob("*.py"))
        for scope in _callers(path.read_text(), "clear_run_memos")
    }
    assert found == MEMO_CLEARERS, sorted(found ^ MEMO_CLEARERS)


# each vocabulary, by the module that keeps its one table: the keys are
# spelled in the table and nowhere else in the package, save in the lens
# basis families, which name generators of the lens vocabulary
VOCABULARIES = {"SPHERE_RELATIONS": "qalgebras.py", "LENS_GENERATORS": "lens.py"}
SPELLING_TABLES = set(VOCABULARIES) | {"_FAMILIES"}


def _assigned_name(node):
    """The name a module-level assignment binds, or None."""
    if isinstance(node, ast.AnnAssign):
        return getattr(node.target, "id", None)
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        return getattr(node.targets[0], "id", None)
    return None


def _table_keys(source, name):
    """The keys of the dict literal that ``source`` binds to ``name``."""
    (table,) = [node.value for node in ast.parse(source).body if _assigned_name(node) == name]
    return {key.value for key in table.keys}


def _vocabulary_spellings(source, keys):
    """(line, key) for every string constant of ``source`` equal to one of
    ``keys``, outside the tables that may spell them."""
    tree = ast.parse(source)
    allowed = {
        id(inner) for node in tree.body if _assigned_name(node) in SPELLING_TABLES for inner in ast.walk(node)
    }
    return sorted(
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in keys
        and id(node) not in allowed
    )


def test_each_vocabulary_key_is_spelled_once():
    # a relation id or a lens generator spelled outside its table re-lists
    # the table, which then no longer says what the package checks or prints
    planted = 'LENS_GENERATORS = {"k": 1}\n_FAMILIES = {0: ("k",)}\ndef f():\n    return g("k", "kk")\n'
    assert _table_keys(planted, "LENS_GENERATORS") == {"k"}
    assert _vocabulary_spellings(planted, {"k"}) == [(4, "k")]
    keys = set()
    for name, module in VOCABULARIES.items():
        keys |= _table_keys((SRC / module).read_text(), name)
    assert {"heegard:ab", "core:Bstar", "A'", "bt'"} <= keys
    offenders = [
        f"{path.name}:{line}: {key}"
        for path in sorted(SRC.glob("*.py"))
        for line, key in _vocabulary_spellings(path.read_text(), keys)
    ]
    assert not offenders, offenders
