"""Parser, printer, command surface, exit codes and report determinism."""

import hashlib
import json

import pytest

from heegaard.cli import main
from heegaard.expr import ParseError, eval_normal_form, parse
from heegaard.reports import Report, CheckEntry


def test_parse_examples():
    ast = parse("a b* + p^-1 A", "sphere")
    assert len(ast.terms) == 2
    sign, factors = ast.terms[0]
    assert sign == 1 and [f.atom for f in factors] == ["a", "b"]
    assert factors[1].star
    ast = parse("z'^2 at'", "lens")
    (sign, factors), = ast.terms
    assert [f.atom for f in factors] == ["z'", "at'"]
    assert factors[0].power == 2
    with pytest.raises(ParseError):
        parse("c ^", "sphere")
    with pytest.raises(ParseError):
        parse("a ^", "sphere")
    with pytest.raises(ParseError):
        parse("a + ", "sphere")
    with pytest.raises(ParseError):
        parse("x", "sphere")  # disc atom in the sphere dialect
    with pytest.raises(ParseError):
        parse("ut", "prolong")  # admitted by no dialect


def test_eval_examples():
    assert eval_normal_form("b a", "sphere") == "w^-2 a b"
    assert eval_normal_form("a* a", "sphere") == "1 - p A"
    assert eval_normal_form("A B", "sphere") == "0"
    assert eval_normal_form("a*^2", "sphere") == "a^-2"
    assert eval_normal_form("x* x", "disc") == "1 - p X"
    assert eval_normal_form("z'^2 at'", "lens", N=3) == "z'^2 at'"
    assert eval_normal_form("1 - 2 w^2 a b", "sphere") == "1 - 2*w^2 a b"
    assert eval_normal_form("u^2 a", "prolong") == "a u^2"


def test_star_binds_before_power():
    assert eval_normal_form("a*^2", "sphere") == eval_normal_form("a^-2", "sphere")
    # conjugation on the phase unit
    assert eval_normal_form("w*", "sphere") == "w^-1"
    assert eval_normal_form("p*", "sphere") == "p"


def test_print_parse_print_idempotent():
    cases = [
        ("a b* + p^-1 A", "sphere", None),
        ("b a", "sphere", None),
        ("1 - p^-1*w^2 A^2 b^-1", "sphere", None),
        ("x^3 X^2 - 5", "disc", None),
        ("z'^2 at' + B'^2", "lens", 3),
        ("a u^2 + z", "prolong", None),
        ("A b^2 a^-1 - w^3 B^4", "sphere", None),
    ]
    for text, dialect, N in cases:
        once = eval_normal_form(text, dialect, N)
        assert eval_normal_form(once, dialect, N) == once, (text, once)


def test_cli_nf_and_unit_check(capsys):
    assert main(["nf", "b a"]) == 0
    assert capsys.readouterr().out.strip() == "w^-2 a b"
    assert main(["mul", "b", "a"]) == 0
    assert capsys.readouterr().out.strip() == "w^-2 a b"
    assert main(["star", "a b*"]) == 0
    assert capsys.readouterr().out.strip() == "w^2 a^-1 b"
    assert main(["deg", "a + b^2"]) == 0
    assert capsys.readouterr().out.strip() == "{1, 2}"
    assert main(["unit-check", "w^2"]) == 0
    assert "unit: w^2" in capsys.readouterr().out
    assert main(["unit-check", "1 + A"]) == 0
    assert "non-unit" in capsys.readouterr().out
    assert main(["qpoly", "1"]) == 0
    assert capsys.readouterr().out.strip() == "-Y"


def test_cli_exit_codes(capsys, tmp_path):
    # known discrepancies are allowlisted
    assert main(["sconn", "--N", "3", "--variant", "printed"]) == 0
    capsys.readouterr()
    # strict mode counts them as failures
    assert main(["--strict", "sconn", "--N", "3", "--variant", "printed"]) == 1
    capsys.readouterr()
    # usage errors exit 2 via the argument parser
    with pytest.raises(SystemExit) as exc:
        main(["relcheck", "nosuchsuite"])
    assert exc.value.code == 2
    capsys.readouterr()
    # parse errors surface as exit 2
    assert main(["nf", "c ^"]) == 2
    capsys.readouterr()


def test_cli_json_deterministic(tmp_path, capsys):
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    assert main(["relcheck", "sconn", "--json", str(p1)]) == 0
    assert main(["relcheck", "sconn", "--json", str(p2)]) == 0
    capsys.readouterr()
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    payload = json.loads(b1)
    assert payload["command"] == "relcheck sconn"
    assert payload["seed"] == 24195
    statuses = {e["status"] for e in payload["entries"]}
    assert statuses <= {"pass", "fail", "known-discrepancy"}
    assert all(set(e) == {"id", "status", "residual", "paper_tag"} for e in payload["entries"])


def test_cli_seed_position(tmp_path, capsys):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    assert main(["--seed", "7", "relcheck", "qidentities", "--json", str(p1)]) == 0
    assert main(["relcheck", "qidentities", "--seed", "7", "--json", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(p1.read_bytes())["seed"] == 7


def test_random_element_print_parse_roundtrip():
    from heegaard.qalgebras import DISC, SPHERE
    from heegaard.lens import CORE_APRIME, CORE_BPRIME, LensElement, LensMonomial
    from heegaard.principal import ProlongElement
    from heegaard.rng import (
        SplitMix64,
        random_coefficient,
        random_sphere_element,
        random_sphere_monomial,
    )

    rng = SplitMix64(24195)
    for _ in range(200):
        r = random_sphere_element(rng, SPHERE, terms=3)
        text = str(r)
        assert eval_normal_form(text, "sphere") == text
    for _ in range(200):
        r = DISC.zero()
        for _ in range(3):
            r = r + DISC.monomial(rng.randint(0, 3), rng.randint(-4, 4), random_coefficient(rng))
        text = str(r)
        assert eval_normal_form(text, "disc") == text
    for _ in range(150):
        N = rng.randint(1, 4)
        t = LensElement(N)
        for _ in range(2):
            core = rng.choice((CORE_APRIME, CORE_BPRIME))
            k = rng.randint(1 if core == CORE_APRIME else 0, 3)
            t = t + LensElement(
                N,
                {LensMonomial(core, k, rng.randint(-3, 3), rng.randint(-3, 3)): random_coefficient(rng)},
            )
        text = str(t)
        assert eval_normal_form(text, "lens", N) == text
    for _ in range(150):
        t = ProlongElement(SPHERE)
        for _ in range(2):
            t = t + ProlongElement(
                SPHERE,
                {(random_sphere_monomial(rng, kmax=3, emax=4), rng.randint(-4, 4)): random_coefficient(rng)},
            )
        text = str(t)
        assert eval_normal_form(text, "prolong") == text


def test_report_exit_codes():
    rep = Report("x", 1, [CheckEntry("a", "pass", "0", "t")])
    assert rep.exit_code() == 0
    rep = Report("x", 1, [CheckEntry("a", "known-discrepancy", "r", "t")])
    assert rep.exit_code() == 0
    assert rep.exit_code(strict=True) == 1
    rep = Report("x", 1, [CheckEntry("a", "fail", "r", "t")])
    assert rep.exit_code() == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["sconn", "--N", "0"],
        ["sconn", "--N", "-1"],
        ["idem", "--N", "1"],
        ["ktheory", "--max", "0"],
        ["ktheory", "--N", "0"],
        ["bass", "--N", "0"],
        ["iso-check", "--N", "0"],
        ["prolong-check", "--N", "0"],
        ["nf", "z'", "--dialect", "lens", "--N", "0"],
        ["relcheck", "lens", "--types", "0"],
        ["relcheck", "lens", "--types", "2", "-3"],
        ["relcheck", "ktheory", "--max", "0"],
        ["relcheck", "sconn", "--nmax", "0"],
        ["relcheck", "lens", "--window", "0"],
        ["relcheck", "units", "--samples", "0"],
        ["iso-check", "--N", "2", "--window", "0"],
        ["iso-check", "--N", "2", "--window", "1", "--samples", "0"],
        ["prolong-check", "--N", "2", "--samples", "0"],
    ],
)
def test_cli_out_of_range_sizes_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be >=" in capsys.readouterr().err


def _canonical(data: bytes) -> bytes:
    return json.dumps(json.loads(data), sort_keys=True, separators=(",", ":")).encode() + b"\n"


def test_cli_extra_json_payloads(tmp_path, capsys):
    path = tmp_path / "sconn.json"
    assert main(["sconn", "--N", "3", "--variant", "printed", "--json", str(path)]) == 0
    data = path.read_bytes()
    assert data == _canonical(data)
    payload = json.loads(data)
    assert set(payload) == {"axioms", "command", "entries", "seed"}
    assert payload["command"] == "sconn --N 3 --variant printed"
    axioms = payload["axioms"]
    assert set(axioms) == {
        f"{axiom}[n={n}]"
        for n in range(3)
        for axiom in ("unit-return", "left-colinearity", "right-colinearity")
    } | {"unitality[n=0]"}
    # the printed coefficient fails only the unit-return axiom, from degree one on
    assert axioms["unit-return[n=1]"] == "class 1: p^-1 A - p A"
    assert [k for k, v in axioms.items() if v != "0"] == ["unit-return[n=1]", "unit-return[n=2]"]

    path = tmp_path / "ktheory.json"
    assert main(["ktheory", "--max", "4", "--json", str(path)]) == 0
    capsys.readouterr()
    data = path.read_bytes()
    assert data == _canonical(data)
    payload = json.loads(data)
    assert set(payload) == {"command", "entries", "groups", "seed"}
    assert payload["groups"] == [
        {"N": N, "K0": {"torsion": [N] if N > 1 else [], "rank": 1}, "K1": {"torsion": [], "rank": 1}}
        for N in range(1, 5)
    ]


def test_cli_relcheck_all_report_is_pinned(tmp_path, capsys):
    # the deterministic report of the full run, byte for byte: a change that
    # moves any verdict, residual, id or ordering changes this digest
    path = tmp_path / "all.json"
    assert main(["relcheck", "all", "--seed", "24195", "--json", str(path)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "021b154fb7542e5ae7d90a83b87b6ab30119edb7299d492d7997aa8f89191b4f"
