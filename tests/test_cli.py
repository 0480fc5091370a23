"""Parser, printer, command surface, exit codes and report determinism."""

import argparse
import hashlib
import json
import re
import sys

import pytest

from heegaard import cli, suites
from heegaard.cli import main
from heegaard.expr import ParseError, eval_normal_form, parse
from heegaard.reports import FAIL, PASS, CheckEntry, FirstFailures, Report
from heegaard.suites import SUITE_DEFAULTS


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


def test_first_failures_keep_the_first_message_per_check():
    failures = FirstFailures()
    failures.fail("a", "first")
    failures.fail("b", "other")
    failures.fail("a", "second")
    assert failures.get("a") == "first"
    assert failures.get("c") is None
    assert failures.entry("a", "t") == CheckEntry("a", FAIL, "first", "t")
    assert failures.entry("c", "t") == CheckEntry("c", PASS, "0", "t")
    # a counted check passes with its count, and fails when it inspected nothing
    assert failures.entry("c", "t", 3, "products") == CheckEntry("c", PASS, "3 products", "t")
    assert failures.entry("c", "t", 0, "products") == CheckEntry("c", FAIL, "0 products", "t")
    assert failures.entry("b", "t", 3, "products") == CheckEntry("b", FAIL, "other", "t")


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
    pins = {
        "24195": "021b154fb7542e5ae7d90a83b87b6ab30119edb7299d492d7997aa8f89191b4f",
        "1": "daee9d6badc1eb51701912abf913f63682615b71b2a25381f451e8b0a4721c4b",
    }
    for seed, expected in pins.items():
        path = tmp_path / f"all-{seed}.json"
        assert main(["relcheck", "all", "--seed", seed, "--json", str(path)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == expected, seed


def test_cli_iso_check_report_is_pinned(tmp_path, capsys):
    path = tmp_path / "iso.json"
    assert main(["iso-check", "--N", "3", "--window", "3", "--json", str(path)]) == 0
    capsys.readouterr()
    assert (
        hashlib.sha256(path.read_bytes()).hexdigest()
        == "934f6c28f01a1fbe51d6a4c348f5a5f481fcb44db386dcdcd25aa4f48071fdd3"
    )


def _checked_types(argv, tmp_path, capsys):
    """The lens types named in the entry ids of a relcheck report."""
    path = tmp_path / "types.json"
    assert main([*argv, "--json", str(path)]) == 0
    capsys.readouterr()
    ids = [e["id"] for e in json.loads(path.read_bytes())["entries"]]
    return sorted({int(i.split("[N=", 1)[1].split(",")[0].split("]")[0]) for i in ids})


@pytest.mark.parametrize(
    "suite, default, options",
    [
        ("iso", [3], ["--window", "1", "--samples", "2"]),
        ("prolong", [2, 3], ["--samples", "2"]),
        ("bass", [1, 2, 3, 5], []),
    ],
)
def test_cli_types_reach_iso_prolong_and_bass(suite, default, options, tmp_path, capsys):
    argv = ["relcheck", suite, *options]
    assert _checked_types(argv, tmp_path, capsys) == default
    assert _checked_types([*argv, "--types", "2", "7"], tmp_path, capsys) == [2, 7]


def test_cli_types_reach_sconn_and_idem(tmp_path, capsys):
    # --nmax sets the default range; --types names exactly the types checked
    assert _checked_types(["relcheck", "sconn"], tmp_path, capsys) == [1, 2, 3, 4, 5, 6, 7]
    assert _checked_types(["relcheck", "sconn", "--types", "5"], tmp_path, capsys) == [5]
    assert _checked_types(["relcheck", "idem", "--nmax", "3"], tmp_path, capsys) == [2, 3]
    argv = ["relcheck", "idem", "--types", "1", "3", "--nmax", "2"]
    assert _checked_types(argv, tmp_path, capsys) == [3]
    # idem starts at N = 2, so a type list below it checks nothing and fails
    assert main(["relcheck", "idem", "--types", "1"]) == 1
    assert capsys.readouterr().out.count("no lens type checked: N starts at 2") == 3


def test_cli_idem_with_no_lens_type_fails(capsys):
    # idem starts at N = 2: a range below it checks nothing and must say so
    assert main(["relcheck", "idem", "--nmax", "1"]) == 1
    out = capsys.readouterr().out
    assert out.count("no lens type checked: N starts at 2") == 3
    assert "0 passed, 3 failed" in out
    assert main(["relcheck", "idem", "--nmax", "2"]) == 0
    assert "[FAIL]" not in capsys.readouterr().out


def test_cli_idem_with_no_lens_type_keeps_each_variant_tag(tmp_path, capsys):
    path = tmp_path / "idem.json"
    assert main(["relcheck", "idem", "--nmax", "1", "--json", str(path)]) == 1
    capsys.readouterr()
    tags = {e["id"]: e["paper_tag"] for e in json.loads(path.read_bytes())["entries"]}
    assert tags == {
        "idem[corrected,nmax=1]": "algstrong",
        "idem[isometric,nmax=1]": "c*strong",
        "idem[printed_p_inverse,nmax=1]": "algstrong",
    }


def test_cli_relcheck_iso_honours_window_and_samples(tmp_path, capsys):
    path = tmp_path / "iso.json"
    assert main(["relcheck", "iso", "--window", "1", "--samples", "2", "--json", str(path)]) == 0
    entries = {e["id"]: e for e in json.loads(path.read_bytes())["entries"]}
    assert set(entries) == {
        f"iso:{name}[N=3,window=1]" for name in ("roundtrip", "independence", "homomorphism")
    }
    assert entries["iso:homomorphism[N=3,window=1]"]["residual"] == "2 product spot checks"
    # without the options the suite keeps its own window and sample count
    assert main(["relcheck", "iso", "--json", str(path)]) == 0
    capsys.readouterr()
    entries = {e["id"]: e for e in json.loads(path.read_bytes())["entries"]}
    assert entries["iso:homomorphism[N=3,window=3]"]["residual"] == "500 product spot checks"


def test_cli_reads_suite_sizes_from_the_suites_table(monkeypatch, tmp_path, capsys):
    # one table sets the suite defaults, the iso-check defaults and the help text
    monkeypatch.setitem(SUITE_DEFAULTS, "iso", {"window": 1, "lens_types": (2,), "samples": 2})
    path = tmp_path / "iso.json"
    for argv in (["iso-check", "--N", "2"], ["relcheck", "iso"]):
        assert main([*argv, "--json", str(path)]) == 0
        payload = json.loads(path.read_bytes())
        residuals = {e["id"]: e["residual"] for e in payload["entries"]}
        assert residuals["iso:homomorphism[N=2,window=1]"] == "2 product spot checks"
    assert "== iso-check --N 2 --window 1 " in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["relcheck", "--help"])
    assert "iso 1" in capsys.readouterr().out


def test_cli_prolong_honours_samples(monkeypatch, capsys):
    from heegaard import suites

    calls = []
    real = suites.prolong_phi
    monkeypatch.setattr(suites, "prolong_phi", lambda *a: calls.append(a) or real(*a))
    assert main(["relcheck", "prolong", "--samples", "2"]) == 0
    assert len(calls) == 2 * 2  # two samples for each of the types 2 and 3
    calls.clear()
    assert main(["prolong-check", "--N", "5", "--samples", "1"]) == 0
    assert len(calls) == 1
    calls.clear()
    assert main(["relcheck", "prolong"]) == 0
    capsys.readouterr()
    assert len(calls) == 2 * 300


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def test_cli_sphere_units_ktheory_honour_samples(monkeypatch, capsys):
    from heegaard import suites

    draws = _count_calls(monkeypatch, suites, "random_sphere_element")
    # three sphere elements per triple, k triples; the floor of 1000 is gone
    assert main(["relcheck", "sphere", "--samples", "10"]) == 0
    assert len(draws) == 3 * 10
    draws.clear()
    assert main(["relcheck", "sphere"]) == 0
    assert len(draws) == 3 * 1000

    # units checks ceil(k/2) pairs per sampled loop: --samples 1 and 2 agree,
    # 3 checks one pair more, and every count stays below the default's
    counts = {}
    for argv in (["--samples", "1"], ["--samples", "2"], ["--samples", "3"], []):
        draws.clear()
        assert main(["relcheck", "units", *argv]) == 0
        counts[tuple(argv)] = len(draws)
    assert counts[("--samples", "1")] == counts[("--samples", "2")]
    assert counts[("--samples", "2")] < counts[("--samples", "3")] < counts[()]

    # one Smith normal form per random matrix (the K-groups call their own)
    snf = _count_calls(monkeypatch, suites, "smith_normal_form")
    for argv, expected in ((["--samples", "1"], 1), (["--samples", "10"], 10), ([], 1000)):
        snf.clear()
        assert main(["relcheck", "ktheory", "--max", "2", *argv]) == 0
        assert len(snf) == expected
    capsys.readouterr()


def test_cli_reports_a_failed_closed_form_check(monkeypatch, capsys):
    from heegaard import scalars

    # cold contraction-polynomial state, and a closed form off by t at index 2
    monkeypatch.setattr(scalars, "_QPOLY_MEMO", {})
    monkeypatch.setattr(scalars, "_QPOLY_CHECKED", {False: 0, True: 0})
    real = scalars._closed_rows

    def shifted(row, n, inverse):
        return [(v, low + int(n == 2)) for v, low in real(row, n, inverse)]

    monkeypatch.setattr(scalars, "_closed_rows", shifted)
    assert main(["qpoly", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: internal check failed: closed form and recursion disagree at index 2\n"
    )
    assert "Traceback" not in captured.out + captured.err


def test_cli_reports_a_failed_lens_preimage_check(monkeypatch, capsys):
    from heegaard import lens
    from heegaard.scalars import clear_run_memos

    # basis images doubled: the lead of a preimage is no longer a ring unit;
    # cleared through the registry, so no preimage is read from the memo
    clear_run_memos()
    real = lens._basis_image
    monkeypatch.setattr(lens, "_basis_image", lambda N, m: real(N, m).scale(2))
    assert main(["mul", "--dialect", "lens", "--N", "2", "z'", "z'"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: internal check failed: image coefficient 2")
    assert "is not a ring unit" in err


def test_cli_exponent_beyond_the_ring_is_a_usage_error(capsys):
    assert main(["nf", "p^600000"]) == 2
    assert "outside the supported range" in capsys.readouterr().err
    # a product whose exponents add up past the range
    assert main(["mul", "q^300000 a", "q^300000 b"]) == 2
    assert "exponent 600000 is outside the supported range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, pos",
    [("2^-1", 0), ("0^-1", 0), ("a 3^-2", 2), ("7*^-1 b", 0)],
)
def test_cli_literal_without_inverse_is_a_usage_error(text, pos, capsys):
    # a literal other than 1 has no inverse: a usage error at the literal
    assert main(["nf", text]) == 2
    err = capsys.readouterr().err
    assert "has no inverse" in err and err.rstrip().endswith(f"(at position {pos})")


def test_literal_one_keeps_its_inverse():
    assert eval_normal_form("1^-1 a", "sphere") == "a"
    assert eval_normal_form("2^3 a*^2", "sphere") == "8 a^-2"


def _sha16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize(
    "argv, json_digest, stdout_digest",
    [
        (["sconn", "--N", "3", "--variant", "printed"], "fa838d58efd41de6", "0cded5cb9e67fcaa"),
        (["sconn", "--N", "3", "--variant", "isometric"], "af64605b7643cc0f", "48d9454255a78257"),
        (["idem", "--N", "3"], "ebb970708a5f9528", "5b97ecf746aed201"),
        (["idem", "--N", "4", "--variant", "printed"], "95fd7864bb726bd1", "11860dbbfafcf5ad"),
        (["bass", "--N", "3"], "5ac40f7e2b5195ec", "58dde3eae2641d05"),
        (["ktheory", "--max", "6"], "2071bf75b214934a", "65067c3b2830ad9a"),
        (["ktheory", "--N", "5"], "b6eec7c3a0c63409", "11c4156ee3fe8cef"),
        (["prolong-check", "--N", "2", "--samples", "20"], "7711054eeadee2a1", "2ef5a7d57ff07335"),
        (
            ["iso-check", "--N", "2", "--window", "1", "--samples", "5"],
            "863476ca99c19dc2",
            "6991d561d8657bd9",
        ),
    ],
)
def test_cli_report_commands_are_pinned(argv, json_digest, stdout_digest, tmp_path, capsys):
    # the JSON report byte for byte, and the printed report with its elapsed time masked
    path = tmp_path / "report.json"
    assert main([*argv, "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert _sha16(path.read_bytes()) == json_digest
    assert _sha16(re.sub(r"\d+\.\d+s\)", "T)", out).encode()) == stdout_digest


# nf of each atom g, of g* and of g^-2, by dialect (the lens dialect at N = 3);
# the long bt' forms are pinned by the first 16 hex digits of their sha256
DIALECT_ATOM_FORMS = {
    ("disc", "x"): ("x", "x^-1", "x^-2"),
    ("disc", "X"): ("X", "X", "X^2"),
    ("sphere", "a"): ("a", "a^-1", "a^-2"),
    ("sphere", "b"): ("b", "b^-1", "b^-2"),
    ("sphere", "A"): ("A", "A", "A^2"),
    ("sphere", "B"): ("B", "B", "B^2"),
    ("sphere", "z"): ("a b^-1", "w^2 a^-1 b", "w^6 a^-2 b^2"),
    ("sphere", "p"): ("p", "p", "p^-2"),
    ("sphere", "q"): ("q", "q", "q^-2"),
    ("sphere", "w"): ("w", "w^-1", "w^-2"),
    ("lens", "A'"): ("A'", "A'", "A'^2"),
    ("lens", "B'"): ("B'", "B'", "B'^2"),
    ("lens", "z'"): ("z'", "z'^-1", "z'^-2"),
    ("lens", "at'"): ("at'", "at'^-1", "at'^-2"),
    ("lens", "bt'"): ("sha:ebbe2675195cbeaa", "sha:aa3fd59667d601bb", "sha:6bdee542a587c7a5"),
    ("prolong", "a"): ("a", "a^-1", "a^-2"),
    ("prolong", "b"): ("b", "b^-1", "b^-2"),
    ("prolong", "A"): ("A", "A", "A^2"),
    ("prolong", "B"): ("B", "B", "B^2"),
    ("prolong", "z"): ("a b^-1", "w^2 a^-1 b", "w^6 a^-2 b^2"),
    ("prolong", "u"): ("u", "u^-1", "u^-2"),
}


def test_every_dialect_atom_is_pinned(capsys):
    for (dialect, atom), forms in DIALECT_ATOM_FORMS.items():
        for text, expected in zip((atom, f"{atom}*", f"{atom}^-2"), forms):
            argv = ["nf", text, "--dialect", dialect] + (["--N", "3"] if dialect == "lens" else [])
            assert main(argv) == 0
            got = capsys.readouterr().out.rstrip("\n")
            if expected.startswith("sha:"):
                got = "sha:" + _sha16(got.encode())
            assert got == expected, (dialect, text)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["nf", "z'"], """atom "z'" is not available in the sphere dialect (at position 0)"""),
        (["nf", "u"], "atom 'u' is not available in the sphere dialect (at position 0)"),
        (["nf", "x", "--dialect", "prolong"], "atom 'x' is not available in the prolong dialect (at position 0)"),
        (["nf", "a", "--dialect", "lens", "--N", "3"], "atom 'a' is not available in the lens dialect (at position 0)"),
        (["nf", "at'", "--dialect", "disc"], """atom "at'" is not available in the disc dialect (at position 0)"""),
    ],
)
def test_atom_outside_its_dialect_is_a_usage_error(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_choices_read_the_tables():
    from heegaard.expr import DIALECTS
    from heegaard.principal import CONNECTION_VARIANTS

    # every atom of every dialect is pinned above
    atoms = {(d, g) for d, spec in DIALECTS.items() for g in spec.atoms}
    assert atoms | {("sphere", c) for c in "pqw"} == set(DIALECT_ATOM_FORMS)
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    choices = {
        name: {a.dest: a.choices for a in command._actions} for name, command in sub.choices.items()
    }
    for name in ("nf", "mul", "star"):
        assert choices[name]["dialect"] == tuple(DIALECTS)
    for name in ("sconn", "idem"):
        assert list(choices[name]["variant"]) == [v.cli for v in CONNECTION_VARIANTS.values()]
    by_spelling = [cli._VARIANT_BY_SPELLING[c] for c in choices["sconn"]["variant"]]
    assert by_spelling == list(CONNECTION_VARIANTS.values())


def _count_everywhere(monkeypatch, fn):
    """Count the calls of ``fn`` through every heegaard module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("heegaard"):
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, counted)
    return calls


def test_bass_computes_its_certificate_once(monkeypatch, capsys):
    from heegaard import ktheory

    reports = _count_everywhere(monkeypatch, ktheory.bass_class_report)
    groups = _count_everywhere(monkeypatch, ktheory.lens_k_groups)
    assert main(["bass", "--N", "3"]) == 0
    assert "class order (from the torsion of K0): 3" in capsys.readouterr().out
    assert len(reports) == 1
    assert len(groups) == 1


def test_failed_bass_self_check_keeps_every_entry(monkeypatch, tmp_path, capsys):
    from heegaard import ktheory

    def run_all():
        path = tmp_path / "all.json"
        code = main(["relcheck", "all", "--samples", "2", "--json", str(path)])
        return code, json.loads(path.read_bytes())["entries"]

    clean_code, clean = run_all()
    bass_ids = {e.id for e in suites.run_suite("bass", suites.SuiteOptions()).entries}
    # shifted pullback phases: the lifting self-check of the connecting idempotent fails
    real = ktheory.w_pow
    monkeypatch.setattr(ktheory, "w_pow", lambda e: real(e + 1))
    code, faulted = run_all()
    assert (clean_code, code) == (0, 1)
    assert [e["id"] for e in faulted] == [e["id"] for e in clean]
    message = "leg projection of d does not equal the given matrix"
    for old, new in zip(clean, faulted):
        if old["id"] not in bass_ids:
            assert new == old
        elif old["id"].startswith(("bass:block-matrix", "bass:complement-identity")):
            assert (new["status"], new["residual"]) == (FAIL, message)
    capsys.readouterr()
    # the bass command says the idempotent was not built, and reports every entry
    assert main(["bass", "--N", "3"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == f"connecting idempotent for the canonical class (type N=3) not built: {message}"
    assert lines[1] == "== bass --N 3 (seed 24195)"
    assert lines[-1].startswith("  -- 1 passed, 8 failed, 0 known discrepancies")
    assert captured.err == "" and "Traceback" not in captured.out
