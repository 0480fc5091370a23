"""Acceptance criteria, one test per criterion, in order.

All checks are exact (residuals must be identically zero; expected
failures must match their recorded residuals verbatim).  Each test prints
one CRITERION line; canonical element strings produced along the way are
collected and replayed through the parser in the final criterion.
"""

import time

from heegaard.scalars import (
    ONE,
    p_pow,
    qbinomial,
    qpoly_Q,
    qpoly_Qpair,
    qpoly_rescale,
    QPoly,
)
from heegaard.qalgebras import CORE_B, DISC, SPHERE, SPHERE_RELATIONS, aaminus_residual, phase_power_residual
from heegaard.lens import basis_window_check, lens_relation_suite
from heegaard.units import deg_extreme, is_unit, verify_inverse
from heegaard.principal import (
    ProlongElement,
    associated_idempotent,
    idempotent_check,
    prolong_is_invariant,
    prolong_phi_inv,
    prolong_phi_map,
    strong_connection_algebraic,
    strong_connection_isometric,
    verify_strong_connection,
)
from heegaard.ktheory import AbelianGroup, bass_class_report, lens_k_groups
from heegaard.cli import main
from heegaard.expr import eval_normal_form
from heegaard.reports import FAIL, KNOWN, PASS
from heegaard.rng import SplitMix64, random_coefficient, random_sphere_element, random_sphere_monomial
from heegaard.suites import SuiteOptions, run_suite

SEED = 24195

# canonical forms collected while the criteria run; criterion 10 replays them
CANONICAL_FORMS = [("sphere", None, "0")]


def emit(dialect, elem, N=None) -> str:
    text = str(elem)
    CANONICAL_FORMS.append((dialect, N, text))
    return text


def report(num, ok, detail=""):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_k_groups():
    t0 = time.monotonic()
    ok = True
    for N in range(1, 51):
        res = lens_k_groups(N)
        expect_k0 = AbelianGroup((N,), 1) if N > 1 else AbelianGroup((), 1)
        if res.ambiguous or res.k0 != expect_k0 or res.k1 != AbelianGroup((), 1):
            ok = False
    elapsed = time.monotonic() - t0
    report(1, ok and elapsed < 1.0, f"N=1..50 in {elapsed:.3f}s")


def test_criterion_02_relation_suites():
    t0 = time.monotonic()
    failures = []
    for rid, rule in SPHERE_RELATIONS.items():
        if emit("sphere", rule(SPHERE)) != "0":
            failures.append(rid)
    for n in range(1, 7):
        if emit("sphere", aaminus_residual(n)) != "0":
            failures.append(f"aaminus[{n}]")
    a, b = SPHERE.a(), SPHERE.b()
    for mu in range(-6, 7):
        for pair, y, phase_exp in (("ab", b, 2), ("abstar", b.star(), -2)):
            if emit("sphere", phase_power_residual(a, y, phase_exp, mu)) != "0":
                failures.append(f"chlemma:{pair}[{mu}]")
    for N in (1, 2, 3, 5, 7):
        for e in lens_relation_suite(N, window=6):
            if e.status == FAIL:
                failures.append(f"{e.id}[N={N}]: {e.residual}")
            if e.id == "lense.e:printed-b":
                expected = PASS if N == 1 else KNOWN
                if e.status != expected:
                    failures.append(f"{e.id}[N={N}] flagged {e.status}, expected {expected}")
    elapsed = time.monotonic() - t0
    report(2, not failures and elapsed < 30.0, f"{elapsed:.1f}s" + ("; " + "; ".join(failures[:3]) if failures else ""))


def test_criterion_03_q_identities():
    t0 = time.monotonic()
    ok = True
    for n in range(1, 21):
        for m in range(1, n + 1):
            if qbinomial(n + 1, m) != qbinomial(n, m) + p_pow(n + 1 - m) * qbinomial(n, m - 1):
                ok = False
    one, y = QPoly({0: ONE}), QPoly({1: ONE})
    for n in range(1, 13):
        if qpoly_Q(n + 1, "p") != (one - y) * qpoly_rescale(qpoly_Q(n, "p"), -1) - y:
            ok = False
        if qpoly_Q(-(n + 1), "p") != (one - y * p_pow(1)) * qpoly_rescale(
            qpoly_Q(-n, "p"), 1
        ) - y * p_pow(1):
            ok = False
    for m in range(1, 13):
        qm = qpoly_Q(m, "p")
        for n in range(1, 13):
            if qpoly_Q(m + n, "p") != (one + qm) * qpoly_rescale(qpoly_Q(n, "p"), -m) + qm:
                ok = False
    d = DISC
    for mu in range(-8, 9):
        rhs = d.one()
        for deg, c in qpoly_Q(mu, "p").items():
            rhs = rhs + d.X(deg).scale(c)
        if d.x(1).pow_signed(mu) * d.x(1).pow_signed(-mu) != rhs:
            ok = False
        for nu in range(-8, 9):
            rhs = d.one()
            for deg, c in qpoly_Qpair(mu, nu, "p").items():
                rhs = rhs + d.X(deg).scale(c)
            rhs = rhs * d.x(1).pow_signed(mu + nu)
            lhs = d.x(1).pow_signed(mu) * d.x(1).pow_signed(nu)
            emit("disc", lhs)
            if lhs != rhs:
                ok = False
    elapsed = time.monotonic() - t0
    report(3, ok and elapsed < 10.0, f"{elapsed:.1f}s")


def test_criterion_04_engine_soundness():
    rng = SplitMix64(SEED)
    bad = 0
    for _ in range(1000):
        r = random_sphere_element(rng, SPHERE, terms=1, kmax=4, emax=5)
        s = random_sphere_element(rng, SPHERE, terms=1, kmax=4, emax=5)
        t = random_sphere_element(rng, SPHERE, terms=1, kmax=4, emax=5)
        if (r * s) * t != r * (s * t):
            bad += 1
        if (r * s).star() != s.star() * r.star() or r.star().star() != r:
            bad += 1
        prod = r * s
        minkowski = {dr + ds for dr in r.degree_support() for ds in s.degree_support()}
        if not prod.degree_support() <= minkowski:
            bad += 1
        if any(m.core == CORE_B and m.k < 1 for m, _ in prod.terms()):
            bad += 1
    emit("sphere", prod)
    report(4, bad == 0, f"1000 seeded triples, {bad} failures")


def test_criterion_05_basis_isomorphism_window():
    t0 = time.monotonic()
    entries = basis_window_check(3, 3, samples=500, seed=SEED)
    ok = all(e.ok for e in entries)
    elapsed = time.monotonic() - t0
    report(5, ok and elapsed < 30.0, f"iso-check --N 3 --window 3 in {elapsed:.1f}s")


def test_criterion_06_strong_connection_and_idempotent():
    ok = True
    for N in range(1, 8):
        for conn in (
            strong_connection_algebraic(N, "corrected"),
            strong_connection_isometric(N),
        ):
            if not all(c.ok for c in verify_strong_connection(conn)):
                ok = False
    for N in range(2, 8):
        E = associated_idempotent(strong_connection_algebraic(N, "corrected"), 1)
        chk = idempotent_check(E, N)
        if not (chk.idempotent and chk.invariant):
            ok = False
        for row in E:
            for entry in row:
                emit("sphere", entry)
    # the printed coefficient must fail with exactly the recorded residuals
    printed = strong_connection_algebraic(3, "printed_p_inverse")
    classes = printed.values[1].legs_multiplied_by_class(3)
    axiom1_residual = classes[1] - SPHERE.one()
    expected1 = SPHERE.A().scale(p_pow(-1) - p_pow(1))
    if emit("sphere", axiom1_residual) != emit("sphere", expected1):
        ok = False
    Ep = associated_idempotent(printed, 1)
    chkp = idempotent_check(Ep, 3)
    if chkp.idempotent:
        ok = False
    top_left = (Ep * Ep)[0][0] - Ep[0][0]
    expected2 = (SPHERE.A() - SPHERE.A() * SPHERE.A()).scale(p_pow(-2) - ONE)
    if emit("sphere", top_left) != emit("sphere", expected2):
        ok = False
    # and the suites flag rather than fail them
    opts = SuiteOptions(seed=SEED, nmax=3)
    rep = run_suite("sconn", opts)
    flagged = {e.id for e in rep.entries if e.status == KNOWN}
    if not any("printed" in f for f in flagged) or any(e.status == FAIL for e in rep.entries):
        ok = False
    report(6, ok, "corrected/isometric pass, printed variants flagged with exact residuals")


def test_criterion_07_bass():
    t0 = time.monotonic()
    ok = True
    for N in (1, 2, 3, 5):
        rep = bass_class_report(N)
        if not (rep.matrix_identity and rep.valid_pullback_pair):
            ok = False
        if rep.torsion_order != (N if N > 1 else 1):
            ok = False
        if not all(e.ok for e in rep.entries):
            ok = False
    elapsed = time.monotonic() - t0
    report(7, ok and elapsed < 5.0, f"N in {{1,2,3,5}} in {elapsed:.2f}s")


def test_criterion_08_units():
    rng = SplitMix64(SEED)
    ok = True
    for _ in range(100):
        from heegaard.scalars import Coefficient

        c = Coefficient.monomial(
            rng.choice((1, -1)), rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)
        )
        got = is_unit(SPHERE.scalar(c))
        if got != c or not verify_inverse(SPHERE.scalar(c), SPHERE.scalar(c.unit_inverse())):
            ok = False
    nonscalars = 0
    while nonscalars < 500:
        r = random_sphere_element(rng, SPHERE, terms=rng.randint(1, 3))
        items = list(r.terms())
        if len(items) == 1 and items[0][0].k == 0 and items[0][0].mu == 0 and items[0][0].nu == 0:
            continue
        if is_unit(r) is not None:
            ok = False
        nonscalars += 1
    emit("sphere", r)
    qualifying = 0
    while qualifying < 500:
        r = random_sphere_element(rng, SPHERE, terms=2, kmax=3, emax=4)
        t = random_sphere_element(rng, SPHERE, terms=2, kmax=3, emax=4)
        try:
            checks = [
                (
                    deg_extreme(r, side, which),
                    deg_extreme(t, side, which),
                    deg_extreme(r * t, side, which),
                )
                for side in ("A", "B")
                for which in ("max", "min")
            ]
        except ValueError:
            continue
        for er, et, ep in checks:
            if ep != (er[0] + et[0], er[1] + et[1]):
                ok = False
        qualifying += 1
    report(8, ok, "scalars certified, 500 non-scalars rejected, 500 additivity pairs")


def test_criterion_09_prolongation():
    ok = True
    for N in (2, 3):
        rng = SplitMix64(SEED + N)
        for _ in range(300):
            mono = random_sphere_monomial(rng, kmax=3, emax=4)
            x = ProlongElement(SPHERE, {(mono, rng.randint(-4, 4)): random_coefficient(rng)})
            if prolong_phi_inv(prolong_phi_map(x, N), N) != x:
                ok = False
            if not prolong_is_invariant(prolong_phi_map(x, N), N):
                ok = False
            mono2 = random_sphere_monomial(rng, kmax=3, emax=4)
            y = ProlongElement(SPHERE, {(mono2, rng.randint(-4, 4)): random_coefficient(rng)})
            if prolong_phi_map(x * y, N) != prolong_phi_map(x, N) * prolong_phi_map(y, N):
                ok = False
        emit("prolong", prolong_phi_map(x, N))
    report(9, ok, "300 samples per type, roundtrip/multiplicativity/invariance")


def test_criterion_10_cli(tmp_path, capsys):
    ok = True
    checked = 0
    for dialect, N, text in CANONICAL_FORMS:
        once = eval_normal_form(text, dialect, N)
        if once != text:
            ok = False
        checked += 1
    # deterministic JSON under a fixed seed
    opts = SuiteOptions(seed=SEED, nmax=4, lens_types=(1, 2), window=3, samples=200, kmax=10)
    b1 = run_suite("sconn", opts).to_json_bytes()
    b2 = run_suite("sconn", opts).to_json_bytes()
    if b1 != b2:
        ok = False
    # exit-code contract
    if main(["ktheory", "--max", "5"]) != 0:
        ok = False
    if main(["sconn", "--N", "2", "--variant", "printed"]) != 0:
        ok = False
    if main(["--strict", "sconn", "--N", "2", "--variant", "printed"]) != 1:
        ok = False
    try:
        main(["relcheck", "nosuchsuite"])
        ok = False
    except SystemExit as exc:
        if exc.code != 2:
            ok = False
    capsys.readouterr()
    report(10, ok, f"{checked} canonical forms roundtripped; JSON deterministic; exit codes 0/1/2")
