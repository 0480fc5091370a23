"""Deterministic verification suites behind the command surface.

Each suite returns a list of check entries; randomized populations are
driven by the seedable portable generator, so a fixed seed fixes every
residual byte-for-byte.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .scalars import (
    Coefficient,
    EvaluationError,
    ONE,
    p_pow,
    qbinomial,
    qpoly_Q,
    qpoly_Qpair,
    qpoly_rescale,
    var_pow,
)
from .qalgebras import (
    CORE_A,
    CORE_B,
    DISC,
    SPHERE,
    SPHERE0,
    DiscElement,
    SphereElement,
    SphereMonomial,
    kappa_iso,
    relation_residual,
)
from .lens import (
    LensElement,
    LensMonomial,
    CORE_APRIME,
    CORE_BPRIME,
    basis_window_check,
    lens_relation_suite,
    subspace_classify,
)
from .units import deg_extreme, is_unit, split_expansion, subspace_split, verify_inverse
from .principal import (
    LaurentHopfElement,
    ProlongElement,
    SPHERE_ONE,
    associated_idempotent,
    idempotent_check,
    prolong_is_invariant,
    prolong_phi,
    prolong_phi_inv,
    prolong_phi_map,
    strong_connection_algebraic,
    strong_connection_isometric,
    verify_strong_connection,
)
from .ktheory import (
    AbelianGroup,
    bass_class_report,
    kernel_rank,
    lens_k_groups,
    mat_det,
    mat_mul,
    matrix_rank,
    smith_normal_form,
)
from .reports import FAIL, KNOWN, PASS, CheckEntry, Report
from .rng import DEFAULT_SEED, SplitMix64, random_coefficient, random_sphere_element, random_sphere_monomial


@dataclass
class SuiteOptions:
    seed: int = DEFAULT_SEED
    window: int = 6
    lens_types: Tuple[int, ...] = (1, 2, 3, 5, 7)
    nmax: int = 7
    samples: int = 1000
    kmax: int = 50


def _entry(entries: List[CheckEntry], cid: str, tag: str, ok: bool, residual: str = "0"):
    entries.append(CheckEntry(cid, PASS if ok else FAIL, residual if not ok else "0", tag))


def _zero(entries: List[CheckEntry], cid: str, tag: str, elem):
    ok = elem.is_zero()
    entries.append(CheckEntry(cid, PASS if ok else FAIL, "0" if ok else str(elem), tag))


# ---------------------------------------------------------------------------
# scalar identities
# ---------------------------------------------------------------------------


def suite_qidentities(opts: SuiteOptions) -> List[CheckEntry]:
    entries: List[CheckEntry] = []
    for var in ("p", "q"):
        ok = True
        for n in range(1, 21):
            for m in range(1, n + 1):
                lhs = qbinomial(n + 1, m, var)
                rhs = qbinomial(n, m, var) + var_pow(var, n + 1 - m) * qbinomial(n, m - 1, var)
                if lhs != rhs:
                    ok = False
        _entry(entries, f"pascal[{var}]", "pchrec", ok, "recursion mismatch")

    from .scalars import QPoly

    poly_one = QPoly({0: ONE})
    poly_y = QPoly({1: ONE})
    ok_pos = ok_neg = True
    for n in range(1, 16):
        lhs = qpoly_Q(n + 1, "p")
        rhs = (poly_one - poly_y) * qpoly_rescale(qpoly_Q(n, "p"), -1) - poly_y
        if lhs != rhs:
            ok_pos = False
        lhs = qpoly_Q(-(n + 1), "p")
        rhs = (poly_one - poly_y * p_pow(1)) * qpoly_rescale(qpoly_Q(-n, "p"), 1) - poly_y * p_pow(1)
        if lhs != rhs:
            ok_neg = False
    _entry(entries, "recursion-positive", "qdefrec", ok_pos, "mismatch")
    _entry(entries, "recursion-negative", "qminrec", ok_neg, "mismatch")

    ok = True
    for m in range(1, 13):
        for n in range(1, 13):
            lhs = qpoly_Q(m + n, "p")
            qm = qpoly_Q(m, "p")
            rhs = (poly_one + qm) * qpoly_rescale(qpoly_Q(n, "p"), -m) + qm
            if lhs != rhs:
                ok = False
    _entry(entries, "composition", "qmneq", ok, "mismatch")

    ok = True
    for mu in range(-12, 13):
        vanishes = qpoly_Qpair(mu, -mu, "p").is_zero()
        if vanishes != (mu == 0):
            ok = False
    _entry(entries, "pair-zero-iff", "qmndef", ok, "mismatch")

    ok = True
    for mu in range(-12, 13):
        poly = qpoly_Q(mu, "p")
        if mu == 0:
            ok = ok and poly.is_zero()
        else:
            ok = ok and poly.degree() == abs(mu) and poly.constant_term().is_zero()
    _entry(entries, "degree-and-constant-term", "qdef", ok, "mismatch")
    return entries


# ---------------------------------------------------------------------------
# disc
# ---------------------------------------------------------------------------


def suite_disc(opts: SuiteOptions) -> List[CheckEntry]:
    entries: List[CheckEntry] = []
    d = DISC
    x, X = d.x(), d.X()

    _zero(
        entries,
        "disc-relation",
        "disc",
        x.star() * x - (x * x.star()).scale(p_pow(1)) - d.scalar(ONE - p_pow(1)),
    )
    _zero(entries, "X-commutation", "1mxx", _first_nonzero(
        d.X(k) * d.x(n) - (d.x(n) * d.X(k)).scale(p_pow(k * n))
        for k in range(0, 5)
        for n in range(-6, 7)
    ) or d.zero())

    bad = None
    for mu in range(-10, 11):
        lhs = _stepwise_power(d, mu) * _stepwise_power(d, -mu)
        rhs = d.one()
        for deg, c in qpoly_Q(mu, "p").items():
            rhs = rhs + d.X(deg).scale(c)
        if lhs != rhs and bad is None:
            bad = f"mu={mu}"
    _entry(entries, "power-contraction-balanced", "xxsxsx", bad is None, bad or "")

    bad = None
    for mu in range(-8, 9):
        for nu in range(-8, 9):
            lhs = _stepwise_power(d, mu) * _stepwise_power(d, nu)
            rhs = d.one()
            for deg, c in qpoly_Qpair(mu, nu, "p").items():
                rhs = rhs + d.X(deg).scale(c)
            rhs = rhs * d.x(1).pow_signed(mu + nu)
            if lhs != rhs and bad is None:
                bad = f"mu={mu}, nu={nu}"
    _entry(entries, "power-contraction-general", "xxsqgen", bad is None, bad or "")

    rng = SplitMix64(opts.seed)
    bad = None
    for _ in range(200):
        r = _random_disc_element(rng, d)
        s = _random_disc_element(rng, d)
        if (r * s).star() != s.star() * r.star() and bad is None:
            bad = "antihomomorphism failed"
        if r.star().star() != r and bad is None:
            bad = "involution failed"
    _entry(entries, "star-properties", "1mxx", bad is None, bad or "")

    kx = kappa_iso(d.x())
    _entry(entries, "mirror-generator", "kappa", kx == kappa_iso(d.x()), "")
    _zero(
        entries,
        "mirror-relation",
        "kappa",
        kappa_iso(x.star() * x - (x * x.star()).scale(p_pow(1)) - d.scalar(ONE - p_pow(1))),
    )
    rng = SplitMix64(opts.seed + 1)
    bad = None
    for _ in range(100):
        r = _random_disc_element(rng, d)
        s = _random_disc_element(rng, d)
        if kappa_iso(r * s) != kappa_iso(r) * kappa_iso(s) and bad is None:
            bad = "multiplicativity failed"
        if kappa_iso(r.star()) != kappa_iso(r).star() and bad is None:
            bad = "star-compatibility failed"
    _entry(entries, "mirror-homomorphism", "kappa", bad is None, bad or "")
    return entries


def _first_nonzero(iterable):
    for e in iterable:
        if not e.is_zero():
            return e
    return None


def _stepwise_power(d, e: int) -> DiscElement:
    gen = d.x() if e >= 0 else d.x().star()
    acc = d.one()
    for _ in range(abs(e)):
        acc = acc * gen
    return acc


def _random_disc_element(rng: SplitMix64, d) -> DiscElement:
    out = d.zero()
    for _ in range(2):
        from .qalgebras import DiscMonomial

        mono = DiscMonomial(rng.randint(0, 3), rng.randint(-4, 4))
        out = out + d.monomial(mono.k, mono.mu, random_coefficient(rng))
    return out


# ---------------------------------------------------------------------------
# sphere
# ---------------------------------------------------------------------------


def suite_sphere(opts: SuiteOptions) -> List[CheckEntry]:
    entries: List[CheckEntry] = []
    for rid in ("heegard:ab", "heegard:abstar", "heegard:aa", "heegard:bb", "heegard:AB"):
        _zero(entries, rid, "heegard", relation_residual(rid))
    for which in ("Aa", "Ab", "Ba", "Bb", "Astar", "Bstar"):
        _zero(entries, f"core:{which}", "heegard", relation_residual(f"core:{which}"))
    bad = None
    for n in range(1, 13):
        res = relation_residual("aaminus", n=n)
        if not res.is_zero() and bad is None:
            bad = f"n={n}: {res}"
    _entry(entries, "adjoint-power-commutator", "aaminus", bad is None, bad or "")
    for pair in ("ab", "abstar"):
        bad = None
        for mu in range(-6, 7):
            res = relation_residual(f"chlemma:{pair}", mu=mu)
            if not res.is_zero() and bad is None:
                bad = f"mu={mu}: {res}"
        _entry(entries, f"phase-power[{pair}]", "chlemma", bad is None, bad or "")

    rng = SplitMix64(opts.seed)
    bad_assoc = bad_star = bad_grade = bad_closure = None
    n_triples = max(opts.samples, 1000)
    for _ in range(n_triples):
        r = random_sphere_element(rng, SPHERE, terms=1, kmax=4, emax=5)
        s = random_sphere_element(rng, SPHERE, terms=1, kmax=4, emax=5)
        t = random_sphere_element(rng, SPHERE, terms=1, kmax=4, emax=5)
        if (r * s) * t != r * (s * t) and bad_assoc is None:
            bad_assoc = f"{r} | {s} | {t}"
        if (r * s).star() != s.star() * r.star() and bad_star is None:
            bad_star = f"{r} | {s}"
        if r.star().star() != r and bad_star is None:
            bad_star = str(r)
        prod = r * s
        minkowski = {
            dr + ds for dr in r.degree_support() for ds in s.degree_support()
        }
        if not prod.degree_support() <= minkowski and bad_grade is None:
            bad_grade = f"{r} | {s}"
        if len(prod.degree_support()) > 1 and bad_grade is None:
            bad_grade = f"inhomogeneous product {prod}"
        for mono, _c in prod.terms():
            if mono.core == CORE_B and mono.k < 1 and bad_closure is None:
                bad_closure = str(mono)
    _entry(entries, "associativity", "heegard", bad_assoc is None, bad_assoc or "")
    _entry(entries, "star-antihomomorphism", "heegard", bad_star is None, bad_star or "")
    _entry(entries, "grading-additivity", "hbasis", bad_grade is None, bad_grade or "")
    _entry(entries, "normal-form-closure", "hbasis", bad_closure is None, bad_closure or "")

    # parameter-zero instance sanity
    s0 = SPHERE0
    _zero(entries, "isometric:aa", "c*strong", s0.a().star() * s0.a() - s0.one())
    _zero(entries, "isometric:core-idempotent", "c*strong", s0.A() * s0.A() - s0.A())
    try:
        s0.a() * s0.A()
        _entry(entries, "isometric:escape-error", "c*strong", False, "no error raised")
    except EvaluationError:
        _entry(entries, "isometric:escape-error", "c*strong", True)
    return entries


# ---------------------------------------------------------------------------
# lens
# ---------------------------------------------------------------------------


def suite_lens(opts: SuiteOptions) -> List[CheckEntry]:
    entries: List[CheckEntry] = []
    for N in opts.lens_types:
        for cid, status, residual in lens_relation_suite(N, opts.window):
            tag = cid.split(":", 1)[0].split("[", 1)[0]
            entries.append(CheckEntry(f"{cid}[N={N}]", status, residual, tag))
        # subspace stability under transported products
        rng = SplitMix64(opts.seed + N)
        bad_vavb = bad_muld = None
        for _ in range(60):
            va = _random_lens_element(rng, N, CORE_APRIME)
            vb = _random_lens_element(rng, N, CORE_BPRIME, kmin=1)
            if (va * vb) or (vb * va):
                if bad_vavb is None:
                    bad_vavb = f"{va} | {vb}"
            w = _random_lens_element(rng, N, CORE_BPRIME, kmin=0)
            prod = va * w
            prod2 = w * va
            for p_ in (prod, prod2):
                a_part, v0, vbp = subspace_classify(p_)
                if (v0 or vbp) and bad_muld is None:
                    bad_muld = f"{va} | {w} -> {p_}"
        _entry(entries, f"va-vb-annihilate[N={N}]", "thm:basis", bad_vavb is None, bad_vavb or "")
        _entry(entries, f"va-stability[N={N}]", "muldlem", bad_muld is None, bad_muld or "")
    return entries


def _random_lens_element(rng: SplitMix64, N: int, core: int, kmin: int | None = None) -> LensElement:
    if core == CORE_APRIME:
        k = rng.randint(1, 3)
    else:
        k = rng.randint(0 if kmin is None else kmin, 3)
    mono = LensMonomial(core, k, rng.randint(-3, 3), rng.randint(-3, 3))
    return LensElement(N, {mono: random_coefficient(rng)})


def suite_iso(opts: SuiteOptions, N: int = 3, window: int = 3, samples: int = 500) -> List[CheckEntry]:
    entries: List[CheckEntry] = []
    for cid, status, info in basis_window_check(N, window, samples=samples, seed=opts.seed):
        entries.append(CheckEntry(f"{cid}[N={N},window={window}]", status, info, "thm:basis"))
    return entries


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------


def suite_units(opts: SuiteOptions) -> List[CheckEntry]:
    entries: List[CheckEntry] = []
    s = SPHERE
    rng = SplitMix64(opts.seed)

    bad = None
    for _ in range(200):
        r = random_sphere_element(rng, s, terms=3)
        for variant in ("X+Y1", "X1+Y"):
            left, right = subspace_split(r, variant)
            if left + right != r and bad is None:
                bad = f"{variant} does not re-sum"
            if set(dict(left.terms())) & set(dict(right.terms())) and bad is None:
                bad = f"{variant} overlaps"
    _entry(entries, "splitting-exactness", "splitprop", bad is None, bad or "")

    bad = None
    for _ in range(200):
        x_elt = _random_part(rng, s, "X")
        y1 = _random_part(rng, s, "Y1")
        for prod in (x_elt * y1, y1 * x_elt):
            if subspace_split(prod, "X+Y1")[0] and bad is None:
                bad = f"{x_elt} | {y1}"
        x1 = _random_part(rng, s, "X1")
        y_elt = _random_part(rng, s, "Y")
        for prod in (x1 * y_elt, y_elt * x1):
            if subspace_split(prod, "X1+Y")[1] and bad is None:
                bad = f"{x1} | {y_elt}"
    _entry(entries, "multiplicative-stability", "multsplit", bad is None, bad or "")

    bad = None
    for _ in range(200):
        r = random_sphere_element(rng, s, terms=3)
        if not r:
            continue
        support = {(t.mu, t.nu) for t in split_expansion(r)}
        flipped = {(-m, -n) for (m, n) in support}
        if {(t.mu, t.nu) for t in split_expansion(r.star())} != flipped and bad is None:
            bad = str(r)
    _entry(entries, "star-flips-support", "ordmin", bad is None, bad or "")

    qualifying = 0
    bad = None
    while qualifying < max(500, opts.samples // 2):
        r = random_sphere_element(rng, s, terms=2, kmax=3, emax=4)
        t = random_sphere_element(rng, s, terms=2, kmax=3, emax=4)
        try:
            for side in ("A", "B"):
                for which in ("max", "min"):
                    er = deg_extreme(r, side, which)
                    et = deg_extreme(t, side, which)
                    ep = deg_extreme(r * t, side, which)
                    if ep != (er[0] + et[0], er[1] + et[1]) and bad is None:
                        bad = f"{side}/{which}: {r} | {t}"
        except ValueError:
            continue
        qualifying += 1
    _entry(
        entries,
        "extreme-additivity",
        "maxminsum",
        bad is None,
        bad or f"{qualifying} qualifying pairs",
    )

    bad = None
    nonunits = 0
    while nonunits < max(500, opts.samples // 2):
        r = random_sphere_element(rng, s, terms=rng.randint(1, 3))
        items = list(r.terms())
        if len(items) == 1 and items[0][0] == SPHERE_ONE:
            continue
        if is_unit(r) is not None and bad is None:
            bad = f"false unit {r}"
        nonunits += 1
    _entry(entries, "non-units-rejected", "noninv", bad is None, bad or "")

    bad = None
    for _ in range(100):
        c = Coefficient.monomial(
            rng.choice((1, -1)), rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)
        )
        r = s.scalar(c)
        got = is_unit(r)
        if got != c and bad is None:
            bad = f"{c} not recognized"
        elif got is not None:
            inv = got.unit_inverse()
            if not verify_inverse(r, s.scalar(inv)) and bad is None:
                bad = f"certificate failed for {c}"
    if is_unit(s.scalar(Coefficient.integer(5))) is not None:
        bad = bad or "5 wrongly inverted"
    if is_unit(s.scalar(ONE - p_pow(1))) is not None:
        bad = bad or "1-p wrongly inverted"
    if is_unit(s.one() + s.A()) is not None:
        bad = bad or "1+A wrongly inverted"
    _entry(entries, "unit-scalars-certified", "noninv", bad is None, bad or "")
    return entries


def _random_part(rng: SplitMix64, s, family: str) -> SphereElement:
    if family == "X":
        mono = SphereMonomial(CORE_A, rng.randint(0, 3), rng.randint(-3, 3), rng.randint(-3, 3))
    elif family == "X1":
        mono = SphereMonomial(CORE_A, rng.randint(1, 3), rng.randint(-3, 3), rng.randint(-3, 3))
    elif family == "Y1":
        mono = SphereMonomial(CORE_B, rng.randint(1, 3), rng.randint(-3, 3), rng.randint(-3, 3))
    else:  # Y
        k = rng.randint(0, 3)
        core = CORE_B if k else CORE_A
        mono = SphereMonomial(core, k, rng.randint(-3, 3), rng.randint(-3, 3))
    return SphereElement(s, {mono: random_coefficient(rng)})


# ---------------------------------------------------------------------------
# strong connections and idempotents
# ---------------------------------------------------------------------------


def suite_sconn(opts: SuiteOptions, variant: str = "corrected") -> List[CheckEntry]:
    entries: List[CheckEntry] = []
    for N in range(1, opts.nmax + 1):
        if variant == "isometric":
            conn = strong_connection_isometric(N)
            tag = "c*strong"
        else:
            conn = strong_connection_algebraic(N, variant)
            tag = "algstrong"
        checks = verify_strong_connection(conn)
        if variant == "printed_p_inverse" and N >= 2:
            expected = (SPHERE.A()).scale(p_pow(-1) - p_pow(1))
            classes = conn.values[1].legs_multiplied_by_class(N)
            residual = classes.get(1 % N, SPHERE.zero()) - SPHERE.one()
            exact = residual == expected
            entries.append(
                CheckEntry(
                    f"sconn.printed:axiom1[N={N}]",
                    KNOWN if exact else FAIL,
                    str(residual),
                    tag,
                )
            )
            for c in checks:
                if not c.ok and (c.axiom != "unit-return"):
                    entries.append(
                        CheckEntry(
                            f"sconn.printed:{c.axiom}[N={N},n={c.n}]", FAIL, c.residual, tag
                        )
                    )
        else:
            bad = [c for c in checks if not c.ok]
            _entry(
                entries,
                f"sconn.{variant}[N={N}]",
                tag,
                not bad,
                "; ".join(f"{c.axiom}[n={c.n}]: {c.residual}" for c in bad),
            )
    return entries


def suite_idem(opts: SuiteOptions, variant: str = "corrected") -> List[CheckEntry]:
    entries: List[CheckEntry] = []
    for N in range(2, opts.nmax + 1):
        if variant == "isometric":
            conn = strong_connection_isometric(N)
            E = associated_idempotent(conn, 1)
            chk = idempotent_check(E, N)
            _entry(
                entries,
                f"idem.isometric[N={N}]",
                "c*strong",
                chk.idempotent and chk.invariant,
                str(chk.residuals),
            )
            if N >= 3:
                try:
                    associated_idempotent(conn, 2)
                    _entry(
                        entries,
                        f"idem.isometric-escape[N={N}]",
                        "c*strong",
                        False,
                        "expected an escape error for the squared class at parameter zero",
                    )
                except EvaluationError:
                    _entry(entries, f"idem.isometric-escape[N={N}]", "c*strong", True)
            continue
        conn = strong_connection_algebraic(N, variant)
        E = associated_idempotent(conn, 1)
        chk = idempotent_check(E, N)
        if variant == "printed_p_inverse":
            expected = (SPHERE.A() - SPHERE.A() * SPHERE.A()).scale(p_pow(-2) - ONE)
            top_left = (E * E).entries[0][0] - E.entries[0][0]
            exact = top_left == expected
            entries.append(
                CheckEntry(
                    f"idem.printed:residual[N={N}]",
                    KNOWN if (not chk.idempotent and exact) else FAIL,
                    str(top_left),
                    "algstrong",
                )
            )
        else:
            _entry(
                entries,
                f"idem.corrected[N={N}]",
                "algstrong",
                chk.idempotent and chk.invariant,
                str(chk.residuals),
            )
            expected = _expected_corrected_idempotent()
            _entry(
                entries,
                f"idem.corrected:matrix[N={N}]",
                "algstrong",
                E == expected,
                f"{E} != {expected}",
            )
    return entries


def _expected_corrected_idempotent():
    from .principal import SphereMatrix

    s = SPHERE
    z = s.z()
    return SphereMatrix(
        [
            [s.one() - s.A(), (z * s.A()).scale(p_pow(1))],
            [z.star(), s.A().scale(p_pow(1))],
        ]
    )


# ---------------------------------------------------------------------------
# K-theory
# ---------------------------------------------------------------------------


def suite_ktheory(opts: SuiteOptions, single_n: int | None = None) -> List[CheckEntry]:
    entries: List[CheckEntry] = []
    ns = [single_n] if single_n else list(range(1, opts.kmax + 1))
    for N in ns:
        result = lens_k_groups(N)
        expect_k0 = AbelianGroup.cyclic(N).direct_sum(AbelianGroup.free(1))
        expect_k1 = AbelianGroup.free(1)
        ok = (not result.ambiguous) and result.k0 == expect_k0 and result.k1 == expect_k1
        _entry(
            entries,
            f"kgroups[N={N}]",
            "mv",
            ok,
            f"K0={result.k0}, K1={result.k1}",
        )
    rng = SplitMix64(opts.seed)
    bad = None
    for _ in range(max(opts.samples, 1000)):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(m)
        if mat_mul(mat_mul(u, m), v) != d and bad is None:
            bad = f"product mismatch on {m}"
        if abs(mat_det(u)) != 1 or abs(mat_det(v)) != 1:
            bad = bad or f"non-unimodular transform on {m}"
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i in range(len(diag) - 1):
            if diag[i] == 0 and diag[i + 1] != 0:
                bad = bad or f"zero ordering violated on {m}"
            if diag[i] and diag[i + 1] and diag[i + 1] % diag[i] != 0:
                bad = bad or f"chain violated on {m}"
        if matrix_rank(m) + kernel_rank(m) != cols:
            bad = bad or f"rank-nullity violated on {m}"
    _entry(entries, "snf-random", "mv", bad is None, bad or "")
    return entries


def suite_bass(opts: SuiteOptions, types: Sequence[int] = (1, 2, 3, 5)) -> List[CheckEntry]:
    entries: List[CheckEntry] = []
    for N in types:
        rep = bass_class_report(N)
        for cid, ok, info in rep.entries:
            _entry(entries, f"{cid}[N={N}]", "thm:not-free", ok, info)
    return entries


# ---------------------------------------------------------------------------
# prolongation
# ---------------------------------------------------------------------------


def suite_prolong(opts: SuiteOptions, types: Sequence[int] = (2, 3), samples: int = 300) -> List[CheckEntry]:
    entries: List[CheckEntry] = []
    for N in types:
        rng = SplitMix64(opts.seed + N)
        bad_rt = bad_mult = bad_inv = None
        for _ in range(max(samples, 300)):
            mono = random_sphere_monomial(rng, kmax=3, emax=4)
            x = SphereElement(SPHERE, {mono: random_coefficient(rng)})
            m = rng.randint(-4, 4)
            h = LaurentHopfElement.generator_power(m)
            t = prolong_phi(x, h, N)
            back = prolong_phi_inv(t, N)
            if back != ProlongElement.of(x, h) and bad_rt is None:
                bad_rt = f"{x} (x) u^{m}"
            if not prolong_is_invariant(t, N) and bad_inv is None:
                bad_inv = f"{t}"
            # invariant-side roundtrip
            d = mono.mu + mono.nu
            minv = d + N * rng.randint(-3, 3)
            tinv = ProlongElement(SPHERE, {(mono, minv): random_coefficient(rng)})
            if prolong_phi_map(prolong_phi_inv(tinv, N), N) != tinv and bad_rt is None:
                bad_rt = f"invariant side {tinv}"
            mono2 = random_sphere_monomial(rng, kmax=3, emax=4)
            x2 = SphereElement(SPHERE, {mono2: random_coefficient(rng)})
            m2 = rng.randint(-4, 4)
            t1 = ProlongElement.of(x, LaurentHopfElement.generator_power(m))
            t2 = ProlongElement.of(x2, LaurentHopfElement.generator_power(m2))
            if prolong_phi_map(t1 * t2, N) != prolong_phi_map(t1, N) * prolong_phi_map(t2, N):
                if bad_mult is None:
                    bad_mult = f"{t1} | {t2}"
        _entry(entries, f"prolong:roundtrip[N={N}]", "cotnislem", bad_rt is None, bad_rt or "")
        _entry(entries, f"prolong:multiplicative[N={N}]", "cotnislem", bad_mult is None, bad_mult or "")
        _entry(entries, f"prolong:image-invariant[N={N}]", "alphatilde", bad_inv is None, bad_inv or "")
    return entries


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


_VARIANTS = ("corrected", "printed_p_inverse", "isometric")

SUITES = {
    "qidentities": suite_qidentities,
    "disc": suite_disc,
    "sphere": suite_sphere,
    "lens": suite_lens,
    "units": suite_units,
    "sconn": lambda opts: [e for v in _VARIANTS for e in suite_sconn(opts, v)],
    "idem": lambda opts: [e for v in _VARIANTS for e in suite_idem(opts, v)],
    "ktheory": suite_ktheory,
    "bass": suite_bass,
    "prolong": suite_prolong,
    "iso": suite_iso,
}
SUITE_NAMES = (*SUITES, "all")


def run_suite(name: str, opts: SuiteOptions) -> Report:
    """Execute a named verification suite with the documented windows;
    ``all`` runs every suite in registry order."""
    t0 = time.monotonic()
    if name == "all":
        entries = [e for part in SUITES for e in run_suite(part, opts).entries]
    else:
        entries = SUITES[name](opts)
    return Report(
        command=f"relcheck {name}", seed=opts.seed, entries=entries, elapsed=time.monotonic() - t0
    )
