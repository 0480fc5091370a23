"""Deterministic verification suites behind the command surface.

Each suite returns a list of check entries; randomized populations are
driven by the seedable portable generator, so a fixed seed fixes every
residual byte-for-byte.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import List, Tuple

from .scalars import (
    Coefficient,
    EvaluationError,
    ONE,
    QPoly,
    clear_run_memos,
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
    DISC_INV,
    SPHERE,
    SPHERE0,
    DiscElement,
    SphereElement,
    SphereMonomial,
    add_on_core,
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
    CONNECTION_VARIANTS,
    LaurentHopfElement,
    ProlongElement,
    SPHERE_ONE,
    associated_idempotent,
    idempotent_check,
    prolong_is_invariant,
    prolong_phi,
    prolong_phi_inv,
    prolong_phi_map,
    verify_strong_connection,
)
from .ktheory import (
    AbelianGroup,
    bass_class_report,
    lens_k_groups,
    mat_det,
    smith_normal_form,
)
from .matrix import Matrix
from .reports import CheckEntry, FirstFailures, Report, check, check_zero, known
from .rng import DEFAULT_SEED, SplitMix64, random_coefficient, random_sphere_element, random_sphere_monomial


# each suite's own sizes, used for the options left at ``None``; sconn and
# idem check the lens types 1 to ``nmax`` (idem from 2) when none are given
SUITE_DEFAULTS = {
    "lens": {"window": 6, "lens_types": (1, 2, 3, 5, 7)},
    "iso": {"window": 3, "lens_types": (3,), "samples": 500},
    "sphere": {"samples": 1000},
    "units": {"samples": 1000},
    "ktheory": {"samples": 1000},
    "prolong": {"lens_types": (2, 3), "samples": 300},
    "bass": {"lens_types": (1, 2, 3, 5)},
}


@dataclass
class SuiteOptions:
    """Sizes of the suites; ``window``, ``lens_types`` and ``samples`` left
    at ``None`` take each suite's own size from ``SUITE_DEFAULTS``, and idem
    skips given types below 2.  ``samples`` = k checks k sphere triples, k
    ktheory matrices and ceil(k/2) pairs per sampled units loop."""

    seed: int = DEFAULT_SEED
    window: int | None = None
    lens_types: Tuple[int, ...] | None = None
    nmax: int = 7
    samples: int | None = None
    kmax: int = 50

    def size(self, suite: str, name: str):
        """The option ``name`` when it was given, else ``suite``'s own size."""
        value = getattr(self, name)
        return SUITE_DEFAULTS[suite][name] if value is None else value


def _suffixed(entries: List[CheckEntry], suffix: str) -> List[CheckEntry]:
    """A verifier's entries with the suite's ``[suffix]`` appended to each id."""
    return [replace(e, id=f"{e.id}[{suffix}]") for e in entries]


def _raises(thunk) -> bool:
    """Whether ``thunk()`` raises the parameter-zero escape error."""
    try:
        thunk()
    except EvaluationError:
        return True
    return False


# ---------------------------------------------------------------------------
# scalar identities
# ---------------------------------------------------------------------------


def suite_qidentities(opts: SuiteOptions) -> List[CheckEntry]:
    failures = FirstFailures()
    for var in ("p", "q"):
        for n in range(1, 21):
            for m in range(1, n + 1):
                lhs = qbinomial(n + 1, m, var)
                rhs = qbinomial(n, m, var) + var_pow(var, n + 1 - m) * qbinomial(n, m - 1, var)
                if lhs != rhs:
                    failures.fail(f"pascal[{var}]", "recursion mismatch")
    entries = [failures.entry(f"pascal[{var}]", "pchrec") for var in ("p", "q")]

    poly_one = QPoly({0: ONE})
    poly_y = QPoly({1: ONE})
    for n in range(1, 16):
        lhs = qpoly_Q(n + 1, "p")
        rhs = (poly_one - poly_y) * qpoly_rescale(qpoly_Q(n, "p"), -1) - poly_y
        if lhs != rhs:
            failures.fail("recursion-positive", "mismatch")
        lhs = qpoly_Q(-(n + 1), "p")
        rhs = (poly_one - poly_y * p_pow(1)) * qpoly_rescale(qpoly_Q(-n, "p"), 1) - poly_y * p_pow(1)
        if lhs != rhs:
            failures.fail("recursion-negative", "mismatch")

    for m in range(1, 13):
        for n in range(1, 13):
            lhs = qpoly_Q(m + n, "p")
            qm = qpoly_Q(m, "p")
            rhs = (poly_one + qm) * qpoly_rescale(qpoly_Q(n, "p"), -m) + qm
            if lhs != rhs:
                failures.fail("composition", "mismatch")

    for mu in range(-12, 13):
        if qpoly_Qpair(mu, -mu, "p").is_zero() != (mu == 0):
            failures.fail("pair-zero-iff", "mismatch")

    for mu in range(-12, 13):
        poly = qpoly_Q(mu, "p")
        if mu == 0:
            holds = poly.is_zero()
        else:
            holds = poly.degree() == abs(mu) and poly.constant_term().is_zero()
        if not holds:
            failures.fail("degree-and-constant-term", "mismatch")
    return entries + [
        failures.entry("recursion-positive", "qdefrec"),
        failures.entry("recursion-negative", "qminrec"),
        failures.entry("composition", "qmneq"),
        failures.entry("pair-zero-iff", "qmndef"),
        failures.entry("degree-and-constant-term", "qdef"),
    ]


# ---------------------------------------------------------------------------
# disc
# ---------------------------------------------------------------------------


def suite_disc(opts: SuiteOptions) -> List[CheckEntry]:
    d = DISC
    x = d.x()
    relation = x.star() * x - (x * x.star()).scale(p_pow(1)) - d.scalar(ONE - p_pow(1))
    failures = FirstFailures()
    for k in range(0, 5):
        for n in range(-6, 7):
            res = d.X(k) * d.x(n) - (d.x(n) * d.X(k)).scale(p_pow(k * n))
            if not res.is_zero():
                failures.fail("X-commutation", str(res))
    entries = [
        check_zero("disc-relation", "disc", relation),
        failures.entry("X-commutation", "1mxx"),
    ]

    for mu in range(-10, 11):
        lhs = x.pow_signed(mu) * x.pow_signed(-mu)
        if lhs != add_on_core(d.one(), d.X, qpoly_Q(mu, "p")):
            failures.fail("power-contraction-balanced", f"mu={mu}")

    for mu in range(-8, 9):
        for nu in range(-8, 9):
            lhs = x.pow_signed(mu) * x.pow_signed(nu)
            rhs = add_on_core(d.one(), d.X, qpoly_Qpair(mu, nu, "p")) * x.pow_signed(mu + nu)
            if lhs != rhs:
                failures.fail("power-contraction-general", f"mu={mu}, nu={nu}")

    rng = SplitMix64(opts.seed)
    for _ in range(200):
        r = _random_disc_element(rng, d)
        s = _random_disc_element(rng, d)
        if (r * s).star() != s.star() * r.star():
            failures.fail("star-properties", "antihomomorphism failed")
        if r.star().star() != r:
            failures.fail("star-properties", "involution failed")

    rng = SplitMix64(opts.seed + 1)
    for _ in range(100):
        r = _random_disc_element(rng, d)
        s = _random_disc_element(rng, d)
        if kappa_iso(r * s) != kappa_iso(r) * kappa_iso(s):
            failures.fail("mirror-homomorphism", "multiplicativity failed")
        if kappa_iso(r.star()) != kappa_iso(r).star():
            failures.fail("mirror-homomorphism", "star-compatibility failed")
    return entries + [
        failures.entry("power-contraction-balanced", "xxsxsx"),
        failures.entry("power-contraction-general", "xxsqgen"),
        failures.entry("star-properties", "1mxx"),
        # the mirror map sends x to the adjoint generator of the inverse-parameter disc
        check("mirror-generator", "kappa", kappa_iso(x) == DISC_INV.x().star()),
        check_zero("mirror-relation", "kappa", kappa_iso(relation)),
        failures.entry("mirror-homomorphism", "kappa"),
    ]


def _random_disc_element(rng: SplitMix64, d) -> DiscElement:
    out = d.zero()
    for _ in range(2):
        out = out + d.monomial(rng.randint(0, 3), rng.randint(-4, 4), random_coefficient(rng))
    return out


# ---------------------------------------------------------------------------
# sphere
# ---------------------------------------------------------------------------


def suite_sphere(opts: SuiteOptions) -> List[CheckEntry]:
    entries = [
        check_zero(rid, "heegard", relation_residual(rid))
        for rid in (
            "heegard:ab", "heegard:abstar", "heegard:aa", "heegard:bb", "heegard:AB",
            "core:Aa", "core:Ab", "core:Ba", "core:Bb", "core:Astar", "core:Bstar",
        )
    ]
    failures = FirstFailures()
    for n in range(1, 13):
        res = relation_residual("aaminus", n=n)
        if not res.is_zero():
            failures.fail("adjoint-power-commutator", f"n={n}: {res}")
    entries.append(failures.entry("adjoint-power-commutator", "aaminus"))
    for pair in ("ab", "abstar"):
        for mu in range(-6, 7):
            res = relation_residual(f"chlemma:{pair}", mu=mu)
            if not res.is_zero():
                failures.fail(f"phase-power[{pair}]", f"mu={mu}: {res}")
        entries.append(failures.entry(f"phase-power[{pair}]", "chlemma"))

    rng = SplitMix64(opts.seed)
    for _ in range(opts.size("sphere", "samples")):
        r = random_sphere_element(rng, SPHERE, terms=1, kmax=4, emax=5)
        s = random_sphere_element(rng, SPHERE, terms=1, kmax=4, emax=5)
        t = random_sphere_element(rng, SPHERE, terms=1, kmax=4, emax=5)
        prod = r * s
        if prod * t != r * (s * t):
            failures.fail("associativity", f"{r} | {s} | {t}")
        if prod.star() != s.star() * r.star():
            failures.fail("star-antihomomorphism", f"{r} | {s}")
        if r.star().star() != r:
            failures.fail("star-antihomomorphism", str(r))
        minkowski = {
            dr + ds for dr in r.degree_support() for ds in s.degree_support()
        }
        if not prod.degree_support() <= minkowski:
            failures.fail("grading-additivity", f"{r} | {s}")
        if len(prod.degree_support()) > 1:
            failures.fail("grading-additivity", f"inhomogeneous product {prod}")
        for mono, _c in prod.terms():
            if mono.core == CORE_B and mono.k < 1:
                failures.fail("normal-form-closure", str(mono))
    s0 = SPHERE0
    return entries + [
        failures.entry("associativity", "heegard"),
        failures.entry("star-antihomomorphism", "heegard"),
        failures.entry("grading-additivity", "hbasis"),
        failures.entry("normal-form-closure", "hbasis"),
        # parameter-zero instance sanity
        check_zero("isometric:aa", "c*strong", s0.a().star() * s0.a() - s0.one()),
        check_zero("isometric:core-idempotent", "c*strong", s0.A() * s0.A() - s0.A()),
        check(
            "isometric:escape-error", "c*strong", _raises(lambda: s0.a() * s0.A()), "no error raised"
        ),
    ]


# ---------------------------------------------------------------------------
# lens
# ---------------------------------------------------------------------------


def suite_lens(opts: SuiteOptions) -> List[CheckEntry]:
    entries: List[CheckEntry] = []
    failures = FirstFailures()
    for N in opts.size("lens", "lens_types"):
        entries += _suffixed(lens_relation_suite(N, opts.size("lens", "window")), f"N={N}")
        # subspace stability under transported products
        rng = SplitMix64(opts.seed + N)
        annihilate, stability = f"va-vb-annihilate[N={N}]", f"va-stability[N={N}]"
        for _ in range(60):
            va = _random_lens_element(rng, N, CORE_APRIME, 1)
            vb = _random_lens_element(rng, N, CORE_BPRIME, 1)
            if (va * vb) or (vb * va):
                failures.fail(annihilate, f"{va} | {vb}")
            w = _random_lens_element(rng, N, CORE_BPRIME, 0)
            prod = va * w
            prod2 = w * va
            for p_ in (prod, prod2):
                a_part, v0, vbp = subspace_classify(p_)
                if v0 or vbp:
                    failures.fail(stability, f"{va} | {w} -> {p_}")
        entries += [failures.entry(annihilate, "thm:basis"), failures.entry(stability, "muldlem")]
    return entries


def _random_lens_element(rng: SplitMix64, N: int, core: int, kmin: int) -> LensElement:
    k = rng.randint(kmin, 3)
    mono = LensMonomial(core, k, rng.randint(-3, 3), rng.randint(-3, 3))
    return LensElement(N, {mono: random_coefficient(rng)})


def suite_iso(opts: SuiteOptions) -> List[CheckEntry]:
    window, samples = opts.size("iso", "window"), opts.size("iso", "samples")
    return [
        e
        for N in opts.size("iso", "lens_types")
        for e in _suffixed(
            basis_window_check(N, window, samples=samples, seed=opts.seed), f"N={N},window={window}"
        )
    ]


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------


def suite_units(opts: SuiteOptions) -> List[CheckEntry]:
    s = SPHERE
    rng = SplitMix64(opts.seed)
    # half the samples per sampled loop, rounded up so one sample checks one pair
    n_pairs = (opts.size("units", "samples") + 1) // 2
    failures = FirstFailures()

    for _ in range(200):
        r = random_sphere_element(rng, s, terms=3)
        for variant in ("X+Y1", "X1+Y"):
            left, right = subspace_split(r, variant)
            if left + right != r:
                failures.fail("splitting-exactness", f"{variant} does not re-sum")
            if set(dict(left.terms())) & set(dict(right.terms())):
                failures.fail("splitting-exactness", f"{variant} overlaps")

    for _ in range(200):
        x_elt = _random_part(rng, s, "X")
        y1 = _random_part(rng, s, "Y1")
        for prod in (x_elt * y1, y1 * x_elt):
            if subspace_split(prod, "X+Y1")[0]:
                failures.fail("multiplicative-stability", f"{x_elt} | {y1}")
        x1 = _random_part(rng, s, "X1")
        y_elt = _random_part(rng, s, "Y")
        for prod in (x1 * y_elt, y_elt * x1):
            if subspace_split(prod, "X1+Y")[1]:
                failures.fail("multiplicative-stability", f"{x1} | {y_elt}")

    for _ in range(200):
        r = random_sphere_element(rng, s, terms=3)
        if not r:
            continue
        support = {(t.mu, t.nu) for t in split_expansion(r)}
        flipped = {(-m, -n) for (m, n) in support}
        if {(t.mu, t.nu) for t in split_expansion(r.star())} != flipped:
            failures.fail("star-flips-support", str(r))

    qualifying = 0
    while qualifying < n_pairs:
        r = random_sphere_element(rng, s, terms=2, kmax=3, emax=4)
        t = random_sphere_element(rng, s, terms=2, kmax=3, emax=4)
        try:
            rt = r * t
            for side in ("A", "B"):
                for which in ("max", "min"):
                    er = deg_extreme(r, side, which)
                    et = deg_extreme(t, side, which)
                    ep = deg_extreme(rt, side, which)
                    if ep != (er[0] + et[0], er[1] + et[1]):
                        failures.fail("extreme-additivity", f"{side}/{which}: {r} | {t}")
        except ValueError:
            continue
        qualifying += 1

    nonunits = 0
    while nonunits < n_pairs:
        r = random_sphere_element(rng, s, terms=rng.randint(1, 3))
        items = list(r.terms())
        if len(items) == 1 and items[0][0] == SPHERE_ONE:
            continue
        if is_unit(r) is not None:
            failures.fail("non-units-rejected", f"false unit {r}")
        nonunits += 1

    for _ in range(100):
        c = Coefficient.monomial(
            rng.choice((1, -1)), rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)
        )
        r = s.scalar(c)
        got = is_unit(r)
        if got != c:
            failures.fail("unit-scalars-certified", f"{c} not recognized")
        elif not verify_inverse(r, s.scalar(got.unit_inverse())):
            failures.fail("unit-scalars-certified", f"certificate failed for {c}")
    if is_unit(s.scalar(Coefficient.integer(5))) is not None:
        failures.fail("unit-scalars-certified", "5 wrongly inverted")
    if is_unit(s.scalar(ONE - p_pow(1))) is not None:
        failures.fail("unit-scalars-certified", "1-p wrongly inverted")
    if is_unit(s.one() + s.A()) is not None:
        failures.fail("unit-scalars-certified", "1+A wrongly inverted")
    return [
        failures.entry("splitting-exactness", "splitprop"),
        failures.entry("multiplicative-stability", "multsplit"),
        failures.entry("star-flips-support", "ordmin"),
        failures.entry("extreme-additivity", "maxminsum"),
        failures.entry("non-units-rejected", "noninv"),
        failures.entry("unit-scalars-certified", "noninv"),
    ]


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
    connection = CONNECTION_VARIANTS[variant]
    tag = connection.tag
    for N in range(1, opts.nmax + 1) if opts.lens_types is None else opts.lens_types:
        conn = connection.build(N)
        checks = verify_strong_connection(conn)
        if variant == "printed_p_inverse" and N >= 2:
            classes = conn.values[1].legs_multiplied_by_class(N)
            residual = classes.get(1 % N, SPHERE.zero()) - SPHERE.one()
            expected = SPHERE.A().scale(p_pow(-1) - p_pow(1))
            entries.append(known(f"sconn.printed:axiom1[N={N}]", tag, residual, expected))
            entries += [
                replace(c, id="sconn.printed:" + c.id.replace("[", f"[N={N},"))
                for c in checks
                if not c.ok and not c.id.startswith("unit-return")
            ]
        else:
            bad = "; ".join(f"{c.id}: {c.residual}" for c in checks if not c.ok)
            entries.append(check(f"sconn.{variant}[N={N}]", tag, not bad, bad))
    return entries


def suite_idem(opts: SuiteOptions, variant: str = "corrected") -> List[CheckEntry]:
    given = range(1, opts.nmax + 1) if opts.lens_types is None else opts.lens_types
    types = [N for N in given if N >= 2]
    entries: List[CheckEntry] = []
    connection = CONNECTION_VARIANTS[variant]
    tag = connection.tag
    if not types:
        # a range that checks no type is a failure, never a vacuous pass
        asked = (
            f"nmax={opts.nmax}" if opts.lens_types is None
            else "types=" + ",".join(map(str, opts.lens_types))
        )
        entries.append(check(f"idem[{variant},{asked}]", tag, False, "no lens type checked: N starts at 2"))
    for N in types:
        conn = connection.build(N)
        E = associated_idempotent(conn, 1)
        if variant == "printed_p_inverse":
            expected = (SPHERE.A() - SPHERE.A() * SPHERE.A()).scale(p_pow(-2) - ONE)
            top_left = (E * E)[0][0] - E[0][0]
            entries.append(known(f"idem.printed:residual[N={N}]", tag, top_left, expected))
            continue
        chk = idempotent_check(E, N)
        ok = chk.idempotent and chk.invariant
        entries.append(check(f"idem.{variant}[N={N}]", tag, ok, str(chk.residuals)))
        if variant != "isometric":
            expected = _expected_corrected_idempotent()
            entries.append(
                check(f"idem.corrected:matrix[N={N}]", tag, E == expected, f"{E} != {expected}")
            )
        elif N >= 3:
            entries.append(
                check(
                    f"idem.isometric-escape[N={N}]",
                    tag,
                    _raises(lambda: associated_idempotent(conn, 2)),
                    "expected an escape error for the squared class at parameter zero",
                )
            )
    return entries


def _expected_corrected_idempotent():
    s = SPHERE
    z = s.z()
    return Matrix(
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
        entries.append(check(f"kgroups[N={N}]", "mv", ok, f"K0={result.k0}, K1={result.k1}"))
    rng = SplitMix64(opts.seed)
    failures = FirstFailures()
    for _ in range(opts.size("ktheory", "samples")):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(m)
        mv = Matrix(m) * Matrix(v)
        if Matrix(u) * mv != Matrix(d):
            failures.fail("snf-random", f"product mismatch on {m}")
        if abs(mat_det(u)) != 1 or abs(mat_det(v)) != 1:
            failures.fail("snf-random", f"non-unimodular transform on {m}")
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i in range(len(diag) - 1):
            if diag[i] == 0 and diag[i + 1] != 0:
                failures.fail("snf-random", f"zero ordering violated on {m}")
            if diag[i] and diag[i + 1] and diag[i + 1] % diag[i] != 0:
                failures.fail("snf-random", f"chain violated on {m}")
        # m V = U^-1 D with U invertible: m kills exactly the columns of V
        # past the rank, the count of nonzero diagonal entries
        rank = sum(1 for x in diag if x)
        killed = [not any(mv[i][j] for i in range(rows)) for j in range(cols)]
        if killed != [False] * rank + [True] * (cols - rank):
            failures.fail("snf-random", f"kernel columns of V wrong on {m}")
    entries.append(failures.entry("snf-random", "mv"))
    return entries


def suite_bass(opts: SuiteOptions, show=lambda report: None) -> List[CheckEntry]:
    """The connecting-idempotent report of each lens type; ``show`` sees
    each type's report before its entries are taken."""
    entries: List[CheckEntry] = []
    for N in opts.size("bass", "lens_types"):
        report = bass_class_report(N)
        show(report)
        entries += _suffixed(report.entries, f"N={N}")
    return entries


# ---------------------------------------------------------------------------
# prolongation
# ---------------------------------------------------------------------------


def suite_prolong(opts: SuiteOptions) -> List[CheckEntry]:
    entries: List[CheckEntry] = []
    failures = FirstFailures()
    for N in opts.size("prolong", "lens_types"):
        rng = SplitMix64(opts.seed + N)
        rt, mult, inv = (
            f"prolong:{name}[N={N}]" for name in ("roundtrip", "multiplicative", "image-invariant")
        )
        for _ in range(opts.size("prolong", "samples")):
            mono = random_sphere_monomial(rng, kmax=3, emax=4)
            x = SphereElement(SPHERE, {mono: random_coefficient(rng)})
            m = rng.randint(-4, 4)
            h = LaurentHopfElement.generator_power(m)
            t = prolong_phi(x, h, N)
            back = prolong_phi_inv(t, N)
            if back != ProlongElement.of(x, h):
                failures.fail(rt, f"{x} (x) u^{m}")
            if not prolong_is_invariant(t, N):
                failures.fail(inv, f"{t}")
            # invariant-side roundtrip
            d = mono.deg
            minv = d + N * rng.randint(-3, 3)
            tinv = ProlongElement(SPHERE, {(mono, minv): random_coefficient(rng)})
            if prolong_phi_map(prolong_phi_inv(tinv, N), N) != tinv:
                failures.fail(rt, f"invariant side {tinv}")
            mono2 = random_sphere_monomial(rng, kmax=3, emax=4)
            x2 = SphereElement(SPHERE, {mono2: random_coefficient(rng)})
            m2 = rng.randint(-4, 4)
            t1 = ProlongElement.of(x, LaurentHopfElement.generator_power(m))
            t2 = ProlongElement.of(x2, LaurentHopfElement.generator_power(m2))
            if prolong_phi_map(t1 * t2, N) != prolong_phi_map(t1, N) * prolong_phi_map(t2, N):
                failures.fail(mult, f"{t1} | {t2}")
        entries += [
            failures.entry(rt, "cotnislem"),
            failures.entry(mult, "cotnislem"),
            failures.entry(inv, "alphatilde"),
        ]
    return entries


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


SUITES = {
    "qidentities": suite_qidentities,
    "disc": suite_disc,
    "sphere": suite_sphere,
    "lens": suite_lens,
    "units": suite_units,
    "sconn": lambda opts: [e for v in CONNECTION_VARIANTS for e in suite_sconn(opts, v)],
    "idem": lambda opts: [e for v in CONNECTION_VARIANTS for e in suite_idem(opts, v)],
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
        entries = []
        for part in SUITES:
            entries += run_suite(part, opts).entries
            # what one suite memoized is mostly its own; keeping it would make
            # the peak memory of the run the sum over suites
            clear_run_memos()
    else:
        entries = SUITES[name](opts)
    return Report(
        command=f"relcheck {name}", seed=opts.seed, entries=entries, elapsed=time.monotonic() - t0
    )
