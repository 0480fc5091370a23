"""The lens-type invariant algebra: abstract basis, the generator map into
the sphere engine, its exact inverse, and the relation suites.

Multiplication of abstract elements is transported through the generator
map f (A' -> 1-aa*, B' -> 1-bb*, z' -> ab*, at' -> a^N, bt' -> b^N): every
phase is recomputed by the sphere engine, never read off a printed
formula.  The printed phase formulas are kept as recorded cross-checks
with discrepancy reporting.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

from .scalars import (
    Coefficient,
    LinComb,
    ONE,
    add_term,
    format_monomial,
    p_pow,
    q_pow,
    qpoly_Q,
    qpoly_Qpair,
    w_pow,
)
from .qalgebras import (
    CORE_A,
    CORE_B,
    SPHERE,
    SphereAlgebra,
    SphereElement,
    SphereMonomial,
)

CORE_APRIME = 0
CORE_BPRIME = 1


class NonInvariantError(ValueError):
    """Raised when a sphere element outside the invariant subalgebra is
    handed to the inverse generator map."""


class LensMonomial(NamedTuple):
    core: int  # CORE_APRIME (k >= 1) or CORE_BPRIME (k >= 0)
    k: int
    mu: int  # power of z'
    nu: int  # power of bt' for the A' family, of at' for the B' family


LENS_ONE = LensMonomial(CORE_BPRIME, 0, 0, 0)


def lens_mono_str(m: LensMonomial) -> str:
    if m.core == CORE_APRIME:
        return format_monomial((("A'", m.k), ("z'", m.mu), ("bt'", m.nu)))
    return format_monomial((("B'", m.k), ("z'", m.mu), ("at'", m.nu)))


class LensElement(LinComb):
    """Finite combination of the abstract basis monomials for a fixed type N.

    Products and adjoints are transported through the sphere engine."""

    __slots__ = ("N",)
    _ctx = "N"
    _one = LENS_ONE
    mono_str = staticmethod(lens_mono_str)

    def __init__(self, N: int, terms: Dict[LensMonomial, Coefficient] | None = None):
        if N < 1:
            raise ValueError("the lens type N must be >= 1")
        self.N = N
        super().__init__(terms)
        for m in self._t:
            if m.core == CORE_APRIME and m.k < 1:
                raise ValueError("A'-family monomials need k >= 1")
            if m.k < 0:
                raise ValueError("core powers are nonnegative")

    def __mul__(self, other):
        if isinstance(other, (Coefficient, int)):
            return self.scale(other)
        return lens_mul(self, other)

    def star(self) -> "LensElement":
        return lens_to_abstract(lens_from_abstract(self).star(), self.N)

    def __repr__(self):
        return f"LensElement(N={self.N}, {self})"


def lens_one(N: int) -> LensElement:
    return LensElement(N, {LENS_ONE: ONE})


def lens_gen(N: int, name: str, e: int = 1) -> LensElement:
    """One of A', B', z', at', bt' raised to a (possibly adjoint) power."""
    if name == "A'":
        if e < 1:
            raise ValueError("A' powers must be >= 1")
        return LensElement(N, {LensMonomial(CORE_APRIME, e, 0, 0): ONE})
    if name == "B'":
        if e < 1:
            raise ValueError("B' powers must be >= 1")
        return LensElement(N, {LensMonomial(CORE_BPRIME, e, 0, 0): ONE})
    if name == "z'":
        return LensElement(N, {LensMonomial(CORE_BPRIME, 0, e, 0): ONE})
    if name == "at'":
        return LensElement(N, {LensMonomial(CORE_BPRIME, 0, 0, e): ONE})
    if name == "bt'":
        # bt' alone is not a basis monomial; expand through the engine
        return lens_to_abstract(SPHERE.b().pow_signed(N * e), N)
    raise ValueError(f"unknown generator {name!r}")


# -- the generator map f -------------------------------------------------

_IMG_MEMO: Dict[Tuple[int, str, int], SphereElement] = {}


def lens_generator_image(g: str, N: int, alg: SphereAlgebra = SPHERE) -> SphereElement:
    if N < 1:
        raise ValueError("N must be >= 1")
    if g == "A'":
        return alg.A()
    if g == "B'":
        return alg.B()
    if g == "z'":
        return alg.z()
    if g == "at'":
        return alg.a(N)
    if g == "bt'":
        return alg.b(N)
    raise ValueError(f"unknown generator {g!r}")


def _image_power(g: str, e: int, N: int) -> SphereElement:
    key = (N, g, e)
    got = _IMG_MEMO.get(key)
    if got is None:
        got = lens_generator_image(g, N).pow_signed(e)
        _IMG_MEMO[key] = got
    return got


# f of one basis monomial, by (N, monomial): the product of generator powers
# that the sphere engine computes, so no phase is read off a printed formula
_BASIS_IMAGE_MEMO: Dict[Tuple[int, LensMonomial], SphereElement] = {}


def _basis_image(N: int, m: LensMonomial) -> SphereElement:
    key = (N, m)
    img = _BASIS_IMAGE_MEMO.get(key)
    if img is None:
        if m.core == CORE_APRIME:
            img = _image_power("A'", m.k, N) * _image_power("z'", m.mu, N)
            if m.nu:
                img = img * _image_power("bt'", m.nu, N)
        else:
            img = _image_power("B'", m.k, N) if m.k else SPHERE.one()
            img = img * _image_power("z'", m.mu, N)
            if m.nu:
                img = img * _image_power("at'", m.nu, N)
        _BASIS_IMAGE_MEMO[key] = img
    return img


def lens_from_abstract(t: LensElement) -> SphereElement:
    """Apply f term by term, summing the images of the basis monomials."""
    N = t.N
    out: Dict[SphereMonomial, Coefficient] = {}
    for m, c in t.sorted_terms():
        for im, ic in _basis_image(N, m).terms():
            add_term(out, im, ic * c)
    return SPHERE.element(out)


def _single_term(e: SphereElement) -> Tuple[SphereMonomial, Coefficient]:
    items = list(e.terms())
    if len(items) != 1:
        raise AssertionError("expected a one-term image")
    return items[0]


def _invert_unit(c: Coefficient) -> Coefficient:
    inv = c.unit_inverse()
    if inv is None:
        raise AssertionError(f"image coefficient {c} is not a ring unit")
    return inv


# the preimage of one sphere monomial, by (N, monomial): the candidate basis
# monomial, the inverse of the unit leading its image, and that image.  An
# entry is stored only once every check has passed, so a failure raises again
# on each call.
_PREIMAGE_MEMO: Dict[
    Tuple[int, SphereMonomial], Tuple[LensMonomial, Coefficient, SphereElement]
] = {}


def _preimage(N: int, m: SphereMonomial) -> Tuple[LensMonomial, Coefficient, SphereElement]:
    key = (N, m)
    got = _PREIMAGE_MEMO.get(key)
    if got is not None:
        return got
    lam = (m.mu + m.nu) // N
    if m.k == 0:
        # the B'-family preimage, whose image also carries A-dressed corrections
        cand = LensMonomial(CORE_BPRIME, 0, -m.nu, lam)
        img = _basis_image(N, cand)
        free = {im: ic for im, ic in img.terms() if im.k == 0}
        if m not in free:
            raise AssertionError("candidate preimage misses the target monomial")
        if len(free) != 1:
            raise AssertionError("candidate preimage has more than one core-free term")
        lead = free[m]
    else:
        if m.core == CORE_A:
            cand = LensMonomial(CORE_APRIME, m.k, m.mu, lam)
        else:
            cand = LensMonomial(CORE_BPRIME, m.k, -m.nu, lam)
        img = _basis_image(N, cand)
        imono, lead = _single_term(img)
        if imono != m:
            raise AssertionError("core-family preimage mismatch")
    got = _PREIMAGE_MEMO[key] = (cand, _invert_unit(lead), img)
    return got


def lens_to_abstract(r: SphereElement, N: int) -> LensElement:
    """Exact inverse of lens_from_abstract on the invariant subalgebra.

    Core-free terms are peeled first through their B'-family preimage;
    each such image has one core-free term, so a peel changes only
    core-carrying terms, which then invert monomial by monomial.
    """
    if r.alg is not SPHERE:
        raise ValueError("inverse map expects generic sphere elements")
    if not r.is_invariant(N):
        raise NonInvariantError("element is not invariant for this lens type")
    out: Dict[LensMonomial, Coefficient] = {}
    rest = dict(r.terms())
    for m in sorted(m for m in rest if m.k == 0):
        cand, inv, img = _preimage(N, m)
        factor = rest[m] * inv
        add_term(out, cand, factor)
        for im, ic in img.terms():
            add_term(rest, im, -(ic * factor))
    for m, c in sorted(rest.items()):
        cand, inv, _ = _preimage(N, m)
        add_term(out, cand, c * inv)
    return LensElement(N, out)


def lens_mul(t1: LensElement, t2: LensElement) -> LensElement:
    if t1.N != t2.N:
        raise ValueError("mismatched lens types")
    return lens_to_abstract(lens_from_abstract(t1) * lens_from_abstract(t2), t1.N)


def subspace_classify(t: LensElement) -> Tuple[LensElement, LensElement, LensElement]:
    """Split into the A'-core part, the core-free part, and the B'-core part."""
    va: Dict[LensMonomial, Coefficient] = {}
    v0: Dict[LensMonomial, Coefficient] = {}
    vb: Dict[LensMonomial, Coefficient] = {}
    for m, c in t.terms():
        if m.core == CORE_APRIME:
            va[m] = c
        elif m.k == 0:
            v0[m] = c
        else:
            vb[m] = c
    return LensElement(t.N, va), LensElement(t.N, v0), LensElement(t.N, vb)


# -- printed-phase cross-checks ------------------------------------------


def printed_phase_checks(N: int, window: int = 3) -> List[Tuple[str, bool]]:
    """Compare engine-computed coefficients of f on basis monomials against
    the recorded closed-form phases.  Returns (check id, agreement) pairs;
    the recorded alternative from the injectivity computation is reported
    too, without asserting which was intended.
    """
    results: List[Tuple[str, bool]] = []
    ok_a = ok_b = ok_b_alt = ok_z = True
    for mu in range(-window, window + 1):
        img = lens_from_abstract(
            LensElement(N, {LensMonomial(CORE_BPRIME, 0, mu, 0): ONE})
        )
        lead = {m: c for m, c in img.terms() if m.k == 0}
        expect = {
            SphereMonomial(CORE_A, 0, mu, -mu): w_pow(mu * (mu - 1))
        }
        ok_z = ok_z and lead == expect
        for nu in range(-window, window + 1):
            for k in (1, 2):
                m_a = LensMonomial(CORE_APRIME, k, mu, nu)
                got = _single_term(lens_from_abstract(LensElement(N, {m_a: ONE})))
                want = (
                    SphereMonomial(CORE_A, k, mu, N * nu - mu),
                    w_pow(mu * (mu - 1)),
                )
                ok_a = ok_a and got == want
                m_b = LensMonomial(CORE_BPRIME, k, mu, nu)
                got = _single_term(lens_from_abstract(LensElement(N, {m_b: ONE})))
                want = (
                    SphereMonomial(CORE_B, k, mu + N * nu, -mu),
                    w_pow(mu * (mu - 1) + 2 * N * mu * nu),
                )
                ok_b = ok_b and got == want
                want_alt = (
                    SphereMonomial(CORE_B, k, mu + N * nu, -mu),
                    w_pow(mu * (mu - 1) - 2 * N * mu * nu),
                )
                ok_b_alt = ok_b_alt and got == want_alt
    results.append(("fongens.z-family", ok_z))
    results.append(("fongens.a-family", ok_a))
    results.append(("fongens.b-family", ok_b))
    results.append(("fongens.b-family-injectivity-sign", ok_b_alt))
    return results


# -- relation suite --------------------------------------------------------


def _one_plus_q(n: int, var: str) -> SphereElement:
    """1 + (index-n contraction polynomial) evaluated on the matching core."""
    out = SPHERE.one()
    for deg, c in qpoly_Q(n, var).items():
        core = SPHERE.A(deg) if var == "p" else SPHERE.B(deg)
        out = out + core.scale(c)
    return out


def lens_relation_suite(N: int, window: int = 6) -> List[Tuple[str, str, str]]:
    """Residuals of the invariant-subalgebra relations, computed in the
    sphere engine through generator images.

    Returns (check id, status, residual) triples; failures are entries,
    never exceptions.  The bare-b variant of lense.e is reported as a
    known discrepancy for N >= 2 (it only holds at N = 1, where the
    N-th power generator coincides with b); the corrected variant with
    the N-th power generator is asserted.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    s = SPHERE
    one, a, b, A, B, z = s.one(), s.a(), s.b(), s.A(), s.B(), s.z()
    at, bt = s.a(N), s.b(N)
    entries: List[Tuple[str, str, str]] = []

    def zero(cid: str, elem: SphereElement):
        ok = elem.is_zero()
        entries.append((cid, "pass" if ok else "fail", "0" if ok else str(elem)))

    zero("lense.a:Astar", A.star() - A)
    zero("lense.a:Bstar", B.star() - B)
    zero("lense.a:AB", A * B)
    zero("lense.a:Az", A * z - (z * A).scale(p_pow(1)))
    zero("lense.a:zB", z * B - (B * z).scale(q_pow(1)))
    zero("lense.b:zstarz", z.star() * z - (one - A.scale(p_pow(1)) - B))
    zero("lense.b:zzstar", z * z.star() - (one - A - B.scale(q_pow(1))))
    zero("lense.c:Aat", A * at - (at * A).scale(p_pow(N)))
    zero("lense.c:Abt", A * bt - bt * A)
    zero("lense.c:Bat", B * at - at * B)
    zero("lense.c:Bbt", B * bt - (bt * B).scale(q_pow(N)))
    zero("lense.c:zat", z * at - (at * z).scale(w_pow(2 * N)))
    zero("lense.c:zbtstar", z * bt.star() - (bt.star() * z).scale(w_pow(-2 * N)))
    rhs_d = (A * z.pow_signed(1 - N) * bt.star()).scale(
        w_pow(-N * (N + 1)) * (p_pow(N) - ONE)
    )
    zero("lense.d", z * at.star() - (at.star() * z).scale(w_pow(-2 * N)) - rhs_d)
    rhs_e = (B * z.pow_signed(1 - N) * at).scale(
        w_pow(N * (N - 1)) * q_pow(1) * (q_pow(-N) - ONE)
    )
    zero("lense.e", z * bt - (bt * z).scale(w_pow(2 * N)) - rhs_e)
    res_printed = z * b - (b * z).scale(w_pow(2 * N)) - rhs_e
    if res_printed.is_zero():
        entries.append(("lense.e:printed-b", "pass", "0"))
    else:
        entries.append(("lense.e:printed-b", "known-discrepancy", str(res_printed)))
    zero("lense.f:atbt", at * bt - (bt * at).scale(w_pow(2 * N * N)))
    zero("lense.f:atbtstar", at * bt.star() - (bt.star() * at).scale(w_pow(-2 * N * N)))
    zero("lense.f:zN", at * bt.star() - z.pow_signed(N).scale(w_pow(-N * (N - 1))))
    zero("lense.g:atstar-at", at.star() * at - _one_plus_q(-N, "p"))
    zero("lense.g:at-atstar", at * at.star() - _one_plus_q(N, "p"))
    zero("lense.g:btstar-bt", bt.star() * bt - _one_plus_q(-N, "q"))
    zero("lense.g:bt-btstar", bt * bt.star() - _one_plus_q(N, "q"))

    rng_range = range(-window, window + 1)
    z_pow = {e: z.pow_signed(e) for e in range(-2 * window, 2 * window + 1)}
    at_pow = {e: at.pow_signed(e) for e in rng_range}
    bt_pow = {e: bt.pow_signed(e) for e in rng_range}

    def aggregate(cid: str, first_failure):
        if first_failure is None:
            entries.append((cid, "pass", "0"))
        else:
            entries.append((cid, "fail", first_failure))

    bad = None
    for mu in rng_range:
        for nu in rng_range:
            lhs = z_pow[mu] * z_pow[nu]
            rhs = s.one()
            for deg, c in qpoly_Qpair(mu, nu, "p").items():
                rhs = rhs + s.A(deg).scale(c)
            for deg, c in qpoly_Qpair(-mu, -nu, "q").items():
                rhs = rhs + s.B(deg).scale(c)
            rhs = rhs * z_pow[mu + nu]
            if lhs != rhs and bad is None:
                bad = f"mu={mu}, nu={nu}: {lhs - rhs}"
    aggregate("multpls.a", bad)

    for cid, gen_pow, var, core in (
        ("multpls.b", at_pow, "p", s.A),
        ("multpls.c", bt_pow, "q", s.B),
    ):
        bad = None
        for mu in rng_range:
            for nu in rng_range:
                if abs(mu + nu) > window:
                    continue
                lhs = gen_pow[mu] * gen_pow[nu]
                rhs = s.one()
                for deg, c in qpoly_Qpair(N * mu, N * nu, var).items():
                    rhs = rhs + core(deg).scale(c)
                rhs = rhs * gen_pow[mu + nu]
                if lhs != rhs and bad is None:
                    bad = f"mu={mu}, nu={nu}: {lhs - rhs}"
        aggregate(cid, bad)

    bad = None
    for nu in rng_range:
        lhs = A * at_pow[nu]
        rhs = (A * z.pow_signed(N * nu) * bt_pow[nu]).scale(w_pow(-N * nu * (N * nu - 1)))
        if lhs != rhs and bad is None:
            bad = f"nu={nu}: {lhs - rhs}"
    aggregate("multpls.e", bad)

    bad = None
    for mu in rng_range:
        for nu in rng_range:
            lhs = A * z_pow[nu] * bt_pow[mu]
            rhs = (A * bt_pow[mu] * z_pow[nu]).scale(w_pow(2 * N * mu * nu))
            if lhs != rhs and bad is None:
                bad = f"mu={mu}, nu={nu}: {lhs - rhs}"
    aggregate("multpls.i", bad)

    bad = None
    for mu in rng_range:
        for nu in rng_range:
            res = at_pow[nu] * z_pow[mu] - (z_pow[mu] * at_pow[nu]).scale(
                w_pow(-2 * N * mu * nu)
            )
            if not res.is_zero():
                va, v0, vb = subspace_classify(lens_to_abstract(res, N))
                if (v0 or vb) and bad is None:
                    bad = f"mu={mu}, nu={nu}: parts outside the A'-span: {v0 + vb}"
    aggregate("azch", bad)

    for cid, ok in printed_phase_checks(N):
        if cid == "fongens.b-family-injectivity-sign":
            # the recorded alternative sign is expected to disagree with the
            # engine; flag it rather than asserting either way
            entries.append(
                (cid, "known-discrepancy" if not ok else "fail",
                 "recorded alternative phase disagrees with the engine" if not ok else
                 "engine unexpectedly matches both recorded phases")
            )
        else:
            entries.append((cid, "pass" if ok else "fail", "0" if ok else "phase mismatch"))
    return entries


# -- window certificate for the basis isomorphism ---------------------------


def basis_window_check(
    N: int, bound: int, samples: int = 500, seed: int | None = None
) -> List[Tuple[str, str, str]]:
    """Window-scale certificate for the generator map being a linear
    isomorphism onto the invariant subalgebra: exact roundtrips, disjoint
    leading supports (independence certificate), and randomized
    homomorphism spot checks."""
    from .rng import DEFAULT_SEED, SplitMix64, random_coefficient

    if bound < 1:
        raise ValueError("bound must be >= 1")
    rng = SplitMix64(DEFAULT_SEED if seed is None else seed)
    entries: List[Tuple[str, str, str]] = []

    window: List[LensMonomial] = []
    for mu in range(-bound, bound + 1):
        for nu in range(-bound, bound + 1):
            window.append(LensMonomial(CORE_BPRIME, 0, mu, nu))
            for k in range(1, bound + 1):
                window.append(LensMonomial(CORE_APRIME, k, mu, nu))
                window.append(LensMonomial(CORE_BPRIME, k, mu, nu))

    bad = None
    for m in window:
        t = LensElement(N, {m: ONE})
        if lens_to_abstract(lens_from_abstract(t), N) != t and bad is None:
            bad = f"roundtrip failed on {lens_mono_str(m)}"
    entries.append(("iso:roundtrip", "pass" if bad is None else "fail", bad or "0"))

    leading = {}
    bad = None
    for m in window:
        img = lens_from_abstract(LensElement(N, {m: ONE}))
        if m.core == CORE_BPRIME and m.k == 0:
            lead = min(im for im, _ in img.terms() if im.k == 0)
        else:
            lead = _single_term(img)[0]
        if lead in leading and bad is None:
            bad = f"{lens_mono_str(m)} and {lens_mono_str(leading[lead])} share leading support"
        leading[lead] = m
    entries.append(("iso:independence", "pass" if bad is None else "fail", bad or "0"))

    bad = None
    count = 0
    for _ in range(samples):
        picks = []
        for _ in range(2):
            m = rng.choice(window)
            picks.append(LensElement(N, {m: random_coefficient(rng)}))
        t1, t2 = picks
        x = lens_from_abstract(t1) * lens_from_abstract(t2)
        if not x.is_invariant(N):
            bad = bad or f"product of images left the invariant subalgebra"
            continue
        t12 = lens_to_abstract(x, N)
        if lens_from_abstract(t12) != x:
            bad = bad or "inverse failed on a product"
            continue
        count += 1
    # a check that inspected no product is not a pass
    entries.append(
        (
            "iso:homomorphism",
            "pass" if bad is None and count else "fail",
            bad or f"{count} product spot checks",
        )
    )
    return entries
