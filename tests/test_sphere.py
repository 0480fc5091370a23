"""Sphere engine tests against the coefficient-polynomial product formula.

The oracle represents an element as a family of mixed-term-free bivariate
polynomials indexed by generator bidegrees and multiplies by rescaling,
phase and the contraction-polynomial correction in one shot — a different
route from the engine's five-step monomial algorithm.
"""

import pytest

from heegaard.scalars import (
    EvaluationError,
    ONE,
    ZERO,
    p_pow,
    q_pow,
    qpoly_Qpair,
    w_pow,
)
from heegaard.qalgebras import (
    CORE_A,
    CORE_B,
    SPHERE,
    SPHERE0,
    SphereElement,
    SPHERE_RELATIONS,
    SphereMonomial,
    aaminus_residual,
    phase_power_residual,
)
from heegaard.rng import SplitMix64, random_sphere_element, random_sphere_monomial


# -- oracle: bidegree-indexed polynomials with no mixed core terms -------------


def ab_mul(c1, c2):
    out = {}
    for (i1, j1), v1 in c1.items():
        for (i2, j2), v2 in c2.items():
            if (i1 + i2) and (j1 + j2):
                continue  # mixed core powers annihilate
            k = (i1 + i2, j1 + j2)
            s = out.get(k, ZERO) + v1 * v2
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def ab_add(c1, c2):
    out = dict(c1)
    for k, v in c2.items():
        s = out.get(k, ZERO) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def ab_rescale(c, mu, nu):
    return {(i, j): v * p_pow(-mu * i) * q_pow(-nu * j) for (i, j), v in c.items()}


def to_oracle(elem):
    out = {}
    for m, c in elem.terms():
        key = (m.mu, m.nu)
        entry = (m.k, 0) if m.core == CORE_A else (0, m.k)
        bucket = out.setdefault(key, {})
        bucket[entry] = bucket.get(entry, ZERO) + c
    return out


def oracle_mul(r, s):
    out = {}
    for (mu1, nu1), c1 in to_oracle(r).items():
        for (mu2, nu2), c2 in to_oracle(s).items():
            correction = {(0, 0): ONE}
            for deg, c in qpoly_Qpair(mu1, mu2, "p").items():
                correction[(deg, 0)] = correction.get((deg, 0), ZERO) + c
            for deg, c in qpoly_Qpair(nu1, nu2, "q").items():
                correction[(0, deg)] = correction.get((0, deg), ZERO) + c
            piece = ab_mul(ab_mul(c1, ab_rescale(c2, mu1, nu1)), correction)
            phase = w_pow(-2 * nu1 * mu2)
            piece = {k: v * phase for k, v in piece.items()}
            key = (mu1 + mu2, nu1 + nu2)
            out[key] = ab_add(out.get(key, {}), piece)
    return {k: v for k, v in out.items() if v}


def test_product_against_coefficient_oracle():
    rng = SplitMix64(24195)
    for _ in range(400):
        r = random_sphere_element(rng, SPHERE, terms=2, kmax=3, emax=4)
        s = random_sphere_element(rng, SPHERE, terms=2, kmax=3, emax=4)
        assert to_oracle(r * s) == oracle_mul(r, s)


# -- pinned relation values -----------------------------------------------------


def test_defining_relations():
    s = SPHERE
    a, b = s.a(), s.b()
    assert a * b == (b * a).scale(w_pow(2))
    assert a * b.star() == (b.star() * a).scale(w_pow(-2))
    assert a.star() * a == s.one() - s.A().scale(p_pow(1))
    assert b.star() * b == s.one() - s.B().scale(q_pow(1))
    assert (s.A() * s.B()).is_zero()
    assert b * a == (a * b).scale(w_pow(-2))
    assert (s.one() - a * a.star()) * (s.one() - b * b.star()) == s.A() * s.B()


def test_core_commutations():
    s = SPHERE
    a, b, A, B = s.a(), s.b(), s.A(), s.B()
    assert A * a == (a * A).scale(p_pow(1))
    assert A * b == b * A
    assert B * a == a * B
    assert B * b == (b * B).scale(q_pow(1))
    assert A.star() == A
    assert B.star() == B


def test_invariant_algebra_values():
    s = SPHERE
    z = s.z()
    assert z == s.a() * s.b().star()
    assert z.star() * z == s.one() - s.A().scale(p_pow(1)) - s.B()
    assert z * z.star() == s.one() - s.A() - s.B().scale(q_pow(1))
    assert z.star() == (s.a(-1) * s.b()).scale(w_pow(2))


def test_sphere_relation_table():
    for rid, rule in SPHERE_RELATIONS.items():
        assert rule(SPHERE).is_zero(), rid
    for n in range(1, 13):
        assert aaminus_residual(n).is_zero(), n
    a, b = SPHERE.a(), SPHERE.b()
    for mu in range(-6, 7):
        assert phase_power_residual(a, b, 2, mu).is_zero(), mu
        assert phase_power_residual(a, b.star(), -2, mu).is_zero(), mu


def test_phase_power_identity_gives_z_powers():
    # a^mu (b*)^mu equals the phase-corrected z^mu
    s = SPHERE
    for mu in range(-5, 6):
        lhs = s.a(1).pow_signed(mu) * s.b(1).star().pow_signed(mu)
        rhs = s.z().pow_signed(mu).scale(w_pow(-mu * (mu - 1)))
        assert lhs == rhs, mu


def test_star_properties_random():
    rng = SplitMix64(3)
    for _ in range(500):
        r = random_sphere_element(rng, SPHERE, terms=2)
        t = random_sphere_element(rng, SPHERE, terms=2)
        assert (r * t).star() == t.star() * r.star()
        assert r.star().star() == r


def test_associativity_random():
    rng = SplitMix64(5)
    for _ in range(1000):
        r = random_sphere_element(rng, SPHERE, terms=1, kmax=4, emax=5)
        t = random_sphere_element(rng, SPHERE, terms=1, kmax=4, emax=5)
        u = random_sphere_element(rng, SPHERE, terms=1, kmax=4, emax=5)
        assert (r * t) * u == r * (t * u)


# every basis monomial with k <= 1 and |mu|, |nu| <= 1, unit coefficient
WINDOW_1 = [
    SPHERE.monomial(core, k, mu, nu)
    for core, k in ((CORE_A, 0), (CORE_A, 1), (CORE_B, 1))
    for mu in (-1, 0, 1)
    for nu in (-1, 0, 1)
]


def test_associativity_and_adjoint_certificate_over_a_window():
    # coefficients are central, so unit-coefficient basis monomials cover the
    # whole window; it holds mixed cores, k = 0 against k = 1, each sign of mu
    # and nu, and both contraction bases (a window is not a proof for all
    # exponents)
    assert len(WINDOW_1) == 27
    products = {(i, j): x * y for i, x in enumerate(WINDOW_1) for j, y in enumerate(WINDOW_1)}
    stars = [x.star() for x in WINDOW_1]
    for (i, j), xy in products.items():
        assert xy.star() == stars[j] * stars[i], (i, j)
        for k, z in enumerate(WINDOW_1):
            assert xy * z == WINDOW_1[i] * products[j, k], (i, j, k)


def test_grading():
    s = SPHERE
    assert s.a().degree_support() == {1}
    assert s.z().degree_support() == {0}
    assert (s.a() + s.b(2)).degree_support() == {1, 2}
    assert s.zero().degree_support() == set()
    rng = SplitMix64(9)
    for _ in range(400):
        r = random_sphere_element(rng, SPHERE, terms=2)
        t = random_sphere_element(rng, SPHERE, terms=2)
        prod = r * t
        minkowski = {dr + dt for dr in r.degree_support() for dt in t.degree_support()}
        assert prod.degree_support() <= minkowski


def test_invariance():
    s = SPHERE
    assert s.z().is_invariant(1)
    assert s.z().is_invariant(7)
    assert s.a(3).is_invariant(3)
    assert not s.a().is_invariant(3)
    with pytest.raises(ValueError):
        s.a().is_invariant(0)


def test_elements_built_from_a_dict_are_in_normal_form():
    # B^0 a is not a normal-form monomial: it would print as a and compare
    # unequal to it, so every way of building an element refuses it
    bad = [SphereMonomial(CORE_B, 0, 1, 0), SphereMonomial(CORE_A, -1, 0, 0), SphereMonomial(CORE_B, -2, 0, 1)]
    for alg in (SPHERE, SPHERE0):
        for m in bad:
            for build in (alg.element, lambda t: SphereElement(alg, t)):
                with pytest.raises(ValueError):
                    build({m: ONE})
                with pytest.raises(ValueError):
                    build({SphereMonomial(CORE_A, 0, 0, 0): ONE, m: w_pow(1)})
            with pytest.raises(ValueError):
                alg.monomial(*m)
        assert alg.element({SphereMonomial(CORE_A, 0, 1, 0): ONE}) == alg.a()
        assert alg.element({SphereMonomial(CORE_B, 1, 1, 0): ONE}) == alg.monomial(CORE_B, 1, 1, 0)
    # products and adjoints build their results unchecked, in normal form
    x = SPHERE.B(2) * SPHERE.a(-1) + SPHERE.A(3).star() * SPHERE.b()
    assert SPHERE.element(dict(x.terms())) == x


def test_normal_form_closure_random():
    rng = SplitMix64(17)
    for _ in range(500):
        r = random_sphere_element(rng, SPHERE, terms=2)
        t = random_sphere_element(rng, SPHERE, terms=2)
        for mono, _ in (r * t).terms():
            assert not (mono.core == CORE_B and mono.k < 1)


def test_homogeneous_products_are_homogeneous():
    rng = SplitMix64(19)
    for _ in range(300):
        m1 = random_sphere_monomial(rng)
        m2 = random_sphere_monomial(rng)
        prod = SphereElement(SPHERE, {m1: ONE}) * SphereElement(SPHERE, {m2: ONE})
        assert len(prod.degree_support()) <= 1


# -- parameter-zero sphere -------------------------------------------------------


def test_isometric_sphere():
    s0 = SPHERE0
    for k in range(1, 8):
        assert s0.a(1).pow_signed(-k) * s0.a(1).pow_signed(k) == s0.one(), k
        assert s0.b(1).pow_signed(-k) * s0.b(1).pow_signed(k) == s0.one(), k
    assert s0.a() * s0.a().star() == s0.one() - s0.A()
    assert s0.A() * s0.A() == s0.A()
    assert s0.B() * s0.B() == s0.B()
    assert (s0.A() * s0.a()).is_zero()
    assert (s0.B() * s0.b()).is_zero()
    assert (s0.one() - s0.A()) * (s0.one() - s0.A()) == s0.one() - s0.A()
    with pytest.raises(EvaluationError):
        s0.a() * s0.A()
    with pytest.raises(EvaluationError):
        s0.a(2) * s0.a(1).pow_signed(-2)


def test_canonical_printing():
    s = SPHERE
    assert str(s.z()) == "a b^-1"
    assert str(s.one() - s.A().scale(p_pow(1))) == "1 - p A"
    assert str(s.zero()) == "0"
    assert str(s.monomial(CORE_B, 2, -1, 3, w_pow(-2))) == "w^-2 B^2 a^-1 b^3"
