"""Lens algebra: generator map, exact inversion, transported products and
the relation suite."""

import pytest

from heegaard.scalars import ONE, p_pow, q_pow, qpoly_Q, w_pow
from heegaard.qalgebras import SPHERE
from heegaard import lens as lens_module
from heegaard.lens import (
    CORE_APRIME,
    CORE_BPRIME,
    LensElement,
    LensMonomial,
    NonInvariantError,
    basis_window_check,
    lens_from_abstract,
    lens_gen,
    lens_generator_image,
    lens_mul,
    lens_one,
    lens_relation_suite,
    lens_to_abstract,
    printed_phase_checks,
    subspace_classify,
)
from heegaard.rng import SplitMix64, random_coefficient


def test_generator_images():
    s = SPHERE
    assert lens_generator_image("z'", 4) == s.z()
    assert lens_generator_image("at'", 3) == s.a(3)
    assert lens_generator_image("bt'", 2) == s.b(2)
    assert lens_generator_image("A'", 5) == s.A()
    assert lens_generator_image("B'", 5) == s.B()
    with pytest.raises(ValueError):
        lens_generator_image("z'", 0)


def test_z_power_image_phase():
    # image of the squared invariant generator carries the engine phase
    t = lens_gen(3, "z'", 2)
    assert lens_from_abstract(t) == (SPHERE.a(2) * SPHERE.b(-2).pow_signed(1)).scale(w_pow(2))
    assert lens_from_abstract(lens_one(3)) == SPHERE.one()


def test_mixed_image_example():
    # A' z' bt' at type N maps onto the unique core monomial with unit phase
    for N in (2, 3):
        t = LensElement(N, {LensMonomial(CORE_APRIME, 1, 1, 1): ONE})
        img = lens_from_abstract(t)
        items = list(img.terms())
        assert len(items) == 1
        mono, c = items[0]
        assert (mono.core, mono.k, mono.mu, mono.nu) == (0, 1, 1, N - 1)
        assert c == ONE


def test_roundtrip_all_small_monomials():
    for N in (1, 2, 3):
        for core in (CORE_APRIME, CORE_BPRIME):
            for k in range(0 if core == CORE_BPRIME else 1, 3):
                for mu in range(-2, 3):
                    for nu in range(-2, 3):
                        t = LensElement(N, {LensMonomial(core, k, mu, nu): ONE})
                        assert lens_to_abstract(lens_from_abstract(t), N) == t


def test_inverse_examples():
    N = 3
    s = SPHERE
    # the unique core preimage of the dressed core monomial
    img = s.A() * s.a() * s.b(N - 1)
    assert lens_to_abstract(img, N) == LensElement(
        N, {LensMonomial(CORE_APRIME, 1, 1, 1): ONE}
    )
    assert lens_to_abstract(s.one(), N) == lens_one(N)
    got = lens_to_abstract((s.a(2) * s.b(-2).pow_signed(1)), N)
    assert got == lens_gen(N, "z'", 2).scale(w_pow(-2))
    with pytest.raises(NonInvariantError):
        lens_to_abstract(s.a(), N)


def test_transported_products():
    for N in (1, 2, 3):
        z = lens_gen(N, "z'")
        A = lens_gen(N, "A'")
        B = lens_gen(N, "B'")
        at = lens_gen(N, "at'")
        one = lens_one(N)
        assert z.star() * z == one - A.scale(p_pow(1)) - B
        assert z * z.star() == one - A - B.scale(q_pow(1))
        assert (A * B).is_zero()
        rhs = one
        for deg, c in qpoly_Q(N, "p").items():
            rhs = rhs + lens_gen(N, "A'", deg).scale(c)
        assert at * at.star() == rhs
        with pytest.raises(ValueError):
            lens_mul(lens_one(2), lens_one(3))


def test_subspace_classify():
    N = 2
    t = (
        LensElement(N, {LensMonomial(CORE_APRIME, 1, 1, 0): ONE})
        + LensElement(N, {LensMonomial(CORE_BPRIME, 0, 0, 1): ONE})
        + LensElement(N, {LensMonomial(CORE_BPRIME, 2, 0, 0): ONE})
    )
    va, v0, vb = subspace_classify(t)
    assert va == LensElement(N, {LensMonomial(CORE_APRIME, 1, 1, 0): ONE})
    assert v0 == LensElement(N, {LensMonomial(CORE_BPRIME, 0, 0, 1): ONE})
    assert vb == LensElement(N, {LensMonomial(CORE_BPRIME, 2, 0, 0): ONE})
    assert va + v0 + vb == t


def test_images_are_invariant():
    rng = SplitMix64(21)
    for N in (2, 3):
        for _ in range(100):
            core = rng.choice((CORE_APRIME, CORE_BPRIME))
            k = rng.randint(1 if core == CORE_APRIME else 0, 3)
            m = LensMonomial(core, k, rng.randint(-3, 3), rng.randint(-3, 3))
            t = LensElement(N, {m: random_coefficient(rng)})
            assert lens_from_abstract(t).is_invariant(N)


def test_star_is_involution_and_antimultiplicative():
    rng = SplitMix64(23)
    N = 2
    for _ in range(60):
        core = rng.choice((CORE_APRIME, CORE_BPRIME))
        k = rng.randint(1 if core == CORE_APRIME else 0, 2)
        t1 = LensElement(
            N, {LensMonomial(core, k, rng.randint(-2, 2), rng.randint(-2, 2)): random_coefficient(rng)}
        )
        t2 = LensElement(
            N, {LensMonomial(CORE_BPRIME, 0, rng.randint(-2, 2), rng.randint(-2, 2)): random_coefficient(rng)}
        )
        assert t1.star().star() == t1
        assert (t1 * t2).star() == t2.star() * t1.star()


def test_relation_suite_small_types():
    for N in (1, 2, 3):
        entries = lens_relation_suite(N, window=4)
        failures = [(c, r) for c, st, r in entries if st == "fail"]
        assert not failures, failures
        printed = [st for c, st, r in entries if c == "lense.e:printed-b"]
        assert printed == (["pass"] if N == 1 else ["known-discrepancy"])


def test_printed_phase_crosschecks():
    for N in (2, 3):
        results = dict(printed_phase_checks(N))
        assert results["fongens.z-family"]
        assert results["fongens.a-family"]
        assert results["fongens.b-family"]
        assert not results["fongens.b-family-injectivity-sign"]


def test_window_certificate():
    for N, bound in ((1, 2), (2, 3)):
        entries = basis_window_check(N, bound, samples=150)
        assert all(st == "pass" for _, st, _ in entries), entries


def test_window_check_without_products_fails():
    # zero spot checks inspected nothing, so the homomorphism verdict is a fail
    entries = {cid: (st, info) for cid, st, info in basis_window_check(2, 1, samples=0)}
    assert entries["iso:homomorphism"] == ("fail", "0 product spot checks")
    assert entries["iso:roundtrip"][0] == entries["iso:independence"][0] == "pass"


def test_va_vb_annihilate_and_va_stability():
    rng = SplitMix64(29)
    N = 3
    for _ in range(50):
        va = LensElement(
            N,
            {LensMonomial(CORE_APRIME, rng.randint(1, 2), rng.randint(-2, 2), rng.randint(-2, 2)): random_coefficient(rng)},
        )
        vb = LensElement(
            N,
            {LensMonomial(CORE_BPRIME, rng.randint(1, 2), rng.randint(-2, 2), rng.randint(-2, 2)): random_coefficient(rng)},
        )
        assert (va * vb).is_zero()
        assert (vb * va).is_zero()
        w = LensElement(
            N,
            {LensMonomial(CORE_BPRIME, 0, rng.randint(-2, 2), rng.randint(-2, 2)): random_coefficient(rng)},
        )
        for prod in (va * w, w * va, va * va):
            _, v0, vbp = subspace_classify(prod)
            assert v0.is_zero() and vbp.is_zero()


def printed_inverse(r, N):
    """Closed-form inverse oracle assembled from the recorded preimage
    formulas (phases written down once, not recomputed by the engine):

      core-A monomials pull back with phase w^(-m(m-1));
      core-B and core-free monomials with z-exponent -n pick up
      w^(-(mu'(mu'-1) + 2 N mu' lam)); the core-free preimage additionally
      subtracts the contraction-polynomial dressing on the A'-family.
    """
    from heegaard.scalars import ZERO, qpoly_Qpair
    from heegaard.qalgebras import CORE_A as SA

    out = {}

    def add(mono, c):
        s = out.get(mono, ZERO) + c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)

    for mono, c in r.terms():
        m, n = mono.mu, mono.nu
        lam = (m + n) // N
        if mono.core == SA and mono.k >= 1:
            add(LensMonomial(CORE_APRIME, mono.k, m, lam), c * w_pow(-m * (m - 1)))
        elif mono.core != SA:
            mu_p = -n
            phase = w_pow(-(mu_p * (mu_p - 1) + 2 * N * mu_p * lam))
            add(LensMonomial(CORE_BPRIME, mono.k, mu_p, lam), c * phase)
        else:
            mu_p = -n
            phase = w_pow(-(mu_p * (mu_p - 1) + 2 * N * mu_p * lam))
            add(LensMonomial(CORE_BPRIME, 0, mu_p, lam), c * phase)
            corr_phase = w_pow(-m * (m - 1))
            for deg, qc in qpoly_Qpair(mu_p, N * lam, "p").items():
                add(LensMonomial(CORE_APRIME, deg, m, lam), -(c * corr_phase * qc))
    return LensElement(N, out)


def test_inverse_against_printed_formula_oracle():
    rng = SplitMix64(67)
    for N in (1, 2, 3):
        for _ in range(150):
            core = rng.choice((CORE_APRIME, CORE_BPRIME))
            k = rng.randint(1 if core == CORE_APRIME else 0, 2)
            t = LensElement(
                N,
                {LensMonomial(core, k, rng.randint(-3, 3), rng.randint(-3, 3)): random_coefficient(rng)},
            )
            img = lens_from_abstract(t)
            assert printed_inverse(img, N) == lens_to_abstract(img, N) == t
        # and on sums of images (general invariant elements)
        for _ in range(60):
            acc = None
            for _ in range(3):
                core = rng.choice((CORE_APRIME, CORE_BPRIME))
                k = rng.randint(1 if core == CORE_APRIME else 0, 2)
                t = LensElement(
                    N,
                    {LensMonomial(core, k, rng.randint(-2, 2), rng.randint(-2, 2)): random_coefficient(rng)},
                )
                acc = t if acc is None else acc + t
            img = lens_from_abstract(acc)
            assert printed_inverse(img, N) == lens_to_abstract(img, N) == acc


def uncached_image(t):
    """The generator map f with no memo: every basis image is multiplied out
    from fresh powers of the generator images."""
    N = t.N
    gen = {g: lens_generator_image(g, N) for g in ("A'", "B'", "z'", "at'", "bt'")}
    out = SPHERE.zero()
    for m, c in t.terms():
        if m.core == CORE_APRIME:
            img = gen["A'"].pow_signed(m.k) * gen["z'"].pow_signed(m.mu) * gen["bt'"].pow_signed(m.nu)
        else:
            img = gen["B'"].pow_signed(m.k) * gen["z'"].pow_signed(m.mu) * gen["at'"].pow_signed(m.nu)
        out = out + img.scale(c)
    return out


def random_lens_element(rng, N, terms=8):
    # about a quarter of the coefficients are 1, the case where reusing a
    # cached image as it stands is tempting
    out = {}
    while len(out) < terms:
        core = rng.choice((CORE_APRIME, CORE_BPRIME))
        k = rng.randint(1 if core == CORE_APRIME else 0, 2)
        c = random_coefficient(rng) if rng.randint(0, 3) else ONE
        out[LensMonomial(core, k, rng.randint(-2, 2), rng.randint(-2, 2))] = c
    return LensElement(N, out)


def test_cached_transport_against_uncached_oracle():
    rng = SplitMix64(71)
    for N in (1, 2, 3, 5, 7):
        pairs = [(random_lens_element(rng, N), random_lens_element(rng, N)) for _ in range(4)]
        images = [(uncached_image(t1), uncached_image(t2)) for t1, t2 in pairs]
        for (t1, t2), (x1, x2) in zip(pairs, images):
            assert lens_from_abstract(t1) == x1
            assert lens_from_abstract(t2) == x2
        # every image these calls read is cached now; none may change below
        cached = {key: dict(img.terms()) for key, img in lens_module._BASIS_IMAGE_MEMO.items()}
        for (t1, t2), (x1, x2) in zip(pairs, images):
            # a product image has many core-free terms to peel
            x = x1 * x2
            got = lens_to_abstract(x, N)
            assert printed_inverse(x, N) == got
            assert uncached_image(got) == x
            assert lens_from_abstract(got) == x
            assert lens_mul(t1, t2) == got
            assert lens_to_abstract(x1, N) == t1
        for key, terms in cached.items():
            assert dict(lens_module._BASIS_IMAGE_MEMO[key].terms()) == terms


def test_failed_preimage_checks_raise_every_time():
    # monomials outside the invariant subalgebra fail a check of the inverse
    # map; the failure must not be cached as a preimage
    from heegaard.qalgebras import CORE_A, SphereMonomial

    for m, message in (
        (SphereMonomial(CORE_A, 0, 1, 0), "candidate preimage misses the target monomial"),
        (SphereMonomial(CORE_A, 1, 1, 0), "core-family preimage mismatch"),
    ):
        for _ in range(2):
            with pytest.raises(AssertionError, match=message):
                lens_module._preimage(2, m)
        assert (2, m) not in lens_module._PREIMAGE_MEMO


def test_lens_mul_associative_through_transport():
    rng = SplitMix64(61)
    N = 2
    for _ in range(60):
        picks = []
        for _ in range(3):
            core = rng.choice((CORE_APRIME, CORE_BPRIME))
            k = rng.randint(1 if core == CORE_APRIME else 0, 2)
            picks.append(
                LensElement(
                    N,
                    {LensMonomial(core, k, rng.randint(-2, 2), rng.randint(-2, 2)): random_coefficient(rng)},
                )
            )
        t1, t2, t3 = picks
        assert (t1 * t2) * t3 == t1 * (t2 * t3)


def test_generator_map_is_star_homomorphism():
    rng = SplitMix64(63)
    for N in (2, 3):
        for _ in range(80):
            core = rng.choice((CORE_APRIME, CORE_BPRIME))
            k = rng.randint(1 if core == CORE_APRIME else 0, 2)
            t1 = LensElement(
                N,
                {LensMonomial(core, k, rng.randint(-2, 2), rng.randint(-2, 2)): random_coefficient(rng)},
            )
            t2 = LensElement(
                N,
                {LensMonomial(CORE_BPRIME, 0, rng.randint(-2, 2), rng.randint(-2, 2)): random_coefficient(rng)},
            )
            assert lens_from_abstract(t1.star()) == lens_from_abstract(t1).star()
            assert lens_from_abstract(t1 * t2) == lens_from_abstract(t1) * lens_from_abstract(t2)


def test_printing():
    N = 3
    t = LensElement(N, {LensMonomial(CORE_APRIME, 2, -1, 1): ONE})
    assert str(t) == "A'^2 z'^-1 bt'"
    t = LensElement(N, {LensMonomial(CORE_BPRIME, 0, 0, -2): ONE})
    assert str(t) == "at'^-2"
