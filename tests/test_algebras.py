"""The shared algebra-object interface: every algebra builds its elements,
zero, one and scalars the same way, and the two memoized engines agree
with fresh engines of the same presentation."""

import pytest

from heegaard.ktheory import CrossedAlgebra, CrossedElement, TorusAlgebra, TorusElement
from heegaard.lens import LensElement, lens_gen
from heegaard.qalgebras import (
    DISC,
    DISC0,
    DISC_INV,
    SPHERE,
    SPHERE0,
    DiscAlgebra,
    DiscElement,
    DiscMonomial,
    SphereAlgebra,
    SphereElement,
)
from heegaard.rng import SplitMix64, random_sphere_monomial
from heegaard.scalars import Coefficient, EvaluationError, ONE


def _generators(alg):
    if isinstance(alg, DiscAlgebra):
        return [alg.x(), alg.X(), alg.x(-2)]
    if isinstance(alg, SphereAlgebra):
        return [alg.a(), alg.b(), alg.A(), alg.B(), alg.z(), alg.a(-1), alg.b(-2)]
    if isinstance(alg, CrossedAlgebra):
        return [alg.x(), alg.X(), alg.u(), alg.u(-2), alg.x(-1)]
    return [alg.Z(), alg.U(), alg.Z(-1) * alg.U(2)]


ALGEBRAS = [
    ("DISC", DISC, DiscElement),
    ("DISC_INV", DISC_INV, DiscElement),
    ("DISC0", DISC0, DiscElement),
    ("SPHERE", SPHERE, SphereElement),
    ("SPHERE0", SPHERE0, SphereElement),
    *[
        (f"Crossed({s},{t})", CrossedAlgebra(s, t), CrossedElement)
        for s in (1, -1)
        for t in (1, 3)
    ],
    *[(f"Torus({t})", TorusAlgebra(t), TorusElement) for t in (1, 3)],
]


@pytest.mark.parametrize("alg, elem_type", [a[1:] for a in ALGEBRAS], ids=[a[0] for a in ALGEBRAS])
def test_algebra_interface(alg, elem_type):
    two = alg.scalar(2)
    assert two == alg.scalar(Coefficient.integer(2))
    assert str(two) == "2"
    assert type(two) is elem_type
    one, zero = alg.one(), alg.zero()
    assert type(one) is elem_type and type(zero) is elem_type
    assert zero.is_zero() and not zero
    assert not one.is_zero() and str(one) == "1"
    assert alg.scalar(0).is_zero()
    for g in _generators(alg):
        assert one * g == g
        assert g * one == g
        assert (zero * g).is_zero() and (g * zero).is_zero()
        assert g + zero == g
        assert two * g == g + g
        built = alg.element(dict(g.terms()))
        assert type(built) is elem_type
        assert built == g
    assert alg.element() == zero
    assert alg.element({elem_type._one: ONE}) == one


@pytest.mark.parametrize(
    "make, shared, left, right",
    [
        (lambda: SphereAlgebra(isometric=True), SPHERE0, "a", "A"),
        (lambda: DiscAlgebra(isometric=True), DISC0, "x", "X"),
    ],
    ids=["SPHERE0", "DISC0"],
)
def test_escaping_product_raises_every_time_and_is_never_stored(make, shared, left, right):
    # a cold engine first, then the shared one
    for alg in (make(), shared):
        g, h = getattr(alg, left)(), getattr(alg, right)()
        (m1,), (m2,) = g.terms(), h.terms()
        key = (m1[0], m2[0])
        before = len(alg._mul_memo)
        for _ in range(2):
            with pytest.raises(EvaluationError):
                g * h
            assert key not in alg._mul_memo
            assert len(alg._mul_memo) == before


def _disc_monomial(rng):
    return DiscMonomial(rng.randint(0, 3), rng.randint(-4, 4))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except EvaluationError:
        return "escapes"


@pytest.mark.parametrize(
    "shared, make, draw",
    [
        (DISC, DiscAlgebra, _disc_monomial),
        (DISC_INV, lambda: DiscAlgebra(sign=-1), _disc_monomial),
        (DISC0, lambda: DiscAlgebra(isometric=True), _disc_monomial),
        (SPHERE, SphereAlgebra, lambda rng: random_sphere_monomial(rng, kmax=3, emax=3)),
        (
            SPHERE0,
            lambda: SphereAlgebra(isometric=True),
            lambda rng: random_sphere_monomial(rng, kmax=3, emax=3),
        ),
    ],
    ids=["DISC", "DISC_INV", "DISC0", "SPHERE", "SPHERE0"],
)
def test_fresh_engine_matches_shared_engine(shared, make, draw):
    rng = SplitMix64(606)
    pairs = [(draw(rng), draw(rng)) for _ in range(150)]
    expected = [_outcome(shared.mono_mul, m1, m2) for m1, m2 in pairs]
    fresh = make()
    assert fresh.isometric == shared.isometric and fresh.zero_vars == shared.zero_vars
    # twice on the fresh engine: the first call fills its memo, the second reads it
    for _ in range(2):
        assert [_outcome(fresh.mono_mul, m1, m2) for m1, m2 in pairs] == expected
    escapes = {p for p, got in zip(pairs, expected) if got == "escapes"}
    assert not escapes & set(fresh._mul_memo)
    assert len(fresh._mul_memo) == len(set(pairs) - escapes)
    for m, _ in pairs:
        assert _outcome(fresh.star_mono, m) == _outcome(shared.star_mono, m)


SIGNED_POWER_BASES = [
    ("DISC", DiscElement, lambda: DISC.x() + DISC.X().scale(Coefficient.integer(2))),
    ("DISC_INV", DiscElement, lambda: DISC_INV.x(2) + DISC_INV.x(-1)),
    ("SPHERE", SphereElement, lambda: SPHERE.a() + SPHERE.b(-1) + SPHERE.A()),
    ("lens N=3", LensElement, lambda: lens_gen(3, "at'") + lens_gen(3, "z'", -1)),
]


@pytest.mark.parametrize(
    "elem_type, make", [b[1:] for b in SIGNED_POWER_BASES], ids=[b[0] for b in SIGNED_POWER_BASES]
)
def test_a_negative_power_takes_the_adjoint_once(monkeypatch, elem_type, make):
    x = make()
    assert type(x) is elem_type
    expected = {e: x.star().pow_signed(-e) for e in range(-4, 0)}
    calls = {"pow_signed": 0, "star": 0}

    def counting(name):
        method = getattr(elem_type, name)

        def wrapper(self, *args):
            if type(self) is elem_type:
                calls[name] += 1
            return method(self, *args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(elem_type, name, counting(name))
    for e, want in expected.items():
        calls.update(pow_signed=0, star=0)
        assert x.pow_signed(e) == want, e
        assert calls == {"pow_signed": 1, "star": 1}, e
