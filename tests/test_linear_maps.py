"""Every body that a linear map (``LinComb.mapped``) or a grading
(``LinComb.graded``) replaced, against its old hand loop in sparse_oracle.py,
on seeded random inputs: the zero element, one-term elements and sums."""

import re

import pytest

from heegaard.ktheory import CrossedAlgebra, CrossedElement, TorusAlgebra, project_to_torus
from heegaard.lens import (
    CORE_APRIME,
    CORE_BPRIME,
    LensElement,
    LensMonomial,
    lens_from_abstract,
    subspace_classify,
)
from heegaard.principal import (
    CONNECTION_VARIANTS,
    ProlongElement,
    TensorSquare,
    associated_idempotent,
    prolong_action,
)
from heegaard.qalgebras import (
    CORE_A,
    DISC,
    SPHERE,
    SPHERE0,
    SPHERE_ONE,
    DiscMonomial,
    SphereElement,
    SphereMonomial,
    add_on_core,
    kappa_iso,
)
from heegaard.rng import SplitMix64, random_coefficient, random_sphere_element, random_sphere_monomial
from heegaard.matrix import Matrix
from heegaard.scalars import ONE, EvaluationError, QPoly, qpoly_Q, qpoly_Qpair
from heegaard.units import deg_extreme, split_expansion, subspace_split

from sparse_oracle import (
    reference_add_on_core,
    reference_deg_extreme,
    reference_kappa_iso,
    reference_legs_multiplied_by_class,
    reference_lens_from_abstract,
    reference_project_to_torus,
    reference_prolong_action,
    reference_right_leg_grouping,
    reference_split_expansion,
    reference_subspace_classify,
    reference_subspace_split,
)

LENS_TYPES = (1, 2, 3, 5)
SAMPLES = 60


def _sums(rng, monomial, samples=SAMPLES):
    """The zero element's terms, then one-term and longer term dicts."""
    yield {}
    for i in range(samples):
        yield {monomial(rng): random_coefficient(rng) for _ in range(1 + i % 5)}


def _lens_monomial(rng):
    if rng.randint(0, 2) == 0:
        return LensMonomial(CORE_APRIME, rng.randint(1, 3), rng.randint(-3, 3), rng.randint(-2, 2))
    return LensMonomial(CORE_BPRIME, rng.randint(0, 3), rng.randint(-3, 3), rng.randint(-2, 2))


def _sphere_elements(seed, alg=SPHERE):
    rng = SplitMix64(seed)
    yield alg.zero()
    for i in range(SAMPLES):
        yield random_sphere_element(rng, alg, terms=1 + i % 5, kmax=3, emax=3)


@pytest.mark.parametrize("N", LENS_TYPES)
def test_lens_maps_match_their_loops(N):
    rng = SplitMix64(100 + N)
    for terms in _sums(rng, _lens_monomial):
        t = LensElement(N, terms)
        assert lens_from_abstract(t) == reference_lens_from_abstract(t)
        got, want = subspace_classify(t), reference_subspace_classify(t)
        assert type(got) is tuple and got == want
        assert all(part.N == N for part in got)


def test_add_on_core_matches_its_loop():
    polys = [QPoly(), qpoly_Q(3, "p"), qpoly_Q(-2, "q"), qpoly_Qpair(2, -3, "p"), qpoly_Qpair(-1, 4, "q")]
    for i, acc in enumerate(_sphere_elements(7)):
        for core in (SPHERE.A, SPHERE.B):
            poly = polys[i % len(polys)]
            assert add_on_core(acc, core, poly) == reference_add_on_core(acc, core, poly)
    one, poly = DISC.one(), qpoly_Qpair(2, 1, "p")
    assert add_on_core(one, DISC.X, poly) == reference_add_on_core(one, DISC.X, poly)


def test_kappa_iso_matches_its_loop():
    rng = SplitMix64(11)
    for terms in _sums(rng, lambda r: DiscMonomial(r.randint(0, 4), r.randint(-3, 3))):
        r = DISC.element(terms)
        assert kappa_iso(r) == reference_kappa_iso(r)


@pytest.mark.parametrize("mult", (1, 2, 3))
def test_project_to_torus_matches_its_loop(mult):
    rng = SplitMix64(13 + mult)
    torus = TorusAlgebra(mult)
    for sign, leg in ((1, 1), (-1, 2)):
        alg = CrossedAlgebra(sign, mult)
        for terms in _sums(rng, lambda r: (DiscMonomial(r.randint(0, 2), r.randint(-3, 3)), r.randint(-3, 3))):
            c = CrossedElement(alg, terms)
            assert project_to_torus(c) == reference_project_to_torus(c, leg, torus)
            assert project_to_torus(c) == reference_project_to_torus(c, leg)


@pytest.mark.parametrize("alg", (SPHERE, SPHERE0), ids=("generic", "parameter zero"))
def test_subspace_split_matches_its_loop(alg):
    for r in _sphere_elements(17, alg):
        for variant in ("X+Y1", "X1+Y"):
            got, want = subspace_split(r, variant), reference_subspace_split(r, variant)
            assert got == want and all(part.alg is alg for part in got)
        for split in (subspace_split, reference_subspace_split):
            with pytest.raises(ValueError, match="unknown splitting variant"):
                split(r, "bogus")


def test_split_expansion_and_extrema_match_their_loops():
    s = SPHERE
    # one-sided elements: a pure B-core element has an empty A side and dually
    one_sided = [s.B() * s.b(), s.B(2) + s.B() * s.a(3), s.A() * s.a(), s.A(2) * s.z() + s.A()]
    for r in [*_sphere_elements(19), *one_sided]:
        assert split_expansion(r) == reference_split_expansion(r)
        for side in ("A", "B"):
            for which in ("max", "min"):
                try:
                    want = reference_deg_extreme(r, side, which)
                except ValueError as err:
                    with pytest.raises(ValueError, match=re.escape(str(err))):
                        deg_extreme(r, side, which)
                else:
                    assert deg_extreme(r, side, which) == want
    for r in one_sided[:2]:
        with pytest.raises(ValueError, match="empty index set on side A"):
            deg_extreme(r, "A", "max")
    for r in one_sided[2:]:
        with pytest.raises(ValueError, match="empty index set on side B"):
            deg_extreme(r, "B", "min")
    for args in (("C", "max"), ("A", "mid")):
        for extreme in (deg_extreme, reference_deg_extreme):
            with pytest.raises(ValueError):
                extreme(s.one(), *args)


def _prolong_monomial(rng):
    return (random_sphere_monomial(rng, kmax=3, emax=4), rng.randint(-4, 4))


@pytest.mark.parametrize("N", LENS_TYPES)
def test_prolong_action_matches_its_loop(N):
    rng = SplitMix64(23 + N)
    for terms in _sums(rng, _prolong_monomial):
        t = ProlongElement(SPHERE, terms)
        got = prolong_action(t, N)
        assert got == reference_prolong_action(t, N)
        assert all(type(part) is ProlongElement for part in got.values())


def _reference_idempotent(conn, n):
    """associated_idempotent over the old right-leg grouping."""
    alg = conn.algebra
    grouped = reference_right_leg_grouping(conn.values[n])
    right_legs = sorted(grouped, reverse=True)
    xs = [SphereElement(alg, grouped[m]) for m in right_legs]
    es = [SphereElement(alg, {m: ONE}) for m in right_legs]
    return Matrix([[e * x for x in xs] for e in es])


@pytest.mark.parametrize("variant", sorted(CONNECTION_VARIANTS))
@pytest.mark.parametrize("N", LENS_TYPES)
def test_connection_legs_and_idempotents_match_their_loops(variant, N):
    conn = CONNECTION_VARIANTS[variant].build(N)
    for val in conn.values:
        for M in (N, 1, 2):
            assert val.legs_multiplied_by_class(M) == reference_legs_multiplied_by_class(val, M)
    for n in range(1, N):
        try:
            want = _reference_idempotent(conn, n)
        except EvaluationError as err:
            # the parameter-zero products a* a^k escape the normal-form span
            with pytest.raises(EvaluationError, match=re.escape(str(err))):
                associated_idempotent(conn, n)
        else:
            assert associated_idempotent(conn, n) == want


def test_random_tensor_legs_match_their_loop():
    rng = SplitMix64(29)
    pair = lambda r: (random_sphere_monomial(r, kmax=2, emax=3), random_sphere_monomial(r, kmax=2, emax=3))
    for terms in _sums(rng, pair):
        t = TensorSquare(SPHERE, terms)
        for N in LENS_TYPES:
            got = t.legs_multiplied_by_class(N)
            assert got == reference_legs_multiplied_by_class(t, N)
            assert all(got.values())
    # a (x) 1 - 1 (x) a multiplies out to zero at N = 1, which leaves no class
    a = SphereMonomial(CORE_A, 0, 1, 0)
    cancelling = TensorSquare(SPHERE, {(a, SPHERE_ONE): ONE, (SPHERE_ONE, a): -ONE})
    assert cancelling.legs_multiplied_by_class(1) == reference_legs_multiplied_by_class(cancelling, 1) == {}
    assert sorted(cancelling.legs_multiplied_by_class(2)) == [0, 1]
