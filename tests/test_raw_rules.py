"""The engines' raw monomial products against the step-by-step reference rules
of ``sparse_oracle``, pair by pair over a window of basis monomials: the same
keys in the same order with the same coefficients, and at parameter zero the
same normalized products, or the same refusal."""

import itertools

from heegaard.qalgebras import (
    CORE_A,
    CORE_B,
    DISC,
    DISC0,
    DISC_INV,
    SPHERE,
    SPHERE0,
    DiscMonomial,
    SphereMonomial,
)
from heegaard.scalars import EvaluationError

from sparse_oracle import reference_disc_mul_raw, reference_sphere_mul_raw

# cores A and B, k <= 2, |mu|, |nu| <= 2: 125 monomials, 15,625 pairs
SPHERE_WINDOW = [
    SphereMonomial(core, k, mu, nu)
    for core, k in ((CORE_A, 0), (CORE_A, 1), (CORE_A, 2), (CORE_B, 1), (CORE_B, 2))
    for mu in range(-2, 3)
    for nu in range(-2, 3)
]
# k <= 3, |mu| <= 4: 36 monomials, 1,296 pairs
DISC_WINDOW = [DiscMonomial(k, mu) for k in range(4) for mu in range(-4, 5)]


def _normalized(alg, raw):
    """What ``alg.mono_mul`` makes of a raw product: its normalized terms in
    emission order, or the refusal that the first offending term raises."""
    out = []
    try:
        for mono, c in raw.items():
            mono, c = alg._normalize(mono, c)
            if mono is not None:
                out.append((mono, c))
    except EvaluationError as exc:
        return ("raises", str(exc))
    return tuple(out)


def _outcome(alg, m1, m2):
    try:
        return alg.mono_mul(m1, m2)
    except EvaluationError as exc:
        return ("raises", str(exc))


def test_sphere_raw_product_matches_the_reference_over_the_window():
    assert len(SPHERE_WINDOW) == 125
    annihilated = contracted_both = 0
    for m1, m2 in itertools.product(SPHERE_WINDOW, repeat=2):
        got, want = SPHERE._mul_raw(m1, m2), reference_sphere_mul_raw(m1, m2)
        assert list(got.items()) == list(want.items()), (m1, m2)
        annihilated += not want
        contracted_both += {m.core for m in want if m.k} == {CORE_A, CORE_B}
    # the window reaches AB = 0 and terms of both contractions in one product
    assert annihilated and contracted_both


def test_isometric_sphere_products_and_refusals_match_the_reference():
    refused = 0
    for m1, m2 in itertools.product(SPHERE_WINDOW, repeat=2):
        want = _normalized(SPHERE0, reference_sphere_mul_raw(m1, m2))
        assert _outcome(SPHERE0, m1, m2) == want, (m1, m2)
        refused += want[:1] == ("raises",)
    assert refused


def test_disc_raw_products_match_the_reference_over_the_window():
    assert len(DISC_WINDOW) == 36
    for alg in (DISC, DISC_INV, DISC0):
        refused = 0
        for m1, m2 in itertools.product(DISC_WINDOW, repeat=2):
            want = reference_disc_mul_raw(alg, m1, m2)
            assert list(alg._mul_raw(m1, m2).items()) == list(want.items()), (alg.base, m1, m2)
            want = _normalized(alg, want)
            assert _outcome(alg, m1, m2) == want, (alg.base, m1, m2)
            refused += want[:1] == ("raises",)
        assert bool(refused) == alg.isometric
