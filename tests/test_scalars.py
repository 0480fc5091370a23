"""Coefficient ring and deformed-polynomial family tests.

The binomial oracle is independent of the Pascal implementation: it
computes [n]!/([m]![n-m]!) by exact dense-polynomial division.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heegaard.scalars import (
    Coefficient,
    EvaluationError,
    ONE,
    QPoly,
    ZERO,
    p_pow,
    q_pow,
    qbinomial,
    qint,
    qpoly_Q,
    qpoly_Qpair,
    qpoly_rescale,
    w_pow,
)


# -- dense-polynomial oracle -------------------------------------------------


def dense_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def dense_divide_exact(num, den):
    num = num[:]
    while den and den[-1] == 0:
        den = den[:-1]
    out = [0] * (len(num) - len(den) + 1)
    for top in range(len(num) - 1, len(den) - 2, -1):
        k = top - (len(den) - 1)
        q, r = divmod(num[top], den[-1])
        assert r == 0, "division is not exact"
        out[k] = q
        for j, y in enumerate(den):
            num[k + j] -= q * y
    assert all(c == 0 for c in num), "division is not exact"
    return out


def dense_qint(n):
    return [1] * n if n else [0]


def dense_qbinomial(n, m):
    num = [1]
    den = [1]
    for i in range(1, n + 1):
        num = dense_mul(num, dense_qint(i))
    for i in range(1, m + 1):
        den = dense_mul(den, dense_qint(i))
    for i in range(1, n - m + 1):
        den = dense_mul(den, dense_qint(i))
    return dense_divide_exact(num, den)


def from_dense(coeffs, var="p"):
    acc = ZERO
    for e, c in enumerate(coeffs):
        if c:
            acc = acc + Coefficient.monomial(c, i=e if var == "p" else 0, j=e if var == "q" else 0)
    return acc


# -- deformed integers and binomials -----------------------------------------


def test_qint_examples():
    assert qint(0, "p") == ZERO
    assert qint(1, "p") == ONE
    assert qint(3, "p") == ONE + p_pow(1) + p_pow(2)
    assert qint(3, "q") == ONE + q_pow(1) + q_pow(2)
    with pytest.raises(ValueError):
        qint(-1, "p")


def test_qbinomial_examples():
    assert qbinomial(5, 0, "p") == ONE
    assert qbinomial(2, 1, "p") == ONE + p_pow(1)
    assert qbinomial(3, 1, "p") == ONE + p_pow(1) + p_pow(2)
    with pytest.raises(ValueError):
        qbinomial(2, 3, "p")


def test_qbinomial_against_division_oracle():
    for var in ("p", "q"):
        for n in range(0, 13):
            for m in range(0, n + 1):
                assert qbinomial(n, m, var) == from_dense(dense_qbinomial(n, m), var), (n, m)


def test_pascal_rule_window():
    for n in range(1, 21):
        for m in range(1, n + 1):
            lhs = qbinomial(n + 1, m)
            rhs = qbinomial(n, m) + p_pow(n + 1 - m) * qbinomial(n, m - 1)
            assert lhs == rhs, (n, m)


# -- contraction polynomials --------------------------------------------------


def YP(m, c=ONE):
    return QPoly({m: c})


def test_qpoly_examples():
    assert qpoly_Q(0, "p").is_zero()
    assert qpoly_Q(1, "p") == YP(1, -ONE)
    assert qpoly_Q(-1, "p") == YP(1, -p_pow(1))
    assert qpoly_Q(2, "p") == YP(2, p_pow(-1)) + YP(1, -(ONE + p_pow(-1)))
    assert qpoly_Q(-1, "q") == YP(1, -q_pow(1))


def test_qpoly_pair_examples():
    assert qpoly_Qpair(3, 5, "p").is_zero()
    assert qpoly_Qpair(-2, -7, "p").is_zero()
    assert qpoly_Qpair(1, -2, "p") == qpoly_Q(1, "p")
    assert qpoly_Qpair(2, -1, "p") == YP(1, -p_pow(-1))


def test_qpoly_recursions():
    one, y = YP(0), YP(1)
    for n in range(1, 16):
        assert qpoly_Q(n + 1, "p") == (one - y) * qpoly_rescale(qpoly_Q(n, "p"), -1) - y
        assert (
            qpoly_Q(-(n + 1), "p")
            == (one - y * p_pow(1)) * qpoly_rescale(qpoly_Q(-n, "p"), 1) - y * p_pow(1)
        )


def test_qpoly_composition():
    one = YP(0)
    for m in range(1, 13):
        qm = qpoly_Q(m, "p")
        for n in range(1, 13):
            lhs = qpoly_Q(m + n, "p")
            rhs = (one + qm) * qpoly_rescale(qpoly_Q(n, "p"), -m) + qm
            assert lhs == rhs, (m, n)


def test_qpoly_degree_and_constant_term():
    for mu in range(-12, 13):
        poly = qpoly_Q(mu, "p")
        if mu == 0:
            assert poly.is_zero()
        else:
            assert poly.degree() == abs(mu)
            assert poly.constant_term().is_zero()


def test_qpoly_pair_vanishes_iff_zero_index():
    for mu in range(-12, 13):
        assert qpoly_Qpair(mu, -mu, "p").is_zero() == (mu == 0)


def test_rescale():
    y = YP(1, -ONE)
    assert qpoly_rescale(y, 0, "p") == y
    assert qpoly_rescale(y, -1, "p") == YP(1, -p_pow(-1))
    assert qpoly_rescale(YP(2), 2, "p") == YP(2, p_pow(4))


# -- localization --------------------------------------------------------------


def test_eval_zero_examples():
    assert (ONE - p_pow(1)).eval_at_zero("p") == ONE
    assert (q_pow(1) + p_pow(1) * q_pow(1)).eval_at_zero("p") == q_pow(1)
    with pytest.raises(EvaluationError):
        p_pow(-1).eval_at_zero("p")
    # the other variable is untouched
    assert q_pow(-2).eval_at_zero("p") == q_pow(-2)


# -- ring axioms (property-based) ----------------------------------------------

coeff_strategy = st.builds(
    lambda terms: Coefficient(dict(terms)),
    st.lists(
        st.tuples(
            st.tuples(
                st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)
            ),
            st.integers(-9, 9),
        ),
        max_size=4,
    ),
)


@settings(max_examples=200, deadline=None)
@given(coeff_strategy, coeff_strategy, coeff_strategy)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@settings(max_examples=200, deadline=None)
@given(coeff_strategy, coeff_strategy)
def test_conjugation(a, b):
    assert a.conjugate().conjugate() == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_conjugation_fixes_parameters_inverts_phase():
    assert p_pow(2).conjugate() == p_pow(2)
    assert q_pow(-1).conjugate() == q_pow(-1)
    assert w_pow(3).conjugate() == w_pow(-3)


def test_unit_inverse():
    assert w_pow(2).unit_inverse() == w_pow(-2)
    assert (p_pow(1) * q_pow(-2)).unit_inverse() == p_pow(-1) * q_pow(2)
    m = Coefficient.monomial(-1, 1, 0, 3)
    assert m * m.unit_inverse() == ONE
    assert Coefficient.integer(5).unit_inverse() is None
    assert (ONE + p_pow(1)).unit_inverse() is None
    assert ZERO.unit_inverse() is None


def test_printing_canonical():
    c = ONE - p_pow(-1) * w_pow(2)
    assert str(c) == "-p^-1*w^2 + 1"
    assert str(ZERO) == "0"
    assert str(Coefficient.integer(-3) * p_pow(2)) == "-3*p^2"


# -- the shared linear-combination core ------------------------------------------


def test_element_classes_share_one_core():
    from heegaard.scalars import LinComb
    from heegaard.qalgebras import DISC, SPHERE
    from heegaard.lens import lens_gen
    from heegaard.principal import (
        CyclicHopfElement,
        LaurentHopfElement,
        ProlongElement,
        TensorSquare,
    )
    from heegaard.ktheory import CrossedAlgebra, TorusAlgebra

    examples = [
        DISC.x(),
        SPHERE.a(),
        lens_gen(3, "z'"),
        CrossedAlgebra(1).u(),
        TorusAlgebra().Z(),
        TensorSquare.of(SPHERE.a(), SPHERE.b()),
        ProlongElement.of(SPHERE.a(), LaurentHopfElement.generator_power(1)),
        LaurentHopfElement.generator_power(2),
        CyclicHopfElement.generator_power(3, 1),
        qpoly_Q(2),
    ]
    assert len({type(x) for x in examples}) == 10
    for x in examples:
        assert isinstance(x, LinComb)
        # every class declares __slots__, so no instance carries a dict
        assert not hasattr(x, "__dict__"), type(x).__name__
        assert type(x).pow_signed is LinComb.pow_signed
        assert x + (-x) == x.scale(0) and not x.scale(0)
        assert x.scale(2) == x + x
    # unit factors are not multiplied in: the product loop pays one
    # coefficient product per term pair
    q = qpoly_Q(3)
    assert q * QPoly({0: ONE}) == q
    assert str(QPoly({0: ONE, 2: -p_pow(1)})) == "1 - p Y^2"
