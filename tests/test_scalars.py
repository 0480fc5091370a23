"""Coefficient ring and deformed-polynomial family tests.

The binomial oracle is independent of the Pascal implementation: it
computes [n]!/([m]![n-m]!) by exact dense-polynomial division.
"""

import math
import operator

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


# -- the packed kernel against the tuple-keyed oracle ----------------------------

from sparse_oracle import SparseCoefficient  # noqa: E402

from heegaard.scalars import _EMAX, ExponentBoundError  # noqa: E402

exponent = st.one_of(
    st.integers(-3, 3), st.integers(_EMAX - 2, _EMAX), st.integers(-_EMAX, -_EMAX + 2)
)
integer = st.one_of(st.integers(-9, 9), st.integers(-(2**80), 2**80))
triple = st.tuples(exponent, exponent, exponent)
term_dicts = st.dictionaries(triple, integer, max_size=5)
nonzero = integer.filter(bool)
one_term = st.builds(lambda e, c: {e: c}, triple, nonzero)
signed_unit = st.sampled_from([{(0, 0, 0): 1}, {(0, 0, 0): -1}])
operand = st.one_of(one_term, signed_unit, term_dicts)
UNIT = {(0, 0, 0): 1}


def _both(terms):
    return Coefficient(terms), SparseCoefficient(terms)


def _agree(packed, oracle):
    assert list(packed.terms()) == oracle.terms()
    assert str(packed) == str(oracle)
    # the value alone fixes the form, so the hash too
    rebuilt = Coefficient(dict(oracle.terms()))
    assert packed == rebuilt and hash(packed) == hash(rebuilt)
    assert all(max(map(abs, e)) <= packed._bound for e, _ in oracle.terms())


def _bound_error(exps):
    """The error a product with these exponents raises: it names the first
    exponent of largest size, in the order p, q, w."""
    return str(ExponentBoundError(max(exps, key=abs)))


@settings(max_examples=600, deadline=None)
@given(operand, operand, st.sampled_from(["free", "same keys", "negated"]))
def test_packed_ring_operations_match_oracle(ta, tb, relation):
    # "same keys" puts b's coefficients on a's keys (equal one-term keys),
    # "negated" makes b = -a (sums that cancel to zero)
    if relation == "same keys":
        tb = dict(zip(ta, tb.values()))
    elif relation == "negated":
        tb = {e: -c for e, c in ta.items()}
    (a, oa), (b, ob) = _both(ta), _both(tb)
    one_terms = len(a._terms) == 1 == len(b._terms)
    _agree(a, oa)
    for got, expected in ((a + b, oa + ob), (b + a, ob + oa), (a - b, oa - ob)):
        _agree(got, expected)
        if one_terms:
            assert got._bound == max(a._bound, b._bound)
    if relation == "negated":
        assert a + b == ZERO and not (a + b)
    _agree(-a, -oa)
    product = oa * ob
    exps = product.exponents()
    for x, tx, y, ty in ((a, ta, b, tb), (b, tb, a, ta)):
        if any(abs(e) > _EMAX for e in exps):
            with pytest.raises(ExponentBoundError) as info:
                x * y
            if one_terms:
                assert str(info.value) == _bound_error(exps)
            continue
        got = x * y
        _agree(got, product)
        if one_terms:
            # past the limit the bound is re-derived exactly, else it is the sum
            summed = x._bound + y._bound
            assert got._bound == (max(map(abs, exps)) if summed > _EMAX else summed)
        # a unit passes the other operand through, the right one checked first
        if ty == UNIT:
            assert got is x
        elif tx == UNIT:
            assert got is y
    _agree(a * 7, oa * SparseCoefficient({(0, 0, 0): 7}))
    _agree(3 * a, oa * SparseCoefficient({(0, 0, 0): 3}))
    assert (a == b) == (oa == ob)
    rebuilt = (a + b) - b  # same value through another dict history
    assert rebuilt == a and hash(rebuilt) == hash(a)


@settings(max_examples=300, deadline=None)
@given(term_dicts)
def test_packed_unary_operations_match_oracle(ta):
    a, oa = _both(ta)
    _agree(a.conjugate(), oa.conjugate())
    for var in ("p", "q"):
        try:
            expected = oa.eval_at_zero(var)
        except EvaluationError:
            with pytest.raises(EvaluationError):
                a.eval_at_zero(var)
        else:
            _agree(a.eval_at_zero(var), expected)
    inv, oinv = a.unit_inverse(), oa.unit_inverse()
    assert (inv is None) == (oinv is None)
    if inv is not None:
        _agree(inv, oinv)
        assert a * inv == ONE


def test_exponent_bound_is_enforced_exactly():
    top = Coefficient.monomial(1, _EMAX)
    with pytest.raises(ExponentBoundError, match="outside the supported range"):
        Coefficient.monomial(1, 0, 0, -_EMAX - 1)
    with pytest.raises(ExponentBoundError):
        Coefficient({(0, _EMAX + 1, 0): 2})
    with pytest.raises(ExponentBoundError):
        top * p_pow(1)
    # the bound holds per variable, not for the sum of all exponents
    assert list((top * Coefficient.monomial(1, 0, _EMAX, -_EMAX)).terms()) == [
        ((_EMAX, _EMAX, -_EMAX), 1)
    ]
    # a bound left large by cancellation is re-derived before a product
    # would be refused
    one = top + ONE - top
    assert one == ONE
    assert one * one * top == top
    assert top * p_pow(-1) * p_pow(1) == top


# -- packed binomials and contraction polynomials at large n ---------------------


def dense_times_qint(a, i):
    """a * [i] = a * (1 + x + ... + x^(i-1)), by a running window sum."""
    out, window = [], 0
    for d in range(len(a) + i - 1):
        window += a[d] if d < len(a) else 0
        window -= a[d - i] if 0 <= d - i < len(a) else 0
        out.append(window)
    return out


def dense_divide_qint(a, i):
    """Exact a / [i]: q = a (1 - x) / (1 - x^i), the last i - 1 digits of
    a (1 - x) checked to cancel."""
    b = [x - (a[d - 1] if d else 0) for d, x in enumerate(a)] + [-a[-1]]
    q = []
    for d in range(len(a) - i + 1):
        q.append(b[d] + (q[d - i] if d >= i else 0))
    for d in range(len(q), len(b)):
        assert b[d] + (q[d - i] if d - i < len(q) else 0) == 0, "division is not exact"
    return q


def dense_qbinomial_linear(n, m):
    """C(n, m) = prod_i [n-m+i] / [i], each factor in time linear in the degree."""
    m = min(m, n - m)
    c = [1]
    for i in range(1, m + 1):
        c = dense_divide_qint(dense_times_qint(c, n - m + i), i)
    return c


def _as_terms(dense, var="p", offset=0, step=1, sign=1):
    idx = 0 if var == "p" else 1
    out = {}
    for d, c in enumerate(dense):
        if c:
            e = [0, 0, 0]
            e[idx] = step * (offset + d)
            out[tuple(e)] = sign * c
    return sorted(out.items())


def test_linear_dense_oracle_matches_division_oracle():
    for n in range(13):
        for m in range(n + 1):
            assert dense_qbinomial_linear(n, m) == dense_qbinomial(n, m), (n, m)


@pytest.mark.parametrize("n, ms", [(70, range(71)), (160, (1, 2, 3, 79, 80, 81, 157, 159))])
def test_packed_binomials_at_large_n(n, ms):
    for m in ms:
        dense = dense_qbinomial_linear(n, m)
        assert list(qbinomial(n, m, "q").terms()) == _as_terms(dense, "q"), (n, m)
    if n == 160:
        # the largest coefficient of C(160, 80) has 147 bits: a fixed
        # 128-bit digit cannot hold it, a width from the bound n + 3 can
        assert max(dense_qbinomial_linear(160, 80)).bit_length() > 128


@pytest.mark.parametrize(
    "mu, var, ms", [(70, "q", range(1, 71)), (-70, "p", range(1, 71)), (160, "p", (1, 2, 80, 159, 160))]
)
def test_packed_contraction_polynomials_at_large_n(mu, var, ms):
    # Y^m coefficient of Q(n):  (-1)^m v^(-n m + m(m+1)/2) C(n, m)_v
    # Y^m coefficient of Q(-n): (-1)^m v^(n m - m(m+1)/2 + m) C(n, m)_(1/v)
    n = abs(mu)
    poly = qpoly_Q(mu, var)
    assert poly.degree() == n
    for m in ms:
        dense = dense_qbinomial_linear(n, m)
        sign = -1 if m % 2 else 1
        low = -n * m + m * (m + 1) // 2
        expected = _as_terms(dense, var, low, 1, sign) if mu > 0 else _as_terms(dense, var, low - m, -1, sign)
        assert list(poly.coefficient(m).terms()) == expected, m


def test_contraction_polynomials_shared_across_threads(monkeypatch, cold_process_memos):
    # cold memos filled from eight threads in interleaved index order agree
    # with the sequential results; a race may only repeat a check
    import concurrent.futures
    import sys

    from heegaard import scalars

    requests = [(mu, var) for k in range(1, 25) for mu in (k, -k) for var in "pq"][::-1]
    sequential = [qpoly_Q(mu, var) for mu, var in requests]
    cold_process_memos()
    monkeypatch.setattr(scalars, "_QPOLY_CHECKED", {False: 0, True: 0})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(qpoly_Q, mu, var) for mu, var in requests]
            concurrent_results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert concurrent_results == sequential
    assert scalars._QPOLY_CHECKED == {False: 24, True: 24}


# -- unit pass-through and the one-variable Kronecker product ---------------------

from heegaard import scalars  # noqa: E402
from heegaard.scalars import qbinomial_base  # noqa: E402


def test_unit_operand_passes_through():
    c = ONE + p_pow(1) * q_pow(-2) - Coefficient.monomial(3, 0, 0, 4)
    built = Coefficient({(0, 0, 0): 1})
    widened = p_pow(9) + ONE - p_pow(9)  # the unit, its exponent bound left at 9
    assert built is not ONE and widened == ONE
    for unit in (ONE, built, widened, Coefficient.integer(1)):
        assert c * unit is c and unit * c is c
        assert ZERO * unit is ZERO and unit * ZERO is ZERO
    assert ONE * ONE is ONE
    # any other single-term factor gives a fresh, correct value
    terms = [((0, 0, 0), 1), ((0, 0, 4), -3), ((1, -2, 0), 1)]
    assert list(c.terms()) == terms
    for factor, shift, scale in (
        (-ONE, (0, 0, 0), -1),
        (Coefficient.integer(-1), (0, 0, 0), -1),
        (p_pow(1), (1, 0, 0), 1),
        (Coefficient.monomial(2, 0, 0, -1), (0, 0, -1), 2),
    ):
        expected = sorted((tuple(map(sum, zip(e, shift))), n * scale) for e, n in terms)
        for got in (c * factor, factor * c):
            assert got is not c and list(got.terms()) == expected
    assert list(c.terms()) == terms


def test_memoized_coefficients_unchanged_by_products():
    # products that pass a memoized coefficient through share it: no product,
    # sum, scaling or element product taken from it may change it
    polys = [qpoly_Q(mu, var) for mu in (-9, -2, 3, 11) for var in "pq"]
    coeffs = [c for poly in polys for _, c in poly.items()]
    coeffs += [qbinomial_base(n, m, (var, s)) for n in (9, 17) for m in (1, 4) for var in "pq" for s in (1, -1)]
    snapshot = [list(c.terms()) for c in coeffs]
    unit = Coefficient({(0, 0, 0): 1})
    factors = [ONE, unit, -ONE, p_pow(2), q_pow(-1), w_pow(3), coeffs[0], coeffs[-1]]
    for c in coeffs:
        for f in factors:
            x, y = c * f, f * c
            assert x == y
            (x + y) - x * 2
            -x
            x.conjugate()
            c * 1, 5 * c
    poly_one = QPoly({0: ONE})
    for poly in polys:
        (poly_one + poly) * qpoly_rescale(poly, -1) + poly
        poly.scale(ONE), poly.scale(unit), poly * poly_one, poly_one * poly
    assert [list(c.terms()) for c in coeffs] == snapshot


def _one_variable_terms(var, sizes, lows):
    """Term dicts in one variable: ``size`` nonzero coefficients up to 2^80
    of either sign at distinct exponents in [low, low + 2*size]."""

    @st.composite
    def build(draw):
        size = draw(sizes)
        low = draw(lows(size))
        offsets = draw(st.lists(st.integers(0, 2 * size), min_size=size, max_size=size, unique=True))
        coeffs = draw(st.lists(integer.filter(bool), min_size=size, max_size=size))
        terms = {}
        for d, c in zip(offsets, coeffs):
            e = [0, 0, 0]
            e[var] = low + d
            terms[tuple(e)] = c
        return terms

    return build()


def _lows(size):
    # near zero, and near either end of the exponent range
    return st.one_of(
        st.integers(-20, 20),
        st.integers(_EMAX - 2 * size - 20, _EMAX - 2 * size),
        st.integers(-_EMAX, -_EMAX + 20),
    )


def _same_variable_pairs(sizes):
    return st.sampled_from((0, 1, 2)).flatmap(
        lambda var: st.tuples(
            _one_variable_terms(var, sizes, _lows), _one_variable_terms(var, sizes, _lows)
        )
    )


def _check_product(ta, tb):
    """a*b and b*a against the oracle, and the packed path on its own."""
    (a, oa), (b, ob) = _both(ta), _both(tb)
    product = oa * ob
    if any(abs(e) > _EMAX for e in product.exponents()):
        with pytest.raises(ExponentBoundError):
            a * b
        with pytest.raises(ExponentBoundError):
            b * a
        return
    _agree(a * b, product)
    _agree(b * a, product)
    if not (ta and tb):
        return  # the packed path takes nonempty operands only
    packed = a._kronecker(b)
    # refused only when the product's box has more cells than there are term pairs
    assert (packed is None) == (_product_cells(ta, tb) > len(ta) * len(tb))
    if packed is not None:
        _agree(packed, product)


def _product_cells(ta, tb):
    """The cells of the least box holding every product of a term of ta and
    a term of tb: per variable, the extent of the sums over the gcd of all
    strides."""
    cells = 1
    for v in range(3):
        ea, eb = [e[v] for e in ta], [e[v] for e in tb]
        stride = math.gcd(*(x - min(ea) for x in ea), *(y - min(eb) for y in eb)) or 1
        cells *= (max(ea) + max(eb) - min(ea) - min(eb)) // stride + 1
    return cells


@settings(max_examples=150, deadline=None)
@given(_same_variable_pairs(st.integers(8, 30)))
def test_kronecker_product_matches_oracle(pair):
    _check_product(*pair)


@settings(max_examples=10, deadline=None)
@given(_same_variable_pairs(st.integers(200, 240)))
def test_kronecker_product_of_long_operands_matches_oracle(pair):
    _check_product(*pair)


@settings(max_examples=100, deadline=None)
@given(_same_variable_pairs(st.integers(0, 7)))
def test_kronecker_product_of_short_operands_matches_oracle(pair):
    # short dict operands, empty ones included, take the sparse loop; the
    # packed path is checked on these operands directly
    _check_product(*pair)


def _dense(var, coeffs, low=0):
    e = [0, 0, 0]
    terms = {}
    for d, c in enumerate(coeffs):
        e[var] = low + d
        terms[tuple(e)] = c
    return Coefficient(terms)


def _oracle(c):
    return SparseCoefficient(dict(c.terms()))


def _through_kronecker(a, b):
    """a*b, which the packed path must give on the same (dict) operands
    in the same form."""
    packed, got = a._kronecker(b), a * b
    assert packed is not None and packed == got and type(packed._terms) is type(got._terms)
    return got


@pytest.mark.parametrize("var", (0, 1, 2))
def test_kronecker_product_cancellation_and_bounds(var):
    n = 8
    geometric = _dense(var, [1] * n)
    alternating = _dense(var, [(-1) ** d for d in range(n)])
    # (1 - t^8)/(1 - t) * (1 - t^8)/(1 + t): every odd digit cancels
    e = [0, 0, 0]
    expected = []
    for d in range(0, 2 * n - 1, 2):
        e[var] = d
        expected.append((tuple(e), 1 if d < n else -1))
    assert list(_through_kronecker(geometric, alternating).terms()) == sorted(expected)
    assert (_through_kronecker(geometric, alternating) + _through_kronecker(-geometric, alternating)).is_zero()
    assert (geometric * ZERO).is_zero() and (ZERO * geometric).is_zero()
    # a digit at the edge of the width: l1(a) max|b| = 2^63 needs a sign bit
    # on top of 64 bits, and the middle coefficient reaches +-2^63
    for sign in (1, -1):
        a = _dense(var, [sign * 2**60] * n)
        _agree(_through_kronecker(a, geometric), _oracle(a) * _oracle(geometric))
    # exponents at the ends of the range: refused exactly when a term leaves it
    top = _dense(var, [3] * n, _EMAX - n + 1)
    bottom = _dense(var, [-(2**70)] * n, -_EMAX)
    assert max(e[var] for e, _ in _through_kronecker(top, _dense(var, [1] * n, 1 - n)).terms()) == _EMAX
    assert min(e[var] for e, _ in _through_kronecker(bottom, _dense(var, [1] * n)).terms()) == -_EMAX
    for x, y in ((top, _dense(var, [1] * n, 2 - n)), (bottom, _dense(var, [1] * n, -1))):
        with pytest.raises(ExponentBoundError):
            x * y
        with pytest.raises(ExponentBoundError):
            x._kronecker(y)


def test_mixed_variable_products_follow_the_box_rule():
    # the packed path takes a product exactly when its box has no more cells
    # than the sparse loop has term pairs, whatever the variables
    n = 8
    by_var = [_dense(var, range(1, n + 1), -3) for var in range(3)]
    mixed = by_var[0] * q_pow(1) + by_var[1]
    # one variable, the exponents 1000 apart: a box of stride 1000
    spread = Coefficient({(1000 * d, 0, 0): d + 1 for d in range(n)})
    pairs = [(by_var[0], by_var[1]), (by_var[1], by_var[2]), (by_var[0], by_var[2])]
    pairs += [(mixed, by_var[0]), (mixed, mixed), (spread, by_var[0]), (spread, spread)]
    # q^e near the top of the q range beside p q^e near its bottom: a box
    # far too large, though the keys happen to lie close together
    edge = Coefficient(
        {(0, _EMAX - d, 0): d - 20 for d in range(4, 12)}
        | {(1, -_EMAX + d, 0): 2**70 * (-1) ** d for d in range(3, 11)}
    )
    near_one = Coefficient({(0, j, 0): j + 5 for j in range(-3, 5)})
    pairs += [(edge, near_one), *((x, x) for x in by_var)]
    packed, expected = [], []
    for a, b in pairs:
        product = _oracle(a) * _oracle(b)
        _agree(a * b, product)
        _agree(b * a, product)
        for x, y in ((a, b), (b, a)):
            packed.append(x._kronecker(y))
            if packed[-1] is not None:
                _agree(packed[-1], product)
        ta, tb = dict(a.terms()), dict(b.terms())
        expected += [_product_cells(ta, tb) <= len(ta) * len(tb)] * 2
    assert [r is not None for r in packed] == expected
    # the two refusals, and packed products across variables
    assert expected.count(False) == 4 and expected[:6] == [True] * 6


# -- the packed form: dense, strided and sparse boxes, mixed forms ----------------

from heegaard.scalars import _PACK_MIN_TERMS, _SPREAD, _Packed  # noqa: E402


def _least_cells(terms):
    """The cells of the least box holding the exponent triples of ``terms``:
    per variable, the span over the gcd of the strides."""
    cells = 1
    for v in range(3):
        axis = [e[v] for e in terms]
        stride = math.gcd(*(x - min(axis) for x in axis)) or 1
        cells *= (max(axis) - min(axis)) // stride + 1
    return cells


def _check_form(c, oracle):
    """c is packed exactly when at least _PACK_MIN_TERMS terms fill at least
    1/_SPREAD of their least box, and its terms count the terms."""
    terms = oracle.terms_
    packed = len(terms) >= _PACK_MIN_TERMS and _least_cells(terms) <= _SPREAD * len(terms)
    assert (type(c._terms) is _Packed) == packed
    assert len(c._terms) == len(terms)


@st.composite
def boxed_terms(draw):
    """Terms in a box with a stride per variable (w in steps of 1 or 2),
    placed near 0 or at either end of the exponent range: every cell of it,
    at least half of them, or a few."""
    step = (draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.sampled_from((1, 2))))
    radix = [draw(st.integers(1, 6)) for _ in range(3)]
    low = [
        draw(st.one_of(st.integers(-4, 4), st.just(-_EMAX), st.just(_EMAX - s * (r - 1))))
        for s, r in zip(step, radix)
    ]
    cells = [
        (low[0] + step[0] * i, low[1] + step[1] * j, low[2] + step[2] * k)
        for i in range(radix[0]) for j in range(radix[1]) for k in range(radix[2])
    ]
    fill = draw(st.sampled_from(("every", "half", "few")))
    if fill != "every":
        least, most = ((len(cells) + 1) // 2, len(cells)) if fill == "half" else (0, 3)
        cells = draw(st.lists(st.sampled_from(cells), min_size=least, max_size=most, unique=True))
    coeffs = draw(st.lists(integer.filter(bool), min_size=len(cells), max_size=len(cells)))
    return dict(zip(cells, coeffs))


def _agree_or_refused(compute, oracle):
    """compute() against the oracle, or ExponentBoundError when a term of
    the oracle's value leaves the exponent range."""
    if any(abs(e) > _EMAX for e in oracle.exponents()):
        with pytest.raises(ExponentBoundError):
            compute()
    else:
        got = compute()
        _agree(got, oracle)
        _check_form(got, oracle)


@settings(max_examples=300, deadline=None)
@given(boxed_terms(), boxed_terms())
def test_packed_form_matches_oracle(ta, tb):
    (a, oa), (b, ob) = _both(ta), _both(tb)
    for c, o in ((a, oa), (b, ob), (a + b, oa + ob), (a - b, oa - ob), (-a, -oa), (a.conjugate(), oa.conjugate())):
        _agree(c, o)
        _check_form(c, o)
    _agree_or_refused(lambda: a * b, oa * ob)
    _agree_or_refused(lambda: b * a, oa * ob)
    monomial = {(1, -2, 2): -3}
    _agree_or_refused(lambda: a * Coefficient(monomial), oa * SparseCoefficient(monomial))
    _agree_or_refused(lambda: 5 * a, oa * SparseCoefficient({(0, 0, 0): 5}))
    for var in ("p", "q"):
        try:
            expected = oa.eval_at_zero(var)
        except EvaluationError:
            with pytest.raises(EvaluationError):
                a.eval_at_zero(var)
        else:
            _agree(a.eval_at_zero(var), expected)
            _check_form(a.eval_at_zero(var), expected)
    rebuilt = (a + b) - b  # the same value through another history
    assert rebuilt == a and hash(rebuilt) == hash(a) and (a == b) == (oa == ob)


@settings(max_examples=200, deadline=None)
@given(boxed_terms(), st.data())
def test_cancellation_down_to_a_sparse_value_or_zero(ta, data):
    kept = data.draw(st.lists(st.sampled_from(sorted(ta)), max_size=3, unique=True)) if ta else []
    a = Coefficient(ta)
    rest = Coefficient({e: c for e, c in ta.items() if e not in kept})
    expected = SparseCoefficient({e: ta[e] for e in kept})
    for got in (a - rest, -rest + a, a + (-rest)):
        _agree(got, expected)
        _check_form(got, expected)
    assert (a - a).is_zero() and (a + (-a)).is_zero()


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(boxed_terms(), term_dicts), min_size=2, max_size=5))
def test_mixed_forms_in_one_sum(parts):
    total, expected = ZERO, SparseCoefficient()
    for terms in parts:
        total, expected = total + Coefficient(terms), expected + SparseCoefficient(terms)
        _agree(total, expected)
        _check_form(total, expected)


@settings(max_examples=200, deadline=None)
@given(st.one_of(boxed_terms(), term_dicts))
def test_terms_length_counts_the_terms_in_either_form(terms):
    c = Coefficient(terms)
    for x in (c, c + c, c * 3, -c, c.conjugate(), c - c):
        assert len(x._terms) == len(list(x.terms()))
    assert len(c._terms) == len(SparseCoefficient(terms).terms_)


def test_both_forms_occur():
    dense = Coefficient({(0, 0, 2 * d): d + 1 for d in range(_PACK_MIN_TERMS)})
    sparse = Coefficient({(0, 0, 3 * d * d): d + 1 for d in range(_PACK_MIN_TERMS)})
    short = Coefficient({(0, 0, 2 * d): d + 1 for d in range(_PACK_MIN_TERMS - 1)})
    assert type(dense._terms) is _Packed and type(sparse._terms) is dict and type(short._terms) is dict
    assert len(dense._terms) == len(sparse._terms) == _PACK_MIN_TERMS
    # a monomial multiple moves the box and shares the packed int
    moved = dense * p_pow(3) * w_pow(-1)
    assert moved._terms.value is dense._terms.value and moved != dense


# -- one form per value: what sharing equal values rests on ------------------------

from heegaard.scalars import _key, _scaled, shared  # noqa: E402

shift = st.tuples(*[st.integers(-3, 3)] * 3)


def _moved(terms, s, sign=1):
    """``terms`` times sign * (the monomial of -s), or None when a term
    leaves the exponent range."""
    out = {tuple(map(operator.sub, e, s)): sign * c for e, c in terms.items()}
    return out if all(abs(x) <= _EMAX for e in out for x in e) else None


def _paths(terms, s, data):
    """The value of ``terms`` built by the constructor, as products, as a
    sum of two parts and, when packed, by ``_scaled``."""
    got = [Coefficient(terms)]
    keys = sorted(terms)
    part = set(data.draw(st.lists(st.sampled_from(keys), unique=True))) if keys else set()
    got.append(Coefficient({e: terms[e] for e in part}) + Coefficient({e: c for e, c in terms.items() if e not in part}))
    for sign in (1, -1):
        moved = _moved(terms, s, sign)
        if moved is None:
            continue
        base, unit = Coefficient(moved), Coefficient.monomial(sign, *s)
        got += [base * unit, unit * base]
        if type(base._terms) is _Packed:
            got.append(_scaled(base._terms, _key(*s), sign))
    return got


def _one_form(values):
    first = values[0]
    for v in values:
        assert v == first and hash(v) == hash(first), (v, first)
        assert type(v._terms) is type(first._terms), (v, first)
    # so one object can stand for all of them, when they have one term
    table: dict = {}
    objects = {id(shared(v, table)) for v in values}
    assert len(objects) == (1 if len(list(first.terms())) == 1 else len({id(v) for v in values}))


@settings(max_examples=300, deadline=None)
@given(st.one_of(boxed_terms(), term_dicts), one_term, shift, st.integers(-9, 9), st.data())
def test_equal_values_have_one_form_whatever_the_path(ta, tm, s, k, data):
    # the memos keep one object per one-term value (scalars.shared) and hand
    # it out for every equal value, which is sound only if equal values are
    # alike in all a reader can tell: their hash and their form
    _one_form(_paths(ta, s, data))
    ((e, c),) = tm.items()
    values = _paths(tm, s, data) + [Coefficient.monomial(c, *e), (Coefficient(ta) + Coefficient(tm)) - Coefficient(ta)]
    if k not in (0, c):
        # a sum of two terms on one key
        values.append(Coefficient.monomial(k, *e) + Coefficient.monomial(c - k, *e))
    # a cancellation of all but one term of a longer value
    rest = {f: d for f, d in ta.items() if f != e}
    values.append(Coefficient({**rest, e: c}) - Coefficient(rest))
    _one_form(values)


def test_one_term_values_share_one_object():
    table: dict = {}
    a = shared(w_pow(3) * p_pow(-1), table)
    assert shared(p_pow(-1) * w_pow(3), table) is a and shared(Coefficient({(-1, 0, 3): 1}), table) is a
    # 1 is the ONE object itself, and longer values are not stored
    assert shared(p_pow(2) * p_pow(-2), table) is ONE
    long = ONE + p_pow(1)
    assert shared(long, table) is long and shared(ONE + p_pow(1), table) is not long
    assert list(table) == [a]


def test_cancellation_down_to_a_smaller_dense_box():
    # a dense 6 x 6 box over p and w in steps of 2, less its first row, its
    # last column and one inner cell: what is left fills 24 of the cells of
    # a 5 x 5 box and must be packed whichever way it was reached
    box = {(i, 0, 2 * k): i + k + 1 for i in range(6) for k in range(6)}
    edge = {e: c for e, c in box.items() if e[0] == 0 or e[2] == 10 or e == (3, 0, 4)}
    rest = {e: c for e, c in box.items() if e not in edge}
    expected = SparseCoefficient(rest)
    for got in (Coefficient(box) - Coefficient(edge), -Coefficient(edge) + Coefficient(box), Coefficient(rest)):
        _agree(got, expected)
        _check_form(got, expected)
        assert type(got._terms) is _Packed and got._terms.box == ((1, 0, 0), (1, 1, 2), (5, 1, 5))
    assert Coefficient(box) - Coefficient(edge) == Coefficient(rest)


def test_cancellation_that_leaves_one_variable():
    # two rows along p, at w^0 and w^2: cancelling the second leaves a box
    # in p alone, whose stride in w is 1 however the value was reached
    rows = {(i, 0, 2 * k): i + 1 for i in range(_PACK_MIN_TERMS) for k in range(2)}
    second = {e: c for e, c in rows.items() if e[2] == 2}
    first = Coefficient({e: c for e, c in rows.items() if e[2] == 0})
    for got in (Coefficient(rows) - Coefficient(second), Coefficient(rows) + (-Coefficient(second))):
        assert got == first and hash(got) == hash(first)
        assert got._terms.box == first._terms.box == ((0, 0, 0), (1, 1, 1), (_PACK_MIN_TERMS, 1, 1))


def _filled(cells):
    """Nonzero coefficients, some past 64 bits, on the given exponent triples."""
    return {e: (d + 1) * (-1) ** d * (2**70 if d % 5 == 0 else 1) for d, e in enumerate(cells)}


def test_unary_operations_have_one_body_for_both_forms():
    # conjugation, evaluation at zero and negation act on the term map in
    # either form: on packed values whose box alone decides the answer they
    # must still return the value in its canonical form
    packed_cases = [
        # one cell on the w axis (w^-2), so conjugation only moves the box
        _filled([(i, j, -2) for i in range(4) for j in range(-2, 2)]),
        # lowest p and q exponents above 0: p = 0 and q = 0 leave nothing
        _filled([(1 + i, 2 + 3 * j, k) for i in range(3) for j in range(3) for k in range(2)]),
        # lowest p exponent 0 with one cell on the p axis: p = 0 keeps all
        _filled([(0, j, k) for j in range(1, 5) for k in range(4)]),
        # lowest q exponent 0 with one cell on the q axis: q = 0 keeps all
        _filled([(i, 0, 2 * k) for i in range(4) for k in range(-2, 2)]),
    ]
    dict_case = {(0, 0, 1): 2, (1, -1, 0): -3, (0, 2, 0): 2**90}
    for terms in packed_cases + [dict_case]:
        c, oc = _both(terms)
        assert (type(c._terms) is _Packed) == (terms is not dict_case)
        results = [(-c, -oc), (c.conjugate(), oc.conjugate()), (-(-c), oc)]
        for var in ("p", "q"):
            try:
                results.append((c.eval_at_zero(var), oc.eval_at_zero(var)))
            except EvaluationError:
                with pytest.raises(EvaluationError):
                    oc.eval_at_zero(var)
        for got, expected in results:
            _agree(got, expected)
            _check_form(got, expected)
    # the answers the boxes decide
    flat_w, above, p_at_zero, q_at_zero = map(Coefficient, packed_cases)
    assert flat_w.conjugate()._terms.box[0] == (0, -2, 2)
    assert above.eval_at_zero("p").is_zero() and above.eval_at_zero("q").is_zero()
    assert p_at_zero.eval_at_zero("p") == p_at_zero and q_at_zero.eval_at_zero("q") == q_at_zero


# -- the least box of a packed result: the slab test and the keys ----------------

import sys  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402

from heegaard.scalars import _box_of, _cell_keys, _fills  # noqa: E402


@st.composite
def slab_cases(draw):
    """A dense box (one, two or three varying variables) and the slabs
    along one variable that a cancellation empties: the first, the second,
    every odd one (the stride doubles) or the last."""
    axis = draw(st.sampled_from((0, 1, 2)))
    empty = draw(st.sampled_from(("first", "second", "odd", "last")))
    radix = [draw(st.integers(1, 4)) for _ in range(3)]
    # an odd count along the axis, so the last slab survives every odd one,
    # and enough slabs that what survives has at least _PACK_MIN_TERMS terms
    half = -(-_PACK_MIN_TERMS // (radix[(axis + 1) % 3] * radix[(axis + 2) % 3]))
    radix[axis] = max(3, 2 * draw(st.integers(half, half + 2)) - 1)
    step = [draw(st.integers(1, 3)) if r > 1 else 1 for r in radix]
    low = [draw(st.integers(-4, 4)) for _ in range(3)]
    cells = [(i, j, k) for i in range(radix[0]) for j in range(radix[1]) for k in range(radix[2])]
    coeffs = draw(st.lists(nonzero, min_size=len(cells), max_size=len(cells)))
    gone = {"first": {0}, "second": {1}, "odd": set(range(1, radix[axis], 2)), "last": {radix[axis] - 1}}[empty]

    def at(cell):
        return tuple(lo + s * x for lo, s, x in zip(low, step, cell))

    full = {at(cell): c for cell, c in zip(cells, coeffs)}
    removed = {at(cell): c for cell, c in zip(cells, coeffs) if cell[axis] in gone}
    return full, removed


@settings(max_examples=300, deadline=None)
@given(slab_cases())
def test_cancellation_that_empties_a_slab_leaves_the_least_box(case):
    full, removed = case
    rest = {e: c for e, c in full.items() if e not in removed}
    expected = SparseCoefficient(rest)
    a, b = Coefficient(full), Coefficient(removed)
    assert type(a._terms) is _Packed
    for got in (a - b, -b + a, a + b * -1):
        _agree(got, expected)
        _check_form(got, expected)
        assert got == Coefficient(rest)


@pytest.mark.parametrize("var", (0, 1, 2))
def test_a_product_whose_odd_slabs_cancel_is_packed_at_twice_the_stride(var):
    # (1 + t) (1 - t) h(t^2) = (1 - t^2) h(t^2) for t = p, q or w: the
    # product's box has stride 1 and every odd slab of it is empty
    def poly(coeffs, stride=1):
        return {tuple(stride * d if v == var else 0 for v in range(3)): c for d, c in enumerate(coeffs) if c}

    h = [(-1) ** d * (d + 2) * (2**70 if d % 4 == 0 else 1) for d in range(_PACK_MIN_TERMS + 1)]
    h2 = SparseCoefficient(poly(h, 2))
    left, right = SparseCoefficient(poly([1, 1])), SparseCoefficient(poly([1, -1])) * h2
    expected = SparseCoefficient(poly([1, -1], 2)) * h2
    got = Coefficient(left.terms_) * Coefficient(right.terms_)
    assert type(Coefficient(right.terms_)._terms) is _Packed
    _agree(got, expected)
    _check_form(got, expected)
    assert got._terms.box[1][var] == 2


def test_odd_terms_cancelled_from_a_run_of_p_powers():
    x = Coefficient({(i, 0, 0): 1 for i in range(33)})
    odd = Coefficient({(i, 0, 0): 1 for i in range(1, 33, 2)})
    evens = Coefficient({(2 * i, 0, 0): 1 for i in range(17)})
    for got in (x - odd, x + -odd, -odd + x):
        assert got == evens and hash(got) == hash(evens) and str(got) == str(evens)
        assert type(got._terms) is _Packed and got._terms.box == ((0, 0, 0), (2, 1, 1), (17, 1, 1))


@st.composite
def digit_boxes(draw):
    """A canonical box (stride 1 wherever the count is 1) and digits over
    its cells, zero about half the time."""
    radix = tuple(draw(st.integers(1, 4)) for _ in range(3))
    step = tuple(draw(st.integers(1, 3)) if r > 1 else 1 for r in radix)
    low = tuple(draw(st.integers(-3, 3)) for _ in range(3))
    count = radix[0] * radix[1] * radix[2]
    digits = draw(st.lists(st.sampled_from((0, 0, 0, 1, -5)), min_size=count, max_size=count))
    return (low, step, radix), digits


def _slabs_hold_digits(box, digits):
    """The slab test by its definition, from each cell's coordinates."""
    ri, rj, rk = box[2]
    coords = [(c // (rj * rk), c // rk % rj, c % rk) for c in range(len(digits))]
    return all(
        r < 2 or all(any(d for d, x in zip(digits, coords) if x[v] == a) for a in (0, 1, r - 1))
        for v, r in enumerate(box[2])
    )


@settings(max_examples=500, deadline=None)
@given(digit_boxes(), st.booleans())
def test_slab_test_matches_its_definition_and_vouches_only_for_least_boxes(case, as_array):
    box, digits = case
    vouched = _fills(box, array("q", digits) if as_array else digits)
    assert vouched == _slabs_hold_digits(box, digits)
    if vouched and any(digits):
        assert _box_of([k for k, d in zip(_cell_keys(box), digits) if d]) == box


def test_slab_test_reads_the_middle_slab_in_every_p_row():
    # a 3 x 3 x 3 box whose second q slab is empty in the first two p rows
    box = ((0, 0, 0), (1, 1, 1), (3, 3, 3))
    cells = [(c // 9, c // 3 % 3, c % 3) for c in range(27)]
    hole = [i < 2 and j == 1 for i, j, _ in cells]
    digits = [0 if h else c + 1 for c, h in enumerate(hole)]
    assert _fills(box, digits) and _slabs_hold_digits(box, digits)
    assert not _fills(box, [0 if j == 1 else 1 for _, j, _ in cells])
    # the full box less the hole: a sum packed over the box the test vouches for
    full = {e: c + 1 for c, e in enumerate(cells)}
    got = Coefficient(full) - Coefficient({e: c for (e, c), h in zip(full.items(), hole) if h})
    rest = {e: c for (e, c), h in zip(full.items(), hole) if not h}
    assert type(got._terms) is _Packed and got._terms.box == box and got == Coefficient(rest)


def test_powers_pack_every_result_over_a_box_the_slab_test_vouches_for(monkeypatch, cold_process_memos):
    # (a + b + A)^16 from cold memos: every result of _from_cells is packed
    # over a box the slab test vouches for, so _from_cells never asks the keys
    calls = Counter()
    box_of, fills = scalars._box_of, scalars._fills

    def counted_box_of(keys):
        calls["_box_of from " + sys._getframe(1).f_code.co_name] += 1
        return box_of(keys)

    def counted_fills(box, digits):
        vouched = fills(box, digits)
        calls["vouched" if vouched else "refused"] += 1
        return vouched

    monkeypatch.setattr(scalars, "_box_of", counted_box_of)
    monkeypatch.setattr(scalars, "_fills", counted_fills)
    scalars.clear_run_memos()
    (SPHERE.a() + SPHERE.b() + SPHERE.A()).pow_signed(16)
    assert calls["vouched"] > 500
    assert calls["refused"] == calls["_box_of from _from_cells"] == 0


# -- one-term operands and accumulation ---------------------------------------------

from heegaard.qalgebras import CORE_A, CORE_B, SPHERE, SphereMonomial  # noqa: E402
from heegaard.scalars import add_term  # noqa: E402


def test_one_term_products_at_the_exponent_limit():
    top = Coefficient.monomial(1, _EMAX)
    corner = Coefficient.monomial(-2, _EMAX, -_EMAX, 0)
    # bounds that sum past the limit, exponents inside it
    for got, term in ((top * p_pow(-1), ((_EMAX - 1, 0, 0), 1)), (corner * q_pow(1), ((_EMAX, 1 - _EMAX, 0), -2))):
        assert list(got.terms()) == [term]
        assert got._bound == max(map(abs, term[0]))
    # and past it, per variable, named as before
    for x, y, exps in (
        (top, p_pow(1), (_EMAX + 1, 0, 0)),
        (corner, q_pow(-1), (_EMAX, -_EMAX - 1, 0)),
        (Coefficient.monomial(3, 0, 0, -_EMAX), w_pow(-2), (0, 0, -_EMAX - 2)),
        (-ONE * corner, Coefficient.monomial(5, 1, -1, 0), (_EMAX + 1, -_EMAX - 1, 0)),
    ):
        for first, second in ((x, y), (y, x)):
            with pytest.raises(ExponentBoundError) as info:
                first * second
            assert str(info.value) == _bound_error(exps)


small = st.integers(-3, 3)
small_coefficients = st.dictionaries(st.tuples(small, small, small), nonzero, min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(st.integers(0, 4), small_coefficients, max_size=5),
    st.dictionaries(st.integers(0, 4), small_coefficients, max_size=5),
    st.sets(st.integers(0, 4)),
)
def test_accumulation_drops_cancelled_keys(tx, ty, cancel):
    # y takes -x at the keys in ``cancel``: those sums vanish, and their keys
    # must leave both LinComb.__add__'s result and add_term's dict
    ty = {**ty, **{d: {e: -c for e, c in tx[d].items()} for d in cancel if d in tx}}
    expected = {}
    for terms in (tx, ty):
        for d, t in terms.items():
            expected[d] = expected.get(d, SparseCoefficient()) + SparseCoefficient(t)
    expected = {d: c for d, c in expected.items() if c.terms_}
    x = QPoly({d: Coefficient(t) for d, t in tx.items()})
    y = QPoly({d: Coefficient(t) for d, t in ty.items()})
    out = {}
    for d, t in [*tx.items(), *ty.items()]:
        add_term(out, d, Coefficient(t))
    for got in ((x + y)._t, (y + x)._t, out):
        assert sorted(got) == sorted(expected)
        for d, c in got.items():
            _agree(c, expected[d])
    assert (x - x)._t == {} and (x + -x)._t == {}


def test_add_term_stores_no_zero():
    c = Coefficient.monomial(3, 1, 0, 2)
    out = {}
    add_term(out, "m", ZERO)
    assert out == {}
    add_term(out, "m", c)
    assert out["m"] is c
    add_term(out, "m", -c)
    assert out == {}


sphere_monomials = st.builds(SphereMonomial, st.sampled_from([CORE_A, CORE_B]), st.integers(0, 2), small, small).map(
    lambda m: m._replace(k=max(m.k, 1)) if m.core == CORE_B else m
)
sphere_terms = st.dictionaries(sphere_monomials, small_coefficients.map(Coefficient), max_size=4)


def _product_of_every_pair(x, y):
    """x * y by the loop that multiplies the coefficients of every pair of
    terms before asking the monomial rule, and adds through ZERO."""
    out = {}
    for m1, c1 in x.terms():
        for m2, c2 in y.terms():
            c12 = c1 * c2
            for mono, f in SPHERE.mono_mul(m1, m2):
                s = out.get(mono, ZERO) + c12 * f
                if s:
                    out[mono] = s
                else:
                    del out[mono]
    return SPHERE.element(out)


@settings(max_examples=150, deadline=None)
@given(sphere_terms, sphere_terms, small_coefficients, small_coefficients)
def test_sphere_product_with_mixed_core_annihilations(tx, ty, ca, cb):
    # x holds an A-core term and y a B-core one, so some pairs annihilate
    tx = {**tx, SphereMonomial(CORE_A, 1, 1, -1): Coefficient(ca)}
    ty = {**ty, SphereMonomial(CORE_B, 2, 0, 1): Coefficient(cb)}
    x, y = SPHERE.element(tx), SPHERE.element(ty)
    assert not SPHERE.mono_mul(SphereMonomial(CORE_A, 1, 1, -1), SphereMonomial(CORE_B, 2, 0, 1))
    for first, second in ((x, y), (y, x)):
        got = first * second
        assert got == _product_of_every_pair(first, second)
        assert all(got._t.values())


# -- linear maps and gradings of the shared core ----------------------------------

from heegaard.qalgebras import DISC, DiscElement, DiscMonomial  # noqa: E402


def _into_disc(m):
    """A map from sphere monomials into the disc whose images overlap, so
    the images of different terms meet and may cancel."""
    return DISC.element({DiscMonomial(m.k, m.mu): ONE, DiscMonomial(0, m.nu): p_pow(m.k) + w_pow(1)})


@settings(max_examples=150, deadline=None)
@given(sphere_terms, sphere_terms, small_coefficients)
def test_mapped_is_linear(tx, ty, c):
    x, y, c = SPHERE.element(tx), SPHERE.element(ty), Coefficient(c)
    fx, fy = x.mapped(_into_disc, DISC.zero()), y.mapped(_into_disc, DISC.zero())
    assert type(fx) is DiscElement and fx.alg is DISC
    assert (x + y).mapped(_into_disc, DISC.zero()) == fx + fy
    assert (x - x).mapped(_into_disc, DISC.zero()) == DISC.zero()
    assert x.scale(c).mapped(_into_disc, DISC.zero()) == fx.scale(c)
    assert all(fx._t.values())
    assert x.mapped(lambda m: SPHERE.element({m: ONE}), SPHERE.zero()) == x


GRADINGS = {
    "degree": lambda m: m.deg,
    "degree mod 3": lambda m: m.deg % 3,
    "core family": lambda m: (m.core, m.k > 0),
    "index": lambda m: (m.mu, m.nu),
    "constant": lambda m: 0,
}


@settings(max_examples=150, deadline=None)
@given(sphere_terms, st.sampled_from(sorted(GRADINGS)))
def test_graded_parts_are_homogeneous_and_sum_back(tx, grading):
    x, degree = SPHERE.element(tx), GRADINGS[grading]
    parts = x.graded(degree)
    assert all(parts.values())
    supports = [set(dict(part.terms())) for part in parts.values()]
    assert sum(map(len, supports)) == len(set().union(*supports)) == len(tx)
    for d, part in parts.items():
        assert type(part) is type(x) and part.alg is x.alg
        assert {degree(m) for m, _ in part.terms()} == {d}
    assert sum(parts.values(), SPHERE.zero()) == x
    assert bool(parts) == bool(x)


# -- two branches that only some inputs reach -------------------------------------


@pytest.mark.parametrize("var", ["p", "q"])
def test_pascal_rule_across_packing_widths(var):
    # rows 62 and up are packed at 128-bit digits, while the sums that give
    # them come out at 64: equal values of two widths compare by their terms
    from heegaard.scalars import var_pow

    widths = set()
    for n in range(62, 72):
        for m in range(1, n):
            lhs = qbinomial(n, m, var)
            rhs = qbinomial(n - 1, m, var) + var_pow(var, n - m) * qbinomial(n - 1, m - 1, var)
            assert (lhs, hash(lhs), str(lhs)) == (rhs, hash(rhs), str(rhs)), (n, m)
            widths.add((lhs._terms.width, rhs._terms.width))
    assert (128, 64) in widths


def test_products_that_cancel_store_no_zero():
    from heegaard.qalgebras import DISC, SPHERE

    for one, gen in ((DISC.one(), DISC.X()), (SPHERE.one(), SPHERE.A())):
        got = (one + gen) * (one - gen)
        assert got == one - gen * gen and len(got.terms()) == 2
        assert all(c for _, c in got.terms())
