"""Integer-matrix K-theory and the symbolic pullback models.

The invariant-factor oracle is independent of the reduction: the i-th
determinantal divisor (gcd of all i-by-i minors) divided by the previous
one must equal the i-th diagonal entry of the normal form.
"""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heegaard.scalars import EvaluationError, ONE, w_pow
from heegaard import ktheory
from heegaard.ktheory import (
    AbelianGroup,
    CrossedAlgebra,
    PullbackElement,
    PullbackMismatchError,
    TorusAlgebra,
    bass_class_report,
    bass_idempotent,
    cokernel,
    kernel_rank,
    lens_k_data,
    lens_k_groups,
    mat_det,
    mat_mul,
    matrix_rank,
    mayer_vietoris_solve,
    project_to_torus,
    pullback_make,
    smith_normal_form,
)
from heegaard.reports import FAIL, PASS
from heegaard.rng import SplitMix64


# -- determinantal-divisor oracle ----------------------------------------------


def minor_gcds(m):
    rows, cols = len(m), len(m[0])
    out = []
    for size in range(1, min(rows, cols) + 1):
        g = 0
        for ri in combinations(range(rows), size):
            for ci in combinations(range(cols), size):
                sub = [[m[i][j] for j in ci] for i in ri]
                g = math.gcd(g, mat_det(sub))
        out.append(g)
    return out


def invariant_factors_oracle(m):
    divisors = minor_gcds(m)
    out = []
    prev = 1
    for d in divisors:
        if d == 0:
            break
        out.append(d // prev)
        prev = d
    return out


def snf_diag(m):
    _, d, _ = smith_normal_form(m)
    n = min(len(d), len(d[0]) if d else 0)
    return [d[i][i] for i in range(n) if d[i][i]]


def test_snf_examples():
    m = [[0, -3], [1, -1]]
    u, d, v = smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == d
    assert [d[0][0], d[1][1]] == [1, 3]
    ident = [[1, 0], [0, 1]]
    _, d, _ = smith_normal_form(ident)
    assert d == ident
    _, d, _ = smith_normal_form([[2, 0], [0, 3]])
    assert [d[0][0], d[1][1]] == [1, 6]


def test_snf_against_minor_oracle_random():
    rng = SplitMix64(24195)
    for _ in range(400):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-12, 12) for _ in range(cols)] for _ in range(rows)]
        assert snf_diag(m) == invariant_factors_oracle(m), m


matrix_strategy = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-20, 20), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@settings(max_examples=300, deadline=None)
@given(matrix_strategy)
def test_snf_properties(m):
    u, d, v = smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == d
    assert abs(mat_det(u)) == 1
    assert abs(mat_det(v)) == 1
    diag = [d[i][i] for i in range(min(len(m), len(m[0])))]
    for i in range(len(diag) - 1):
        assert not (diag[i] == 0 and diag[i + 1] != 0)
        if diag[i] and diag[i + 1]:
            assert diag[i + 1] % diag[i] == 0
    assert all(x >= 0 for x in diag)
    assert matrix_rank(m) + kernel_rank(m) == len(m[0])


def test_cokernel_examples():
    assert cokernel([[0, -3], [1, -1]]) == AbelianGroup((3,), 0)
    assert cokernel([[0]]) == AbelianGroup((), 1)
    assert cokernel([[1, -1], [0, 0]]) == AbelianGroup((), 1)
    assert kernel_rank([[1, -1], [0, 0]]) == 1
    assert cokernel([[2, 0], [0, 3]]) == AbelianGroup((6,), 0)


def test_abelian_group_forms():
    assert str(AbelianGroup((3,), 1)) == "Z/3 + Z"
    assert str(AbelianGroup((), 0)) == "0"
    with pytest.raises(ValueError):
        AbelianGroup((1,), 0)
    with pytest.raises(ValueError):
        AbelianGroup((4, 6), 0)  # 4 does not divide 6
    g = AbelianGroup((2,), 0).direct_sum(AbelianGroup((3,), 1))
    assert g == AbelianGroup((6,), 1)


def test_lens_k_data():
    m0, m1 = lens_k_data(3)
    assert m0 == [[1, -1], [0, 0]]
    assert m1 == [[0, -3], [1, -1]]
    assert lens_k_data(1)[1] == [[0, -1], [1, -1]]


def test_mayer_vietoris_lens_groups():
    for N in range(1, 51):
        res = lens_k_groups(N)
        assert not res.ambiguous
        if N == 1:
            assert res.k0 == AbelianGroup((), 1)
        else:
            assert res.k0 == AbelianGroup((N,), 1)
        assert res.k1 == AbelianGroup((), 1)


def test_mayer_vietoris_trivial_and_ambiguous():
    res = mayer_vietoris_solve([[0]], [[0]])
    assert res.k0 == AbelianGroup((), 2)
    assert res.k1 == AbelianGroup((), 2)
    res = mayer_vietoris_solve([[2]], [[0]])
    assert res.ambiguous
    assert res.k1 is None
    assert "ambiguous" in res.reason


# -- crossed products, torus, pullback ------------------------------------------


def test_crossed_relations():
    plus = CrossedAlgebra(1, 1)
    minus = CrossedAlgebra(-1, 1)
    assert plus.u() * plus.x() == (plus.x() * plus.u()).scale(w_pow(2))
    assert minus.u() * minus.x() == (minus.x() * minus.u()).scale(w_pow(-2))
    assert plus.x().star() * plus.x() == plus.one()
    # unitarity of the crossing generator
    assert plus.u() * plus.u().star() == plus.one()
    assert plus.u().star() * plus.u() == plus.one()
    lensp = CrossedAlgebra(1, 3)
    assert lensp.u() * lensp.x() == (lensp.x() * lensp.u()).scale(w_pow(6))


def test_crossed_star_is_involution():
    # stars stay representable on the core-free part and on the bare core
    rng = SplitMix64(47)
    plus = CrossedAlgebra(1, 2)
    from heegaard.qalgebras import DiscMonomial
    from heegaard.ktheory import CrossedElement

    for _ in range(100):
        if rng.randint(0, 3) == 0:
            mono = DiscMonomial(1, 0)
        else:
            mono = DiscMonomial(0, rng.randint(-3, 3))
        t = CrossedElement(
            plus, {(mono, rng.randint(-3, 3)): w_pow(rng.randint(-2, 2))}
        )
        assert t.star().star() == t


def test_crossed_star_escape_raises():
    # the adjoint of the core-dressed adjoint-power word leaves the span
    plus = CrossedAlgebra(1, 2)
    from heegaard.qalgebras import DiscMonomial
    from heegaard.ktheory import CrossedElement

    t = CrossedElement(plus, {(DiscMonomial(1, -2), 0): ONE})
    with pytest.raises(EvaluationError):
        t.star()


def test_torus_relations():
    t = TorusAlgebra(3)
    assert t.U() * t.Z() == (t.Z() * t.U()).scale(w_pow(6))
    assert t.Z() * t.Z().star() == t.one()
    assert t.U().pow_signed(-1) * t.U() == t.one()


def test_projection_is_algebra_map():
    # checked on every representable product; escapes raise and are skipped
    rng = SplitMix64(51)
    for N in (1, 2, 3):
        for sign, leg in ((1, 1), (-1, 2)):
            alg = CrossedAlgebra(sign, N)
            torus = TorusAlgebra(N)
            from heegaard.qalgebras import DiscMonomial
            from heegaard.ktheory import CrossedElement

            checked = 0
            attempts = 0
            while checked < 60 and attempts < 600:
                attempts += 1

                def sample():
                    k = rng.randint(0, 1)
                    mu = rng.randint(-3, 3)
                    if k and mu > 0:
                        mu = -mu
                    return CrossedElement(
                        alg,
                        {(DiscMonomial(k, mu), rng.randint(-2, 2)): w_pow(rng.randint(-2, 2))},
                    )

                r, s = sample(), sample()
                try:
                    prod = r * s
                except EvaluationError:
                    continue
                assert project_to_torus(prod, leg, torus) == project_to_torus(
                    r, leg, torus
                ) * project_to_torus(s, leg, torus)
                checked += 1
            assert checked == 60


def test_projection_examples():
    N = 3
    plus = CrossedAlgebra(1, N)
    minus = CrossedAlgebra(-1, N)
    torus = TorusAlgebra(N)
    assert project_to_torus(plus.X() * plus.x(), 1, torus).is_zero()
    assert project_to_torus(minus.x(), 2, torus) == torus.Z(-1)
    got = project_to_torus(minus.u(), 2, torus)
    assert got == (torus.Z(N) * torus.U()).scale(w_pow(N * (N - 1)))
    with pytest.raises(ValueError):
        project_to_torus(plus.x(), 2, torus)


def test_pullback_make():
    N = 2
    plus = CrossedAlgebra(1, N)
    minus = CrossedAlgebra(-1, N)
    torus = TorusAlgebra(N)
    pullback_make(plus.one(), minus.one(), torus)
    pullback_make(plus.x() * plus.x().star(), minus.one(), torus)
    with pytest.raises(PullbackMismatchError) as exc:
        pullback_make(plus.x(), minus.one(), torus)
    assert not exc.value.residual.is_zero()


def test_bass_idempotent_and_report():
    for N in (1, 2, 3, 5):
        rep = bass_class_report(N)
        assert rep.matrix_identity
        assert rep.valid_pullback_pair
        assert rep.torsion_order == (N if N > 1 else 1)
        assert all(e.ok for e in rep.entries), rep.entries
        p_u = rep.idempotent_matrix
        plus = p_u[0][0].plus.alg
        minus = p_u[0][0].minus.alg
        assert p_u[0][0].plus == plus.one() and p_u[0][0].minus == minus.one()
        assert p_u[1][1].minus.is_zero()
        xxs = plus.x() * plus.x().star()
        assert p_u[1][1].plus == plus.one() - xxs
        assert p_u[0][1].plus.is_zero() and p_u[1][0].plus.is_zero()


def test_pullback_consistency_with_a_shifted_phase_fails(monkeypatch):
    # every pullback product gains w on its plus leg: the twisted
    # commutators still vanish, the isometries and the core product do not
    product = ktheory.pullback_mul

    def shifted(x, y):
        r = product(x, y)
        return PullbackElement(r.plus.scale(w_pow(1)), r.minus)

    monkeypatch.setattr(ktheory, "pullback_mul", shifted)
    entries = {e.id: (e.status, e.residual, e.paper_tag) for e in ktheory.sphere_pullback_consistency()}
    assert entries == {
        "pullback:ab-phase": (PASS, "0", "thm:not-free"),
        "pullback:abstar-phase": (PASS, "0", "thm:not-free"),
        "pullback:a-isometry": (FAIL, "(-1 + w, 0)", "thm:not-free"),
        "pullback:b-isometry": (FAIL, "(-1 + w, 0)", "thm:not-free"),
        "pullback:core-product": (FAIL, "(w - 2*w^2 + w^3 + w^2 X - w^3 X, 0)", "thm:not-free"),
    }


def test_bass_trivial_lift():
    N = 2
    plus = CrossedAlgebra(1, N)
    minus = CrossedAlgebra(-1, N)
    torus = TorusAlgebra(N)
    p_u = bass_idempotent([[plus.one()]], [[plus.one()]], [[torus.one()]], minus, torus)
    assert p_u[0][0].plus == plus.one()
    assert p_u[1][1].plus.is_zero()
    assert p_u[0][1].plus.is_zero() and p_u[1][0].plus.is_zero()


def test_bass_random_liftable_examples():
    rng = SplitMix64(53)
    N = 3
    plus = CrossedAlgebra(1, N)
    minus = CrossedAlgebra(-1, N)
    torus = TorusAlgebra(N)
    for _ in range(20):
        k = rng.randint(-2, 2)
        u_val = torus.Z().scale(w_pow(2 * k)) if rng.randint(0, 1) else torus.Z(-1).scale(w_pow(2 * k))
        if u_val == torus.Z().scale(w_pow(2 * k)):
            d = [[plus.x().scale(w_pow(2 * k))]]
            c = [[plus.x().star().scale(w_pow(-2 * k))]]
        else:
            d = [[plus.x().star().scale(w_pow(2 * k))]]
            c = [[plus.x().scale(w_pow(-2 * k))]]
        bass_idempotent(c, d, [[u_val]], minus, torus)  # idempotency verified inside
    # 2x2 diagonal lift
    c = [[plus.x().star(), plus.zero()], [plus.zero(), plus.one()]]
    d = [[plus.x(), plus.zero()], [plus.zero(), plus.one()]]
    u_mat = [[torus.Z(), torus.zero()], [torus.zero(), torus.one()]]
    p_u = bass_idempotent(c, d, u_mat, minus, torus)
    assert len(p_u) == 4
    with pytest.raises(ValueError):
        bass_idempotent([[plus.x()]], [[plus.x()]], [[torus.Z()]], minus, torus)


def test_bass_lift_precondition_checked():
    N = 2
    plus = CrossedAlgebra(1, N)
    minus = CrossedAlgebra(-1, N)
    torus = TorusAlgebra(N)
    with pytest.raises(ValueError):
        bass_idempotent([[plus.x().star()]], [[plus.x().star()]], [[torus.Z()]], minus, torus)


def test_failed_bass_entries_say_why(monkeypatch):
    unfaulted = {e.id: e for e in bass_class_report(3).entries}
    # shifted pullback phases: the idempotent is not built, and (x x*, 1) is
    # no pullback pair; each failing entry carries its own message
    real = ktheory.w_pow
    monkeypatch.setattr(ktheory, "w_pow", lambda e: real(e + 1))
    entries = {e.id: e for e in bass_class_report(3).entries}
    not_built = "leg projection of d does not equal the given matrix"
    assert (entries["bass:block-matrix"].status, entries["bass:block-matrix"].residual) == (FAIL, not_built)
    assert entries["bass:pullback-pair"].status == FAIL
    assert entries["bass:pullback-pair"].residual.startswith("leg projections differ by ")
    assert entries["bass:complement-identity"].residual == not_built
    # the idempotent built, but the pair (x x*, 1) refused: the identity
    # fails with the pair's message
    monkeypatch.setattr(ktheory, "w_pow", real)
    make = ktheory.pullback_make

    def refuse_the_pair(a_plus, a_minus, torus=None):
        x = a_plus.alg.x()
        if a_plus == x * x.star() and a_minus == a_minus.alg.one():
            raise ktheory.PullbackMismatchError(torus.one())
        return make(a_plus, a_minus, torus)

    monkeypatch.setattr(ktheory, "pullback_make", refuse_the_pair)
    entries = {e.id: e for e in bass_class_report(3).entries}
    assert entries["bass:block-matrix"] == unfaulted["bass:block-matrix"]
    for cid in ("bass:pullback-pair", "bass:complement-identity"):
        assert (entries[cid].status, entries[cid].residual) == (FAIL, "leg projections differ by 1")
