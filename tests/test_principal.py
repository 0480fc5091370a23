"""Hopf operations, strong connections, associated idempotents, and the
circle prolongation."""

import pytest

from heegaard.scalars import Coefficient, EvaluationError, ONE, ZERO, p_pow
from heegaard.qalgebras import CORE_A, SPHERE, SPHERE0, SphereMonomial
from heegaard.matrix import Matrix
from heegaard.principal import (
    CyclicHopfElement,
    LaurentHopfElement,
    ProlongElement,
    SPHERE_ONE,
    TensorSquare,
    associated_idempotent,
    hopf_ops,
    idempotent_check,
    prolong_action,
    prolong_is_invariant,
    prolong_phi,
    prolong_phi_inv,
    prolong_phi_map,
    prolong_project,
    strong_connection_algebraic,
    strong_connection_isometric,
    verify_strong_connection,
)
from heegaard.rng import SplitMix64, random_coefficient, random_sphere_monomial


def test_hopf_ops_cyclic():
    N = 5
    u = CyclicHopfElement.generator_power(N, 1)
    delta, eps, anti = hopf_ops(u)
    assert delta == {(1, 1): ONE}
    assert eps == ONE
    assert anti == CyclicHopfElement.generator_power(N, N - 1)
    u2 = CyclicHopfElement.generator_power(N, 2)
    assert hopf_ops(u2)[2] == CyclicHopfElement.generator_power(N, N - 2)
    mixed = CyclicHopfElement(N, {0: Coefficient.integer(3), 1: ONE})
    assert hopf_ops(mixed)[1] == Coefficient.integer(4)
    # powers wrap
    assert u2 * CyclicHopfElement.generator_power(N, 4) == CyclicHopfElement.generator_power(N, 1)


def test_hopf_ops_laurent():
    u = LaurentHopfElement.generator_power(1)
    delta, eps, anti = hopf_ops(u)
    assert delta == {(1, 1): ONE}
    assert eps == ONE
    assert anti == LaurentHopfElement.generator_power(-1)
    assert u * LaurentHopfElement.generator_power(-1) == LaurentHopfElement.generator_power(0)


def test_algebraic_connection_values():
    conn = strong_connection_algebraic(3, "corrected")
    assert conn.values[0] == TensorSquare(
        SPHERE, {(SPHERE_ONE, SPHERE_ONE): ONE}
    )
    expected1 = TensorSquare(
        SPHERE,
        {
            (SphereMonomial(CORE_A, 0, -1, 0), SphereMonomial(CORE_A, 0, 1, 0)): ONE,
            (SphereMonomial(CORE_A, 1, 0, -1), SphereMonomial(CORE_A, 0, 0, 1)): p_pow(1),
        },
    )
    assert conn.values[1] == expected1
    printed = strong_connection_algebraic(2, "printed_p_inverse")
    assert printed.values[1] == TensorSquare(
        SPHERE,
        {
            (SphereMonomial(CORE_A, 0, -1, 0), SphereMonomial(CORE_A, 0, 1, 0)): ONE,
            (SphereMonomial(CORE_A, 1, 0, -1), SphereMonomial(CORE_A, 0, 0, 1)): p_pow(-1),
        },
    )


def test_corrected_connection_passes_axioms():
    for N in range(1, 8):
        checks = verify_strong_connection(strong_connection_algebraic(N, "corrected"))
        assert all(c.ok for c in checks), [c for c in checks if not c.ok]


def test_isometric_connection_passes_axioms():
    for N in range(1, 8):
        conn = strong_connection_isometric(N)
        assert conn.values[1 % N].alg is SPHERE0 or N == 1
        checks = verify_strong_connection(conn)
        assert all(c.ok for c in checks), [c for c in checks if not c.ok]


def test_printed_connection_fails_with_exact_residual():
    for N in (2, 3, 5):
        conn = strong_connection_algebraic(N, "printed_p_inverse")
        classes = conn.values[1].legs_multiplied_by_class(N)
        residual = classes[1] - SPHERE.one()
        assert residual == SPHERE.A().scale(p_pow(-1) - p_pow(1)), N
        checks = verify_strong_connection(conn)
        bad = [c for c in checks if not c.ok]
        assert bad and all(c.id.startswith("unit-return[") for c in bad)


def test_associated_idempotent_matrix():
    conn = strong_connection_algebraic(4, "corrected")
    E = associated_idempotent(conn, 1)
    s = SPHERE
    z = s.z()
    expected = Matrix(
        [
            [s.one() - s.A(), (z * s.A()).scale(p_pow(1))],
            [z.star(), s.A().scale(p_pow(1))],
        ]
    )
    assert E == expected
    chk = idempotent_check(E, 4)
    assert chk.idempotent and chk.invariant
    with pytest.raises(ValueError):
        associated_idempotent(conn, 0)
    with pytest.raises(ValueError):
        associated_idempotent(conn, 4)


def test_corrected_idempotent_all_types():
    for N in range(2, 8):
        for n in range(1, N):
            conn = strong_connection_algebraic(N, "corrected")
            E = associated_idempotent(conn, n)
            chk = idempotent_check(E, N)
            assert chk.idempotent and chk.invariant, (N, n)


def test_printed_idempotent_fails_with_exact_residual():
    conn = strong_connection_algebraic(3, "printed_p_inverse")
    E = associated_idempotent(conn, 1)
    chk = idempotent_check(E, 3)
    assert not chk.idempotent
    top_left = (E * E)[0][0] - E[0][0]
    expected = (SPHERE.A() - SPHERE.A() * SPHERE.A()).scale(p_pow(-2) - ONE)
    assert top_left == expected


def test_isometric_idempotent():
    conn = strong_connection_isometric(5)
    E = associated_idempotent(conn, 1)
    assert E.rows == E.cols == 1
    assert E[0][0] == SPHERE0.one() - SPHERE0.A()
    chk = idempotent_check(E, 5)
    assert chk.idempotent and chk.invariant
    # the squared class leaves the representable span at parameter zero
    with pytest.raises(EvaluationError):
        associated_idempotent(conn, 2)


def specialize_to_isometric(tensor):
    """Evaluate a generic-sphere tensor at parameter zero, term by term."""
    from heegaard.qalgebras import SPHERE0

    out = {}
    for (m1, m2), c in tensor.terms():
        try:
            c0 = c.eval_at_zero("p").eval_at_zero("q")
        except EvaluationError:
            raise
        if not c0:
            continue
        red1 = SPHERE0._reduce_mono(m1)
        red2 = SPHERE0._reduce_mono(m2)
        if red1 is None or red2 is None:
            continue
        key = (red1, red2)
        out[key] = out.get(key, ZERO) + c0
    return TensorSquare(SPHERE0, out)


def test_corrected_connection_specializes_to_isometric():
    # setting both parameters to zero collapses the corrected connection
    # onto the parameter-zero one, value by value
    for N in (2, 3, 5):
        corr = strong_connection_algebraic(N, "corrected")
        iso = strong_connection_isometric(N)
        for n in range(N):
            assert specialize_to_isometric(corr.values[n]) == iso.values[n], (N, n)


def test_idempotent_shape_contract():
    # the matrix size equals the number of linearly independent right legs
    conn = strong_connection_algebraic(5, "corrected")
    legs = {m2 for (m1, m2) in dict(conn.values[2].terms())}
    E = associated_idempotent(conn, 2)
    assert E.rows == E.cols == len(legs) == 3


def test_identity_matrix_is_idempotent():
    s = SPHERE
    ident = Matrix([[s.one(), s.zero()], [s.zero(), s.one()]])
    chk = idempotent_check(ident, 3)
    assert chk.idempotent and chk.invariant


# -- prolongation ---------------------------------------------------------------


def test_phi_examples():
    one = SPHERE.one()
    u = LaurentHopfElement.generator_power
    for N in (1, 2, 3):
        assert prolong_phi(one, u(1), N) == ProlongElement(SPHERE, {(SPHERE_ONE, N): ONE})
    a = SPHERE.a()
    assert prolong_phi(a, u(0), 2) == ProlongElement(
        SPHERE, {(SphereMonomial(CORE_A, 0, 1, 0), 1): ONE}
    )
    z = SPHERE.z()
    assert prolong_phi(z, u(2), 3) == ProlongElement.of(z, u(6))


def test_phi_inverse_examples():
    u = LaurentHopfElement.generator_power
    a = SPHERE.a()
    t = ProlongElement.of(a, u(1))
    assert prolong_phi_inv(t, 1) == ProlongElement.of(a, u(0))
    one = SPHERE.one()
    assert prolong_phi_inv(ProlongElement.of(one, u(3)), 3) == ProlongElement.of(one, u(1))
    with pytest.raises(ValueError):
        prolong_phi_inv(ProlongElement.of(a, u(0)), 2)


def test_phi_roundtrips_and_multiplicativity():
    rng = SplitMix64(43)
    u = LaurentHopfElement.generator_power
    for N in (2, 3):
        for _ in range(300):
            mono = random_sphere_monomial(rng, kmax=3, emax=4)
            x = ProlongElement(SPHERE, {(mono, rng.randint(-4, 4)): random_coefficient(rng)})
            assert prolong_phi_inv(prolong_phi_map(x, N), N) == x
            d = mono.mu + mono.nu
            inv = ProlongElement(
                SPHERE, {(mono, d + N * rng.randint(-3, 3)): random_coefficient(rng)}
            )
            assert prolong_phi_map(prolong_phi_inv(inv, N), N) == inv
            mono2 = random_sphere_monomial(rng, kmax=3, emax=4)
            y = ProlongElement(SPHERE, {(mono2, rng.randint(-4, 4)): random_coefficient(rng)})
            assert prolong_phi_map(x * y, N) == prolong_phi_map(x, N) * prolong_phi_map(y, N)
            assert prolong_is_invariant(prolong_phi_map(x, N), N)


def test_action_classes():
    u = LaurentHopfElement.generator_power
    a = SPHERE.a()
    z = SPHERE.z()
    t = ProlongElement.of(a, u(1))
    assert prolong_is_invariant(t, 1)
    assert set(prolong_action(ProlongElement.of(a, u(0)), 2)) == {1}
    assert prolong_is_invariant(ProlongElement.of(z, u(0)), 5)
    mixed = ProlongElement.of(a, u(0)) + ProlongElement.of(z, u(0))
    classes = prolong_action(mixed, 2)
    assert set(classes) == {0, 1}
    assert prolong_project(mixed, 2) == ProlongElement.of(z, u(0))


def test_prolong_star_and_unit():
    u = LaurentHopfElement.generator_power
    t = ProlongElement.of(SPHERE.a(), u(2))
    assert t.star() == ProlongElement.of(SPHERE.a().star(), u(-2))
    assert t.star().star() == t


def test_a_value_missing_its_class_fails_unit_return():
    # a zero value multiplies out to no class at all, so its unit-return
    # residual is the missing -1 in class n; without it the check would pass
    from heegaard.reports import FAIL, PASS

    conn = strong_connection_algebraic(2)
    conn.values[1] = TensorSquare(SPHERE)
    entries = {e.id: (e.status, e.residual) for e in verify_strong_connection(conn)}
    assert entries["unit-return[n=1]"] == (FAIL, "class 1: -1")
    assert entries["unit-return[n=0]"] == (PASS, "0")
