"""The one matrix type: shape checks, ring laws over ints, and products over
non-commuting ring elements against a triple-loop oracle."""

import pytest

from heegaard.matrix import Matrix
from heegaard.qalgebras import SPHERE
from heegaard.rng import SplitMix64, random_sphere_element
from heegaard.scalars import ONE, ZERO, p_pow, q_pow, w_pow


def product_oracle(x, y):
    """The product of two lists of rows, summed from the first term."""
    out = [[x[i][0] * y[0][j] for j in range(len(y[0]))] for i in range(len(x))]
    for i in range(len(x)):
        for j in range(len(y[0])):
            for t in range(1, len(y)):
                out[i][j] = out[i][j] + x[i][t] * y[t][j]
    return out


def random_ints(rng, rows, cols):
    return [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]


def test_shape_errors():
    with pytest.raises(ValueError, match="ragged"):
        Matrix([[1, 2], [3]])
    with pytest.raises(ValueError, match="shape"):
        Matrix([[1, 2]]) * Matrix([[1, 2]])
    with pytest.raises(ValueError, match="shape"):
        Matrix([[1, 2]]) - Matrix([[1], [2]])
    with pytest.raises(ValueError, match="shape"):
        Matrix.block([[Matrix([[1]]), Matrix([[1], [2]])]])
    with pytest.raises(ValueError, match="shape"):
        Matrix.block([[Matrix([[1]]), Matrix([[2, 3]])], [Matrix([[4, 5]]), Matrix([[6]])]])


def test_int_ring_laws_and_blocks():
    rng = SplitMix64(7)
    for _ in range(200):
        r, s, t, u = (rng.randint(1, 4) for _ in range(4))
        a, b, c = random_ints(rng, r, s), random_ints(rng, s, t), random_ints(rng, t, u)
        A, B, C = Matrix(a), Matrix(b), Matrix(c)
        assert (A * B) * C == A * (B * C)
        assert Matrix.identity(r, 1, 0) * A == A == A * Matrix.identity(s, 1, 0)
        assert A * B == Matrix(product_oracle(a, b))
        assert A - A == Matrix([[0] * s for _ in range(r)])
        right, below, corner = random_ints(rng, r, t), random_ints(rng, u, s), random_ints(rng, u, t)
        rows = [x + y for x, y in zip(a, right)] + [x + y for x, y in zip(below, corner)]
        assert Matrix.block([[A, Matrix(right)], [Matrix(below), Matrix(corner)]]) == Matrix(rows)
        assert A.map(lambda e: 2 * e) == Matrix([[2 * e for e in row] for row in a])


def test_coefficient_matrix():
    p, q, w = p_pow(1), q_pow(1), w_pow(1)
    m = Matrix([[p, ONE], [ZERO, q]])
    assert m * m == Matrix([[p * p, p + q], [ZERO, q * q]])
    assert m * Matrix.identity(2, ONE, ZERO) == m
    assert str(m - Matrix.identity(2, w, ZERO)) == f"[{p - w}, 1; 0, {q - w}]"
    assert m[1][1] == q


def test_sphere_matrix_keeps_the_order_of_each_product():
    rng = SplitMix64(11)
    x = [[random_sphere_element(rng, SPHERE, 2, 2, 2) for _ in range(2)] for _ in range(3)]
    y = [[random_sphere_element(rng, SPHERE, 2, 2, 2) for _ in range(3)] for _ in range(2)]
    assert Matrix(x) * Matrix(y) == Matrix(product_oracle(x, y))
    a, b = SPHERE.a(), SPHERE.b()
    assert a * b != b * a
    assert Matrix([[a]]) * Matrix([[b]]) == Matrix([[a * b]])
    assert str(Matrix([[a, b], [b, a]])) == f"[{a}, {b}; {b}, {a}]"
