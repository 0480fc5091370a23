"""Immutable matrices over any ring.

Entries may be ints, Laurent coefficients, algebra elements or pullback
pairs: anything with ``+``, ``-``, ``*`` and ``==``.  A product sums its
terms left to right from the first one, so no ring zero is needed and an
entry's value is the one the hand-written sum would give.
"""

from __future__ import annotations

from operator import mul, sub


class Matrix:
    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows):
        self._rows = tuple(map(tuple, rows))
        self.rows = len(self._rows)
        self.cols = len(self._rows[0]) if self._rows else 0
        if len(set(map(len, self._rows))) > 1:
            raise ValueError("ragged matrix")

    @staticmethod
    def identity(n: int, one, zero) -> "Matrix":
        return Matrix([[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def block(blocks) -> "Matrix":
        """The matrix assembled from a grid of matrices; the blocks of one
        grid row share their row count, those of one grid column their
        column count."""
        if len({tuple(m.cols for m in grid_row) for grid_row in blocks}) > 1:
            raise ValueError("shape mismatch")
        out = []
        for grid_row in blocks:
            if len({m.rows for m in grid_row}) != 1:
                raise ValueError("shape mismatch")
            out += [sum((m[i] for m in grid_row), ()) for i in range(grid_row[0].rows)]
        return Matrix(out)

    def __getitem__(self, i: int) -> tuple:
        return self._rows[i]

    def map(self, f, *others: "Matrix") -> "Matrix":
        """Entrywise f, over this matrix and any others of its shape."""
        if any((m.rows, m.cols) != (self.rows, self.cols) for m in others):
            raise ValueError("shape mismatch")
        return Matrix([map(f, *rows) for rows in zip(self._rows, *(m._rows for m in others))])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        cols = tuple(zip(*other._rows))
        return Matrix([[sum(map(mul, row[1:], col[1:]), row[0] * col[0]) for col in cols] for row in self._rows])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self.map(sub, other)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self._rows == other._rows

    def __str__(self):
        return "[" + "; ".join(", ".join(map(str, row)) for row in self._rows) + "]"
