"""Test oracle for the packed Coefficient: the Laurent ring Z[p^±1, q^±1, w^±1]
as a plain dict from exponent triples (i, j, k) to nonzero integers.

No packing, no exponent bound: every operation is the textbook loop, so the
differential tests in test_scalars.py compare the packed kernel against
arithmetic that cannot alias.
"""

from heegaard.scalars import EvaluationError, signed_join


class SparseCoefficient:
    __slots__ = ("terms_",)

    def __init__(self, terms=None):
        self.terms_ = {e: c for e, c in (terms or {}).items() if c}

    def __add__(self, other):
        out = dict(self.terms_)
        for e, c in other.terms_.items():
            out[e] = out.get(e, 0) + c
        return SparseCoefficient(out)

    def __neg__(self):
        return SparseCoefficient({e: -c for e, c in self.terms_.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for (i1, j1, k1), c1 in self.terms_.items():
            for (i2, j2, k2), c2 in other.terms_.items():
                e = (i1 + i2, j1 + j2, k1 + k2)
                out[e] = out.get(e, 0) + c1 * c2
        return SparseCoefficient(out)

    def __eq__(self, other):
        return self.terms_ == other.terms_

    def conjugate(self):
        return SparseCoefficient({(i, j, -k): c for (i, j, k), c in self.terms_.items()})

    def eval_at_zero(self, var):
        idx = {"p": 0, "q": 1}[var]
        if any(e[idx] < 0 for e in self.terms_):
            raise EvaluationError(var)
        return SparseCoefficient({e: c for e, c in self.terms_.items() if e[idx] == 0})

    def unit_inverse(self):
        if len(self.terms_) != 1:
            return None
        ((i, j, k), c), = self.terms_.items()
        return SparseCoefficient({(-i, -j, -k): c}) if c in (1, -1) else None

    def terms(self):
        return sorted(self.terms_.items())

    def exponents(self):
        return [x for e in self.terms_ for x in e]

    def __str__(self):
        pieces = []
        for (i, j, k), c in self.terms():
            parts = [str(abs(c))] if abs(c) != 1 or (i, j, k) == (0, 0, 0) else []
            for name, e in (("p", i), ("q", j), ("w", k)):
                if e:
                    parts.append(name if e == 1 else f"{name}^{e}")
            pieces.append((1 if c > 0 else -1, "*".join(parts)))
        return signed_join(pieces)
