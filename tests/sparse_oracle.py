"""Test oracles.

``SparseCoefficient`` is the oracle for the packed Coefficient: the Laurent
ring Z[p^±1, q^±1, w^±1] as a plain dict from exponent triples (i, j, k) to
nonzero integers.  No packing, no exponent bound: every operation is the
textbook loop, so the differential tests in test_scalars.py compare the
packed kernel against arithmetic that cannot alias.

``reference_disc_mul_raw`` and ``reference_sphere_mul_raw`` are the raw
monomial products of the two engines written out step by step, each side of
the sphere spelled inline rather than through the shared disc rule, so
test_raw_rules.py can compare the engines against them key for key.
"""

from heegaard.qalgebras import CORE_A, CORE_B, DiscMonomial, SphereMonomial
from heegaard.scalars import ONE, EvaluationError, add_term, qpoly_Qpair_base, signed_join, var_pow, w_pow


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


def reference_disc_mul_raw(alg, m1, m2):
    """X^k1 x^mu1 * X^k2 x^mu2 in the disc ``alg``, before normalization."""
    k1, mu1 = m1
    k2, mu2 = m2
    factor = alg.param_pow(-mu1 * k2) if k2 else ONE
    cont = qpoly_Qpair_base(mu1, mu2, alg.base)
    mu = mu1 + mu2
    emitted = {DiscMonomial(k1 + k2, mu): factor}
    for deg, c in cont.items():
        add_term(emitted, DiscMonomial(k1 + k2 + deg, mu), factor * c)
    return emitted


def reference_sphere_mul_raw(m1, m2):
    """The product of two sphere monomials, before normalization, in five steps."""
    core1, k1, mu1, nu1 = m1
    core2, k2, mu2, nu2 = m2
    # (1) commute the right factor's core to the left
    factor = ONE
    if k2:
        if core2 == CORE_A:
            if mu1:
                factor = factor * var_pow("p", -mu1 * k2)
        else:
            if nu1:
                factor = factor * var_pow("q", -nu1 * k2)
    # (2) merge cores; mixed cores annihilate
    if k1 and k2 and core1 != core2:
        return {}
    if k1:
        core, k = core1, k1 + (k2 if core1 == core2 else 0)
    else:
        core, k = (core2, k2) if k2 else (CORE_A, 0)
    # (3) first factor's b-powers cross the second's a-powers
    if nu1 and mu2:
        factor = factor * w_pow(-2 * nu1 * mu2)
    # (4) contract generator powers
    cont_a = qpoly_Qpair_base(mu1, mu2, ("p", 1))
    cont_b = qpoly_Qpair_base(nu1, nu2, ("q", 1))
    mu = mu1 + mu2
    nu = nu1 + nu2
    # (5) merge produced core powers (mixed products annihilate) and emit
    emitted = {SphereMonomial(core, k, mu, nu): factor}
    for deg, c in cont_a.items():
        if k and core == CORE_B:
            continue
        add_term(emitted, SphereMonomial(CORE_A, k + deg, mu, nu), factor * c)
    for deg, c in cont_b.items():
        if k and core == CORE_A:
            continue
        add_term(emitted, SphereMonomial(CORE_B, k + deg, mu, nu), factor * c)
    return emitted
