"""Exact scalar arithmetic in the Laurent ring Z[p^±1, q^±1, w^±1].

``w`` is a formal phase unit (w^m stands for the phase exp(i*m*pi*theta)
with theta irrational, so distinct powers of w never collapse).  All
integers are arbitrary precision; there is no floating point anywhere.

The module also provides the deformed integer/binomial families and the
one-variable contraction polynomials that drive every normal-form rule
downstream.  Everything here is immutable and pure, hence thread-safe;
the memo caches are append-only dicts guarded by the GIL.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

Triple = Tuple[int, int, int]

_VAR_INDEX = {"p": 0, "q": 1, "w": 2}


class EvaluationError(ValueError):
    """Raised when a localized variable is evaluated where it is undefined."""


def _check_var(var: str) -> int:
    if var not in ("p", "q"):
        raise ValueError(f"var must be 'p' or 'q', got {var!r}")
    return _VAR_INDEX[var]


class Coefficient:
    """A sparse Laurent polynomial: map (i, j, k) -> integer for p^i q^j w^k.

    Instances are immutable; all operations return fresh values.  Equality
    is termwise; no stored integer is zero.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Dict[Triple, int] | None = None, _trusted: bool = False):
        if terms is None:
            terms = {}
        if not _trusted:
            terms = {e: c for e, c in terms.items() if c}
        self._terms = terms
        self._hash: int | None = None

    # -- constructors ------------------------------------------------

    @staticmethod
    def integer(n: int) -> "Coefficient":
        return Coefficient({(0, 0, 0): n} if n else {}, _trusted=True)

    @staticmethod
    def monomial(n: int = 1, i: int = 0, j: int = 0, k: int = 0) -> "Coefficient":
        return Coefficient({(i, j, k): n} if n else {}, _trusted=True)

    # -- ring structure ----------------------------------------------

    def __add__(self, other: "Coefficient") -> "Coefficient":
        if not isinstance(other, Coefficient):
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Coefficient(out, _trusted=True)

    def __neg__(self) -> "Coefficient":
        return Coefficient({e: -c for e, c in self._terms.items()}, _trusted=True)

    def __sub__(self, other: "Coefficient") -> "Coefficient":
        if not isinstance(other, Coefficient):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return ZERO
            return Coefficient({e: c * other for e, c in self._terms.items()}, _trusted=True)
        if not isinstance(other, Coefficient):
            return NotImplemented
        if len(other._terms) == 1:
            ((oi, oj, ok), oc), = other._terms.items()
            return Coefficient(
                {(i + oi, j + oj, k + ok): c * oc for (i, j, k), c in self._terms.items()},
                _trusted=True,
            )
        out: Dict[Triple, int] = {}
        for (i1, j1, k1), c1 in self._terms.items():
            for (i2, j2, k2), c2 in other._terms.items():
                e = (i1 + i2, j1 + j2, k1 + k2)
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Coefficient(out, _trusted=True)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._terms == ({(0, 0, 0): other} if other else {})
        if not isinstance(other, Coefficient):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    # -- star structure and localization -----------------------------

    def conjugate(self) -> "Coefficient":
        """p and q are fixed (real parameters); w is inverted."""
        return Coefficient(
            {(i, j, -k): c for (i, j, k), c in self._terms.items()}, _trusted=True
        )

    def eval_at_zero(self, var: str) -> "Coefficient":
        """Set var = 0: drop terms with positive var-exponent, keep exponent 0.

        A negative var-exponent means the value is not defined there.
        """
        idx = _check_var(var)
        out: Dict[Triple, int] = {}
        for e, c in self._terms.items():
            d = e[idx]
            if d < 0:
                raise EvaluationError(
                    f"negative power of {var} cannot be evaluated at {var}=0: {self}"
                )
            if d == 0:
                out[e] = c
        return Coefficient(out, _trusted=True)

    # -- units ---------------------------------------------------------

    def unit_inverse(self) -> "Coefficient | None":
        """Inverse if this is a ring unit (a single term with coefficient ±1)."""
        if len(self._terms) != 1:
            return None
        ((i, j, k), c), = self._terms.items()
        if c not in (1, -1):
            return None
        return Coefficient.monomial(c, -i, -j, -k)

    # -- inspection / printing ----------------------------------------

    def terms(self) -> Iterator[Tuple[Triple, int]]:
        return iter(sorted(self._terms.items()))

    def term_strings(self) -> Iterator[Tuple[int, str]]:
        """Yield (sign, body) per term in canonical (ascending triple) order.

        The body is the unsigned factor string, e.g. ``3*p^-1*w^2`` or ``1``.
        """
        for (i, j, k), c in sorted(self._terms.items()):
            sign = 1 if c > 0 else -1
            parts = []
            n = abs(c)
            if n != 1 or (i == 0 and j == 0 and k == 0):
                parts.append(str(n))
            for name, e in (("p", i), ("q", j), ("w", k)):
                if e == 1:
                    parts.append(name)
                elif e != 0:
                    parts.append(f"{name}^{e}")
            yield sign, "*".join(parts)

    def __str__(self) -> str:
        return signed_join(self.term_strings())

    def __repr__(self) -> str:
        return f"Coefficient({self})"


ZERO = Coefficient.integer(0)
ONE = Coefficient.integer(1)


def p_pow(e: int) -> Coefficient:
    return Coefficient.monomial(1, i=e)


def q_pow(e: int) -> Coefficient:
    return Coefficient.monomial(1, j=e)


def w_pow(e: int) -> Coefficient:
    return Coefficient.monomial(1, k=e)


def var_pow(var: str, e: int) -> Coefficient:
    """var^e for var in {'p', 'q'}."""
    _check_var(var)
    return p_pow(e) if var == "p" else q_pow(e)


# ---------------------------------------------------------------------------
# Finite linear combinations of monomials: the one sparse core behind every
# element type of the package.
# ---------------------------------------------------------------------------


def signed_join(pieces) -> str:
    """Join (sign, body) pieces as ``a - b + c``; ``0`` when there are none."""
    out = []
    for sign, body in pieces:
        if out:
            out.append(("- " if sign < 0 else "+ ") + body)
        else:
            out.append(("-" if sign < 0 else "") + body)
    return " ".join(out) if out else "0"


def format_monomial(pairs) -> str:
    """A power product from (name, exponent) pairs; ``1`` when all are zero."""
    parts = [name if e == 1 else f"{name}^{e}" for name, e in pairs if e]
    return " ".join(parts) if parts else "1"


def add_term(out: dict, key, c: Coefficient) -> None:
    """out[key] += c, dropping the key when the sum vanishes."""
    s = out.get(key, ZERO) + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def matrix_product(a: list, b: list) -> list:
    """Product of two matrices, given as lists of rows, of ring elements."""
    cols = range(len(b[0]))
    return [
        [sum((row[t] * b[t][j] for t in range(1, len(b))), row[0] * b[0][j]) for j in cols]
        for row in a
    ]


def _add_exponents(m1: int, m2: int):
    return ((m1 + m2, ONE),)


class LinComb:
    """Immutable finite linear combination of normal-form monomials with
    Coefficient coefficients; no stored coefficient is zero, so equality is
    dictionary comparison.

    A subclass describes its algebra and nothing else:

    * ``_mul_rule()`` returns the monomial product, a callable
      (m1, m2) -> sequence of (monomial, factor);
    * ``_star_rule()`` returns the monomial adjoint, a callable
      m -> (monomial, factor), with monomial ``None`` when the adjoint
      vanishes; coefficients are conjugated on top;
    * ``_one`` is the unit monomial and ``mono_str`` prints a monomial;
    * ``_ctx`` names the slot holding what fixes the algebra (an algebra
      object, a lens type, a cyclic order); two elements combine only when
      it agrees.

    A factor that is the ``ONE`` object itself is not multiplied in, so
    rules with unit factors (polynomials, group algebras) cost one
    coefficient product per term pair.
    """

    __slots__ = ("_t",)
    _ctx: str | None = None

    def __init__(self, terms: dict | None = None):
        self._t = {m: c for m, c in terms.items() if c} if terms else {}

    def _new(self, terms: dict) -> "LinComb":
        """An element of the same algebra over a dict holding no zero."""
        out = object.__new__(type(self))
        if self._ctx:
            setattr(out, self._ctx, getattr(self, self._ctx))
        out._t = terms
        return out

    def _check(self, other: "LinComb") -> None:
        ctx = self._ctx
        if ctx and getattr(other, ctx) != getattr(self, ctx):
            raise ValueError(f"{type(self).__name__} operands belong to different algebras")

    # -- inspection ----------------------------------------------------

    def terms(self):
        return self._t.items()

    def sorted_terms(self):
        return sorted(self._t.items())

    def __bool__(self) -> bool:
        return bool(self._t)

    def is_zero(self) -> bool:
        return not self._t

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        ctx = self._ctx
        return (not ctx or getattr(self, ctx) == getattr(other, ctx)) and self._t == other._t

    # -- module structure ------------------------------------------------

    def __add__(self, other):
        self._check(other)
        # add_term inlined here and in __mul__: these are the package's hottest loops
        out = dict(self._t)
        for m, c in other._t.items():
            s = out.get(m, ZERO) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return self._new(out)

    def __neg__(self):
        return self._new({m: -c for m, c in self._t.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: Coefficient | int):
        if isinstance(c, int):
            c = Coefficient.integer(c)
        if not c:
            return self._new({})
        return self._new({m: cm * c for m, cm in self._t.items()})

    def __rmul__(self, other):
        if isinstance(other, (Coefficient, int)):
            return self.scale(other)
        return NotImplemented

    # -- algebra structure -----------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (Coefficient, int)):
            return self.scale(other)
        self._check(other)
        mono_mul = self._mul_rule()
        out: dict = {}
        for m1, c1 in self._t.items():
            for m2, c2 in other._t.items():
                c12 = c1 * c2
                for mono, f in mono_mul(m1, m2):
                    s = out.get(mono, ZERO) + (c12 if f is ONE else c12 * f)
                    if s:
                        out[mono] = s
                    else:
                        del out[mono]
        return self._new(out)

    def star(self):
        star_mono = self._star_rule()
        out: dict = {}
        for m, c in self._t.items():
            mono, f = star_mono(m)
            if mono is not None:
                add_term(out, mono, c.conjugate() if f is ONE else c.conjugate() * f)
        return self._new(out)

    def pow_signed(self, e: int):
        """e >= 0: ordinary power; e < 0: power of the adjoint.

        Left to right on purpose: multiplying by the short base costs a few
        monomial products per term of the accumulator, where squaring an
        m-term power costs m^2 of them.
        """
        if e < 0:
            return self.star().pow_signed(-e)
        acc = self._new({self._one: ONE})
        for _ in range(e):
            acc = acc * self
        return acc

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        pieces = []
        for mono, coeff in self.sorted_terms():
            ms = self.mono_str(mono)
            for sign, body in coeff.term_strings():
                pieces.append((sign, body if ms == "1" else ms if body == "1" else f"{body} {ms}"))
        return signed_join(pieces)

    def grouped_str(self) -> str:
        """``(c) m + ...`` with each coefficient printed whole."""
        return " + ".join(f"({c}) {self.mono_str(m)}" for m, c in self.sorted_terms()) or "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


# ---------------------------------------------------------------------------
# Deformed integers and binomials.
#
# A "base" is the deformation unit: ('p', +1) means the variable p itself,
# ('p', -1) its inverse, similarly for q.  The public entry points take
# var in {'p','q'}; the signed bases serve the negative-index polynomial
# family and the inverse-parameter disc.
# ---------------------------------------------------------------------------

Base = Tuple[str, int]


def _base_pow(base: Base, e: int) -> Coefficient:
    var, s = base
    return var_pow(var, s * e)


def qint_base(n: int, base: Base) -> Coefficient:
    if n < 0:
        raise ValueError("deformed integers are defined for n >= 0")
    acc = ZERO
    for m in range(n):
        acc = acc + _base_pow(base, m)
    return acc


def qint(n: int, var: str = "p") -> Coefficient:
    """1 + v + ... + v^(n-1); zero for n = 0."""
    _check_var(var)
    return qint_base(n, (var, 1))


_QBINOM_MEMO: Dict[Tuple[int, int, Base], Coefficient] = {}


def qbinomial_base(n: int, m: int, base: Base) -> Coefficient:
    if m < 0 or m > n:
        raise ValueError(f"binomial index out of range: m={m}, n={n}")
    if m == 0 or m == n:
        return ONE
    key = (n, m, base)
    got = _QBINOM_MEMO.get(key)
    if got is None:
        # Pascal rule: C(n, m) = C(n-1, m) + v^(n-m) * C(n-1, m-1)
        got = qbinomial_base(n - 1, m, base) + _base_pow(base, n - m) * qbinomial_base(
            n - 1, m - 1, base
        )
        _QBINOM_MEMO[key] = got
    return got


def qbinomial(n: int, m: int, var: str = "p") -> Coefficient:
    """Deformed binomial coefficient, computed by the Pascal recursion."""
    _check_var(var)
    return qbinomial_base(n, m, (var, 1))


# ---------------------------------------------------------------------------
# The contraction-polynomial family Q in one variable Y.
# ---------------------------------------------------------------------------


class QPoly(LinComb):
    """Sparse polynomial in Y with Coefficient coefficients (degrees >= 0).

    Members of the contraction family have zero constant term and degree
    equal to the absolute index; the type itself allows any polynomial,
    e.g. 1 + Q arising in product rules.
    """

    __slots__ = ()
    _one = 0

    @staticmethod
    def mono_str(m: int) -> str:
        return format_monomial((("Y", m),))

    def _mul_rule(self):
        return _add_exponents

    @staticmethod
    def zero() -> "QPoly":
        return QPoly()

    @staticmethod
    def term(m: int, c: Coefficient) -> "QPoly":
        if m < 0:
            raise ValueError("Y-exponents are nonnegative")
        return QPoly({m: c})

    def degree(self) -> int:
        return max(self._t) if self._t else -1

    def constant_term(self) -> Coefficient:
        return self._t.get(0, ZERO)

    def coefficient(self, m: int) -> Coefficient:
        return self._t.get(m, ZERO)

    def items(self) -> Iterator[Tuple[int, Coefficient]]:
        return iter(sorted(self._t.items()))

    def rescale_base(self, base: Base, e: int) -> "QPoly":
        """Substitute Y -> base^e * Y: the degree-m coefficient gains base^(e*m)."""
        return self._new({m: c * _base_pow(base, e * m) for m, c in self._t.items()})


_Y = QPoly({1: ONE})
_QPOLY_ONE = QPoly({0: ONE})


def _q_closed_positive(n: int, base: Base) -> QPoly:
    # sum over m of (-1)^m * v^(-n*m + m(m+1)/2) * C(n, m)_v * Y^m
    coeffs: Dict[int, Coefficient] = {}
    for m in range(1, n + 1):
        c = qbinomial_base(n, m, base) * _base_pow(base, -n * m + m * (m + 1) // 2)
        if m % 2:
            c = -c
        coeffs[m] = c
    return QPoly(coeffs)


_QPOLY_MEMO: Dict[Tuple[int, Base], QPoly] = {}


def qpoly_Q_base(mu: int, base: Base) -> QPoly:
    """Index-mu contraction polynomial over the given base.

    Always computed twice — closed form and one-step recursion — and the
    two results are checked against each other before being memoized.
    """
    if mu == 0:
        return QPoly.zero()
    key = (mu, base)
    got = _QPOLY_MEMO.get(key)
    if got is not None:
        return got
    var, s = base
    inv_base = (var, -s)
    v = _base_pow(base, 1)
    if mu > 0:
        closed = _q_closed_positive(mu, base)
        if mu == 1:
            rec = QPoly({1: -ONE})
        else:
            prev = qpoly_Q_base(mu - 1, base)
            rec = (_QPOLY_ONE - _Y) * prev.rescale_base(base, -1) - _Y
    else:
        n = -mu
        # the closed form for negative indices: inverse-base family at v*Y
        closed = _q_closed_positive(n, inv_base).rescale_base(base, 1)
        if n == 1:
            rec = QPoly({1: -v})
        else:
            prev = qpoly_Q_base(mu + 1, base)
            rec = (_QPOLY_ONE - _Y * v) * prev.rescale_base(base, 1) - _Y * v
    if closed != rec:
        raise AssertionError(f"closed form and recursion disagree at index {mu}")
    _QPOLY_MEMO[key] = closed
    return closed


def qpoly_Q(mu: int, var: str = "p") -> QPoly:
    _check_var(var)
    return qpoly_Q_base(mu, (var, 1))


def qpoly_Qpair_base(mu: int, nu: int, base: Base) -> QPoly:
    if mu * nu >= 0:
        return QPoly.zero()
    if abs(mu) <= abs(nu):
        return qpoly_Q_base(mu, base)
    return qpoly_Q_base(-nu, base).rescale_base(base, -(mu + nu))


def qpoly_Qpair(mu: int, nu: int, var: str = "p") -> QPoly:
    _check_var(var)
    return qpoly_Qpair_base(mu, nu, (var, 1))


def qpoly_rescale(poly: QPoly, e: int, var: str = "p") -> QPoly:
    _check_var(var)
    return poly.rescale_base((var, 1), e)
