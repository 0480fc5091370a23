"""Exact scalar arithmetic in the Laurent ring Z[p^±1, q^±1, w^±1].

``w`` is a formal phase unit (w^m stands for the phase exp(i*m*pi*theta)
with theta irrational, so distinct powers of w never collapse).  All
integers are arbitrary precision; there is no floating point anywhere.

The module also provides the deformed integer/binomial families and the
one-variable contraction polynomials that drive every normal-form rule
downstream.  Everything here is immutable and pure, hence thread-safe;
the memo caches are append-only dicts guarded by the GIL, and the range of
checked contraction polynomials grows under a lock.

Both layers run on packed integers (Kronecker substitution):

* a ``Coefficient`` term p^i q^j w^k is keyed by the one int
  ``i*2^(2S) + j*2^S + k`` with balanced digits, so a monomial product is
  an int add and key order is the lexicographic order of the triples;
* a one-variable polynomial sum c_d t^d is the one int sum c_d 2^(W*d),
  with a digit width W taken from a proven bound on the digits; so are
  the two operands of a large one-variable ``Coefficient`` product, which
  then takes one bigint multiply.
"""

from __future__ import annotations

import sys
import threading
from array import array
from functools import reduce
from itertools import repeat
from operator import add, itemgetter, lshift, neg, or_, sub
from typing import Dict, Iterator, List, Tuple

Triple = Tuple[int, int, int]

_VAR_INDEX = {"p": 0, "q": 1, "w": 2}

# Packed exponent keys: S bits per exponent, balanced digits.  Every
# exponent of a stored term lies in [-_EMAX, _EMAX], so each digit stays
# inside its slot and distinct triples get distinct keys.
_S = 20
_HALF = 1 << (_S - 1)
_EMAX = _HALF - 1
_DIGIT = (1 << _S) - 1
_VAR_SHIFT = {"p": 2 * _S, "q": _S, "w": 0}


class EvaluationError(ValueError):
    """Raised when a localized variable is evaluated where it is undefined."""


class ExponentBoundError(OverflowError):
    """Raised when an exponent leaves the range the packed keys can hold."""

    def __init__(self, exponent: int):
        super().__init__(
            f"exponent {exponent} is outside the supported range "
            f"[-{_EMAX}, {_EMAX}] of the Laurent coefficient ring"
        )


def _check_var(var: str) -> int:
    if var not in ("p", "q"):
        raise ValueError(f"var must be 'p' or 'q', got {var!r}")
    return _VAR_INDEX[var]


def _key(i: int, j: int, k: int) -> int:
    """The packed key of p^i q^j w^k (exponents already within the bound)."""
    return (i << 2 * _S) + (j << _S) + k


def _unkey(key: int) -> Triple:
    k = ((key + _HALF) & _DIGIT) - _HALF
    key = (key - k) >> _S
    j = ((key + _HALF) & _DIGIT) - _HALF
    return (key - j) >> _S, j, k


def _exponent_bound(*exps: int) -> int:
    """The largest |exponent|, refused when a key cannot hold it."""
    b = max(map(abs, exps), default=0)
    if b > _EMAX:
        raise ExponentBoundError(max(exps, key=abs))
    return b


def _coeff(terms: Dict[int, int], bound: int) -> "Coefficient":
    """A Coefficient over packed keys holding no zero, every exponent of
    every term at most ``bound`` in absolute value."""
    out = object.__new__(Coefficient)
    out._terms = terms
    out._bound = bound
    out._hash = None
    return out


def _product_bound(a: "Coefficient", b: "Coefficient") -> int:
    """Exact exponent bound of a*b, for when the operands' bounds add up
    past the limit.  Per variable, the extreme exponents of a product of
    nonzero Laurent polynomials are the sums of the operands' extremes
    (the leading parts multiply to a nonzero part), so this raises only
    when a term of the product really leaves the range."""
    if not a._terms or not b._terms:
        return 0
    ends = []
    for idx in range(3):
        ea = [_unkey(key)[idx] for key in a._terms]
        eb = [_unkey(key)[idx] for key in b._terms]
        ends += (min(ea) + min(eb), max(ea) + max(eb))
    return _exponent_bound(*ends)


_LOW2 = (1 << 2 * _S) - 1
_WORD = (1 << 64) - 1
# the fewest terms per operand for which the packed product beats the sparse
# loop: its fixed cost is about that of 60 term pairs (CPython 3.11)
_KRONECKER_MIN_TERMS = 8


def _common_shift(a: Dict[int, int], b: Dict[int, int]) -> int:
    """The largest of 2S, S, 0 such that 2^shift divides every key of a and
    b: 2S when both lie in p alone, S when both lie in p and q."""
    bits = reduce(or_, a, reduce(or_, b))
    return 2 * _S if not bits & _LOW2 else _S if not bits & _DIGIT else 0


def _from_digits(digits: List[int], width: int) -> int:
    """sum d_i 2^(width*i) for digits 0 <= d_i < 2^width, through an array
    of 64-bit words."""
    if width > 64:
        digits = [d >> s & _WORD for d in digits for s in range(0, width, 64)]
    words = array("Q", digits)
    if sys.byteorder == "big":
        words.byteswap()
    return int.from_bytes(words.tobytes(), "little")


def _pack(terms: Dict[int, int], shift: int, low: int, count: int, width: int) -> int:
    """sum c 2^(width*(e - low)) over the terms c of ``terms``, e being the
    key divided by 2^shift, each |c| < 2^(width-1): the positive part minus
    the negative part."""
    pos, negs = [0] * count, [0] * count
    for key, c in terms.items():
        if c > 0:
            pos[(key >> shift) - low] = c
        else:
            negs[(key >> shift) - low] = -c
    return _from_digits(pos, width) - _from_digits(negs, width)


def _kronecker_product(a: Dict[int, int], b: Dict[int, int], bound: int) -> "Coefficient | None":
    """a*b by one bigint product (Kronecker substitution t -> 2^W), or
    None when the sparse loop is the cheaper one.

    Keys add when monomials multiply, so the keys of a and b, divided by
    2^shift (``_common_shift``), are themselves exponents of one variable t
    and the product can be taken in Z[t^±1].  That pays only while the
    packed ints have no more digits than the sparse loop has term pairs,
    which in practice means both operands lie in one and the same variable:
    across a variable the divided keys jump by about 2^S.

    Every coefficient of a*b is at most min(l1(a) max|b|, l1(b) max|a|) in
    absolute value, so W is that bound's bit length plus a sign bit,
    rounded up to whole 64-bit words; the balanced digits of the product
    are then its coefficients, read through 64-bit word arrays as in
    ``_decode`` after every digit is offset by 2^(W-1)."""
    shift = _common_shift(a, b)
    low_a, low_b = min(a) >> shift, min(b) >> shift
    span_a, span_b = (max(a) >> shift) - low_a + 1, (max(b) >> shift) - low_b + 1
    count = span_a + span_b - 1
    if count > len(a) * len(b):
        return None
    va, vb = a.values(), b.values()
    top = min(sum(map(abs, va)) * max(map(abs, vb)), sum(map(abs, vb)) * max(map(abs, va)))
    width = -(-(top.bit_length() + 1) // 64) * 64
    packed = _pack(a, shift, low_a, span_a, width) * _pack(b, shift, low_b, span_b, width)
    # every digit offset by 2^(W-1), so that none is negative
    halves = int.from_bytes((bytes(width // 8 - 1) + b"\x80") * count, "little")
    digits = map(sub, _digits(packed + halves, width, count), repeat(1 << (width - 1)))
    low = low_a + low_b
    keys = range(low << shift, (low + count) << shift, 1 << shift)
    return _coeff(dict(filter(itemgetter(1), zip(keys, digits))), bound)


class Coefficient:
    """A sparse Laurent polynomial: map (i, j, k) -> integer for p^i q^j w^k.

    Terms are stored under packed int keys (``_key``) with a per-object
    bound on |exponent| kept in O(1) per operation: a sum keeps the larger
    bound, a product the sum of bounds, re-derived exactly from the terms
    only when that sum passes the limit.  Instances are immutable; all
    operations return fresh values or one of their (immutable) operands.
    Equality is termwise; no stored integer is zero.
    """

    __slots__ = ("_terms", "_bound", "_hash")

    def __init__(self, terms: Dict[Triple, int] | None = None):
        terms = {e: c for e, c in (terms or {}).items() if c}
        self._bound = _exponent_bound(*(x for e in terms for x in e))
        self._terms = {_key(*e): c for e, c in terms.items()}
        self._hash: int | None = None

    # -- constructors ------------------------------------------------

    @staticmethod
    def integer(n: int) -> "Coefficient":
        return _coeff({0: n} if n else {}, 0)

    @staticmethod
    def monomial(n: int = 1, i: int = 0, j: int = 0, k: int = 0) -> "Coefficient":
        if not n:
            return _coeff({}, 0)
        return _coeff({_key(i, j, k): n}, _exponent_bound(i, j, k))

    # -- ring structure ----------------------------------------------

    def __add__(self, other: "Coefficient") -> "Coefficient":
        if not isinstance(other, Coefficient):
            return NotImplemented
        a, b = self._terms, other._terms
        if not b:
            return self
        if not a:
            return other
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for e, c in b.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return _coeff(out, max(self._bound, other._bound))

    def __neg__(self) -> "Coefficient":
        return _coeff({e: -c for e, c in self._terms.items()}, self._bound)

    def __sub__(self, other: "Coefficient") -> "Coefficient":
        if not isinstance(other, Coefficient):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return ZERO
            return _coeff({e: c * other for e, c in self._terms.items()}, self._bound)
        if not isinstance(other, Coefficient):
            return NotImplemented
        a, b = self._terms, other._terms
        # a unit operand passes the other through: values are immutable
        if len(b) == 1 and b.get(0) == 1:
            return self
        if len(a) == 1:
            if a.get(0) == 1:
                return other
            a, b = b, a
        bound = self._bound + other._bound
        if bound > _EMAX:
            bound = _product_bound(self, other)
        if len(b) == 1:
            ((eb, cb),) = b.items()
            return _coeff({e + eb: c * cb for e, c in a.items()}, bound)
        if min(len(a), len(b)) >= _KRONECKER_MIN_TERMS:
            got = _kronecker_product(a, b, bound)
            if got is not None:
                return got
        out: Dict[int, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return _coeff(out, bound)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
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
        return _coeff(
            {e - 2 * (((e + _HALF) & _DIGIT) - _HALF): c for e, c in self._terms.items()},
            self._bound,
        )

    def eval_at_zero(self, var: str) -> "Coefficient":
        """Set var = 0: drop terms with positive var-exponent, keep exponent 0.

        A negative var-exponent means the value is not defined there.
        """
        idx = _check_var(var)
        out: Dict[int, int] = {}
        for e, c in self._terms.items():
            d = _unkey(e)[idx]
            if d < 0:
                raise EvaluationError(
                    f"negative power of {var} cannot be evaluated at {var}=0: {self}"
                )
            if d == 0:
                out[e] = c
        return _coeff(out, self._bound)

    # -- units ---------------------------------------------------------

    def unit_inverse(self) -> "Coefficient | None":
        """Inverse if this is a ring unit (a single term with coefficient ±1)."""
        if len(self._terms) != 1:
            return None
        ((e, c),) = self._terms.items()
        if c not in (1, -1):
            return None
        return _coeff({-e: c}, self._bound)

    # -- inspection / printing ----------------------------------------

    def terms(self) -> Iterator[Tuple[Triple, int]]:
        """(exponent triple, integer) pairs in ascending triple order."""
        return ((_unkey(e), c) for e, c in sorted(self._terms.items()))

    def term_strings(self) -> Iterator[Tuple[int, str]]:
        """Yield (sign, body) per term in canonical (ascending triple) order.

        The body is the unsigned factor string, e.g. ``3*p^-1*w^2`` or ``1``.
        """
        for (i, j, k), c in self.terms():
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


# The deformed binomials C(n, m)_t, over the deformation unit t, packed as
# ints sum c_d 2^(W*d) (Kronecker substitution t -> 2^W).  The coefficients
# of C(n, m)_t are positive and add up to the ordinary binomial
# C(n, m) < 2^n, so a digit width W >= n + 3 keeps every digit of a
# binomial of row n, of the sum of two binomials of row n - 1 and of their
# difference inside a balanced W-bit digit.  W is that bound rounded up to
# whole 64-bit words, never a fixed width.  A packed binomial serves every
# base: only decoding tells p from q and t from 1/t.
#
# Rows are built by the Pascal rule C(n, m) = C(n-1, m-1) + t^m C(n-1, m);
# the contraction-polynomial check below rests on the other Pascal rule,
# C(n, m) = C(n-1, m) + t^(n-m) C(n-1, m-1), so it also checks the rows.


def _width(n: int) -> int:
    """The digit width for row n of the binomials."""
    return -(-(n + 3) // 64) * 64


def _pascal_step(prev: List[int], width: int) -> List[int]:
    """Row n from row n - 1, both packed at ``width``."""
    return [1, *((prev[m] << width * m) + prev[m - 1] for m in range(1, len(prev))), 1]


# rows asked for by qbinomial and qpoly_Q, each at its own width
_ROW_MEMO: Dict[int, List[int]] = {}


def _row(n: int, width: int = 0) -> List[int]:
    """Row n packed at ``width`` (default: its own), built from the longest
    memoized row below it at that width; kept only at its own width."""
    width = width or _width(n)
    got = _ROW_MEMO.get(n) if width == _width(n) else None
    if got is None:
        start = max((j for j in list(_ROW_MEMO) if j < n and _width(j) == width), default=0)
        got = _ROW_MEMO[start] if start else [1]
        for _ in range(start, n):
            got = _pascal_step(got, width)
        if width == _width(n):
            _ROW_MEMO[n] = got
    return got


def _digits(packed: int, width: int, count: int):
    """The ``count`` lowest ``width``-bit digits of the int ``packed`` >= 0,
    lowest first, read through 64-bit word arrays."""
    words = array("Q", packed.to_bytes(count * width // 8, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    # digit d is the little-endian run of 64-bit words d*r .. d*r + r - 1
    r = width // 64
    if r == 1:
        return words
    digits = words[0::r]
    for t in range(1, r):
        digits = map(add, digits, map(lshift, words[t::r], repeat(64 * t)))
    return digits


def _decode(sign: int, packed: int, width: int, low: int, var: str, step: int) -> Coefficient:
    """The polynomial sign * sum c_d t^(low + d), t = var^step, whose
    coefficients c_d >= 0 are the W-bit digits of ``packed``."""
    ndigits = -(-packed.bit_length() // width)
    digits = _digits(packed, width, ndigits)
    if sign < 0:
        digits = map(neg, digits)
    bound = _exponent_bound(low, low + ndigits - 1)
    terms = dict(filter(itemgetter(1), zip(_var_keys(var, step, low, ndigits), digits)))
    return _coeff(terms, bound)


# the keys of var^e, -E <= e <= E, at index e + E: decoded polynomials take
# their keys from here, so memoized coefficients share one int per power
_KEY_TABLES: Dict[str, List[int]] = {}


def _var_keys(var: str, step: int, low: int, count: int) -> List[int]:
    """The keys of t^low, ..., t^(low + count - 1) for t = var^step."""
    table = _KEY_TABLES.get(var, [])
    top = max(abs(low), abs(low + count - 1))
    if len(table) <= 2 * top:
        e = max(len(table), top)  # at least doubles the range
        shift = _VAR_SHIFT[var]
        table = _KEY_TABLES[var] = [x << shift for x in range(-e, e + 1)]
    mid = len(table) // 2
    if step > 0:
        return table[mid + low : mid + low + count]
    return table[mid - low - count + 1 : mid - low + 1][::-1]


_QBINOM_MEMO: Dict[Tuple[int, int, Base], Coefficient] = {}


def qbinomial_base(n: int, m: int, base: Base) -> Coefficient:
    if m < 0 or m > n:
        raise ValueError(f"binomial index out of range: m={m}, n={n}")
    if m == 0 or m == n:
        return ONE
    key = (n, m, base)
    got = _QBINOM_MEMO.get(key)
    if got is None:
        var, s = base
        got = _QBINOM_MEMO[key] = _decode(1, _row(n)[m], _width(n), 0, var, s)
    return got


def qbinomial(n: int, m: int, var: str = "p") -> Coefficient:
    """Deformed binomial coefficient, computed by a Pascal recursion (the
    qidentities suite checks the other one)."""
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


# In the contraction layer a packed one-variable polynomial is a slot
# (sign, packed, low): sign * t^low * sum c_d t^d, packed = sum c_d 2^(W*d).

Slot = Tuple[int, int, int]


def _closed_slots(row: List[int], n: int, inverse: bool) -> List[Slot]:
    """The Y^1..Y^n coefficients of the closed form at index n (index -n
    when ``inverse``), over t = the base (its inverse when ``inverse``):
    (-1)^m t^(-n*m + m(m+1)/2) C(n, m)_t, times t^-m for a negative index
    (the inverse-base family taken at base*Y)."""
    return [
        (-1 if m % 2 else 1, row[m], -n * m + m * (m + 1) // 2 - (m if inverse else 0))
        for m in range(1, n + 1)
    ]


def _is_zero_sum(slots: List[Slot], width: int) -> bool:
    """Whether the polynomials of ``slots`` add up to 0: their packed ints
    are shifted to the lowest exponent among them and added."""
    low = min(lo for _, _, lo in slots)
    total = 0
    for sign, p, lo in slots:
        term = p << width * (lo - low)
        total = total + term if sign > 0 else total - term
    return not total


def _check_recursion(n: int, inverse: bool, row: List[int], prev: List[int], width: int) -> None:
    """Check the closed form at index n (-n when ``inverse``) against the
    one-step recursion from the closed form at n - 1, given the binomial
    rows n and n - 1 at one width, slot by slot as packed ints: the width
    bounds every digit of closed - recursion, so that packed difference is
    0 exactly when the two polynomials agree.

    Q(+-n) = X - Y t^-i (1 + X), X = Q(+-(n-1)) at Y -> Y/t, i = 1 for a
    negative index (Y/t is base*Y there, t being the inverse base); the 1
    is slot 0 of ``lower``.
    """
    closed = _closed_slots(row, n, inverse)
    lower = [(1, 1, 0), *_closed_slots(prev, n - 1, inverse)]
    i = 1 if inverse else 0
    for m in range(1, n + 1):
        # closed_m - X_m + t^-i (1 + X)_(m-1)
        sign, p, lo = lower[m - 1]
        slots = [closed[m - 1], (sign, p, lo - (m - 1) - i)]
        if m < n:
            sign, p, lo = lower[m]
            slots.append((-sign, p, lo - m))
        if not _is_zero_sum(slots, width):
            raise AssertionError(f"closed form and recursion disagree at index {-n if inverse else n}")


def _check_up_to(n: int, inverse: bool) -> None:
    """Walk the rows from the last checked index of this sign up to n,
    checking each step; the caller holds _QPOLY_LOCK."""
    checked = _QPOLY_CHECKED[inverse]
    if checked >= n:
        return
    # the whole walk at the width of row n, which bounds every row below
    width = _width(n)
    row = _row(checked, width)
    for k in range(checked + 1, n + 1):
        prev, row = row, _pascal_step(row, width)
        _check_recursion(k, inverse, row, prev, width)
        _QPOLY_CHECKED[inverse] = k
    _ROW_MEMO.setdefault(n, row)


# per sign of the index: every index from 1 up to this one has passed
# _check_recursion (the check does not depend on the base); walks that
# extend it hold the lock
_QPOLY_CHECKED = {False: 0, True: 0}
_QPOLY_LOCK = threading.Lock()
_QPOLY_MEMO: Dict[Tuple[int, Base], QPoly] = {}


def qpoly_Q_base(mu: int, base: Base) -> QPoly:
    """Index-mu contraction polynomial over the given base.

    Always computed twice — closed form and one-step recursion — and the
    two results are checked against each other at every index from 1 up to
    |mu| (with the sign of mu) before the closed form is decoded and
    memoized.
    """
    if mu == 0:
        return QPoly.zero()
    key = (mu, base)
    got = _QPOLY_MEMO.get(key)
    if got is not None:
        return got
    n, inverse = abs(mu), mu < 0
    if _QPOLY_CHECKED[inverse] < n:
        with _QPOLY_LOCK:
            _check_up_to(n, inverse)
    var, s = base
    step = -s if inverse else s
    slots = _closed_slots(_row(n), n, inverse)
    got = QPoly(
        {m: _decode(sign, p, _width(n), low, var, step) for m, (sign, p, low) in enumerate(slots, 1)}
    )
    _QPOLY_MEMO[key] = got
    return got


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
