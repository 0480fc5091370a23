"""Exact scalar arithmetic in the Laurent ring Z[p^±1, q^±1, w^±1].

``w`` is a formal phase unit (w^m stands for the phase exp(i*m*pi*theta)
with theta irrational, so distinct powers of w never collapse).  All
integers are arbitrary precision; there is no floating point anywhere.

The module also provides the deformed integer/binomial families and the
one-variable contraction polynomials that drive every normal-form rule
downstream.  Everything here is immutable and pure, hence thread-safe,
and the range of checked contraction polynomials grows under a lock.

Every memo table in the package is a plain dict made by ``memo_table``,
which registers it with a name and a scope.  Process tables (the binomial
rows and the closed forms here) are bounded by the index ranges asked for
and live as long as the process.  Run-scoped tables (the engines' monomial
products, interned monomials and one-term coefficients, the lens transport
images) grow with the inputs; ``clear_run_memos`` empties them, and only
the verification suites call it: a full verification run after each suite,
and the lens suite after each lens type, run alone too.  Within a table,
entries are only ever added, under the GIL.

Both layers run on packed integers (Kronecker substitution).  A term
p^i q^j w^k is keyed by the one int ``i*2^(2S) + j*2^S + k`` with balanced
digits, so a monomial product is an int add and key order is the order of
the triples.  A ``Coefficient`` whose terms fill enough of their box (per
variable a lowest exponent, a stride and a count) is one int, sum
c 2^(W*cell) over the cells in key order, W taken from a bound on the
digits: a monomial multiple only moves the box, a sum is one bigint add
over a common box and a product one bigint multiply.
"""

from __future__ import annotations

import sys
import threading
import weakref
from array import array
from itertools import compress, repeat
from math import comb, gcd
from operator import add, and_, floordiv, itemgetter, lshift, mul, rshift, sub
from typing import Dict, Iterator, List, Tuple

Triple = Tuple[int, int, int]
# per variable: the lowest exponent, the stride and the count of cells
Box = Tuple[Triple, Triple, Triple]

_VAR_INDEX = {"p": 0, "q": 1, "w": 2}

# Packed exponent keys: S bits per exponent, balanced digits.  Every
# exponent of a stored term lies in [-_EMAX, _EMAX], so each digit stays
# inside its slot and distinct triples get distinct keys.
_S = 20
_HALF = 1 << (_S - 1)
_EMAX = _HALF - 1
_DIGIT = (1 << _S) - 1
# per variable, the shift of its exponent in a key
_SHIFTS = (2 * _S, _S, 0)


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


def _coeff(terms, bound: int) -> "Coefficient":
    """A Coefficient over ``terms`` (a dict from keys to nonzero ints, or a
    ``_Packed``), every exponent at most ``bound`` in absolute value."""
    out = object.__new__(Coefficient)
    out._terms = terms
    out._bound = bound
    return out


# a value is packed when it has at least _PACK_MIN_TERMS terms that fill at
# least 1/_SPREAD of their least box: below that size, dict operations are
# the faster ones (CPython 3.11)
_PACK_MIN_TERMS = 16
_SPREAD = 2


def _width_for(top: int) -> int:
    """The width in whole 64-bit words of balanced digits up to ``top``."""
    return -(-(top.bit_length() + 1) // 64) * 64


def _encode(digits, width: int) -> int:
    """sum d_i 2^(W*i) for balanced digits |d_i| < 2^(W-1), each offset by
    2^(W-1) into W/64 words of a little-endian word array (a 64-bit digit
    is its two's complement with the top bit flipped)."""
    r, half = width // 64, _halves(width, len(digits))
    if r == 1:
        words = array("q", digits)
    else:
        offset = list(map(add, digits, repeat(1 << (width - 1))))
        words = array("Q", bytes(8 * r * len(offset)))
        for t in range(r):
            words[t::r] = array("Q", map(and_, map(rshift, offset, repeat(64 * t)), repeat((1 << 64) - 1)))
    if sys.byteorder == "big":
        words.byteswap()
    packed = int.from_bytes(words.tobytes(), "little")
    return (packed ^ half if r == 1 else packed) - half


def _unpack(value: int, width: int, count: int):
    """The ``count`` balanced W-bit digits of ``value``, lowest first: an
    array of 64-bit digits, else a list."""
    r, half = width // 64, _halves(width, count)
    raw = ((value + half) ^ (half if r == 1 else 0)).to_bytes(8 * r * count, "little")
    words = array("q" if r == 1 else "Q", raw)
    if sys.byteorder == "big":
        words.byteswap()
    if r == 1:
        return words
    digits = words[0::r]  # digit d is the run of words d*r .. d*r + r - 1
    for t in range(1, r):
        digits = map(add, digits, map(lshift, words[t::r], repeat(64 * t)))
    return list(map(sub, digits, repeat(1 << (width - 1))))


def _halves(width: int, count: int) -> int:
    """2^(W-1) in each of ``count`` W-bit digits."""
    return int.from_bytes((bytes(width // 8 - 1) + b"\x80") * count, "little")


def _cells(box: Box) -> int:
    r = box[2]
    return r[0] * r[1] * r[2]


def _cell(t: Triple, box: Box) -> int:
    """The cell of exponent triple ``t`` in a box holding it."""
    (li, lj, lk), (si, sj, sk), (_, rj, rk) = box
    return ((t[0] - li) // si * rj + (t[1] - lj) // sj) * rk + (t[2] - lk) // sk


def _cell_keys(box: Box) -> List[int]:
    """The keys of the cells of ``box``, in cell order (which is key order)."""
    keys = [_key(*box[0])]
    for s, r, shift in zip(box[1], box[2], _SHIFTS):
        if r > 1:
            keys = [k + o for k in keys for o in range(0, r * s << shift, s << shift)]
    return keys


def _box_bound(box: Box) -> int:
    (li, lj, lk), (si, sj, sk), (ri, rj, rk) = box
    return _exponent_bound(li, lj, lk, li + si * (ri - 1), lj + sj * (rj - 1), lk + sk * (rk - 1))


def _box_of(keys: List[int]) -> Box:
    """The least box holding the (nonempty) keys: per variable, the lowest
    exponent and the gcd of the strides from it to the others.  Key order
    is the order of the triples, so when the least and the greatest key
    agree before variable v and all differences are multiples of 2^(v's
    shift), only v varies, and the keys alone give its stride."""
    lo, hi = min(keys), max(keys)
    low, top, g = _unkey(lo), _unkey(hi), gcd(*map(sub, keys, repeat(lo)))
    for v, shift in enumerate(_SHIFTS):
        if low[:v] == top[:v] and not g % (1 << shift):
            s = g >> shift or 1
            return low, (*[1] * v, s, *[1] * (2 - v)), (*[1] * v, (top[v] - low[v]) // s + 1, *[1] * (2 - v))
    out = []
    for axis in _axes(keys):
        a = min(axis)
        s = gcd(*map(sub, axis, repeat(a))) or 1
        out.append((a, s, (max(axis) - a) // s + 1))
    return tuple(zip(*out))


def _axes(keys: List[int]) -> Tuple[List[int], List[int], List[int]]:
    """The exponents of p, of q and of w in the keys (``_unkey`` on lists)."""
    k = list(map(sub, map(and_, map(add, keys, repeat(_HALF)), repeat(_DIGIT)), repeat(_HALF)))
    rest = list(map(rshift, map(sub, keys, k), repeat(_S)))
    j = list(map(sub, map(and_, map(add, rest, repeat(_HALF)), repeat(_DIGIT)), repeat(_HALF)))
    return list(map(rshift, map(sub, rest, j), repeat(_S))), j, k


def _cells_of(keys: List[int], box: Box):
    """The cells of ``box`` at the keys, which it holds."""
    if box[2].count(1) < 2:
        i, j, k = (map(floordiv, map(sub, e, repeat(lo)), repeat(s)) for e, lo, s in zip(_axes(keys), *box[:2]))
        return map(add, map(mul, map(add, map(mul, i, repeat(box[2][1])), j), repeat(box[2][2])), k)
    # one variable v varies: the cell is the key's distance over v's stride
    v = max(range(3), key=box[2].__getitem__)
    return map(floordiv, map(sub, keys, repeat(_key(*box[0]))), repeat(box[1][v] << _SHIFTS[v]))


def _join(bx: Box, by: Box, product: bool) -> Box:
    """The least box holding a product (``product``) or a sum of values whose
    least boxes are bx and by, for all that the boxes tell."""
    axes = []
    for a, sa, ra, b, sb, rb in zip(*bx, *by):
        ea, eb = sa * (ra - 1), sb * (rb - 1)
        if product:
            lo, hi, s = a + b, a + b + ea + eb, gcd(ea and sa, eb and sb) or 1
        else:
            lo, hi = min(a, b), max(a + ea, b + eb)
            s = gcd(ea and sa, eb and sb, a - lo, b - lo) or 1
        axes.append((lo, s, (hi - lo) // s + 1))
    return tuple(zip(*axes))


class _Packed:
    """Terms packed over their least box: ``value`` is sum c 2^(width*cell)
    over the cells, c the coefficient there (0 for none), ``top`` bounds
    |c| and ``count`` is the number of terms."""

    __slots__ = ("box", "width", "top", "value", "count")

    def __init__(self, box: Box, width: int, top: int, value: int, count: int):
        self.box, self.width, self.top, self.value, self.count = box, width, top, value, count

    def __len__(self) -> int:
        return self.count

    def __eq__(self, other) -> bool:
        if type(other) is not _Packed or self.box != other.box:
            return False
        if self.width == other.width:
            return self.value == other.value
        return list(self.items()) == list(other.items())

    def items(self):
        """(key, coefficient) pairs of the terms, in key order."""
        return filter(itemgetter(1), zip(_cell_keys(self.box), _unpack(self.value, self.width, _cells(self.box))))


def _packed(box: Box, width: int, top: int, value: int, count: int) -> "Coefficient":
    return _coeff(_Packed(box, width, top, value, count), _box_bound(box))


def _from_terms(terms: Dict[int, int], bound: int) -> "Coefficient":
    """The value with these terms (none zero) in its form: packed when at
    least _PACK_MIN_TERMS of them fill at least 1/_SPREAD of their least
    box, else the dict itself."""
    if len(terms) >= _PACK_MIN_TERMS:
        box = _box_of(list(terms))
        if _cells(box) <= _SPREAD * len(terms):
            return _from_cells(box, _scatter(terms, box))
    return _coeff(terms, bound)


def _scatter(terms: Dict[int, int], box: Box) -> List[int]:
    """The coefficients of ``terms`` at their cells of ``box``, 0 elsewhere."""
    digits = [0] * _cells(box)
    for cell, c in zip(_cells_of(list(terms), box), terms.values()):
        digits[cell] = c
    return digits


def _relay(digits, src: Box, dst: Box) -> List[int]:
    """The digits over ``src`` laid out over ``dst``, a box holding it, one
    contiguous slice of the source per run along w."""
    (si, sj, sk), (ri, rj, rk) = src[1:]
    (di, dj, dk), (_, dj_count, dk_count) = dst[1:]
    # the cell steps in dst of a stride of src along p, q and w
    yi, yj, yk = si // di * dj_count * dk_count, sj // dj * dk_count, sk // dk if rk > 1 else 1
    out, y0 = [0] * _cells(dst), _cell(src[0], dst)
    for i in range(ri):
        for j in range(rj):
            x, y = (i * rj + j) * rk, y0 + i * yi + j * yj
            out[y : y + rk * yk : yk] = digits[x : x + rk]
    return out


def _fills(box: Box, digits) -> bool:
    """The slab test, sufficient for ``box`` to be the least box of the
    nonzero ``digits``: along each variable with two or more cells, the first,
    second and last slabs (a run of ``inner`` cells per ``step``) are nonzero."""
    n, inner = len(digits), 1
    for r in reversed(box[2]):
        step = r * inner
        for a in (0, 1, r - 1) if r > 1 else ():
            runs = [digits[a::step]] if inner == 1 else (digits[x : x + inner] for x in range(a * inner, n, step))
            if not any(map(any, runs)):
                return False
        inner = step
    return True


def _from_cells(box: Box, digits, width: int = 0, value: int = 0) -> "Coefficient":
    """The value with balanced ``digits`` over the cells of ``box`` (which
    ``value`` packs at ``width``, when given) in its form: packed over a dense
    ``box`` the slab test or ``_box_of`` finds least, else by ``_from_terms``."""
    count = len(digits) - digits.count(0)
    loose = count < _PACK_MIN_TERMS or _cells(box) > _SPREAD * count
    if loose or not _fills(box, digits):
        terms = dict(zip(compress(_cell_keys(box), digits), filter(None, digits)))
        if loose or _box_of(list(terms)) != box:
            return _from_terms(terms, _box_bound(box))
    top = max(max(digits), -min(digits))
    if _width_for(top) != width:
        width = _width_for(top)
        value = _encode(digits, width)
    return _packed(box, width, top, value, count)


def _box(c: "Coefficient") -> Box:
    t = c._terms
    return _box_of(list(t)) if type(t) is dict else t.box


def _top(terms) -> int:
    return max(map(abs, terms.values())) if type(terms) is dict else terms.top


def _lay(c: "Coefficient", box: Box, width: int) -> int:
    """The nonzero ``c`` packed at ``width`` over a box that holds it."""
    t = c._terms
    if type(t) is not dict:
        # t's cells are a run of the box's cells when t has the box's
        # strides and, inside its outermost varying variable, its counts
        _, step, radix = t.box
        outer = 0 if radix[0] > 1 else 1 if radix[1] > 1 else 2
        if radix[outer + 1 :] == box[2][outer + 1 :] and (
            step == box[1] or all(r == 1 or s == bs for r, s, bs in zip(radix, step, box[1]))
        ):
            value = t.value if t.width == width else _encode(_unpack(t.value, t.width, _cells(t.box)), width)
            return value << width * _cell(t.box[0], box)
        return _encode(_relay(_unpack(t.value, t.width, _cells(t.box)), t.box, box), width)
    if len(t) < _PACK_MIN_TERMS:
        return sum(map(lshift, t.values(), map(mul, _cells_of(list(t), box), repeat(width))))
    return _encode(_scatter(t, box), width)


def _scaled(t: _Packed, key: int, c: int) -> "Coefficient":
    """The packed ``t`` times c * (the monomial of ``key``): the box moves,
    and for c = 1 the packed int is shared."""
    box = (tuple(map(add, t.box[0], _unkey(key))), *t.box[1:])
    top = t.top * abs(c)
    width = max(t.width, _width_for(top))
    if width == t.width:
        value = t.value if c == 1 else t.value * c
    else:
        value = _encode([d * c for d in _unpack(t.value, t.width, _cells(box))], width)
    return _packed(box, width, top, value, t.count)


class Coefficient:
    """A Laurent polynomial: map (i, j, k) -> integer for p^i q^j w^k.

    The terms are a dict from packed keys (``_key``) to nonzero ints, or a
    ``_Packed`` when they fill enough of their least box: which, depends on
    the value alone.  A bound on |exponent| costs O(1) per operation: a sum
    keeps the larger bound, a product adds them, re-derived exactly from
    the boxes when the sum passes the limit.  Instances are immutable.
    """

    __slots__ = ("_terms", "_bound")

    def __init__(self, terms: Dict[Triple, int] | None = None):
        terms = {e: c for e, c in (terms or {}).items() if c}
        bound = _exponent_bound(*(x for e in terms for x in e))
        got = _from_terms({_key(*e): c for e, c in terms.items()}, bound)
        self._terms, self._bound = got._terms, got._bound

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
        if type(a) is not dict or type(b) is not dict:
            # one bigint add over a common box, unless that box is too sparse
            box = _join(_box(self), _box(other), False)
            cells = _cells(box)
            if cells <= _SPREAD * (len(a) + len(b)):
                width = _width_for(_top(a) + _top(b))
                value = _lay(self, box, width) + _lay(other, box, width)
                return _from_cells(box, _unpack(value, width, cells), width, value)
            a, b = dict(a.items()), dict(b.items())
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for e, c in b.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return _from_terms(out, max(self._bound, other._bound))

    def __neg__(self) -> "Coefficient":
        return self * -1

    def __sub__(self, other: "Coefficient") -> "Coefficient":
        if not isinstance(other, Coefficient):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Coefficient):
            if not isinstance(other, int):
                return NotImplemented
            other = Coefficient.integer(other)
        a, b = self._terms, other._terms
        # a unit operand passes the other through: values are immutable
        if len(b) == 1 and 0 in b and b[0] == 1:
            return self
        bound = self._bound + other._bound
        if bound > _EMAX:
            # exact: per variable, the extreme exponents of a product of
            # nonzero Laurent polynomials are the sums of the operands' ones
            bound = _box_bound(_join(_box(self), _box(other), True)) if a and b else 0
        if len(a) == 1:
            if 0 in a and a[0] == 1:
                return other
            if len(b) == 1:
                ((ea, ca),), ((eb, cb),) = a.items(), b.items()
                return _coeff({ea + eb: ca * cb}, bound)
            a, b = b, a
        if len(b) == 1:
            ((eb, cb),) = b.items()
            if type(a) is not dict:
                return _scaled(a, eb, cb)
            return _coeff({e + eb: c * cb for e, c in a.items()}, bound)
        if a and b and (type(a) is not dict or type(b) is not dict):
            got = self._kronecker(other)
            if got is not None:
                return got
            a, b = dict(a.items()), dict(b.items())
        out: Dict[int, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return _from_terms(out, bound)

    __rmul__ = __mul__

    def _kronecker(self, other: "Coefficient") -> "Coefficient | None":
        """self*other by one bigint product, or None when the product's box
        has more cells than the sparse loop has term pairs.  Each operand is
        laid out over that box's strides and counts, from its own lowest
        exponents, so cells add as monomials multiply; no coefficient exceeds
        l1(a) max|b| <= min(#a, #b) max|a| max|b|, which gives the width."""
        a, b = self._terms, other._terms
        bx, by = _box(self), _box(other)
        box = _join(bx, by, True)
        cells = _cells(box)
        if cells > len(a) * len(b):
            return None
        width = _width_for(min(len(a), len(b)) * _top(a) * _top(b))
        value = _lay(self, (bx[0], *box[1:]), width) * _lay(other, (by[0], *box[1:]), width)
        return _from_cells(box, _unpack(value, width, cells), width, value)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        if not isinstance(other, Coefficient):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    # -- star structure and localization -----------------------------

    def conjugate(self) -> "Coefficient":
        """p and q are fixed (real parameters); w is inverted."""
        t = self._terms
        return _from_terms({e - 2 * (((e + _HALF) & _DIGIT) - _HALF): c for e, c in t.items()}, self._bound)

    def eval_at_zero(self, var: str) -> "Coefficient":
        """Set var = 0: drop terms with positive var-exponent, keep exponent 0.

        A negative var-exponent means the value is not defined there.
        """
        idx = _check_var(var)
        out: Dict[int, int] = {}
        for e, c in self._terms.items():
            d = _unkey(e)[idx]
            if d < 0:
                raise EvaluationError(f"negative power of {var} cannot be evaluated at {var}=0: {self}")
            if d == 0:
                out[e] = c
        return _from_terms(out, self._bound)

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
    s = out.get(key)
    if s is None:
        if c:
            out[key] = c
    elif s := s + c:
        out[key] = s
    else:
        del out[key]


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
    coefficient product per term pair.  No factor is zero and the
    coefficient ring is a domain, so no product of terms is tested for zero.
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
        # add_term inlined here and in __mul__, with no zero test on a new
        # key: no stored coefficient, and no product of two, is zero
        out = dict(self._t)
        for m, c in other._t.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            elif s := s + c:
                out[m] = s
            else:
                del out[m]
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

    def mapped(self, image, into: "LinComb") -> "LinComb":
        """The linear extension of ``image``, a map from monomials to
        elements of ``into``'s algebra: the sum of image(m) scaled by c."""
        out: dict = {}
        for m, c in self._t.items():
            for im, ic in image(m)._t.items():
                add_term(out, im, ic * c)
        return into._new(out)

    def graded(self, degree) -> dict:
        """The nonzero homogeneous parts, keyed by ``degree(m)``."""
        parts: dict = {}
        for m, c in self._t.items():
            parts.setdefault(degree(m), {})[m] = c
        return {d: self._new(t) for d, t in parts.items()}

    # -- algebra structure -----------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (Coefficient, int)):
            return self.scale(other)
        self._check(other)
        mono_mul = self._mul_rule()
        out: dict = {}
        for m1, c1 in self._t.items():
            for m2, c2 in other._t.items():
                # a pair whose monomial product vanishes costs no coefficient product
                prods = mono_mul(m1, m2)
                if not prods:
                    continue
                c12 = c1 * c2
                for mono, f in prods:
                    c = c12 if f is ONE else c12 * f
                    s = out.get(mono)
                    if s is None:
                        out[mono] = c
                    elif s := s + c:
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
        """e >= 0: ordinary power; e < 0: power of the adjoint, taken once.

        Left to right on purpose: multiplying by the short base costs a few
        monomial products per term of the accumulator, where squaring an
        m-term power costs m^2 of them.
        """
        base = self.star() if e < 0 else self
        acc = self._new({self._one: ONE})
        for _ in range(abs(e)):
            acc = acc * base
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
# Memo tables: plain dicts, each registered with a name and a scope.
# ---------------------------------------------------------------------------

# emptied after each suite of a full verification run and each lens type
# of the lens suite
RUN_SCOPE = "run"
# kept for the life of the process: bounded by the index ranges asked for
PROCESS_SCOPE = "process"
# id of the table -> (name, scope, table)
_REGISTRY: Dict[int, Tuple[str, str, dict]] = {}


def memo_table(name: str, scope: str, owner: object = None) -> dict:
    """A new empty memo table, registered under ``name`` with ``scope``.
    The tables of an ``owner`` leave the registry when it is collected."""
    table: dict = {}
    _REGISTRY[id(table)] = (name, scope, table)
    if owner is not None:
        weakref.finalize(owner, _REGISTRY.pop, id(table), None)
    return table


def clear_run_memos() -> None:
    """Empty every run-scoped memo table.  Memos are pure caches, so this
    changes no result, only what must be computed again."""
    for _, scope, table in list(_REGISTRY.values()):
        if scope == RUN_SCOPE:
            table.clear()


def shared(c: Coefficient, table: dict) -> Coefficient:
    """``c`` as the one object of its value, when it has one term: 1 is the
    ``ONE`` object, any other the first equal value stored through the run
    memo ``table`` (hash-consing).  A one-term value carries a dict as large
    as its own object, and hashes in O(1); a longer one is returned as is,
    since its hash costs O(terms).  Values have one form each (see
    ``Coefficient``), so equal values are interchangeable."""
    t = c._terms
    if len(t) != 1:
        return c
    if 0 in t and t[0] == 1:
        return ONE
    return table.setdefault(c, c)


def memo_sizes() -> Dict[str, int]:
    """Entries per memo table name (tables sharing a name are summed)."""
    sizes: Dict[str, int] = {}
    for name, _, table in list(_REGISTRY.values()):
        sizes[name] = sizes.get(name, 0) + len(table)
    return sizes


# ---------------------------------------------------------------------------
# Deformed integers and binomials.
#
# A "base" is the deformation unit: ('p', +1) means the variable p itself,
# ('p', -1) its inverse, similarly for q.  The public entry points take
# var in {'p','q'}; the signed bases serve the negative-index polynomial
# family and the inverse-parameter disc.
# ---------------------------------------------------------------------------

Base = Tuple[str, int]


def qint(n: int, var: str = "p") -> Coefficient:
    """1 + v + ... + v^(n-1), the binomial C(n, 1); zero for n = 0.  Every
    coefficient is 1, so it is built from its n unit digits in O(n), with
    no Pascal row."""
    _check_var(var)
    if n < 0:
        raise ValueError("deformed integers are defined for n >= 0")
    return _poly(int.from_bytes((1).to_bytes(8, "little") * n, "little"), 64, 0, (var, 1), 1) if n else ZERO


# The deformed binomials C(n, m)_t, over the deformation unit t, packed as
# ints sum c_d 2^(W*d).  The coefficients of C(n, m)_t are positive and add
# up to the ordinary binomial C(n, m) < 2^n, so a digit width W >= n + 3,
# in whole 64-bit words, holds every digit of a binomial of row n and of
# the sum or difference of two of row n - 1.  ``_poly`` places a packed
# binomial in p or q, reversed for t = 1/v.
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
_ROW_MEMO: Dict[int, List[int]] = memo_table("scalars._ROW_MEMO", PROCESS_SCOPE)


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


def _poly(value: int, width: int, low: int, base: Base, top: int) -> Coefficient:
    """sign(value) * sum c_d t^(low + d), t = var^s for the base (var, s),
    whose coefficients 0 < c_d <= top are the W-bit digits of |value|.  A
    binomial has a positive coefficient at every degree 0..m(n-m), so its
    digits fill their box: over t = var it is packed as it stands."""
    var, s = base
    count, axis = -(-value.bit_length() // width), _VAR_INDEX[var]
    low = low if s > 0 else -(low + count - 1)
    box = tuple(tuple(x if v == axis else y for v in range(3)) for x, y in ((low, 0), (1, 1), (count, 1)))
    if s > 0 and count >= _PACK_MIN_TERMS:
        return _packed(box, width, top, value, count)
    digits = _unpack(value, width, count)
    return _from_cells(box, digits[::-1], 0) if s < 0 else _from_cells(box, digits, width, value)


_QBINOM_MEMO: Dict[Tuple[int, int, Base], Coefficient] = memo_table("scalars._QBINOM_MEMO", PROCESS_SCOPE)


def qbinomial_base(n: int, m: int, base: Base) -> Coefficient:
    if m < 0 or m > n:
        raise ValueError(f"binomial index out of range: m={m}, n={n}")
    if m == 0 or m == n:
        return ONE
    key = (n, m, base)
    got = _QBINOM_MEMO.get(key)
    if got is None:
        got = _QBINOM_MEMO[key] = _poly(_row(n)[m], _width(n), 0, base, comb(n, m))
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
        var, s = base
        return self._new({m: c * var_pow(var, s * e * m) for m, c in self._t.items()})


# the zero polynomial, shared: values are immutable
_QPOLY_ZERO = QPoly()


def _closed_rows(row: List[int], n: int, inverse: bool) -> List[Tuple[int, int]]:
    """The Y^1..Y^n coefficients of the closed form at index n (-n when
    ``inverse``), as (signed row int, lowest degree) pairs from row n, over
    t = the base (its inverse when ``inverse``): (-1)^m t^(-n*m + m(m+1)/2)
    C(n, m)_t, times t^-m for a negative index (the inverse-base family
    taken at base*Y)."""
    return [
        (-row[m] if m % 2 else row[m], -n * m + m * (m + 1) // 2 - (m if inverse else 0))
        for m in range(1, n + 1)
    ]


def _closed_form(row: List[int], n: int, inverse: bool, width: int, base: Base) -> List[Coefficient]:
    """``_closed_rows`` over the base, from row n packed at ``width``."""
    t = (base[0], -base[1] if inverse else base[1])
    return [_poly(v, width, low, t, comb(n, m)) for m, (v, low) in enumerate(_closed_rows(row, n, inverse), 1)]


def _check_recursion(
    n: int, inverse: bool, closed: List[Tuple[int, int]], lower: List[Tuple[int, int]], width: int
) -> None:
    """Check the closed form at index n (-n when ``inverse``) against the
    one-step recursion from ``lower``, 1 and the closed form at n - 1, all
    as ``_closed_rows`` pairs at ``width``: that width bounds every digit of
    closed - recursion, so their row ints shifted to one lowest degree add
    up to 0 exactly when the two agree.  Q(+-n) = X - Y t^-i (1 + X),
    X = Q(+-(n-1)) at Y -> Y/t, i = 1 for a negative index (Y/t is base*Y
    there, t the inverse base)."""
    i = 1 if inverse else 0
    for m in range(1, n + 1):
        # closed_m - X_m + t^-i (1 + X)_(m-1)
        parts = [closed[m - 1], (lower[m - 1][0], lower[m - 1][1] + 1 - m - i)]
        if m < n:
            parts.append((-lower[m][0], lower[m][1] - m))
        low = min(d for _, d in parts)
        if sum(v << width * (d - low) for v, d in parts):
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
    lower = [(1, 0), *_closed_rows(row, checked, inverse)]
    for k in range(checked + 1, n + 1):
        row = _pascal_step(row, width)
        closed = _closed_rows(row, k, inverse)
        _check_recursion(k, inverse, closed, lower, width)
        lower = [(1, 0), *closed]
        _QPOLY_CHECKED[inverse] = k
    _ROW_MEMO.setdefault(n, row)


# per sign of the index: every index from 1 up to this one has passed
# _check_recursion (the check does not depend on the base); walks that
# extend it hold the lock
_QPOLY_CHECKED = {False: 0, True: 0}
_QPOLY_LOCK = threading.Lock()
_QPOLY_MEMO: Dict[Tuple[int, Base], QPoly] = memo_table("scalars._QPOLY_MEMO", PROCESS_SCOPE)


def qpoly_Q_base(mu: int, base: Base) -> QPoly:
    """Index-mu contraction polynomial over the given base.

    Always computed twice — closed form and one-step recursion — and the
    two results are checked against each other at every index from 1 up to
    |mu| (with the sign of mu) before the closed form is memoized, packed.
    """
    if mu == 0:
        return _QPOLY_ZERO
    key = (mu, base)
    got = _QPOLY_MEMO.get(key)
    if got is not None:
        return got
    n, inverse = abs(mu), mu < 0
    if _QPOLY_CHECKED[inverse] < n:
        with _QPOLY_LOCK:
            _check_up_to(n, inverse)
    got = QPoly(dict(enumerate(_closed_form(_row(n), n, inverse, _width(n), base), 1)))
    _QPOLY_MEMO[key] = got
    return got


def qpoly_Q(mu: int, var: str = "p") -> QPoly:
    _check_var(var)
    return qpoly_Q_base(mu, (var, 1))


def qpoly_Qpair_base(mu: int, nu: int, base: Base) -> QPoly:
    if mu * nu >= 0:
        return _QPOLY_ZERO
    if abs(mu) <= abs(nu):
        return qpoly_Q_base(mu, base)
    return qpoly_Q_base(-nu, base).rescale_base(base, -(mu + nu))


def qpoly_Qpair(mu: int, nu: int, var: str = "p") -> QPoly:
    _check_var(var)
    return qpoly_Qpair_base(mu, nu, (var, 1))


def qpoly_rescale(poly: QPoly, e: int, var: str = "p") -> QPoly:
    _check_var(var)
    return poly.rescale_base((var, 1), e)
