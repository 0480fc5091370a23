"""Normal-form arithmetic for the quantum disc and the Heegaard quantum sphere.

Disc elements live in the span of X^k x^mu (X := 1 - x x*, negative mu
meaning adjoint powers); sphere elements in the span of A^k a^mu b^nu and
B^k a^mu b^nu with k >= 1 for the B family.  Elements are kept in normal
form at all times, so equality is dictionary comparison.

Each algebra object owns its memo tables (monomial interning, monomial
products, generator powers).  Values are immutable and the caches are
append-only, so everything can be shared freely between threads.

Setting ``isometric=True`` instantiates the parameter-at-zero presentation:
the same contraction rules run, every emitted coefficient is evaluated at
parameter zero (a negative parameter power is a hard error — it flags a
product leaving the normal-form span), and the extra relations of that
specialization (core powers idempotent, core annihilating positive
generator powers on its right) are applied at the monomial level.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

from .scalars import (
    Base,
    Coefficient,
    LinComb,
    ONE,
    ZERO,
    add_term,
    format_monomial,
    qpoly_Qpair_base,
    var_pow,
    w_pow,
)

CORE_A = 0
CORE_B = 1


class UnknownRelationError(ValueError):
    """Raised for an unrecognized relation identifier."""


class DiscMonomial(NamedTuple):
    k: int
    mu: int


class SphereMonomial(NamedTuple):
    core: int
    k: int
    mu: int
    nu: int


DISC_ONE = DiscMonomial(0, 0)
SPHERE_ONE = SphereMonomial(CORE_A, 0, 0, 0)


def disc_mono_str(m: DiscMonomial, *extra) -> str:
    """X^k x^mu, followed by any further (name, exponent) factors."""
    return format_monomial((("X", m.k), ("x", m.mu), *extra))


def sphere_mono_str(m: SphereMonomial, *extra) -> str:
    """A^k a^mu b^nu (or B^k ...), followed by any further factors."""
    core = "A" if m.core == CORE_A else "B"
    return format_monomial(((core, m.k), ("a", m.mu), ("b", m.nu), *extra))


class AlgebraElement(LinComb):
    """A linear combination whose products and adjoints come from an
    algebra object's ``mono_mul`` and ``star_mono``."""

    __slots__ = ("alg",)
    _ctx = "alg"

    def __init__(self, alg, terms=None):
        self.alg = alg
        super().__init__(terms)

    def _mul_rule(self):
        return self.alg.mono_mul

    def _star_rule(self):
        return self.alg.star_mono


class _EngineBase:
    """Shared memoization plumbing for the two normal-form engines."""

    def __init__(self):
        self._mul_memo: Dict[Tuple, Tuple] = {}
        self._intern: Dict[Tuple, Tuple] = {}

    def intern(self, mono):
        return self._intern.setdefault(mono, mono)


# ---------------------------------------------------------------------------
# Quantum disc
# ---------------------------------------------------------------------------


class DiscAlgebra(_EngineBase):
    """The one-generator disc algebra at parameter var^sign (or at zero).

    var in {'p','q'}; sign -1 selects the inverse-parameter presentation
    used as the target of the mirror isomorphism.
    """

    def __init__(self, var: str = "p", sign: int = 1, isometric: bool = False):
        super().__init__()
        if isometric and sign != 1:
            raise ValueError("the parameter-at-zero presentation uses sign +1")
        self.var = var
        self.sign = sign
        self.isometric = isometric
        self.base: Base = (var, sign)

    # parameter powers as coefficients
    def param_pow(self, e: int) -> Coefficient:
        return var_pow(self.var, self.sign * e)

    def _post_coeff(self, c: Coefficient) -> Coefficient:
        if self.isometric:
            return c.eval_at_zero(self.var)
        return c

    def _reduce_mono(self, m: DiscMonomial) -> DiscMonomial | None:
        if not self.isometric or m.k == 0:
            return m
        if m.mu > 0:
            return None
        if m.k > 1:
            return DiscMonomial(1, m.mu)
        return m

    def mono_mul(self, m1: DiscMonomial, m2: DiscMonomial):
        key = (m1, m2)
        got = self._mul_memo.get(key)
        if got is not None:
            return got
        k1, mu1 = m1
        k2, mu2 = m2
        factor = self.param_pow(-mu1 * k2) if k2 else ONE
        cont = qpoly_Qpair_base(mu1, mu2, self.base)
        out = []
        mu = mu1 + mu2
        emitted: Dict[DiscMonomial, Coefficient] = {DiscMonomial(k1 + k2, mu): factor}
        for deg, c in cont.items():
            add_term(emitted, DiscMonomial(k1 + k2 + deg, mu), factor * c)
        for mono, c in emitted.items():
            # evaluate first: a negative parameter power flags a product
            # escaping the normal-form span and must not be masked by a
            # vanishing word
            c = self._post_coeff(c)
            if not c:
                continue
            red = self._reduce_mono(mono)
            if red is None:
                continue
            out.append((self.intern(red), c))
        got = tuple(out)
        self._mul_memo[key] = got
        return got

    def star_mono(self, m: DiscMonomial) -> Tuple[DiscMonomial | None, Coefficient]:
        f = self._post_coeff(self.param_pow(m.k * m.mu))
        if not f:
            return None, ZERO
        red = self._reduce_mono(DiscMonomial(m.k, -m.mu))
        if red is None:
            return None, ZERO
        return self.intern(red), f

    # -- element constructors ------------------------------------------

    def element(self, terms=None) -> "DiscElement":
        return DiscElement(self, terms)

    def zero(self) -> "DiscElement":
        return DiscElement(self)

    def one(self) -> "DiscElement":
        return DiscElement(self, {DISC_ONE: ONE})

    def scalar(self, c: Coefficient) -> "DiscElement":
        return DiscElement(self, {DISC_ONE: c})

    def x(self, e: int = 1) -> "DiscElement":
        return DiscElement(self, {DiscMonomial(0, e): ONE})

    def X(self, e: int = 1) -> "DiscElement":
        return DiscElement(self, {DiscMonomial(e, 0): ONE})

    def monomial(self, k: int, mu: int, coeff: Coefficient = ONE) -> "DiscElement":
        return DiscElement(self, {DiscMonomial(k, mu): coeff})


class DiscElement(AlgebraElement):
    __slots__ = ()
    _one = DISC_ONE
    mono_str = staticmethod(disc_mono_str)
    # own bindings of the shared methods, so each can be wrapped per class
    __mul__ = AlgebraElement.__mul__
    star = AlgebraElement.star
    pow_signed = AlgebraElement.pow_signed


DISC = DiscAlgebra("p")
DISC_INV = DiscAlgebra("p", sign=-1)
DISC0 = DiscAlgebra("p", isometric=True)


def kappa_iso(r: DiscElement) -> DiscElement:
    """Mirror isomorphism into the inverse-parameter disc: x -> x_-*.

    Images are computed by multiplying generator images in the target
    engine, never by substituting printed formulas.
    """
    if r.alg is not DISC:
        raise ValueError("kappa_iso is defined on the parameter-p disc")
    target = DISC_INV
    kx = target.x().star()
    kX = target.one() - kx * kx.star()
    out = target.zero()
    powX: Dict[int, DiscElement] = {0: target.one()}
    for m, c in sorted(r.terms()):
        k, mu = m
        if k not in powX:
            acc = powX[max(powX)]
            for _ in range(max(powX), k):
                acc = acc * kX
                powX[max(powX) + 1] = acc
        out = out + (powX[k] * kx.pow_signed(mu)).scale(c)
    return out


# ---------------------------------------------------------------------------
# Heegaard quantum sphere
# ---------------------------------------------------------------------------


class SphereAlgebra(_EngineBase):
    def __init__(self, isometric: bool = False):
        super().__init__()
        self.isometric = isometric
        self.base_a: Base = ("p", 1)
        self.base_b: Base = ("q", 1)

    def _post_coeff(self, c: Coefficient) -> Coefficient:
        if self.isometric:
            return c.eval_at_zero("p").eval_at_zero("q")
        return c

    def _reduce_mono(self, m: SphereMonomial) -> SphereMonomial | None:
        if not self.isometric or m.k == 0:
            return m
        if m.core == CORE_A and m.mu > 0:
            return None
        if m.core == CORE_B and m.nu > 0:
            return None
        if m.k > 1:
            return SphereMonomial(m.core, 1, m.mu, m.nu)
        return m

    def mono_mul(self, m1: SphereMonomial, m2: SphereMonomial):
        key = (m1, m2)
        got = self._mul_memo.get(key)
        if got is not None:
            return got
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
            self._mul_memo[key] = ()
            return ()
        if k1:
            core, k = core1, k1 + (k2 if core1 == core2 else 0)
        else:
            core, k = (core2, k2) if k2 else (CORE_A, 0)
        # (3) first factor's b-powers cross the second's a-powers
        if nu1 and mu2:
            factor = factor * w_pow(-2 * nu1 * mu2)
        # (4) contract generator powers
        cont_a = qpoly_Qpair_base(mu1, mu2, self.base_a)
        cont_b = qpoly_Qpair_base(nu1, nu2, self.base_b)
        mu = mu1 + mu2
        nu = nu1 + nu2
        # (5) merge produced core powers (mixed products annihilate) and emit
        emitted: Dict[SphereMonomial, Coefficient] = {
            SphereMonomial(core, k, mu, nu): factor
        }
        for deg, c in cont_a.items():
            if k and core == CORE_B:
                continue
            add_term(emitted, SphereMonomial(CORE_A, k + deg, mu, nu), factor * c)
        for deg, c in cont_b.items():
            if k and core == CORE_A:
                continue
            add_term(emitted, SphereMonomial(CORE_B, k + deg, mu, nu), factor * c)
        out = []
        for mono, c in emitted.items():
            # evaluate first: escapes from the span must raise, not vanish
            c = self._post_coeff(c)
            if not c:
                continue
            red = self._reduce_mono(mono)
            if red is None:
                continue
            out.append((self.intern(red), c))
        got = tuple(out)
        self._mul_memo[key] = got
        return got

    def star_mono(self, m: SphereMonomial) -> Tuple[SphereMonomial | None, Coefficient]:
        if m.core == CORE_A:
            f = var_pow("p", m.k * m.mu) if m.k and m.mu else ONE
        else:
            f = var_pow("q", m.k * m.nu) if m.k and m.nu else ONE
        if m.mu and m.nu:
            f = f * w_pow(-2 * m.mu * m.nu)
        f = self._post_coeff(f)
        if not f:
            return None, ZERO
        red = self._reduce_mono(SphereMonomial(m.core, m.k, -m.mu, -m.nu))
        if red is None:
            return None, ZERO
        return self.intern(red), f

    # -- element constructors ------------------------------------------

    def element(self, terms=None) -> "SphereElement":
        return SphereElement(self, terms)

    def zero(self) -> "SphereElement":
        return SphereElement(self)

    def one(self) -> "SphereElement":
        return SphereElement(self, {SPHERE_ONE: ONE})

    def scalar(self, c: Coefficient | int) -> "SphereElement":
        if isinstance(c, int):
            c = Coefficient.integer(c)
        return SphereElement(self, {SPHERE_ONE: c})

    def a(self, e: int = 1) -> "SphereElement":
        return SphereElement(self, {SphereMonomial(CORE_A, 0, e, 0): ONE})

    def b(self, e: int = 1) -> "SphereElement":
        return SphereElement(self, {SphereMonomial(CORE_A, 0, 0, e): ONE})

    def A(self, e: int = 1) -> "SphereElement":
        return SphereElement(self, {SphereMonomial(CORE_A, e, 0, 0): ONE})

    def B(self, e: int = 1) -> "SphereElement":
        return SphereElement(self, {SphereMonomial(CORE_B, e, 0, 0): ONE})

    def z(self) -> "SphereElement":
        return SphereElement(self, {SphereMonomial(CORE_A, 0, 1, -1): ONE})

    def monomial(self, core: int, k: int, mu: int, nu: int, coeff: Coefficient = ONE):
        if core == CORE_B and k < 1:
            raise ValueError("B-core monomials need k >= 1")
        return SphereElement(self, {SphereMonomial(core, k, mu, nu): coeff})


class SphereElement(AlgebraElement):
    __slots__ = ()
    _one = SPHERE_ONE
    mono_str = staticmethod(sphere_mono_str)
    # own bindings of the shared methods, so each can be wrapped per class
    __mul__ = AlgebraElement.__mul__
    star = AlgebraElement.star
    pow_signed = AlgebraElement.pow_signed

    def degree_support(self) -> set:
        return {m.mu + m.nu for m in self._t}

    def is_invariant(self, n: int) -> bool:
        if n < 1:
            raise ValueError("the cyclic order must be >= 1")
        return all(d % n == 0 for d in self.degree_support())


SPHERE = SphereAlgebra()
SPHERE0 = SphereAlgebra(isometric=True)


# ---------------------------------------------------------------------------
# Relation residuals: left side minus right side of the named identity,
# computed inside the engine.  The suite passes iff every residual is zero.
# ---------------------------------------------------------------------------


def _res_aaminus(alg, n: int):
    a = alg.a()
    lhs = a * a.pow_signed(-n) - a.pow_signed(-n) * a
    rhs = (alg.A() * a.pow_signed(-(n - 1))).scale(var_pow("p", n) - ONE)
    return lhs - rhs


def _res_chlemma(x, y, phase_exp: int, mu: int):
    """x^mu y^mu against the phase-corrected (xy)^mu for a pair with
    x y = w^phase_exp y x."""
    lhs = x.pow_signed(mu) * y.pow_signed(mu)
    rhs = ((x * y).pow_signed(mu)).scale(w_pow(phase_exp * (mu * (mu - 1) // 2)))
    return lhs - rhs


def _twisted_commutator(x, y, e: int):
    """x y - w^e y x."""
    return x * y - (y * x).scale(w_pow(e))


_RELATIONS = {
    "heegard:ab": lambda s: _twisted_commutator(s.a(), s.b(), 2),
    "heegard:abstar": lambda s: _twisted_commutator(s.a(), s.b().star(), -2),
    "heegard:aa": lambda s: (
        s.a().star() * s.a() - (s.a() * s.a().star()).scale(var_pow("p", 1))
        - s.scalar(ONE - var_pow("p", 1))
    ),
    "heegard:bb": lambda s: (
        s.b().star() * s.b() - (s.b() * s.b().star()).scale(var_pow("q", 1))
        - s.scalar(ONE - var_pow("q", 1))
    ),
    "heegard:AB": lambda s: (s.one() - s.a() * s.a().star()) * (s.one() - s.b() * s.b().star()),
    "core:Aa": lambda s: s.A() * s.a() - (s.a() * s.A()).scale(var_pow("p", 1)),
    "core:Ab": lambda s: s.A() * s.b() - s.b() * s.A(),
    "core:Ba": lambda s: s.B() * s.a() - s.a() * s.B(),
    "core:Bb": lambda s: s.B() * s.b() - (s.b() * s.B()).scale(var_pow("q", 1)),
    "core:Astar": lambda s: s.A().star() - s.A(),
    "core:Bstar": lambda s: s.B().star() - s.B(),
    "aaminus": _res_aaminus,
    "chlemma:ab": lambda s, mu: _res_chlemma(s.a(), s.b(), 2, mu),
    "chlemma:abstar": lambda s, mu: _res_chlemma(s.a(), s.b().star(), -2, mu),
}


def relation_residual(rid: str, alg: SphereAlgebra = None, **params) -> SphereElement:
    """Normal form of LHS - RHS for the named displayed identity."""
    rule = _RELATIONS.get(rid)
    if rule is None:
        raise UnknownRelationError(rid)
    return rule(SPHERE if alg is None else alg, **params)
