"""Normal-form arithmetic for the quantum disc and the Heegaard quantum sphere.

Disc elements live in the span of X^k x^mu (X := 1 - x x*, negative mu
meaning adjoint powers); sphere elements in the span of A^k a^mu b^nu and
B^k a^mu b^nu with k >= 1 for the B family.  Elements are kept in normal
form at all times, so equality is dictionary comparison.

Every algebra object takes its element constructors from ``Algebra``.  The
two engines share ``_EngineBase``, which owns the memo tables (monomial and
coefficient interning, monomial products) and the parameter-zero tail of
every product and adjoint; each engine gives only its raw product and
adjoint rules.
Both raw products come from one disc rule, ``_disc_rule``: the sphere's is
the disc products at p (a) and q (b), glued by the w-phase and AB = 0.
Values are immutable, so everything can be shared freely between threads.
The memo tables are run-scoped (see ``scalars.memo_table``): a full
verification run empties them after each suite, and nothing else does.

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
    QPoly,
    RUN_SCOPE,
    ZERO,
    format_monomial,
    memo_table,
    qpoly_Qpair_base,
    shared,
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

    @property
    def deg(self) -> int:
        """The U(1) degree mu + nu of A^k a^mu b^nu."""
        return self.mu + self.nu


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


class Algebra:
    """Element constructors shared by every algebra object.  ``elem_cls`` is
    the element class; scalars sit on its unit monomial ``_one``."""

    elem_cls: type

    def element(self, terms=None):
        return self.elem_cls(self, terms)

    def zero(self):
        return self.elem_cls(self)

    def one(self):
        return self.elem_cls(self, {self.elem_cls._one: ONE})

    def scalar(self, c: Coefficient | int):
        if isinstance(c, int):
            c = Coefficient.integer(c)
        return self.elem_cls(self, {self.elem_cls._one: c})


class _EngineBase(Algebra):
    """Memoized normal-form engine.  A subclass supplies its raw monomial
    product ``_mul_raw`` (a dict monomial -> coefficient), an adjoint rule
    ``star_mono`` that ends in ``_normalize``, and ``_gen_exp``: the
    generator exponent that a core power annihilates at parameter zero.

    Both memo tables are run-scoped.  ``_intern`` holds one object per
    monomial and, through ``share``, per one-term coefficient value that a
    stored product carries (1 is ``ONE`` itself); the lens preimages share
    through the sphere's.  Most stored coefficients are one-term phases,
    each with a dict as large as its object, and a longer value would cost
    O(terms) to hash.  After one ``lens-warm`` warm-up (seed 1000003),
    emptying the sphere's two tables frees 443 B per ``_mul_memo`` entry
    unshared and 251 B shared (tracemalloc)."""

    def __init__(self, name: str, isometric: bool, zero_vars: Tuple[str, ...]):
        self.isometric = isometric
        # variables evaluated at zero in every emitted coefficient
        self.zero_vars = zero_vars if isometric else ()
        self._mul_memo: Dict[Tuple, Tuple] = memo_table(f"{name}._mul_memo", RUN_SCOPE, self)
        self._intern: Dict[object, object] = memo_table(f"{name}._intern", RUN_SCOPE, self)

    def _reduce_mono(self, m):
        """Parameter-zero relations: a core power is idempotent and kills
        positive powers of its generator; None when the monomial vanishes."""
        if m.k == 0:
            return m
        if self._gen_exp(m) > 0:
            return None
        return m._replace(k=1) if m.k > 1 else m

    def _normalize(self, mono, c: Coefficient):
        """(interned monomial, coefficient), or (None, ZERO) when the term
        vanishes.  The coefficient is evaluated first: a negative parameter
        power flags a product escaping the normal-form span and must raise,
        not be masked by a vanishing word."""
        for var in self.zero_vars:
            c = c.eval_at_zero(var)
        if not c:
            return None, ZERO
        if self.isometric:
            mono = self._reduce_mono(mono)
            if mono is None:
                return None, ZERO
        return self._intern.setdefault(mono, mono), c

    def share(self, c: Coefficient) -> Coefficient:
        """``c`` as the one object of its value in this engine's run memos,
        when it has one term (``scalars.shared``, through ``_intern``)."""
        return shared(c, self._intern)

    def mono_mul(self, m1, m2):
        key = (m1, m2)
        got = self._mul_memo.get(key)
        if got is not None:
            return got
        out = []
        for mono, c in self._mul_raw(m1, m2).items():
            mono, c = self._normalize(mono, c)
            if mono is not None:
                out.append((mono, self.share(c)))
        got = self._mul_memo[key] = tuple(out)
        return got


def _disc_rule(k1: int, mu1: int, k2: int, mu2: int, base: Base) -> Tuple[int, Coefficient, QPoly]:
    """X^k1 x^mu1 X^k2 x^mu2 = f X^k (1 + cont(X)) x^(mu1 + mu2) at parameter
    ``base``: X^k2 commutes left past x^mu1 at f = base^(-mu1*k2) (the ``ONE``
    object itself when that is 1), and x^mu1 x^mu2 contracts into 1 + Q(X)."""
    f = var_pow(base[0], -base[1] * mu1 * k2) if k2 and mu1 else ONE
    return k1 + k2, f, qpoly_Qpair_base(mu1, mu2, base)


# ---------------------------------------------------------------------------
# Quantum disc
# ---------------------------------------------------------------------------


class DiscElement(AlgebraElement):
    __slots__ = ()
    _one = DISC_ONE
    mono_str = staticmethod(disc_mono_str)
    # own bindings of the shared methods, so each can be wrapped per class
    __mul__ = AlgebraElement.__mul__
    star = AlgebraElement.star
    pow_signed = AlgebraElement.pow_signed


class DiscAlgebra(_EngineBase):
    """The one-generator disc algebra at parameter p^sign (or at zero).

    sign -1 selects the inverse-parameter presentation used as the target
    of the mirror isomorphism.
    """

    elem_cls = DiscElement
    mono_mul = _EngineBase.mono_mul  # own binding, wrapped per class

    def __init__(self, sign: int = 1, isometric: bool = False):
        if isometric and sign != 1:
            raise ValueError("the parameter-at-zero presentation uses sign +1")
        super().__init__("DISC0" if isometric else "DISC_INV" if sign < 0 else "DISC", isometric, ("p",))
        self.sign = sign
        self.base: Base = ("p", sign)

    # parameter powers as coefficients
    def param_pow(self, e: int) -> Coefficient:
        return var_pow("p", self.sign * e)

    @staticmethod
    def _gen_exp(m: DiscMonomial) -> int:
        return m.mu

    def _mul_raw(self, m1: DiscMonomial, m2: DiscMonomial) -> Dict[DiscMonomial, Coefficient]:
        k, f, cont = _disc_rule(*m1, *m2, self.base)
        mu = m1.mu + m2.mu
        emitted: Dict[DiscMonomial, Coefficient] = {DiscMonomial(k, mu): f}
        for deg, c in cont.items():
            emitted[DiscMonomial(k + deg, mu)] = f * c
        return emitted

    def star_mono(self, m: DiscMonomial) -> Tuple[DiscMonomial | None, Coefficient]:
        return self._normalize(DiscMonomial(m.k, -m.mu), self.param_pow(m.k * m.mu))

    # -- generators ------------------------------------------------------

    def x(self, e: int = 1) -> DiscElement:
        return DiscElement(self, {DiscMonomial(0, e): ONE})

    def X(self, e: int = 1) -> DiscElement:
        return DiscElement(self, {DiscMonomial(e, 0): ONE})

    def monomial(self, k: int, mu: int, coeff: Coefficient = ONE) -> DiscElement:
        return DiscElement(self, {DiscMonomial(k, mu): coeff})


DISC = DiscAlgebra()
DISC_INV = DiscAlgebra(sign=-1)
DISC0 = DiscAlgebra(isometric=True)


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
    powX = [target.one()]

    def image(m: DiscMonomial) -> DiscElement:
        while len(powX) <= m.k:
            powX.append(powX[-1] * kX)
        return powX[m.k] * kx.pow_signed(m.mu)

    return r.mapped(image, target.zero())


# ---------------------------------------------------------------------------
# Heegaard quantum sphere
# ---------------------------------------------------------------------------


class SphereElement(AlgebraElement):
    __slots__ = ()
    _one = SPHERE_ONE
    mono_str = staticmethod(sphere_mono_str)
    # own bindings of the shared methods, so each can be wrapped per class
    __mul__ = AlgebraElement.__mul__
    star = AlgebraElement.star
    pow_signed = AlgebraElement.pow_signed

    def __init__(self, alg, terms=None):
        super().__init__(alg, terms)
        for m in self._t:
            if m.k < 0:
                raise ValueError("core powers are nonnegative")
            if m.core == CORE_B and m.k < 1:
                raise ValueError("B-core monomials need k >= 1")

    def degree_support(self) -> set:
        return {m.deg for m in self._t}

    def is_invariant(self, n: int) -> bool:
        if n < 1:
            raise ValueError("the cyclic order must be >= 1")
        return all(d % n == 0 for d in self.degree_support())


class SphereAlgebra(_EngineBase):
    elem_cls = SphereElement
    mono_mul = _EngineBase.mono_mul  # own binding, wrapped per class

    def __init__(self, isometric: bool = False):
        super().__init__("SPHERE0" if isometric else "SPHERE", isometric, ("p", "q"))

    @staticmethod
    def _gen_exp(m: SphereMonomial) -> int:
        return m.mu if m.core == CORE_A else m.nu

    def _mul_raw(self, m1: SphereMonomial, m2: SphereMonomial) -> Dict[SphereMonomial, Coefficient]:
        core1, k1, mu1, nu1 = m1
        core2, k2, mu2, nu2 = m2
        if k1 and k2 and core1 != core2:
            return {}  # AB = 0
        # one disc product per side: a at p, b at q; a core power goes to its side
        a1, a2 = (k1 if core1 == CORE_A else 0), (k2 if core2 == CORE_A else 0)
        ka, fa, cont_a = _disc_rule(a1, mu1, a2, mu2, ("p", 1))
        kb, fb, cont_b = _disc_rule(k1 - a1, nu1, k2 - a2, nu2, ("q", 1))
        f = fb if fa is ONE else fa  # k2 sits on one side, so fa or fb is ONE: fa*fb
        if nu1 and mu2:  # the first factor's b-powers cross the second's a-powers
            f = f * w_pow(-2 * nu1 * mu2)
        mu, nu = mu1 + mu2, nu1 + nu2
        emitted = {SphereMonomial(CORE_B, kb, mu, nu) if kb else SphereMonomial(CORE_A, ka, mu, nu): f}
        # a side's contraction terms survive only when the other side has no core
        if not kb:
            for deg, c in cont_a.items():
                emitted[SphereMonomial(CORE_A, ka + deg, mu, nu)] = f * c
        if not ka:
            for deg, c in cont_b.items():
                emitted[SphereMonomial(CORE_B, kb + deg, mu, nu)] = f * c
        return emitted

    def star_mono(self, m: SphereMonomial) -> Tuple[SphereMonomial | None, Coefficient]:
        e = self._gen_exp(m)
        f = var_pow("p" if m.core == CORE_A else "q", m.k * e) if m.k and e else ONE
        if m.mu and m.nu:
            f = f * w_pow(-2 * m.mu * m.nu)
        return self._normalize(SphereMonomial(m.core, m.k, -m.mu, -m.nu), f)

    # -- generators ------------------------------------------------------

    def a(self, e: int = 1) -> SphereElement:
        return SphereElement(self, {SphereMonomial(CORE_A, 0, e, 0): ONE})

    def b(self, e: int = 1) -> SphereElement:
        return SphereElement(self, {SphereMonomial(CORE_A, 0, 0, e): ONE})

    def A(self, e: int = 1) -> SphereElement:
        return SphereElement(self, {SphereMonomial(CORE_A, e, 0, 0): ONE})

    def B(self, e: int = 1) -> SphereElement:
        return SphereElement(self, {SphereMonomial(CORE_B, e, 0, 0): ONE})

    def z(self) -> SphereElement:
        return SphereElement(self, {SphereMonomial(CORE_A, 0, 1, -1): ONE})

    def monomial(self, core: int, k: int, mu: int, nu: int, coeff: Coefficient = ONE):
        return SphereElement(self, {SphereMonomial(core, k, mu, nu): coeff})


SPHERE = SphereAlgebra()
SPHERE0 = SphereAlgebra(isometric=True)


def add_on_core(acc, core, poly):
    """``acc`` plus a contraction polynomial evaluated on a core generator:
    the Y^deg term of ``poly`` becomes ``core(deg)`` scaled by its
    coefficient."""
    return acc + poly.mapped(core, acc)


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


def relation_residual(rid: str, **params) -> SphereElement:
    """Normal form of LHS - RHS for the named displayed identity in SPHERE."""
    rule = _RELATIONS.get(rid)
    if rule is None:
        raise UnknownRelationError(rid)
    return rule(SPHERE, **params)
