"""Hopf layer: cyclic and circle coordinate Hopf algebras, strong
connections with their three axioms, the associated idempotent recipe,
and the circle-prolongation isomorphism.

The cyclic coaction on the sphere is implemented through the integer
grading (monomial degree mod N) throughout — no numeric roots of unity
ever appear, so all arithmetic stays in the Laurent coefficient ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Tuple

from .scalars import (
    Coefficient,
    LinComb,
    ONE,
    ZERO,
    add_term,
    format_monomial,
    p_pow,
)
from .qalgebras import (
    CORE_A,
    SPHERE,
    SPHERE0,
    AlgebraElement,
    SphereAlgebra,
    SphereElement,
    SphereMonomial,
    SPHERE_ONE,
    sphere_mono_str,
)
from .matrix import Matrix
from .reports import CheckEntry, check


class _GroupLike(LinComb):
    """Span of the powers of one group-like unitary generator: each power
    m has comultiplication m (x) m, counit 1 and antipode -m."""

    __slots__ = ()
    _one = 0
    __str__ = LinComb.grouped_str

    def mono_str(self, m: int) -> str:
        return format_monomial(((self._gen, m),))

    def _reduce(self, m: int) -> int:
        return m

    def _mul_rule(self):
        reduce = self._reduce
        return lambda i, j: ((reduce(i + j), ONE),)

    def comultiply(self) -> Dict[Tuple[int, int], Coefficient]:
        return {(m, m): c for m, c in sorted(self._t.items())}

    def counit(self) -> Coefficient:
        return sum(self._t.values(), ZERO)

    def antipode(self):
        return self._new({self._reduce(-m): c for m, c in self._t.items()})


class CyclicHopfElement(_GroupLike):
    """Element of the order-N cyclic group coordinate Hopf algebra; the
    generator ut is unitary with ut^N = 1 (indices reduce mod N)."""

    __slots__ = ("N",)
    _ctx = "N"
    _gen = "ut"

    def __init__(self, N: int, coeffs: Dict[int, Coefficient]):
        if N < 1:
            raise ValueError("N must be >= 1")
        self.N = N
        self._t = {}
        for m, c in coeffs.items():
            add_term(self._t, m % N, c)

    def _reduce(self, m: int) -> int:
        return m % self.N

    @staticmethod
    def generator_power(N: int, m: int) -> "CyclicHopfElement":
        return CyclicHopfElement(N, {m: ONE})


class LaurentHopfElement(_GroupLike):
    """Element of the circle coordinate Hopf algebra on the unitary u."""

    __slots__ = ()
    _gen = "u"

    @staticmethod
    def generator_power(m: int) -> "LaurentHopfElement":
        return LaurentHopfElement({m: ONE})


def hopf_ops(h):
    """Comultiplication, counit and antipode (group-like rules, extended
    linearly)."""
    return h.comultiply(), h.counit(), h.antipode()


# ---------------------------------------------------------------------------
# Tensor squares and strong connections
# ---------------------------------------------------------------------------


class TensorSquare(AlgebraElement):
    """Finite combination of pure tensors of sphere basis monomials, with
    the product of A (x) A^op: (x (x) y)(v (x) w) = xv (x) wy."""

    __slots__ = ()
    __str__ = LinComb.grouped_str

    @staticmethod
    def mono_str(mm) -> str:
        return f"{sphere_mono_str(mm[0])} (x) {sphere_mono_str(mm[1])}"

    @staticmethod
    def of(x: SphereElement, y: SphereElement) -> "TensorSquare":
        terms = {(m1, m2): c1 * c2 for m1, c1 in x.terms() for m2, c2 in y.terms()}
        return TensorSquare(x.alg, terms)

    def _mul_rule(self):
        mono_mul = self.alg.mono_mul

        def rule(t1, t2):
            (x, y), (v, w) = t1, t2
            return [((ml, mr), cl * cr) for ml, cl in mono_mul(x, v) for mr, cr in mono_mul(w, y)]

        return rule

    def legs_multiplied_by_class(self, N: int) -> Dict[int, SphereElement]:
        """Multiply the legs of each term, grouped by right-leg degree mod N."""
        alg = self.alg
        classes = self.graded(lambda xy: xy[1].deg % N)
        return {
            d: img for d, part in classes.items()
            if (img := part.mapped(lambda xy: alg.element(dict(alg.mono_mul(*xy))), alg.zero()))
        }


@dataclass
class StrongConnection:
    N: int
    values: List[TensorSquare]
    variant: ConnectionVariant

    @property
    def algebra(self) -> SphereAlgebra:
        return self.values[0].alg


def _tensor_one(alg: SphereAlgebra) -> TensorSquare:
    return TensorSquare(alg, {(SPHERE_ONE, SPHERE_ONE): ONE})


def _connection_of_powers(N: int, ell1: TensorSquare, variant: ConnectionVariant) -> StrongConnection:
    """The connection whose value n, for n < N, is the n-th power of the
    degree-one value ``ell1``."""
    if N < 1:
        raise ValueError("N must be >= 1")
    values = [_tensor_one(ell1.alg), ell1][:N]
    while len(values) < N:
        values.append(ell1 * values[-1])
    return StrongConnection(N=N, values=values, variant=variant)


class ConnectionVariant(NamedTuple):
    """A strong-connection variant: the name its check ids carry, its
    ``--variant`` spelling, the paper tag of its checks, and the exponent of
    p in its degree-one coefficient (``None`` for the parameter-zero one)."""

    name: str
    cli: str
    tag: str
    p_exp: int | None

    def build(self, N: int) -> StrongConnection:
        """The connection of type N with values on the cyclic basis.  On the
        parameter-zero sphere value k is a*^k (x) a^k; on the generic sphere
        the degree-one value is a* (x) a + c * b*A (x) b with c = p^p_exp.
        The unit-return axiom forces c = p (a*a + c*b*Ab = 1 - pA + cA); the
        printed c = 1/p is kept for discrepancy reporting."""
        if self.p_exp is None:
            a = SPHERE0.a()
            return _connection_of_powers(N, TensorSquare.of(a.star(), a), self)
        ell1 = TensorSquare(
            SPHERE,
            {
                (SphereMonomial(CORE_A, 0, -1, 0), SphereMonomial(CORE_A, 0, 1, 0)): ONE,
                (SphereMonomial(CORE_A, 1, 0, -1), SphereMonomial(CORE_A, 0, 0, 1)): p_pow(self.p_exp),
            },
        )
        return _connection_of_powers(N, ell1, self)


# every variant, by the name that check ids carry
CONNECTION_VARIANTS: Dict[str, ConnectionVariant] = {v.name: v for v in (
    ConnectionVariant("corrected", "corrected", "algstrong", 1),
    ConnectionVariant("printed_p_inverse", "printed", "algstrong", -1),
    ConnectionVariant("isometric", "isometric", "c*strong", None),
)}


def strong_connection_algebraic(N: int, coefficient_variant: str = "corrected") -> StrongConnection:
    """Connection on the generic sphere (``ConnectionVariant.build``)."""
    variant = CONNECTION_VARIANTS.get(coefficient_variant)
    if variant is None or variant.p_exp is None:
        raise ValueError(f"unknown variant {coefficient_variant!r}")
    return variant.build(N)


def strong_connection_isometric(N: int) -> StrongConnection:
    """Connection on the parameter-zero sphere: value k is a*^k (x) a^k."""
    return CONNECTION_VARIANTS["isometric"].build(N)


def verify_strong_connection(conn: StrongConnection) -> List[CheckEntry]:
    """Check unitality, the unit-return axiom and both colinearity axioms
    for every cyclic basis element; ids read ``unit-return[n=1]``."""
    alg = conn.algebra
    N = conn.N
    tag = conn.variant.tag
    out = [check("unitality[n=0]", tag, conn.values[0] == _tensor_one(alg), str(conn.values[0]))]
    one = alg.one()
    for n, val in enumerate(conn.values):
        classes = val.legs_multiplied_by_class(N)
        bad = []
        for d in sorted(classes):
            expect = one if d == n % N else alg.zero()
            res = classes[d] - expect
            if res:
                bad.append(f"class {d}: {res}")
        if n % N not in classes:
            bad.append(f"class {n % N}: -1")
        out.append(check(f"unit-return[n={n}]", tag, not bad, "; ".join(bad)))
        for side, leg, sign in (("left", 0, -1), ("right", 1, 1)):
            degrees = {mm[leg].deg for mm, _ in val.terms()}
            off = sorted(d for d in degrees if (d - sign * n) % N)
            out.append(
                check(f"{side}-colinearity[n={n}]", tag, not off, f"offending {side} degrees {off}")
            )
    return out


# ---------------------------------------------------------------------------
# The associated idempotent
# ---------------------------------------------------------------------------


def associated_idempotent(conn: StrongConnection, n: int) -> Matrix:
    """Idempotent for the rank-one module attached to the n-th cyclic basis
    element: with the connection value written as sum_i x_i (x) e_i over
    linearly independent right legs (grouped by right basis monomial,
    ordered descending so the degree-one generator leg comes first), the
    matrix is e_i * x_j."""
    if not (1 <= n <= conn.N - 1):
        raise ValueError("n must satisfy 1 <= n <= N-1")
    alg = conn.algebra
    grouped = conn.values[n].graded(lambda mm: mm[1])
    right_legs = sorted(grouped, reverse=True)
    xs = [SphereElement(alg, {x: c for (x, _), c in grouped[m].terms()}) for m in right_legs]
    es = [SphereElement(alg, {m: ONE}) for m in right_legs]
    return Matrix([[e * x for x in xs] for e in es])


@dataclass
class IdempotentCheck:
    idempotent: bool
    invariant: bool
    residuals: List[Tuple[int, int, str]] = field(default_factory=list)


def idempotent_check(E: Matrix, N: int) -> IdempotentCheck:
    if E.rows != E.cols:
        raise ValueError("idempotent check needs a square matrix")
    diff = (E * E) - E
    residuals = []
    for i in range(E.rows):
        for j in range(E.cols):
            if diff[i][j]:
                residuals.append((i, j, str(diff[i][j])))
    invariant = all(e.is_invariant(N) for row in E for e in row)
    return IdempotentCheck(idempotent=not residuals, invariant=invariant, residuals=residuals)


# ---------------------------------------------------------------------------
# Circle prolongation
# ---------------------------------------------------------------------------


class ProlongElement(AlgebraElement):
    """Combination of pure tensors (sphere monomial) (x) u^m.

    The same container represents both the plain tensor product and the
    invariant subalgebra; the maps below convert between the two roles.
    The circle leg is central, so tensors print as plain products.
    """

    __slots__ = ()
    _one = (SPHERE_ONE, 0)

    def __init__(self, alg: SphereAlgebra = SPHERE, terms=None):
        super().__init__(alg, terms)

    @staticmethod
    def mono_str(t) -> str:
        return sphere_mono_str(t[0], ("u", t[1]))

    @staticmethod
    def of(x: SphereElement, h: LaurentHopfElement) -> "ProlongElement":
        terms = {(mono, m): c1 * c2 for mono, c1 in x.terms() for m, c2 in h.terms()}
        return ProlongElement(x.alg, terms)

    def _mul_rule(self):
        mono_mul = self.alg.mono_mul
        return lambda t1, t2: [((mono, t1[1] + t2[1]), f) for mono, f in mono_mul(t1[0], t2[0])]

    def _star_rule(self):
        star_mono = self.alg.star_mono

        def rule(t):
            mono, f = star_mono(t[0])
            return (None if mono is None else (mono, -t[1])), f

        return rule


def prolong_phi(x: SphereElement, h: LaurentHopfElement, N: int) -> ProlongElement:
    """x (x) u^m  ->  x (x) u^(deg x + N m), term by term."""
    return prolong_phi_map(ProlongElement.of(x, h), N)


def prolong_phi_map(t: ProlongElement, N: int) -> ProlongElement:
    """prolong_phi on an element in tensor form: one-to-one on monomials."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return t._new({(mono, mono.deg + N * m): c for (mono, m), c in t.terms()})


def prolong_phi_inv(t: ProlongElement, N: int) -> ProlongElement:
    """Exact inverse: (x, m) -> (x, (m - deg x)/N); domain error off the
    invariant subalgebra."""
    if N < 1:
        raise ValueError("N must be >= 1")
    out: Dict[Tuple[SphereMonomial, int], Coefficient] = {}
    for (mono, m), c in t.terms():
        d = mono.deg
        if (m - d) % N != 0:
            raise ValueError(
                f"term of tensor degree {m} over monomial degree {d} is not invariant mod {N}"
            )
        out[(mono, (m - d) // N)] = c
    return ProlongElement(t.alg, out)


def prolong_action(t: ProlongElement, N: int) -> Dict[int, ProlongElement]:
    """Spectral decomposition of the cyclic action: terms grouped by the
    weight (deg x - m) mod N.  The generator acts on the weight-w part by
    the w-th power of the cyclic phase, so the decomposition determines
    the action; only the weight data is ever needed."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return t.graded(lambda mm: (mm[0].deg - mm[1]) % N)


def prolong_is_invariant(t: ProlongElement, N: int) -> bool:
    return set(prolong_action(t, N)) <= {0}


def prolong_project(t: ProlongElement, N: int) -> ProlongElement:
    """Orbit average: the weight-zero part."""
    return prolong_action(t, N).get(0, ProlongElement(t.alg))
