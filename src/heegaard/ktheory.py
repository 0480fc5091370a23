"""Integer-matrix K-theory and the symbolic pullback models.

Smith normal form and finitely generated abelian groups drive the
Mayer-Vietoris solver; the crossed-product and torus models (at parameter
zero) realize the pullback presentation, and the Bass connecting
homomorphism's block idempotent is verified symbolically inside it.

All matrix arithmetic is arbitrary-precision integer; group extensions
are resolved only via freeness splitting and anything else is reported
indeterminate rather than guessed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .scalars import Coefficient, ONE, format_monomial, w_pow
from .qalgebras import DISC0, Algebra, AlgebraElement, DiscMonomial, disc_mono_str
from .matrix import Matrix
from .reports import CheckEntry, check, check_zero


# ---------------------------------------------------------------------------
# Integer matrices and Smith normal form
# ---------------------------------------------------------------------------


def mat_det(m: List[List[int]]) -> int:
    """Fraction-free (Bareiss) determinant."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_normal_form(m: List[List[int]]) -> Tuple[list, list, list]:
    """(U, D, V) with D = U m V diagonal, U and V unimodular, and the
    diagonal entries nonnegative in a divisibility chain.

    Classical pivoting: clear the pivot row/column by Euclidean steps
    (each leftover remainder strictly shrinks the pivot), then demand the
    pivot divide the whole remaining submatrix, folding any offending row
    in and re-clearing.  Both loops strictly decrease |pivot|, so the
    reduction terminates and the chain holds by construction.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    d = [row[:] for row in m]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_op(i1, i2, c):  # row i1 -= c * row i2
        di1, di2, ui1, ui2 = d[i1], d[i2], u[i1], u[i2]
        for j in range(cols):
            di1[j] -= c * di2[j]
        for j in range(rows):
            ui1[j] -= c * ui2[j]

    def col_op(j1, j2, c):  # col j1 -= c * col j2
        for i in range(rows):
            d[i][j1] -= c * d[i][j2]
        for i in range(cols):
            v[i][j1] -= c * v[i][j2]

    def swap_rows(i1, i2):
        d[i1], d[i2] = d[i2], d[i1]
        u[i1], u[i2] = u[i2], u[i1]

    def swap_cols(j1, j2):
        for i in range(rows):
            d[i][j1], d[i][j2] = d[i][j2], d[i][j1]
        for i in range(cols):
            v[i][j1], v[i][j2] = v[i][j2], v[i][j1]

    t = 0
    while t < min(rows, cols):
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                a = abs(d[i][j])
                if a and (best is None or a < best):
                    pivot, best = (i, j), a
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        while True:
            # clear column t; a nonzero remainder becomes the new, smaller pivot
            restart = False
            for i in range(t + 1, rows):
                while d[i][t]:
                    c = d[i][t] // d[t][t]
                    if c:
                        row_op(i, t, c)
                    if d[i][t]:
                        swap_rows(t, i)
                        restart = True
            for j in range(t + 1, cols):
                while d[t][j]:
                    c = d[t][j] // d[t][t]
                    if c:
                        col_op(j, t, c)
                    if d[t][j]:
                        swap_cols(t, j)
                        restart = True
            if restart:
                continue
            # pivot must divide the remaining submatrix for the chain
            offender = None
            piv = d[t][t]
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if d[i][j] % piv:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -1)  # fold the offending row into row t
        t += 1
    for i in range(min(rows, cols)):
        if d[i][i] < 0:
            for j in range(cols):
                d[i][j] = -d[i][j]
            for j in range(rows):
                u[i][j] = -u[i][j]
    return u, d, v


# ---------------------------------------------------------------------------
# Finitely generated abelian groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbelianGroup:
    """Invariant-factor form: torsion d1 | d2 | ... (each >= 2) plus a free rank."""

    torsion: Tuple[int, ...]
    free_rank: int

    def __post_init__(self):
        for i, d in enumerate(self.torsion):
            if d < 2:
                raise ValueError("invariant factors are >= 2")
            if i and d % self.torsion[i - 1] != 0:
                raise ValueError("invariant factors must form a divisibility chain")
        if self.free_rank < 0:
            raise ValueError("free rank is nonnegative")

    def __str__(self):
        parts = [f"Z/{d}" for d in self.torsion] + ["Z"] * self.free_rank
        return " + ".join(parts) if parts else "0"

    @staticmethod
    def free(rank: int) -> "AbelianGroup":
        return AbelianGroup((), rank)

    @staticmethod
    def cyclic(n: int) -> "AbelianGroup":
        if n == 0:
            return AbelianGroup((), 1)
        if n == 1:
            return AbelianGroup((), 0)
        return AbelianGroup((n,), 0)

    def direct_sum(self, other: "AbelianGroup") -> "AbelianGroup":
        if not self.torsion or not other.torsion:
            return AbelianGroup(self.torsion + other.torsion, self.free_rank + other.free_rank)
        # re-normalize the merged torsion via a diagonal matrix
        diag = list(self.torsion) + list(other.torsion)
        n = len(diag)
        m = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        return cokernel(m).direct_sum(AbelianGroup.free(self.free_rank + other.free_rank))


def matrix_rank(m: List[List[int]]) -> int:
    _, d, _ = smith_normal_form(m)
    return sum(1 for i in range(min(len(d), len(d[0]) if d else 0)) if d[i][i])


def cokernel(m: List[List[int]]) -> AbelianGroup:
    """Cokernel of the column-action map Z^cols -> Z^rows."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if rows == 0:
        return AbelianGroup.free(0)
    if cols == 0:
        return AbelianGroup.free(rows)
    _, d, _ = smith_normal_form(m)
    diag = [d[i][i] for i in range(min(rows, cols))]
    rank = sum(1 for x in diag if x)
    torsion = tuple(x for x in diag if x >= 2)
    return AbelianGroup(torsion, rows - rank)


def kernel_rank(m: List[List[int]]) -> int:
    cols = len(m[0]) if m else 0
    return cols - matrix_rank(m) if cols else 0


# ---------------------------------------------------------------------------
# Mayer-Vietoris solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MayerVietorisResult:
    k0: Optional[AbelianGroup]
    k1: Optional[AbelianGroup]
    ambiguous: bool = False
    reason: str = ""


def lens_k_data(N: int) -> Tuple[List[List[int]], List[List[int]]]:
    """Difference maps of the two projection legs on the even and odd
    K-groups of the pullback presentation: (m, n) -> (m - n, 0) and
    (m, n) -> (-N n, m - n)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    m0 = [[1, -1], [0, 0]]
    m1 = [[0, -N], [1, -1]]
    return m0, m1


def mayer_vietoris_solve(m0: List[List[int]], m1: List[List[int]]) -> MayerVietorisResult:
    """K-groups of the pullback from the two difference maps.

    Even part: 0 -> coker(m1) -> K0 -> ker(m0) -> 0, split since the
    kernel of a map of free groups is free.  Odd part dually with the
    roles swapped; the contract requires the odd-side cokernel summand to
    be free, otherwise the extension is reported ambiguous rather than
    resolved by guesswork.
    """
    coker1 = cokernel(m1)
    k0 = coker1.direct_sum(AbelianGroup.free(kernel_rank(m0)))
    coker0 = cokernel(m0)
    if coker0.torsion:
        return MayerVietorisResult(
            k0=k0,
            k1=None,
            ambiguous=True,
            reason="extension ambiguous: odd-side cokernel has torsion "
            f"{list(coker0.torsion)}",
        )
    k1 = coker0.direct_sum(AbelianGroup.free(kernel_rank(m1)))
    return MayerVietorisResult(k0=k0, k1=k1)


def lens_k_groups(N: int) -> MayerVietorisResult:
    m0, m1 = lens_k_data(N)
    return mayer_vietoris_solve(m0, m1)


# ---------------------------------------------------------------------------
# Crossed-product and torus models (parameter-zero disc)
# ---------------------------------------------------------------------------


class CrossedElement(AlgebraElement):
    __slots__ = ()
    _one = (DiscMonomial(0, 0), 0)

    @staticmethod
    def mono_str(t) -> str:
        return disc_mono_str(t[0], ("u", t[1]))


class CrossedAlgebra(Algebra):
    """The disc at zero (``DISC0``) crossed by the integers:
    u x = w^(2 s t) x u, with s the twist sign and t the twist multiple
    (t = 1 at sphere level, t = N at lens level)."""

    elem_cls = CrossedElement

    def __init__(self, sign: int, mult: int = 1):
        if sign not in (1, -1):
            raise ValueError("twist sign must be +1 or -1")
        if mult < 1:
            raise ValueError("twist multiple must be >= 1")
        self.sign = sign
        self.mult = mult

    def twist_phase(self, mu: int, n: int) -> Coefficient:
        """Phase for commuting u^n across x^mu."""
        return w_pow(2 * self.sign * self.mult * mu * n)

    def mono_mul(self, t1, t2):
        (f1, n1), (f2, n2) = t1, t2
        # u^n1 crosses the disc part f2: each x-power picks up the twist
        phase = self.twist_phase(f2.mu, n1)
        return [((mono, n1 + n2), f * phase) for mono, f in DISC0.mono_mul(f1, f2)]

    def star_mono(self, t):
        f, n = t
        mono, fac = DISC0.star_mono(f)
        if mono is None:
            return None, fac
        # (f u^n)* = u^-n f* ; cross u^-n to the right of the starred part
        return (mono, -n), fac * self.twist_phase(mono.mu, -n)

    def x(self, e: int = 1) -> CrossedElement:
        return CrossedElement(self, {(DiscMonomial(0, e), 0): ONE})

    def X(self, e: int = 1) -> CrossedElement:
        return CrossedElement(self, {(DiscMonomial(e, 0), 0): ONE})

    def u(self, n: int = 1) -> CrossedElement:
        return CrossedElement(self, {(DiscMonomial(0, 0), n): ONE})


class TorusElement(AlgebraElement):
    __slots__ = ()
    _one = (0, 0)

    @staticmethod
    def mono_str(ab) -> str:
        return format_monomial((("Z", ab[0]), ("U", ab[1])))


class TorusAlgebra(Algebra):
    """Two unitaries with U Z = w^(2 t) Z U, stored Z-first."""

    elem_cls = TorusElement

    def __init__(self, mult: int = 1):
        if mult < 1:
            raise ValueError("twist multiple must be >= 1")
        self.mult = mult

    def Z(self, a: int = 1) -> TorusElement:
        return TorusElement(self, {(a, 0): ONE})

    def U(self, b: int = 1) -> TorusElement:
        return TorusElement(self, {(0, b): ONE})

    def mono_mul(self, ab1, ab2):
        (a1, b1), (a2, b2) = ab1, ab2
        return (((a1 + a2, b1 + b2), w_pow(2 * self.mult * b1 * a2)),)

    def star_mono(self, ab):
        a, b = ab
        return (-a, -b), w_pow(2 * self.mult * a * b)


def project_to_torus(c: CrossedElement, leg: int, torus: TorusAlgebra | None = None) -> TorusElement:
    """Leg-1 projection sends x -> Z, u -> U; leg-2 sends x -> Z^-1 and
    u -> w^(t(t-1)) Z^t U with t the twist multiple.  Core terms die."""
    t = c.alg.mult
    if leg == 1:
        if c.alg.sign != 1:
            raise ValueError("leg 1 projects the positive-twist algebra")
    elif leg == 2:
        if c.alg.sign != -1:
            raise ValueError("leg 2 projects the negative-twist algebra")
    else:
        raise ValueError("leg must be 1 or 2")
    if torus is None:
        torus = TorusAlgebra(t)
    if torus.mult != t:
        raise ValueError("torus twist multiple must match the crossed product")
    if leg == 1:
        img_x = torus.Z()
        img_u = torus.U()
    else:
        img_x = torus.Z(-1)
        img_u = torus.Z(t) * torus.U() * w_pow(t * (t - 1))

    def image(term):
        mono, n = term
        return torus.zero() if mono.k else img_x.pow_signed(mono.mu) * img_u.pow_signed(n)

    return c.mapped(image, torus.zero())


# ---------------------------------------------------------------------------
# Pullback pairs and the Bass block idempotent
# ---------------------------------------------------------------------------


class PullbackMismatchError(ValueError):
    def __init__(self, residual: TorusElement):
        super().__init__(f"leg projections differ by {residual}")
        self.residual = residual


@dataclass(frozen=True)
class PullbackElement:
    """A pair of crossed-product elements whose leg projections agree, as
    ``pullback_make`` checks.  The ring operations act leg by leg; sums,
    products, adjoints and scalar multiples of pairs are pairs again."""

    plus: CrossedElement
    minus: CrossedElement

    def __str__(self):
        return f"({self.plus}, {self.minus})"

    def is_zero(self) -> bool:
        return self.plus.is_zero() and self.minus.is_zero()

    def __add__(self, other: "PullbackElement") -> "PullbackElement":
        return PullbackElement(self.plus + other.plus, self.minus + other.minus)

    def __sub__(self, other: "PullbackElement") -> "PullbackElement":
        return PullbackElement(self.plus - other.plus, self.minus - other.minus)

    def __mul__(self, other: "PullbackElement") -> "PullbackElement":
        return PullbackElement(self.plus * other.plus, self.minus * other.minus)

    def star(self) -> "PullbackElement":
        return PullbackElement(self.plus.star(), self.minus.star())

    def scale(self, c: Coefficient) -> "PullbackElement":
        return PullbackElement(self.plus.scale(c), self.minus.scale(c))


def pullback_make(a_plus: CrossedElement, a_minus: CrossedElement,
                  torus: TorusAlgebra | None = None) -> PullbackElement:
    if a_plus.alg.mult != a_minus.alg.mult:
        raise ValueError("twist multiples differ")
    if torus is None:
        torus = TorusAlgebra(a_plus.alg.mult)
    res = project_to_torus(a_plus, 1, torus) - project_to_torus(a_minus, 2, torus)
    if res:
        raise PullbackMismatchError(res)
    return PullbackElement(a_plus, a_minus)


def bass_idempotent(c, d, u_mat, minus_alg: CrossedAlgebra, torus: TorusAlgebra | None = None) -> Matrix:
    """Block idempotent of the connecting homomorphism for the class of
    the invertible matrix u_mat (torus entries), lifted through c and d
    (plus-leg entries); each of the three is a ``Matrix`` or its rows.

    The lifting conditions (leg projection of d equals u_mat; of c, a
    two-sided inverse of u_mat) are verified, not assumed, and the result
    is verified to square to itself before being returned.
    """
    c, d, u_mat = Matrix(c), Matrix(d), Matrix(u_mat)
    n = c.rows
    alg = c[0][0].alg
    if torus is None:
        torus = TorusAlgebra(alg.mult)
    pc, pd = (m.map(lambda e: project_to_torus(e, 1, torus)) for m in (c, d))
    ident = Matrix.identity(n, torus.one(), torus.zero())
    if pd != u_mat:
        raise ValueError("leg projection of d does not equal the given matrix")
    if pc * u_mat != ident or u_mat * pc != ident:
        raise ValueError("leg projection of c is not a two-sided inverse")
    dc = d * c
    one_minus_dc = Matrix.identity(n, alg.one(), alg.zero()) - dc
    c_two_minus_dc = c * (Matrix.identity(n, alg.scalar(2), alg.zero()) - dc)
    plus = Matrix.block([
        [c_two_minus_dc * d, c_two_minus_dc * one_minus_dc],
        [one_minus_dc * d, one_minus_dc * one_minus_dc],
    ])
    mone, mzero = minus_alg.one(), minus_alg.zero()
    zeros = Matrix.identity(n, mzero, mzero)
    minus = Matrix.block([[Matrix.identity(n, mone, mzero), zeros], [zeros, zeros]])
    out = plus.map(lambda a, b: pullback_make(a, b, torus), minus)
    # symbolic idempotency check
    square = out * out
    for i in range(2 * n):
        for j in range(2 * n):
            got, want = square[i][j], out[i][j]
            if got != want:
                leg = "plus" if got.plus != want.plus else "minus"
                raise AssertionError(f"connecting idempotent fails to square on the {leg} leg at {(i, j)}")
    return out


@dataclass
class BassReport:
    N: int
    matrix_identity: bool
    idempotent_matrix: Matrix | None  # None when it was not built
    valid_pullback_pair: bool
    torsion_order: int
    entries: List[CheckEntry] = field(default_factory=list)
    not_built: str = ""  # why the idempotent was not built


def sphere_pullback_consistency() -> List[CheckEntry]:
    """Verify that the pair identification of the two degree-one pullback
    generators satisfies the sphere relations at parameter zero; this
    pins the crossed-product commutation phase convention."""
    plus = CrossedAlgebra(1, 1)
    minus = CrossedAlgebra(-1, 1)
    torus = TorusAlgebra(1)
    cids = ("ab-phase", "abstar-phase", "a-isometry", "b-isometry", "core-product")
    try:
        a = pullback_make(plus.u(), minus.x() * minus.u(), torus)
        b = pullback_make(plus.x() * plus.u(), minus.u(), torus)
    except PullbackMismatchError as exc:
        # the generators are no pullback pairs: every relation fails with why
        return [check(f"pullback:{cid}", "thm:not-free", False, str(exc)) for cid in cids]

    one = PullbackElement(plus.one(), minus.one())
    astar, bstar = a.star(), b.star()
    residuals = (
        a * b - (b * a).scale(w_pow(2)),
        a * bstar - (bstar * a).scale(w_pow(-2)),
        astar * a - one,
        bstar * b - one,
        (one - a * astar) * (one - b * bstar),
    )
    return [check_zero(f"pullback:{cid}", "thm:not-free", res) for cid, res in zip(cids, residuals)]


def bass_class_report(N: int) -> BassReport:
    """Build the connecting idempotent for the canonical unitary of the
    lens pullback, verify the displayed block identity, and cross-reference
    the torsion order against the Mayer-Vietoris computation."""
    if N < 1:
        raise ValueError("N must be >= 1")
    plus = CrossedAlgebra(1, N)
    minus = CrossedAlgebra(-1, N)
    torus = TorusAlgebra(N)
    try:
        p_u, not_built = bass_idempotent([[plus.x().star()]], [[plus.x()]], [[torus.Z()]], minus, torus), ""
    except (ValueError, AssertionError) as exc:
        # a failed lifting or idempotency self-check fails the checks that read p_U
        p_u, not_built = None, str(exc)
    xxs = plus.x() * plus.x().star()
    one = PullbackElement(plus.one(), minus.one())
    zero = PullbackElement(plus.zero(), minus.zero())
    expected = Matrix([[one, zero], [zero, PullbackElement(plus.one() - xxs, minus.zero())]])
    matrix_identity = p_u == expected
    # the displayed identity: p_U = 1 - diag(0, (x x*, 1))
    try:
        pair, pair_error = pullback_make(xxs, minus.one(), torus), ""
    except PullbackMismatchError as exc:
        pair, pair_error = None, str(exc)
    valid_pair = pair is not None
    identity_holds = matrix_identity and valid_pair and p_u[1][1] == one - pair
    mv = lens_k_groups(N)
    order = mv.k0.torsion[0] if mv.k0 and mv.k0.torsion else 1
    tag = "thm:not-free"
    entries = [
        check("bass:block-matrix", tag, matrix_identity, not_built or "block mismatch"),
        check("bass:pullback-pair", tag, valid_pair, pair_error),
        check("bass:complement-identity", tag, identity_holds, not_built or pair_error or "complement mismatch"),
        check("bass:torsion-order", tag, order == (N if N > 1 else 1), f"order {order}"),
        *sphere_pullback_consistency(),
    ]
    return BassReport(
        N=N,
        matrix_identity=matrix_identity and identity_holds,
        idempotent_matrix=p_u,
        valid_pullback_pair=valid_pair,
        torsion_order=order,
        entries=entries,
        not_built=not_built,
    )
