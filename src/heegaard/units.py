"""Coefficient-polynomial splittings and the unit decision procedure.

Every sphere element is a finite sum C_{mu,nu}(A,B) a^mu b^nu where each
C has no mixed monomials, so it splits uniquely as a constant plus a
pure-A polynomial plus a pure-B polynomial.  The lexicographic extrema of
the index sets are additive on products with nonzero leading parts, which
is what forces invertible elements down to scalars; the decision
procedure relies on that fact for completeness and on verify_inverse for
soundness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .scalars import Coefficient, QPoly, ZERO
from .qalgebras import CORE_A, CORE_B, SphereElement


@dataclass(frozen=True)
class SplitTerm:
    """The (mu, nu) coefficient polynomial split as gamma + alpha(A) + beta(B)."""

    mu: int
    nu: int
    gamma: Coefficient
    alpha: QPoly  # zero constant term
    beta: QPoly  # zero constant term


def split_expansion(r: SphereElement) -> List[SplitTerm]:
    """Group the basis terms of r by (mu, nu); lossless.  In normal form the
    one core-free monomial of an index carries CORE_A."""
    out = []
    for (mu, nu), part in sorted(r.graded(lambda m: (m.mu, m.nu)).items()):
        gamma, alpha, beta = ZERO, {}, {}
        for m, c in part.terms():
            if m.k == 0:
                gamma = c
            else:
                (alpha if m.core == CORE_A else beta)[m.k] = c
        out.append(SplitTerm(mu, nu, gamma, QPoly(alpha), QPoly(beta)))
    return out


def subspace_split(r: SphereElement, variant: str) -> Tuple[SphereElement, SphereElement]:
    """Split along one of the two direct sums.

    variant "X+Y1": first part spans A^k a^mu b^nu (k >= 0), second part
    the strictly-positive B-core family; variant "X1+Y" dually.
    """
    if variant == "X+Y1":
        parts = r.graded(lambda m: m.core == CORE_A)
    elif variant == "X1+Y":
        parts = r.graded(lambda m: m.core == CORE_A and m.k > 0)
    else:
        raise ValueError(f"unknown splitting variant {variant!r}")
    return parts.get(True, r.alg.zero()), parts.get(False, r.alg.zero())


def deg_extreme(r: SphereElement, side: str, which: str) -> Tuple[int, int]:
    """Lexicographic max/min of the index set with nonzero gamma+alpha
    (side 'A') or gamma+beta (side 'B'), read off the support: the (mu, nu)
    of every term on that side's core, and of every core-free term."""
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    if which not in ("max", "min"):
        raise ValueError("which must be 'max' or 'min'")
    core = CORE_A if side == "A" else CORE_B
    idx = [(m.mu, m.nu) for m, _ in r.terms() if m.core == core or not m.k]
    if not idx:
        raise ValueError(f"empty index set on side {side}")
    return max(idx) if which == "max" else min(idx)


def is_unit(r: SphereElement) -> Optional[Coefficient]:
    """The scalar c when r = c*1 with c invertible in the coefficient ring
    (a signed monomial); None otherwise.

    Completeness comes from the theorem that the only invertibles are
    nonzero scalar multiples of the identity; a nonzero scalar that is not
    a signed monomial has no inverse in the Laurent coefficient model
    (over the complex field it would invert, which reports distinguish).
    """
    items = list(r.terms())
    if len(items) != 1:
        return None
    mono, c = items[0]
    if mono.k != 0 or mono.mu != 0 or mono.nu != 0:
        return None
    if c.unit_inverse() is None:
        return None
    return c


def verify_inverse(r: SphereElement, s: SphereElement) -> bool:
    one = r.alg.one()
    return (r * s) == one and (s * r) == one
