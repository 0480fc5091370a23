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

The ``reference_*`` functions below them are the hand loops that linear maps
and gradings replaced (``LinComb.mapped`` and ``LinComb.graded``), kept as
they were written, so test_linear_maps.py can compare each new body with
its old one.
"""

from typing import Dict, List, Tuple

from heegaard.lens import CORE_APRIME, LensElement, LensMonomial, _basis_image
from heegaard.ktheory import TorusAlgebra
from heegaard.principal import ProlongElement
from heegaard.qalgebras import (
    CORE_A,
    CORE_B,
    DISC,
    DISC_INV,
    SPHERE,
    DiscElement,
    DiscMonomial,
    SphereElement,
    SphereMonomial,
)
from heegaard.scalars import (
    ONE,
    ZERO,
    Coefficient,
    EvaluationError,
    QPoly,
    add_term,
    qpoly_Qpair_base,
    signed_join,
    var_pow,
    w_pow,
)
from heegaard.units import SplitTerm


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


# ---------------------------------------------------------------------------
# The hand loops that LinComb.mapped and LinComb.graded replaced
# ---------------------------------------------------------------------------


def reference_lens_from_abstract(t: LensElement) -> SphereElement:
    """Apply f term by term, summing the images of the basis monomials."""
    N = t.N
    out: Dict[SphereMonomial, Coefficient] = {}
    for m, c in t.terms():
        for im, ic in _basis_image(N, m).terms():
            add_term(out, im, ic * c)
    return SPHERE.element(out)


def reference_add_on_core(acc, core, poly):
    out = dict(acc.terms())
    for deg, c in poly.items():
        for m, cm in core(deg).terms():
            add_term(out, m, cm * c)
    return acc._new(out)


def reference_kappa_iso(r: DiscElement) -> DiscElement:
    if r.alg is not DISC:
        raise ValueError("kappa_iso is defined on the parameter-p disc")
    target = DISC_INV
    kx = target.x().star()
    kX = target.one() - kx * kx.star()
    out = target.zero()
    powX: Dict[int, DiscElement] = {0: target.one()}
    for (k, mu), c in sorted(r.terms()):
        while k not in powX:
            powX[len(powX)] = powX[len(powX) - 1] * kX
        out = out + (powX[k] * kx.pow_signed(mu)).scale(c)
    return out


def reference_project_to_torus(c, leg: int, torus: TorusAlgebra | None = None):
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
    out = torus.zero()
    for (mono, n), coeff in sorted(c.terms()):
        if mono.k:
            continue
        out = out + (img_x.pow_signed(mono.mu) * img_u.pow_signed(n)).scale(coeff)
    return out


def reference_subspace_classify(t: LensElement) -> Tuple[LensElement, LensElement, LensElement]:
    va: Dict[LensMonomial, Coefficient] = {}
    v0: Dict[LensMonomial, Coefficient] = {}
    vb: Dict[LensMonomial, Coefficient] = {}
    for m, c in t.terms():
        if m.core == CORE_APRIME:
            va[m] = c
        elif m.k == 0:
            v0[m] = c
        else:
            vb[m] = c
    return LensElement(t.N, va), LensElement(t.N, v0), LensElement(t.N, vb)


def reference_subspace_split(r: SphereElement, variant: str) -> Tuple[SphereElement, SphereElement]:
    first: Dict[SphereMonomial, Coefficient] = {}
    second: Dict[SphereMonomial, Coefficient] = {}
    if variant == "X+Y1":
        for m, c in r.terms():
            (first if m.core == CORE_A else second)[m] = c
    elif variant == "X1+Y":
        for m, c in r.terms():
            (first if (m.core == CORE_A and m.k > 0) else second)[m] = c
    else:
        raise ValueError(f"unknown splitting variant {variant!r}")
    return SphereElement(r.alg, first), SphereElement(r.alg, second)


def reference_prolong_action(t: ProlongElement, N: int) -> Dict[int, ProlongElement]:
    if N < 1:
        raise ValueError("N must be >= 1")
    buckets: Dict[int, Dict[Tuple[SphereMonomial, int], Coefficient]] = {}
    for (mono, m), c in t.terms():
        w = (mono.mu + mono.nu - m) % N
        buckets.setdefault(w, {})[(mono, m)] = c
    return {w: ProlongElement(t.alg, b) for w, b in buckets.items()}


def reference_legs_multiplied_by_class(tensor, N: int) -> Dict[int, SphereElement]:
    acc: Dict[int, Dict[SphereMonomial, Coefficient]] = {}
    for (x, y), c in tensor._t.items():
        bucket = acc.setdefault((y.mu + y.nu) % N, {})
        for mono, f in tensor.alg.mono_mul(x, y):
            add_term(bucket, mono, c * f)
    return {d: SphereElement(tensor.alg, t) for d, t in acc.items() if t}


def reference_right_leg_grouping(tensor) -> Dict[SphereMonomial, Dict[SphereMonomial, Coefficient]]:
    """The grouping that ``associated_idempotent`` ran on a connection value."""
    grouped: Dict[SphereMonomial, Dict[SphereMonomial, Coefficient]] = {}
    for (m1, m2), c in tensor.terms():
        grouped.setdefault(m2, {})[m1] = c
    return grouped


def reference_split_expansion(r: SphereElement) -> List[SplitTerm]:
    gammas: Dict[Tuple[int, int], Coefficient] = {}
    alphas: Dict[Tuple[int, int], Dict[int, Coefficient]] = {}
    betas: Dict[Tuple[int, int], Dict[int, Coefficient]] = {}
    for m, c in r.terms():
        key = (m.mu, m.nu)
        if m.k == 0:
            gammas[key] = gammas.get(key, ZERO) + c
        elif m.core == CORE_A:
            alphas.setdefault(key, {})[m.k] = c
        else:
            betas.setdefault(key, {})[m.k] = c
    out = []
    for key in sorted(set(gammas) | set(alphas) | set(betas)):
        out.append(
            SplitTerm(
                mu=key[0],
                nu=key[1],
                gamma=gammas.get(key, ZERO),
                alpha=QPoly(alphas.get(key, {})),
                beta=QPoly(betas.get(key, {})),
            )
        )
    return out


def reference_deg_extreme(r: SphereElement, side: str, which: str) -> Tuple[int, int]:
    """The index set read from the split expansion, one side at a time."""
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    if which not in ("max", "min"):
        raise ValueError("which must be 'max' or 'min'")
    idx = []
    for t in reference_split_expansion(r):
        zero_a_side = t.gamma.is_zero() and t.alpha.is_zero()
        zero_b_side = t.gamma.is_zero() and t.beta.is_zero()
        nz = not (zero_a_side if side == "A" else zero_b_side)
        if nz:
            idx.append((t.mu, t.nu))
    if not idx:
        raise ValueError(f"empty index set on side {side}")
    return max(idx) if which == "max" else min(idx)
