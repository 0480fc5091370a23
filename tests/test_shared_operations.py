"""Every body that one of the package's own operations replaced, against
the old body kept here verbatim: stepwise disc powers (now
``pow_signed``), summed deformed integers (now built from their unit
digits, the binomial C(n, 1)), lens atoms raised by transported products
(now ``lens_gen(N, g, e)``) and one-term transports (now
``_basis_image``)."""

import sys

import pytest

from heegaard.expr import DIALECTS
from heegaard.lens import (
    CORE_APRIME,
    CORE_BPRIME,
    LENS_GENERATORS,
    LensElement,
    LensMonomial,
    _basis_image,
    lens_from_abstract,
    lens_gen,
)
from heegaard.qalgebras import DISC
from heegaard.scalars import ONE, ZERO, _check_var, qbinomial, qint, var_pow
from heegaard.suites import SUITE_DEFAULTS


def _stepwise_power(d, e: int):
    gen = d.x() if e >= 0 else d.x().star()
    acc = d.one()
    for _ in range(abs(e)):
        acc = acc * gen
    return acc


def summed_qint(n: int, var: str = "p"):
    """1 + v + ... + v^(n-1); zero for n = 0."""
    _check_var(var)
    if n < 0:
        raise ValueError("deformed integers are defined for n >= 0")
    acc = ZERO
    for m in range(n):
        acc = acc + var_pow(var, m)
    return acc


def test_disc_powers_match_the_stepwise_products():
    x = DISC.x()
    for mu in range(-10, 11):
        assert x.pow_signed(mu) == _stepwise_power(DISC, mu), mu


@pytest.mark.parametrize("var", ["p", "q"])
def test_deformed_integers_match_their_sums(var):
    for n in range(0, 71):
        got, want = qint(n, var), summed_qint(n, var)
        assert (got, hash(got), str(got)) == (want, hash(want), str(want)), n
        # and the binomial C(n, 1), in value and form
        binomial = qbinomial(n, 1, var) if n else ZERO
        assert got == binomial and type(got._terms) is type(want._terms) is type(binomial._terms), n


# In a fresh interpreter under an address-space limit it sets on itself:
# row 600 of the Pascal triangle, packed, would take gigabytes.
QINT_SCRIPT = r"""
import resource
from heegaard import scalars

with open("/proc/self/status") as status:
    mapped = next(int(line.split()[1]) for line in status if line.startswith("VmSize:")) * 1024
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
limit = mapped + (64 << 20)
resource.setrlimit(resource.RLIMIT_AS, (limit if hard == resource.RLIM_INFINITY else min(limit, hard), hard))
got = scalars.qint(600, "q")
assert 600 not in scalars._ROW_MEMO
assert [e for e, _ in got.terms()] == [(0, d, 0) for d in range(600)]
assert {c for _, c in got.terms()} == {1}
print("ok")
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_large_deformed_integers_build_no_pascal_row():
    from test_demos import _run

    proc = _run(["-c", QINT_SCRIPT])
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr[-2000:]


@pytest.mark.parametrize("N", [1, 2, 3, 5, 7])
def test_lens_atoms_match_transported_powers(N):
    atoms = DIALECTS["lens"].atoms
    assert set(atoms) == set(LENS_GENERATORS)
    for g in LENS_GENERATORS:
        for e in range(-4, 7):
            assert atoms[g](e, N) == lens_gen(N, g).pow_signed(e), (g, e)


@pytest.mark.parametrize("N", SUITE_DEFAULTS["iso"]["lens_types"])
def test_basis_images_match_one_term_transports(N):
    bound = SUITE_DEFAULTS["iso"]["window"]
    window = []
    for mu in range(-bound, bound + 1):
        for nu in range(-bound, bound + 1):
            window.append(LensMonomial(CORE_BPRIME, 0, mu, nu))
            for k in range(1, bound + 1):
                window.append(LensMonomial(CORE_APRIME, k, mu, nu))
                window.append(LensMonomial(CORE_BPRIME, k, mu, nu))
    for m in window:
        assert _basis_image(N, m) == lens_from_abstract(LensElement(N, {m: ONE})), m
