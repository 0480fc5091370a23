"""Integration checks for the suite driver and the concurrency contract."""

import concurrent.futures
import sys

from heegaard.lens import CORE_APRIME, CORE_BPRIME, LensElement, LensMonomial, lens_mul
from heegaard.qalgebras import DISC, DISC_INV, SPHERE, SphereAlgebra
from heegaard import principal, suites
from heegaard.principal import TensorSquare
from heegaard.qalgebras import CORE_A, SphereMonomial
from heegaard.reports import FAIL, KNOWN, CheckEntry
from heegaard.scalars import ONE
from heegaard.rng import SplitMix64, random_coefficient, random_sphere_element
from heegaard.suites import SUITE_NAMES, SUITES, SuiteOptions, run_suite


def test_run_all_suites_no_failures():
    # lens types 1 to 3: the sconn and idem suites cover N = 3 through --types too
    opts = SuiteOptions(seed=24195, window=3, lens_types=(1, 2, 3), nmax=3, samples=200, kmax=8)
    report = run_suite("all", opts)
    failures = [e for e in report.entries if e.status == FAIL]
    assert not failures, failures
    known = {e.id for e in report.entries if e.status == KNOWN}
    # exactly the recorded discrepancy families are flagged
    assert known == {
        "lense.e:printed-b[N=2]",
        "lense.e:printed-b[N=3]",
        "fongens.b-family-injectivity-sign[N=1]",
        "fongens.b-family-injectivity-sign[N=2]",
        "fongens.b-family-injectivity-sign[N=3]",
        "sconn.printed:axiom1[N=2]",
        "sconn.printed:axiom1[N=3]",
        "idem.printed:residual[N=2]",
        "idem.printed:residual[N=3]",
    }


def test_broken_connection_fails_with_exact_entries(monkeypatch):
    # the degree-one value gains the leg a^2 (x) b: unit-return and left
    # colinearity break, and the printed residual moves off the recorded one
    original = principal.ConnectionVariant.build

    def broken(variant, N):
        conn = original(variant, N)
        if variant.p_exp is not None and N > 1:
            leg = (SphereMonomial(CORE_A, 0, 2, 0), SphereMonomial(CORE_A, 0, 0, 1))
            conn.values[1] = conn.values[1] + TensorSquare(conn.algebra, {leg: ONE})
        return conn

    monkeypatch.setattr(principal.ConnectionVariant, "build", broken)
    entries = {e.id: (e.status, e.residual) for e in run_suite("sconn", SuiteOptions(nmax=3)).entries}
    assert entries["sconn.corrected[N=2]"] == (
        FAIL,
        "unit-return[n=1]: class 1: a^2 b; left-colinearity[n=1]: offending left degrees [2]",
    )
    assert entries["sconn.printed:left-colinearity[N=2,n=1]"] == (FAIL, "offending left degrees [2]")
    assert entries["sconn.printed:axiom1[N=2]"] == (FAIL, "a^2 b + p^-1 A - p A")


def test_mirror_generator_checks_the_prescribed_image(monkeypatch):
    # a mirror map that sends x to x_- instead of x_-* must fail the check
    real = suites.kappa_iso
    monkeypatch.setattr(suites, "kappa_iso", lambda r: DISC_INV.x() if r == DISC.x() else real(r))
    entries = {e.id: e.status for e in suites.suite_disc(SuiteOptions())}
    assert entries["mirror-generator"] == FAIL


def test_sampled_failures_keep_the_first_sample_and_every_draw(monkeypatch):
    # split_expansion loses a term, so star-flips-support fails on each of its
    # 200 samples; is_unit passes two-term elements, so non-units-rejected fails
    # on a sample drawn later from the same generator
    def drop_last_term(real):
        return lambda r: real(r)[:-1] or real(r)

    def two_terms_are_units(real):
        return lambda r: ONE if len(list(r.terms())) == 2 else real(r)

    opts = SuiteOptions(seed=24195, samples=20)
    clean = suites.suite_units(opts)
    monkeypatch.setattr(suites, "is_unit", two_terms_are_units(suites.is_unit))
    later_only = suites.suite_units(opts)
    monkeypatch.setattr(suites, "split_expansion", drop_last_term(suites.split_expansion))
    both = suites.suite_units(opts)
    assert [e.id for e in both] == [e.id for e in clean]
    # the failing entry carries its first failing sample
    assert both[2] == CheckEntry(
        "star-flips-support",
        FAIL,
        "p^-2*q^-2*w A^2 a b^-3 + 2*p*q^-1*w^2 B a^2 b + 2*p^-2*q^2 B^4 a b^4",
        "ordmin",
    )
    # every later entry sees the same draws as without the first fault
    assert both[:2] == clean[:2]
    assert both[3:] == later_only[3:]
    assert both[4] == CheckEntry(
        "non-units-rejected",
        FAIL,
        "false unit -3*p^2*q^-1 A^2 a^4 b^5 + 2*p^-2*w^-1 A^4 a^-3 b^5",
        "noninv",
    )
    assert later_only[:4] == clean[:4]


def test_suite_registry_complete():
    assert SUITE_NAMES == (*SUITES, "all")
    assert tuple(SUITES) == (
        "qidentities",
        "disc",
        "sphere",
        "lens",
        "units",
        "sconn",
        "idem",
        "ktheory",
        "bass",
        "prolong",
        "iso",
    )


def test_engine_shared_across_threads():
    # immutable values and append-only memo tables: concurrent products on
    # the shared algebra must agree with the sequential results
    rng = SplitMix64(24195)
    pairs = []
    for _ in range(120):
        pairs.append(
            (
                random_sphere_element(rng, SPHERE, terms=2),
                random_sphere_element(rng, SPHERE, terms=2),
            )
        )
    sequential = [r * s for r, s in pairs]
    fresh = SphereAlgebra()

    def work(pair):
        r, s = pair
        return r * s

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        concurrent_results = list(pool.map(work, pairs))
    assert concurrent_results == sequential
    # and a cold algebra in a thread pool reproduces the same normal forms
    def rebuild(pair):
        r, s = pair
        r2 = fresh.element(dict(r.terms()))
        s2 = fresh.element(dict(s.terms()))
        return r2 * s2

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        rebuilt = list(pool.map(rebuild, pairs))
    for got, want in zip(rebuilt, sequential):
        assert dict(got.terms()) == dict(want.terms())


def test_lens_transport_shared_across_threads():
    # the lens image and preimage memos are append-only too: transported
    # products filling them concurrently agree with the sequential results
    rng = SplitMix64(24196)

    def element(N):
        terms = {}
        while len(terms) < 4:
            core = rng.choice((CORE_APRIME, CORE_BPRIME))
            k = rng.randint(1 if core == CORE_APRIME else 0, 2)
            terms[LensMonomial(core, k, rng.randint(-2, 2), rng.randint(-2, 2))] = random_coefficient(rng)
        return LensElement(N, terms)

    # lens types no other test uses, so the threads start from cold memos;
    # a short switch interval interleaves the memo fills
    pairs = [(element(N), element(N)) for N in (4, 6) for _ in range(30)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lens_mul, t1, t2) for t1, t2 in pairs]
            concurrent_results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    sequential = [lens_mul(t1, t2) for t1, t2 in pairs]
    assert concurrent_results == sequential
