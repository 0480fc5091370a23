"""Integration checks for the suite driver and the concurrency contract."""

import concurrent.futures
import sys

from heegaard.lens import CORE_APRIME, CORE_BPRIME, LensElement, LensMonomial, lens_mul
from heegaard.qalgebras import SPHERE, SphereAlgebra
from heegaard.reports import FAIL, KNOWN
from heegaard.rng import SplitMix64, random_coefficient, random_sphere_element
from heegaard.suites import SUITE_NAMES, SUITES, SuiteOptions, run_suite


def test_run_all_suites_no_failures():
    opts = SuiteOptions(seed=24195, window=3, lens_types=(1, 2), nmax=3, samples=200, kmax=8)
    report = run_suite("all", opts)
    failures = [e for e in report.entries if e.status == FAIL]
    assert not failures, failures
    known = {e.id for e in report.entries if e.status == KNOWN}
    # exactly the recorded discrepancy families are flagged
    assert known == {
        "lense.e:printed-b[N=2]",
        "fongens.b-family-injectivity-sign[N=1]",
        "fongens.b-family-injectivity-sign[N=2]",
        "sconn.printed:axiom1[N=2]",
        "sconn.printed:axiom1[N=3]",
        "idem.printed:residual[N=2]",
        "idem.printed:residual[N=3]",
    }


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
