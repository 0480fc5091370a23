"""Integration checks for the suite driver and the concurrency contract."""

import concurrent.futures

from heegaard.qalgebras import SPHERE, SphereAlgebra
from heegaard.reports import FAIL, KNOWN
from heegaard.rng import SplitMix64, random_sphere_element
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
