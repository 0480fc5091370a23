"""The memo registry: which tables a full run empties, which it keeps, and
that emptying them changes no result."""

import hashlib
import sys

import pytest

from heegaard import lens, memo_sizes, suites
from heegaard.lens import lens_mul
from heegaard.qalgebras import SPHERE
from heegaard.rng import SplitMix64
from heegaard.scalars import clear_run_memos
from heegaard.suites import SuiteOptions, run_suite

ENGINES = ("DISC", "DISC_INV", "DISC0", "SPHERE", "SPHERE0")
RUN_TABLES = {f"{e}.{t}" for e in ENGINES for t in ("_mul_memo", "_intern")} | {
    "lens._IMG_MEMO",
    "lens._BASIS_IMAGE_MEMO",
    "lens._PREIMAGE_MEMO",
}
PROCESS_TABLES = {"scalars._ROW_MEMO", "scalars._QBINOM_MEMO", "scalars._QPOLY_MEMO"}


def _run_sizes():
    sizes = memo_sizes()
    return {name: sizes[name] for name in RUN_TABLES}


def _process_sizes():
    return {name: n for name, n in memo_sizes().items() if name in PROCESS_TABLES}


def test_a_full_run_empties_the_run_tables_and_keeps_the_process_tables():
    assert set(memo_sizes()) == RUN_TABLES | PROCESS_TABLES
    run_suite("all", SuiteOptions(seed=1, samples=50))
    assert _run_sizes() == dict.fromkeys(RUN_TABLES, 0)
    kept = _process_sizes()
    assert all(kept.values()), kept
    # the index ranges a run asks for do not depend on the seed
    run_suite("all", SuiteOptions(seed=2, samples=50))
    assert _process_sizes() == kept


def test_the_lens_suite_empties_the_run_tables_after_each_type(monkeypatch):
    # what one lens type memoizes is mostly its own, so the next type starts
    # from empty tables: the suite's peak is that of one type, not the sum
    empty = dict.fromkeys(RUN_TABLES, 0)
    relation_suite = suites.lens_relation_suite
    seen = []

    def each_type(N, window):
        seen.append((N, _run_sizes()))
        entries = relation_suite(N, window)
        assert _run_sizes() != empty, N
        return entries

    monkeypatch.setattr(suites, "lens_relation_suite", each_type)
    clear_run_memos()
    report = run_suite("lens", SuiteOptions(window=2, lens_types=(2, 3, 5)))
    assert seen == [(N, empty) for N in (2, 3, 5)]
    assert _run_sizes() == empty
    # byte for byte the report of a run that keeps every type's tables:
    # emptying them changes no result
    assert (
        hashlib.sha256(report.to_json_bytes()).hexdigest()
        == "786be72e0c05a293f04f59c705759de98fe94dbf40fae0dd174b53ca2ec4a829"
    )


def test_lens_products_outside_a_suite_keep_their_memo_entries():
    from test_lens import random_lens_element

    clear_run_memos()
    rng = SplitMix64(5)
    pairs = [(random_lens_element(rng, N), random_lens_element(rng, N)) for N in (2, 3) for _ in range(3)]
    first = [lens_mul(t1, t2) for t1, t2 in pairs]
    images, preimages = dict(lens._BASIS_IMAGE_MEMO), dict(lens._PREIMAGE_MEMO)
    assert images and preimages
    # the module's tables are the registry's
    sizes = memo_sizes()
    assert sizes["lens._BASIS_IMAGE_MEMO"] == len(images)
    assert sizes["lens._PREIMAGE_MEMO"] == len(preimages)
    # the same products again are memo hits: no entry is added or replaced
    assert [lens_mul(t1, t2) for t1, t2 in pairs] == first
    assert lens._BASIS_IMAGE_MEMO.keys() == images.keys()
    assert all(lens._BASIS_IMAGE_MEMO[key] is img for key, img in images.items())
    assert lens._PREIMAGE_MEMO.keys() == preimages.keys()
    assert all(lens._PREIMAGE_MEMO[key] is got for key, got in preimages.items())


def test_clearing_between_runs_changes_no_result():
    from test_lens import random_lens_element

    rng = SplitMix64(11)
    pairs = [(random_lens_element(rng, N), random_lens_element(rng, N)) for N in (2, 5) for _ in range(3)]
    opts = SuiteOptions(window=2)
    report = run_suite("lens", opts)
    products = [lens_mul(t1, t2) for t1, t2 in pairs]
    assert SPHERE._mul_memo and lens._BASIS_IMAGE_MEMO
    clear_run_memos()
    assert not SPHERE._mul_memo and not lens._BASIS_IMAGE_MEMO
    assert [lens_mul(t1, t2) for t1, t2 in pairs] == products
    assert run_suite("lens", opts).entries == report.entries


# In a fresh interpreter, so that the peaks read are those of these runs.  The
# peak is the address space's high-water mark, VmHWM: ru_maxrss would start
# from the RSS of the process that forked this one.
RSS_GROWTH_SCRIPT = r"""
import contextlib, io
from heegaard.cli import main

for seed in range(1, 6):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["relcheck", "all", "--seed", str(seed), "--samples", "200"]) == 0
    with open("/proc/self/status") as status:
        print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_repeated_full_runs_do_not_grow_peak_memory():
    from test_demos import _run

    proc = _run(["-c", RSS_GROWTH_SCRIPT])
    assert proc.returncode == 0, proc.stderr
    peaks = [int(kib) / 1024 for kib in proc.stdout.split()]
    assert len(peaks) == 5
    assert peaks[-1] - peaks[0] <= 2.0, peaks
