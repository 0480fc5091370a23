"""One round of one benchmark workload, in a fresh interpreter.

    python3 perfbench/workloads.py --workload NAME --seed N --spawned-at T [--trace]

``run.py`` starts this script once per round with ``PYTHONPATH`` set to the
checkout's ``src``.  The round generates its inputs from ``heegaard.rng.
SplitMix64`` (untimed set-up), times the workload's operations one caller at
a time, checks every output without the clock running, and prints one JSON
object as the last line of standard output:

    setup_s      interpreter start (``--spawned-at``, a CLOCK_MONOTONIC
                 reading taken by the parent just before the spawn) until the
                 first timed operation
    wall_s       first operation until the workload's verdict
    peak_rss_mb  this process's own getrusage(RUSAGE_SELF) peak at the verdict
    ops_ms       latency of each timed operation (the whole round for the
                 workloads without a homogeneous operation)
    attempted, failed, problems, digest, calls / layers (traced rounds)
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"

_perf = time.perf_counter

# relcheck all: the printed-formula discrepancies that stay flagged
KNOWN_IDS = frozenset(
    [f"fongens.b-family-injectivity-sign[N={n}]" for n in (1, 2, 3, 5, 7)]
    + [f"idem.printed:residual[N={n}]" for n in range(2, 8)]
    + [f"lense.e:printed-b[N={n}]" for n in (2, 3, 5, 7)]
    + [f"sconn.printed:axiom1[N={n}]" for n in range(2, 8)]
)

QCOMB_NMAX = 64  # qbinomial(n, m, v) for 1 <= n <= 64, 0 <= m <= n
QCOMB_MUMAX = 36  # qpoly_Q(+-mu, v) for 1 <= mu <= 36
SPHERE_OPS = 400
SPHERE_EXPONENTS = range(2, 8)
SPHERE_CHECK_EVERY = 16
LENS_TYPES = (2, 3, 5, 7)
LENS_PAIRS_PER_TYPE = 40
LENS_TERMS = 8


class Round:
    """Set-up state and results of one round."""

    def __init__(self, seed: int):
        from heegaard.rng import SplitMix64

        self.rng = SplitMix64(seed)
        self.seed = seed
        self.ops_ms: list = []
        self.attempted = 0
        self.failed_ops: set = set()
        self.problems: list = []
        self.digest = ""

    def fail(self, op: int, msg: str) -> None:
        """Operation ``op`` (in call order) raised or failed its check."""
        self.failed_ops.add(op)
        if len(self.problems) < 10:
            self.problems.append(msg)

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.rng.randint(0, i)
            items[i], items[j] = items[j], items[i]

    def call(self, fn, *args):
        """One operation: an exception counts as a failed operation and
        yields None."""
        op = self.attempted
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a raising operation is a failure, not a crash
            self.fail(op, f"{getattr(fn, '__name__', fn)}{args!r:.120}: {exc!r:.200}")
            return None

    def timed(self, fn, *args):
        """One operation whose latency is recorded."""
        t0 = _perf()
        out = self.call(fn, *args)
        self.ops_ms.append((_perf() - t0) * 1000.0)
        return out


# ---------------------------------------------------------------------------
# relcheck-all: the command-line verdict, run cold
# ---------------------------------------------------------------------------


def relcheck_setup(r: Round):
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    # every round of a run shares the run's seed, so their JSON must agree
    path = OUT_DIR / f"relcheck-{os.getpid()}.json"
    return ["relcheck", "all", "--seed", str(r.seed), "--json", str(path)], path


def relcheck_run(r: Round, state):
    from heegaard import cli

    argv, _ = state
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        return r.call(cli.main, argv)


def relcheck_check(r: Round, state, code) -> None:
    _, path = state
    if code is None:
        path.unlink(missing_ok=True)
        return  # the run raised and is already counted as failed
    try:
        data = path.read_bytes()
    except OSError as exc:
        r.fail(0, f"no JSON report: {exc}")
        return
    finally:
        path.unlink(missing_ok=True)
    r.digest = hashlib.sha256(data).hexdigest()
    entries = json.loads(data)["entries"]
    fails = [e["id"] for e in entries if e["status"] == "fail"]
    known = {e["id"] for e in entries if e["status"] == "known-discrepancy"}
    ok = code == 0 and not fails and known == KNOWN_IDS
    if not ok:
        r.fail(
            0,
            f"exit {code}, fail entries {fails[:5]}, unexpected known "
            f"{sorted(known - KNOWN_IDS)[:5]}, missing known {sorted(KNOWN_IDS - known)[:5]}"
        )


# ---------------------------------------------------------------------------
# qcomb-deep: deformed binomials and contraction polynomials, run cold
# ---------------------------------------------------------------------------


def qcomb_setup(r: Round):
    reqs = [("qbinomial", n, m, v) for v in "pq" for n in range(1, QCOMB_NMAX + 1)
            for m in range(n + 1)]
    reqs += [("qpoly_Q", s * mu, v) for v in "pq" for mu in range(1, QCOMB_MUMAX + 1)
             for s in (1, -1)]
    r.shuffle(reqs)
    return reqs


def qcomb_run(r: Round, reqs):
    from heegaard import scalars

    fns = {"qbinomial": scalars.qbinomial, "qpoly_Q": scalars.qpoly_Q}
    return [r.call(fns[req[0]], *req[1:]) for req in reqs]


def _at_two(c, var: str) -> Fraction:
    """A one-variable Laurent coefficient evaluated at var = 2."""
    idx = "pq".index(var)
    terms = list(c.terms())
    if any(e for exps, _ in terms for i, e in enumerate(exps) if i != idx):
        raise ValueError(f"unexpected variable in {c}")
    shift = min([0] + [exps[idx] for exps, _ in terms])
    return Fraction(sum(n << (exps[idx] - shift) for exps, n in terms), 1 << -shift)


def _gauss_binomial_at_two(n: int, m: int) -> int:
    """Product formula: prod_{i=1..m} (2^(n-m+i) - 1) / (2^i - 1)."""
    num = den = 1
    for i in range(1, m + 1):
        num *= (1 << (n - m + i)) - 1
        den *= (1 << i) - 1
    return num // den


def _q_closed_sum_at(mu: int, y: int) -> Fraction:
    """The closed sum for the contraction polynomial of index mu at v = 2.

    Positive mu: sum_m (-1)^m v^(m(m+1)/2 - mu m) [mu, m]_v Y^m.
    Negative mu = -n: sum_m (-1)^m v^(n m - m(m+1)/2 + m) [n, m]_(1/v) Y^m,
    with [n, m]_(1/v) = v^(-m(n-m)) [n, m]_v.
    """
    n = abs(mu)
    total = Fraction(0)
    for m in range(1, n + 1):
        tri = m * (m + 1) // 2
        e = tri - n * m if mu > 0 else n * m - tri + m - m * (n - m)
        total += (-1) ** m * Fraction(2) ** e * _gauss_binomial_at_two(n, m) * y ** m
    return total


def qcomb_check(r: Round, reqs, results) -> None:
    for i, (req, got) in enumerate(zip(reqs, results)):
        if got is None:
            continue  # already counted as failed
        if req[0] == "qbinomial":
            _, n, m, v = req
            ok = _at_two(got, v) == _gauss_binomial_at_two(n, m)
        else:
            _, mu, v = req
            value = sum((_at_two(c, v) * 3 ** d for d, c in got.items()), Fraction(0))
            ok = value == _q_closed_sum_at(mu, 3)
        if not ok:
            r.fail(i, f"{req}: value at v=2 disagrees with the product formula")


# ---------------------------------------------------------------------------
# sphere-powers: signed powers of short sphere elements, run cold
# ---------------------------------------------------------------------------


def sphere_setup(r: Round):
    from heegaard.qalgebras import SPHERE
    from heegaard.rng import random_sphere_element

    ops = []
    for i in range(SPHERE_OPS):
        # every round holds the same mix of exponent sizes and term counts
        e = SPHERE_EXPONENTS[i % len(SPHERE_EXPONENTS)]
        terms = 2 + (i // len(SPHERE_EXPONENTS)) % 2
        x = random_sphere_element(r.rng, SPHERE, terms=terms, kmax=2, emax=2)
        ops.append((x, e if r.rng.randint(0, 1) else -e))
    r.shuffle(ops)
    return ops


def sphere_run(r: Round, ops):
    return [r.timed(x.pow_signed, e) for x, e in ops]


def sphere_check(r: Round, ops, results) -> None:
    for i, ((x, e), got) in enumerate(zip(ops, results)):
        if got is None or i % SPHERE_CHECK_EVERY:
            continue
        sign = 1 if e > 0 else -1
        a = sign * r.rng.randint(1, abs(e) - 1)
        if x.pow_signed(a) * x.pow_signed(e - a) != got:
            r.fail(i, f"x^{e} != x^{a} x^{e - a} for x = {x}")
        elif got.star() != x.pow_signed(-e):
            r.fail(i, f"(x^{e})* != x^{-e} for x = {x}")


# ---------------------------------------------------------------------------
# lens-warm: transported lens products with the memos already filled
# ---------------------------------------------------------------------------


def _lens_element(r: Round, N: int):
    from heegaard.lens import CORE_APRIME, CORE_BPRIME, LensElement, LensMonomial
    from heegaard.rng import random_coefficient

    terms = {}
    while len(terms) < LENS_TERMS:
        core = r.rng.choice((CORE_APRIME, CORE_BPRIME))
        k = r.rng.randint(1 if core == CORE_APRIME else 0, 2)
        mono = LensMonomial(core, k, r.rng.randint(-2, 2), r.rng.randint(-1, 1))
        terms[mono] = random_coefficient(r.rng, max_exp=1)
    return LensElement(N, terms)


def lens_setup(r: Round):
    from heegaard import lens

    pairs = [(_lens_element(r, N), _lens_element(r, N))
             for N in LENS_TYPES for _ in range(LENS_PAIRS_PER_TYPE)]
    r.shuffle(pairs)
    # untimed warm-up over the same inputs fills every memo the timed pass reads;
    # a product that raises here raises again, and is counted, when timed
    cold = []
    for t1, t2 in pairs:
        try:
            cold.append(lens.lens_mul(t1, t2))
        except Exception:
            cold.append(None)
    return pairs, cold


def lens_run(r: Round, state):
    from heegaard import lens

    pairs, _ = state
    return [r.timed(lens.lens_mul, t1, t2) for t1, t2 in pairs]


def lens_check(r: Round, state, results) -> None:
    from heegaard import lens

    pairs, cold = state
    for i, ((t1, t2), warm, first) in enumerate(zip(pairs, results, cold)):
        if warm is not None and warm != first:
            r.fail(i, f"warm product differs from the cold one for {t1} * {t2}")
        for t in (t1, t2):
            try:
                back = lens.lens_to_abstract(lens.lens_from_abstract(t), t.N)
            except Exception as exc:  # the inverse map refusing an image is a failure
                back = exc
            if back != t:
                r.fail(i, f"round trip of {t} gave {back!r:.200}")


# name -> (set-up, timed run, untimed check, whether the whole round is the
# one timed operation).  relcheck-all and qcomb-deep have no homogeneous
# operation: their latency sample is the round's verdict.
WORKLOADS = {
    "relcheck-all": (relcheck_setup, relcheck_run, relcheck_check, True),
    "qcomb-deep": (qcomb_setup, qcomb_run, qcomb_check, True),
    "sphere-powers": (sphere_setup, sphere_run, sphere_check, False),
    "lens-warm": (lens_setup, lens_run, lens_check, False),
}


def run_round(workload: str, seed: int, spawned_at: float, trace: bool) -> dict:
    setup, run, check, round_is_op = WORKLOADS[workload]
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    r = Round(seed)
    state = setup(r)
    # set-up ends with a full collection, so its garbage is not charged to
    # the first timed operations
    gc.collect()
    if tracer is not None:
        tracer.reset()
    t0 = time.monotonic()
    results = run(r, state)
    wall = time.monotonic() - t0
    if round_is_op:
        r.ops_ms.append(wall * 1000.0)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {}
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["calls"] = tracer.calls()
        tracer.uninstall()
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / f"trace-{workload}-{seed}.json"
        path.write_text(json.dumps(tracer.dump()))
        out["trace_file"] = str(path.relative_to(ROOT))
    try:
        check(r, state, results)
    except Exception as exc:  # a check that cannot finish fails every operation
        for op in range(r.attempted):
            r.fail(op, f"check raised {exc!r:.300}")
    out.update(
        setup_s=t0 - spawned_at,
        wall_s=wall,
        peak_rss_mb=peak_mb,
        ops_ms=r.ops_ms,
        attempted=r.attempted,
        failed=len(r.failed_ops),
        problems=r.problems,
        digest=r.digest,
    )
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    result = run_round(args.workload, args.seed, args.spawned_at, args.trace)
    print(json.dumps(result), flush=True)
    # skip tearing down the memo tables: nothing is left to measure or write
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main())
