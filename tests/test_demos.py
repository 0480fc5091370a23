"""Smoke tests: every demo script and the benchmark tracer run against the
package in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )


def test_demo_inventory():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = _run([str(demo)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


# Installs every traced boundary of perfbench/tracer.py (install raises when
# a boundary is missing or has no binding to replace), drives a product
# through the wrappers, and checks that uninstall restores the originals.
TRACER_SCRIPT = r"""
import sys
sys.path.insert(0, "perfbench")
from tracer import Tracer
from heegaard.qalgebras import SPHERE, SphereAlgebra, SphereElement

before = dict(vars(SphereElement)), dict(vars(SphereAlgebra))
tracer = Tracer()
tracer.install()
assert vars(SphereElement)["__mul__"] is not before[0]["__mul__"]
(SPHERE.a() + SPHERE.b()).pow_signed(-2)
calls = tracer.calls()
for name in ("qalgebras.elem_mul", "qalgebras.pow_signed", "qalgebras.star",
             "qalgebras.mono_mul", "scalars.coeff_mul"):
    assert calls.get(name, 0) > 0, name
tracer.uninstall()
assert (dict(vars(SphereElement)), dict(vars(SphereAlgebra))) == before
print("ok")
"""


def test_tracer_installs_and_uninstalls():
    proc = _run(["-c", TRACER_SCRIPT])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


# The benchmark tracer reads kernel internals (Coefficient._terms, the memo
# tables and their values' terms()/items()); a kernel change that breaks one
# of those reads fails here rather than in a benchmark run.
TRACER_METRICS_SCRIPT = r"""
import sys
sys.path.insert(0, "perfbench")
from tracer import Tracer
from heegaard.qalgebras import SPHERE
from heegaard.scalars import qpoly_Q

tracer = Tracer()
tracer.install()
x = SPHERE.a() + SPHERE.b()
x * x.star()
qpoly_Q(5)
m = tracer.layer_metrics()
tracer.uninstall()
assert m["scalars.coeff_mul.calls"] > 0, m
assert m["scalars.memo_terms"] > 0, m
assert m["trace.errors"] == 0, m
print("ok")
"""


def test_tracer_reads_the_kernel():
    proc = _run(["-c", TRACER_METRICS_SCRIPT])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
