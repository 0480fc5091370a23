"""Per-layer tracing of the heegaard stack, installed from outside the package.

``Tracer.install`` replaces the public entry points of each layer with
timing wrappers and rebinds every name in a ``heegaard`` module (or class
attribute, such as the ``Coefficient.__rmul__`` alias) that refers to the
original, so calls made through ``from ... import`` bindings are seen too.

Two kinds of boundary are recorded:

* span boundaries keep calls, self time and inclusive time per name, count
  calls per (parent, child) edge, and record a span (id, parent id, name,
  start, end) for the coarse layers;
* scalar boundaries (``Coefficient`` mul/add, about half a million calls in
  ``relcheck all``) are aggregated into counters per parent boundary, with no
  span each.

A boundary's self time is its duration minus the time of the traced calls
made inside it.  Bookkeeping of the children is charged to the parent, so
traced self times run higher than untraced ones; ``trace.overhead_s`` in the
benchmark report states by how much the whole run grew.

The sizes used for work counts (coefficient terms, memo entries) are read
from the objects' internal containers; the tracer changes no result.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

_perf = time.perf_counter

# (module, attribute or "Class.method", metric name, records a span)
SPAN_TARGETS = (
    ("scalars", "qbinomial_base", "scalars.qbinomial", False),
    ("scalars", "qpoly_Q_base", "scalars.qpoly_Q", False),
    ("qalgebras", "SphereElement.__mul__", "qalgebras.elem_mul", False),
    ("qalgebras", "DiscElement.__mul__", "qalgebras.elem_mul", False),
    ("qalgebras", "SphereElement.pow_signed", "qalgebras.pow_signed", False),
    ("qalgebras", "DiscElement.pow_signed", "qalgebras.pow_signed", False),
    ("qalgebras", "SphereElement.star", "qalgebras.star", False),
    ("qalgebras", "DiscElement.star", "qalgebras.star", False),
    ("lens", "lens_from_abstract", "lens.from_abstract", False),
    ("lens", "lens_to_abstract", "lens.to_abstract", False),
    ("lens", "lens_mul", "lens.mul", True),
    ("units", "is_unit", "units.is_unit", True),
    ("units", "split_expansion", "units.split_expansion", True),
    ("principal", "verify_strong_connection", "principal.verify_strong_connection", True),
    ("principal", "associated_idempotent", "principal.associated_idempotent", True),
    ("principal", "idempotent_check", "principal.idempotent_check", True),
    ("ktheory", "smith_normal_form", "ktheory.smith_normal_form", True),
    ("ktheory", "lens_k_groups", "ktheory.lens_k_groups", True),
    ("ktheory", "bass_class_report", "ktheory.bass_class_report", True),
    ("reports", "Report.to_json_bytes", "reports.to_json", True),
    ("cli", "main", "cli.main", True),
)
MONO_MUL_TARGETS = (
    ("qalgebras", "SphereAlgebra.mono_mul"),
    ("qalgebras", "DiscAlgebra.mono_mul"),
)
SCALAR_TARGETS = (
    ("scalars", "Coefficient.__mul__", "coeff_mul"),
    ("scalars", "Coefficient.__add__", "coeff_add"),
)
SUITE_NAMES = (
    "qidentities", "disc", "sphere", "lens", "units", "sconn",
    "idem", "ktheory", "bass", "prolong", "iso",
)
SPAN_CAP = 200_000


def _heegaard_modules():
    return [m for n, m in list(sys.modules.items()) if n == "heegaard" or n.startswith("heegaard.")]


def _resolve(module: str, attr: str):
    mod = importlib.import_module(f"heegaard.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        return cls, vars(cls)[meth]
    return mod, getattr(mod, attr)


def _rebind(owner, original, replacement) -> int:
    """Replace every binding of ``original``: each heegaard module global
    for functions, each attribute of the owning class for methods."""
    holders = [owner] if isinstance(owner, type) else _heegaard_modules()
    n = 0
    for holder in holders:
        for key, value in list(vars(holder).items()):
            if value is original:
                setattr(holder, key, replacement)
                n += 1
    return n


class Tracer:
    def __init__(self):
        self.stack = [["<root>", 0.0, 0]]
        self.stats = {}  # name -> [calls, self_s, total_s]
        self.edges = defaultdict(int)  # (parent name, child name) -> calls
        self.scalar = {}  # (parent name, scalar op) -> [calls, self_s, term_pairs]
        self.spans = []  # (id, parent id, name, start, end)
        self.spans_dropped = 0
        self.terms_max = [0]
        self.mono_fills = [0]
        self.errors = 0
        self._last_exc = None
        self._next_id = 1
        self.installed = []

    # -- bookkeeping shared by the span wrappers -----------------------

    def _stat(self, name: str):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        return st

    def _enter(self, name: str, span: bool):
        parent = self.stack[-1]
        sid = parent[2]
        if span:
            sid = self._next_id
            self._next_id += 1
        frame = [name, 0.0, sid]
        self.stack.append(frame)
        return parent, frame

    def _exit(self, parent, frame, st, t0, span: bool):
        t1 = _perf()
        dt = t1 - t0
        self.stack.pop()
        st[0] += 1
        st[1] += dt - frame[1]
        st[2] += dt
        parent[1] += dt
        self.edges[(parent[0], frame[0])] += 1
        if span:
            if len(self.spans) < SPAN_CAP:
                self.spans.append((frame[2], parent[2], frame[0], t0, t1))
            else:
                self.spans_dropped += 1

    def _count_error(self, exc: BaseException):
        # an exception crossing several boundaries is counted once
        if exc is not self._last_exc:
            self._last_exc = exc
            self.errors += 1

    # -- wrapper factories ---------------------------------------------

    def _wrap_span(self, fn, name, span: bool):
        st = self._stat(name)
        tracer = self

        def traced(*args, **kwargs):
            parent, frame = tracer._enter(name, span)
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer._count_error(exc)
                raise
            finally:
                tracer._exit(parent, frame, st, t0, span)

        return traced

    def _wrap_suite(self, fn):
        # one span boundary per suite name, created on first use
        by_name = {}

        def traced(name, *args, **kwargs):
            wrapper = by_name.get(name)
            if wrapper is None:
                wrapper = by_name[name] = self._wrap_span(fn, f"suites.{name}", True)
            return wrapper(name, *args, **kwargs)

        return traced

    def _wrap_mono_mul(self, fn):
        inner = self._wrap_span(fn, "qalgebras.mono_mul", False)
        fills = self.mono_fills

        def traced(alg, m1, m2):
            before = len(alg._mul_memo)
            try:
                return inner(alg, m1, m2)
            finally:
                if len(alg._mul_memo) != before:
                    fills[0] += 1

        return traced

    def _wrap_scalar(self, fn, op: str, coefficient_type):
        stack = self.stack
        table = self.scalar
        terms_max = self.terms_max
        count_pairs = op == "coeff_mul"

        def traced(a, b):
            t0 = _perf()
            r = fn(a, b)
            dt = _perf() - t0
            parent = stack[-1]
            parent[1] += dt
            key = (parent[0], op)
            row = table.get(key)
            if row is None:
                row = table[key] = [0, 0.0, 0]
            row[0] += 1
            row[1] += dt
            if type(r) is coefficient_type:
                n = len(r._terms)
                if n > terms_max[0]:
                    terms_max[0] = n
                if count_pairs:
                    row[2] += len(a._terms) * (
                        len(b._terms) if type(b) is coefficient_type else 1
                    )
            return r

        return traced

    # -- install / reset / report --------------------------------------

    def install(self) -> None:
        """Wrap every boundary; raises if a target is missing or unbound."""
        from heegaard.scalars import Coefficient

        import heegaard.cli  # noqa: F401  (loads every module the targets live in)

        plan = []
        for module, attr, name, span in SPAN_TARGETS:
            owner, fn = _resolve(module, attr)
            plan.append((owner, fn, self._wrap_span(fn, name, span)))
        for module, attr in MONO_MUL_TARGETS:
            owner, fn = _resolve(module, attr)
            plan.append((owner, fn, self._wrap_mono_mul(fn)))
        for module, attr, op in SCALAR_TARGETS:
            owner, fn = _resolve(module, attr)
            plan.append((owner, fn, self._wrap_scalar(fn, op, Coefficient)))
        owner, fn = _resolve("suites", "run_suite")
        plan.append((owner, fn, self._wrap_suite(fn)))
        for owner, fn, wrapper in plan:
            if _rebind(owner, fn, wrapper) == 0:
                raise RuntimeError(f"no binding of {fn.__qualname__} to replace")
            self.installed.append((owner, fn, wrapper))

    def uninstall(self) -> None:
        for owner, fn, wrapper in reversed(self.installed):
            _rebind(owner, wrapper, fn)
        self.installed = []

    def reset(self) -> None:
        """Forget everything recorded so far (used after untimed set-up)."""
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0]
        self.edges.clear()
        self.scalar.clear()
        self.spans.clear()
        self.spans_dropped = 0
        self.terms_max[0] = 0
        self.mono_fills[0] = 0
        self.errors = 0
        self._last_exc = None

    def calls(self) -> dict:
        """Calls per boundary, scalar ops included."""
        out = {name: st[0] for name, st in self.stats.items()}
        for op in ("coeff_mul", "coeff_add"):
            out[f"scalars.{op}"] = sum(r[0] for (_, o), r in self.scalar.items() if o == op)
        return out

    def layer_metrics(self) -> dict:
        """The per-layer metric values, by name (``trace.overhead_s`` is
        added by the caller, which also runs the untraced rounds)."""
        from heegaard import scalars

        def st(name):
            return self.stats.get(name, [0, 0.0, 0.0])

        def scalar(op, i):
            return sum(r[i] for (_, o), r in self.scalar.items() if o == op)

        m = {
            "scalars.coeff_mul.calls": scalar("coeff_mul", 0),
            "scalars.coeff_mul.self_s": scalar("coeff_mul", 1),
            "scalars.coeff_mul.term_pairs": scalar("coeff_mul", 2),
            "scalars.coeff_add.calls": scalar("coeff_add", 0),
            "scalars.coeff_add.self_s": scalar("coeff_add", 1),
            "scalars.coeff_terms_max": self.terms_max[0],
        }
        for name in ("scalars.qbinomial", "scalars.qpoly_Q"):
            m[f"{name}.calls"] = st(name)[0]
            m[f"{name}.self_s"] = st(name)[1]
        m["scalars.memo_terms"] = sum(
            len(list(c.terms())) for c in scalars._QBINOM_MEMO.values()
        ) + sum(
            len(list(c.terms())) for poly in scalars._QPOLY_MEMO.values() for _, c in poly.items()
        )
        for name in ("qalgebras.elem_mul", "qalgebras.pow_signed", "qalgebras.star",
                     "qalgebras.mono_mul"):
            m[f"{name}.calls"] = st(name)[0]
            m[f"{name}.self_s"] = st(name)[1]
        mono_calls = st("qalgebras.mono_mul")[0]
        m["qalgebras.mono_mul.hit_ratio"] = (
            1.0 - self.mono_fills[0] / mono_calls if mono_calls else 0.0
        )
        for name in ("lens.from_abstract", "lens.to_abstract", "lens.mul"):
            m[f"{name}.calls"] = st(name)[0]
            m[f"{name}.self_s"] = st(name)[1]
        to_calls = st("lens.to_abstract")[0]
        m["lens.from_per_to"] = (
            self.edges[("lens.to_abstract", "lens.from_abstract")] / to_calls if to_calls else 0.0
        )
        m["units.is_unit.calls"] = st("units.is_unit")[0]
        for name in ("units.is_unit", "units.split_expansion",
                     "principal.verify_strong_connection", "principal.associated_idempotent",
                     "principal.idempotent_check", "ktheory.lens_k_groups",
                     "ktheory.bass_class_report", "ktheory.smith_normal_form",
                     "reports.to_json"):
            m[f"{name}.self_s"] = st(name)[1]
        m["ktheory.smith_normal_form.calls"] = st("ktheory.smith_normal_form")[0]
        for suite in SUITE_NAMES:
            m[f"suites.{suite}.total_s"] = st(f"suites.{suite}")[2]
        m["trace.errors"] = self.errors
        return m

    def dump(self) -> dict:
        """Everything recorded, for the trace file written after a traced round."""
        return {
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
            "boundaries": {n: {"calls": s[0], "self_s": s[1], "total_s": s[2]}
                           for n, s in sorted(self.stats.items())},
            "edges": [[p, c, n] for (p, c), n in sorted(self.edges.items())],
            "scalar_by_parent": [[p, op, *row] for (p, op), row in sorted(self.scalar.items())],
        }
