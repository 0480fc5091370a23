"""Command-line surface: normal-form evaluation, relation suites, the
basis-isomorphism certificate, unit checks, connection/idempotent
reports, K-group computation and the connecting-homomorphism report.

Exit codes: 0 when every check passes or fails only inside the known
printed-formula discrepancy allowlist, 1 on any other failure (an
internal self-check that fails included), 2 on usage errors and on
exponents beyond the coefficient ring's range.  --strict counts the
known discrepancies as failures.
"""

from __future__ import annotations

import argparse
import operator
import sys
import time
from functools import partial
from typing import List, Optional

from .scalars import ExponentBoundError, qpoly_Q
from .expr import DIALECTS, ParseError, eval_expr, parse
from .ktheory import lens_k_groups
from .principal import CONNECTION_VARIANTS, verify_strong_connection
from .units import is_unit
from .reports import Report, computed
from .rng import DEFAULT_SEED
from .suites import SUITE_DEFAULTS, SUITE_NAMES, SuiteOptions, run_suite
from . import suites


def _at_least(lo: int):
    """argparse type: an integer >= lo (a smaller one is a usage error)."""

    # argparse names the type function in its message for a non-integer
    def integer(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    return integer


def _own_sizes(name: str) -> str:
    """Help text for a size option: each suite's own size, from the suites' table."""
    own = ", ".join(f"{suite} {sizes[name]}" for suite, sizes in SUITE_DEFAULTS.items() if name in sizes)
    return f"default: each suite's own ({own})"


def _build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a value parsed before the subcommand from being
    # clobbered by the subparser's defaults; main() fills the fallbacks
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="seed for randomized suites"
    )
    common.add_argument(
        "--json", metavar="PATH", default=argparse.SUPPRESS,
        help="write the machine-readable report to PATH",
    )
    common.add_argument(
        "--strict",
        action="store_true",
        default=argparse.SUPPRESS,
        help="treat known printed-formula discrepancies as failures",
    )
    p = argparse.ArgumentParser(
        prog="heegaard",
        description="Exact symbolic verification for Heegaard quantum sphere and lens space algebras.",
        parents=[common],
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_cmd(name, help_, run):
        c = sub.add_parser(name, help=help_, parents=[common])
        c.set_defaults(run=run)
        return c

    def add_expr_cmd(name, help_, combine, nargs=1):
        c = add_cmd(name, help_, _expression(combine))
        c.add_argument("expr", nargs=nargs)
        c.add_argument("--dialect", choices=tuple(DIALECTS), default="sphere")
        c.add_argument("--N", type=_at_least(1), default=None, help="lens type (lens dialect)")
        return c

    def add_type_cmd(name, help_, suite, label_tail=""):
        # a suite on the one lens type --N, reported as "<name> --N <N><label_tail>"
        c = add_cmd(name, help_, _on_lens_type(suite, name + " --N {N}" + label_tail))
        c.add_argument("--N", type=_at_least(1), required=True)
        return c

    add_expr_cmd("nf", "normal form of an expression", lambda x: x)
    add_expr_cmd("mul", "normal form of a product of two expressions", operator.mul, nargs=2)
    add_expr_cmd("star", "normal form of the adjoint", lambda x: x.star())
    c = add_cmd("deg", "degree support of a sphere expression", _value(_deg))
    c.add_argument("expr")

    c = add_cmd("qpoly", "print a contraction polynomial", _value(_qpoly))
    c.add_argument("MU", type=int)
    c.add_argument("--var", choices=("p", "q"), default="p")

    c = add_cmd("relcheck", "run a verification suite", _relcheck)
    c.add_argument("suite", choices=SUITE_NAMES)
    c.add_argument("--window", type=_at_least(1), default=None, help=_own_sizes("window"))
    c.add_argument(
        "--types",
        type=_at_least(1),
        nargs="*",
        default=None,
        help="lens types for the lens, iso, prolong, bass, sconn and idem suites"
        " (default: each suite's own)",
    )
    c.add_argument(
        "--nmax",
        type=_at_least(1),
        default=7,
        help="sconn and idem check types up to this when --types is not given",
    )
    c.add_argument(
        "--samples",
        type=_at_least(1),
        default=None,
        help=_own_sizes("samples"),
    )
    c.add_argument("--max", type=_at_least(1), default=50, help="largest K-theory type")

    c = add_type_cmd(
        "iso-check", "basis-isomorphism window certificate", suites.suite_iso, " --window {window}"
    )
    c.add_argument("--window", type=_at_least(1), default=SUITE_DEFAULTS["iso"]["window"])
    c.add_argument("--samples", type=_at_least(1), default=SUITE_DEFAULTS["iso"]["samples"])

    c = add_cmd("unit-check", "decide invertibility of a sphere expression", _value(_unit_check))
    c.add_argument("expr")

    for name, help_, least, suite, payload in (
        ("sconn", "strong-connection axiom report", 1, suites.suite_sconn, lambda conn: {
            "axioms": {e.id: e.residual for e in verify_strong_connection(conn)}
        }),
        ("idem", "associated idempotent report", 2, suites.suite_idem, None),
    ):
        c = add_cmd(name, help_, _variant_report(suite, payload))
        c.add_argument("--N", type=_at_least(least), required=True)
        c.add_argument("--variant", choices=tuple(_VARIANT_BY_SPELLING), default="corrected")

    c = add_cmd("ktheory", "K-groups of the lens pullback", _ktheory)
    g = c.add_mutually_exclusive_group()
    g.add_argument("--N", type=_at_least(1), default=None)
    g.add_argument("--max", type=_at_least(1), default=50)

    bass = partial(suites.suite_bass, show=_show_bass)
    add_type_cmd("bass", "connecting-homomorphism class report", bass)
    c = add_type_cmd("prolong-check", "prolongation isomorphism checks", suites.suite_prolong)
    c.add_argument("--samples", type=_at_least(1), default=SUITE_DEFAULTS["prolong"]["samples"])
    return p


# -- command handlers: each takes the parsed arguments and returns the exit code


def _report(args, command: str, entries, extra=None) -> Report:
    return Report(command, args.seed, entries, time.monotonic() - args.started, extra or {})


def _finish(report: Report, args, show: bool = True) -> int:
    """Print the report (when ``show``) and write its JSON (when asked); its exit code."""
    if show:
        print(report.render_text())
    if args.json:
        with open(args.json, "wb") as fh:
            fh.write(report.to_json_bytes())
    return report.exit_code(strict=args.strict)


def _value(compute):
    """Print ``compute(args)`` and report it as the command's computed entry."""

    def run(args):
        out = compute(args)
        print(out)
        return _finish(_report(args, args.command, [computed(args.command, out)]), args, show=False)

    return run


def _expression(combine):
    """``combine`` of the expressions, each evaluated in its dialect."""

    def compute(args):
        return combine(*(eval_expr(parse(e, args.dialect), args.dialect, args.N) for e in args.expr))

    return _value(compute)


def _deg(args):
    support = sorted(eval_expr(parse(args.expr, "sphere"), "sphere").degree_support())
    return "{" + ", ".join(str(d) for d in support) + "}"


def _qpoly(args):
    return qpoly_Q(args.MU, args.var)


def _unit_check(args):
    c = is_unit(eval_expr(parse(args.expr, "sphere"), "sphere"))
    return "non-unit" if c is None else f"unit: {c} (inverse {c.unit_inverse()})"


def _relcheck(args):
    types = tuple(args.types) if args.types else None
    opts = SuiteOptions(
        seed=args.seed, window=args.window, lens_types=types, nmax=args.nmax,
        samples=args.samples, kmax=args.max,
    )
    return _finish(run_suite(args.suite, opts), args)


def _on_lens_type(suite, label: str):
    """Run ``suite`` on the lens type --N alone, with the command's --window
    and --samples, and report it under ``label`` filled from the arguments."""

    def run(args):
        window, samples = getattr(args, "window", None), getattr(args, "samples", None)
        opts = SuiteOptions(seed=args.seed, window=window, samples=samples, lens_types=(args.N,))
        return _finish(_report(args, label.format_map(vars(args)), suite(opts)), args)

    return run


def _show_bass(rep) -> None:
    """The connecting idempotent a bass report built, or why it was not built."""
    head = f"connecting idempotent for the canonical class (type N={rep.N})"
    if rep.idempotent_matrix is None:
        print(f"{head} not built: {rep.not_built}")
        return
    print(f"{head}:")
    for row in rep.idempotent_matrix:
        print("  [" + ", ".join(str(e) for e in row) + "]")
    print(f"block identity verified: {rep.matrix_identity}")
    print(f"class order (from the torsion of K0): {rep.torsion_order}")


# the connection variants by their --variant spelling
_VARIANT_BY_SPELLING = {v.cli: v for v in CONNECTION_VARIANTS.values()}


def _variant_report(suite, payload=None):
    """Run ``suite`` for one connection variant on the types up to --N; with
    --json, ``payload`` adds keys computed from the connection of type N."""

    def run(args):
        variant = _VARIANT_BY_SPELLING[args.variant]
        entries = suite(SuiteOptions(seed=args.seed, nmax=args.N), variant.name)
        extra = payload(variant.build(args.N)) if payload and args.json else None
        command = f"{args.command} --N {args.N} --variant {args.variant}"
        return _finish(_report(args, command, entries, extra), args)

    return run


def _ktheory(args):
    groups = []
    for N in [args.N] if args.N is not None else range(1, args.max + 1):
        res = lens_k_groups(N)
        parts = (("K0", res.k0), ("K1", res.k1))
        print(f"N={N}: " + ", ".join(
            f"{k} = {g} (torsion {list(g.torsion)}, rank {g.free_rank})" for k, g in parts
        ))
        torsion_rank = {k: {"torsion": list(g.torsion), "rank": g.free_rank} for k, g in parts}
        groups.append({"N": N, **torsion_rank})
    entries = suites.suite_ktheory(SuiteOptions(seed=args.seed, kmax=args.max), single_n=args.N)
    return _finish(_report(args, "ktheory", entries, {"groups": groups}), args)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for name, fallback in (("seed", DEFAULT_SEED), ("json", None), ("strict", False)):
        if not hasattr(args, name):
            setattr(args, name, fallback)
    if getattr(args, "dialect", None) == "lens" and args.N is None:
        parser.error("the lens dialect needs --N")
    args.started = time.monotonic()
    try:
        return args.run(args)
    except (ParseError, ExponentBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        # an engine self-check (closed form against recursion, a lens
        # preimage) failed: report it, not a traceback
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
