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
import sys
import time
from typing import List, Optional

from .scalars import ExponentBoundError, qpoly_Q
from .expr import ParseError, eval_expr, parse
from .ktheory import bass_class_report, lens_k_groups
from .principal import verify_strong_connection
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

    def add_cmd(name, help_):
        return sub.add_parser(name, help=help_, parents=[common])

    def add_expr_cmd(name, help_, nargs=1):
        c = add_cmd(name, help_)
        c.add_argument("expr", nargs=nargs)
        c.add_argument("--dialect", choices=("disc", "sphere", "lens", "prolong"), default="sphere")
        c.add_argument("--N", type=_at_least(1), default=None, help="lens type (lens dialect)")
        return c

    add_expr_cmd("nf", "normal form of an expression")
    add_expr_cmd("mul", "normal form of a product of two expressions", nargs=2)
    add_expr_cmd("star", "normal form of the adjoint")
    c = add_cmd("deg", "degree support of a sphere expression")
    c.add_argument("expr")

    c = add_cmd("qpoly", "print a contraction polynomial")
    c.add_argument("MU", type=int)
    c.add_argument("--var", choices=("p", "q"), default="p")

    c = add_cmd("relcheck", "run a verification suite")
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

    c = add_cmd("iso-check", "basis-isomorphism window certificate")
    c.add_argument("--N", type=_at_least(1), required=True)
    c.add_argument("--window", type=_at_least(1), default=SUITE_DEFAULTS["iso"]["window"])
    c.add_argument("--samples", type=_at_least(1), default=SUITE_DEFAULTS["iso"]["samples"])

    c = add_cmd("unit-check", "decide invertibility of a sphere expression")
    c.add_argument("expr")

    c = add_cmd("sconn", "strong-connection axiom report")
    c.add_argument("--N", type=_at_least(1), required=True)
    c.add_argument(
        "--variant",
        choices=("corrected", "printed", "isometric"),
        default="corrected",
    )

    c = add_cmd("idem", "associated idempotent report")
    c.add_argument("--N", type=_at_least(2), required=True)
    c.add_argument(
        "--variant",
        choices=("corrected", "printed", "isometric"),
        default="corrected",
    )

    c = add_cmd("ktheory", "K-groups of the lens pullback")
    g = c.add_mutually_exclusive_group()
    g.add_argument("--N", type=_at_least(1), default=None)
    g.add_argument("--max", type=_at_least(1), default=50)

    c = add_cmd("bass", "connecting-homomorphism class report")
    c.add_argument("--N", type=_at_least(1), required=True)

    c = add_cmd("prolong-check", "prolongation isomorphism checks")
    c.add_argument("--N", type=_at_least(1), required=True)
    c.add_argument("--samples", type=_at_least(1), default=SUITE_DEFAULTS["prolong"]["samples"])
    return p


def _finish(report: Report, args) -> int:
    print(report.render_text())
    if args.json:
        with open(args.json, "wb") as fh:
            fh.write(report.to_json_bytes())
    return report.exit_code(strict=args.strict)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for name, fallback in (("seed", DEFAULT_SEED), ("json", None), ("strict", False)):
        if not hasattr(args, name):
            setattr(args, name, fallback)
    t0 = time.monotonic()

    def mkreport(command: str, entries) -> Report:
        return Report(command=command, seed=args.seed, entries=entries, elapsed=time.monotonic() - t0)

    try:
        if args.command in ("nf", "mul", "star"):
            if args.dialect == "lens" and args.N is None:
                parser.error("the lens dialect needs --N")
            exprs = args.expr if isinstance(args.expr, list) else [args.expr]
            vals = [eval_expr(parse(e, args.dialect), args.dialect, args.N) for e in exprs]
            if args.command == "mul":
                out = vals[0] * vals[1]
            elif args.command == "star":
                out = vals[0].star()
            else:
                out = vals[0]
            print(out)
            if args.json:
                rep = mkreport(args.command, [computed(args.command, out)])
                with open(args.json, "wb") as fh:
                    fh.write(rep.to_json_bytes())
            return 0
        if args.command == "deg":
            val = eval_expr(parse(args.expr, "sphere"), "sphere")
            support = sorted(val.degree_support())
            print("{" + ", ".join(str(d) for d in support) + "}")
            return 0
        if args.command == "qpoly":
            print(qpoly_Q(args.MU, args.var))
            return 0
        if args.command == "unit-check":
            val = eval_expr(parse(args.expr, "sphere"), "sphere")
            c = is_unit(val)
            if c is None:
                print("non-unit")
                return 0
            print(f"unit: {c} (inverse {c.unit_inverse()})")
            return 0
        if args.command == "relcheck":
            opts = SuiteOptions(
                seed=args.seed,
                window=args.window,
                lens_types=tuple(args.types) if args.types else None,
                nmax=args.nmax,
                samples=args.samples,
                kmax=args.max,
            )
            report = run_suite(args.suite, opts)
            return _finish(report, args)
        if args.command == "iso-check":
            opts = SuiteOptions(
                seed=args.seed, window=args.window, samples=args.samples, lens_types=(args.N,)
            )
            entries = suites.suite_iso(opts)
            return _finish(mkreport(f"iso-check --N {args.N} --window {args.window}", entries), args)
        if args.command == "sconn":
            variant = {"printed": "printed_p_inverse"}.get(args.variant, args.variant)
            opts = SuiteOptions(seed=args.seed, nmax=args.N)
            entries = suites.suite_sconn(opts, variant)
            report = mkreport(f"sconn --N {args.N} --variant {args.variant}", entries)
            if args.json:
                conn = suites.connection_for(args.N, variant)
                report.extra["axioms"] = {e.id: e.residual for e in verify_strong_connection(conn)}
            return _finish(report, args)
        if args.command == "idem":
            variant = {"printed": "printed_p_inverse"}.get(args.variant, args.variant)
            opts = SuiteOptions(seed=args.seed, nmax=args.N)
            entries = suites.suite_idem(opts, variant)
            return _finish(mkreport(f"idem --N {args.N} --variant {args.variant}", entries), args)
        if args.command == "ktheory":
            opts = SuiteOptions(seed=args.seed, kmax=args.max)
            types = [args.N] if args.N is not None else list(range(1, args.max + 1))
            groups = []
            for N in types:
                res = lens_k_groups(N)
                print(
                    f"N={N}: K0 = {res.k0} (torsion {list(res.k0.torsion)}, rank {res.k0.free_rank}), "
                    f"K1 = {res.k1} (torsion {list(res.k1.torsion)}, rank {res.k1.free_rank})"
                )
                groups.append(
                    {
                        "N": N,
                        "K0": {"torsion": list(res.k0.torsion), "rank": res.k0.free_rank},
                        "K1": {"torsion": list(res.k1.torsion), "rank": res.k1.free_rank},
                    }
                )
            report = mkreport("ktheory", suites.suite_ktheory(opts, single_n=args.N))
            report.extra["groups"] = groups
            return _finish(report, args)
        if args.command == "bass":
            rep = bass_class_report(args.N)
            print(f"connecting idempotent for the canonical class (type N={args.N}):")
            for row in rep.idempotent_matrix:
                print("  [" + ", ".join(str(e) for e in row) + "]")
            print(f"block identity verified: {rep.matrix_identity}")
            print(f"class order (from the torsion of K0): {rep.torsion_order}")
            opts = SuiteOptions(seed=args.seed, lens_types=(args.N,))
            entries = suites.suite_bass(opts)
            return _finish(mkreport(f"bass --N {args.N}", entries), args)
        if args.command == "prolong-check":
            opts = SuiteOptions(seed=args.seed, samples=args.samples, lens_types=(args.N,))
            entries = suites.suite_prolong(opts)
            return _finish(mkreport(f"prolong-check --N {args.N}", entries), args)
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
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
