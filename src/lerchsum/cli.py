"""Command-line interface: function evaluation and identity verification.

Exit codes are a stable contract:
  0  success
  1  verification failure (some point did not pass)
  2  usage, configuration, or domain error
  3  numerical convergence error
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Optional, Sequence

from .functions import (
    LerchParams,
    digamma,
    harmonic,
    hurwitz_zeta,
    lerch_phi,
    lerch_phi_integral,
    log_gamma,
    polylog,
    stieltjes_gamma1,
)
from .identities import UnknownIdentityError, get_identity, list_identities
from .numerics import ConvergenceError, DomainError, PrecisionPolicy
from .report import write_report
from .verifier import DEFAULT_SEED, SuiteReport, run_suite

__all__ = ["main"]

# name -> (argument fields in call order, call(*values, policy))
_EVAL_FUNCTIONS = {
    "phi": (("z", "s", "v"),
            lambda z, s, v, policy: lerch_phi(LerchParams(z, s, v), policy)),
    "phi-integral": (("z", "s", "v"),
                     lambda z, s, v, policy: lerch_phi_integral(LerchParams(z, s, v), policy)),
    "zeta": (("s", "a"), hurwitz_zeta),
    "polylog": (("s", "z"), polylog),
    "loggamma": (("z",), lambda z, policy: log_gamma(z)),
    "digamma": (("z",), lambda z, policy: digamma(z)),
    "harmonic": (("z",), lambda z, policy: harmonic(z)),
    "stieltjes1": (("a",), stieltjes_gamma1),
}

_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lerchsum",
        description="Evaluate Hurwitz-Lerch-family special functions and "
                    "verify the finite-sum identity registry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate one special function")
    # argparse takes only plain decimals such as -0.001 for negative numbers,
    # and reads -1e-3 as an unknown option; accept the exponent form too
    pe._negative_number_matcher = _NEGATIVE_NUMBER
    pe.add_argument("function", choices=sorted(_EVAL_FUNCTIONS))
    for name in ("z", "s", "v", "a"):
        pe.add_argument(f"--{name}", nargs=2, type=float, metavar=("RE", "IM"))
    pe.add_argument("--tol-rel", type=float, default=1e-10,
                    help="PrecisionPolicy.rel_tol: target relative error of the evaluation")
    pe.add_argument("--tol-abs", type=float, default=1e-12,
                    help="PrecisionPolicy.abs_tol: floor for values near zero")
    pe.add_argument("--max-terms", type=int, default=10**6,
                    help="PrecisionPolicy.max_terms: series length before giving up")

    def common(p):
        p.add_argument("--count", type=int, default=100)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--tol-rel", type=float, default=None,
                       help="override tolerance for non-absolute-mode identities")
        p.add_argument("--tol-abs", type=float, default=None,
                       help="override tolerance for absolute-mode identities")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="report file path")

    pv = sub.add_parser("verify", help="verify a single identity")
    pv.add_argument("id")
    common(pv)

    ps = sub.add_parser("suite", help="verify the whole registry")
    ps.add_argument("--filter", default=None,
                    help="comma-separated identity ids to run")
    common(ps)
    return parser


def _policy_from(args) -> PrecisionPolicy:
    return PrecisionPolicy(rel_tol=args.tol_rel, abs_tol=args.tol_abs,
                           max_terms=args.max_terms)


def _cmd_eval(args) -> int:
    fields, call = _EVAL_FUNCTIONS[args.function]
    values = []
    for name in fields:
        raw = getattr(args, name, None)
        if raw is None:
            print(f"eval {args.function}: missing --{name} RE IM", file=sys.stderr)
            return 2
        values.append(complex(raw[0], raw[1]))
    result = call(*values, _policy_from(args))
    print(f"{result.real:.17g}\t{result.imag:.17g}")
    return 0


def _validate_tols(args) -> None:
    for name in ("tol_rel", "tol_abs"):
        value = getattr(args, name)
        if value is not None and not value > 0:
            raise DomainError(f"--{name.replace('_', '-')} must be positive")


def _print_suite_table(report: SuiteReport) -> None:
    header = f"{'id':8} {'title':22} {'points':>6} {'pass':>9} {'worst_rel':>12} {'mode':>10}"
    print(header)
    for row in report.rows:
        rate = f"{row.passed}/{row.points}"
        worst = "-" if row.worst_rel_err is None else f"{row.worst_rel_err:.3e}"
        print(f"{row.identity_id:8} {row.title:22} {row.points:>6} {rate:>9} "
              f"{worst:>12} {row.mode:>10}")


def _run_and_write(args, ids: Optional[list]) -> SuiteReport:
    """Run the suite over ids (all when None) with the command's tolerance
    overrides, and write its report to --out or <command>_report.<format>."""
    _validate_tols(args)
    specs = list_identities() if ids is None else [get_identity(i) for i in ids]
    tols = {}
    for spec in specs:
        tol = args.tol_abs if spec.compare_mode == "absolute" else args.tol_rel
        if tol is not None:
            tols[spec.id] = tol
    report = run_suite(PrecisionPolicy(), tols=tols, count=args.count,
                       seed=args.seed, ids=ids)
    write_report(report, args.out or f"{args.command}_report.{args.format}", args.format)
    return report


def _cmd_verify(args) -> int:
    row = _run_and_write(args, [args.id]).rows[0]
    verdict = "PASS" if row.all_passed else "FAIL"
    worst = "-" if row.worst_rel_err is None else f"{row.worst_rel_err:.3e}"
    print(f"{row.identity_id} {verdict} {row.passed}/{row.points} worst_rel={worst}")
    return 0 if row.all_passed else 1


def _cmd_suite(args) -> int:
    ids = None
    if args.filter:
        ids = [token.strip() for token in args.filter.split(",") if token.strip()]
    report = _run_and_write(args, ids)
    _print_suite_table(report)
    return 0 if report.all_passed else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_suite(args)
    except UnknownIdentityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, OverflowError) as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
