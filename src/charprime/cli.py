"""Command-line front end.

Subcommands:

  compute    print one series value with its certification status
  reproduce  recompute the source tables and report per-row verdicts
  verify     run the self-check suites
  scan       search for a simple rational N with value = ln(pi) - ln(N)

Exit codes: 0 success; 1 a reproduction row mismatched, a check failed or
stdout was closed early; 2 bad usage or an uncertifiable request.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation

from . import __version__
from .arith import format_decimal, parse_decimal, precision
from .beta import beta_closed
from .checks import run_checks
from .exclusion import SeriesValue
from .logmethod import assemble_O, closed_form_scan, w_inversion
from .report import TABLE_IDS, build_table, to_csv, to_json, to_json_obj, to_text

ENV_WORKING_DIGITS = "CHARPRIME_WORKING_DIGITS"

FORMATS = ("text", "csv", "json")
STYLES = ("period", "euler-comma")


def _default_working_digits() -> int:
    raw = os.environ.get(ENV_WORKING_DIGITS)
    if raw is None:
        return 50
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"invalid {ENV_WORKING_DIGITS}={raw!r}: expected an integer")


@dataclass
class RunConfig:
    """Resolved options shared by all subcommands.

    ``working_digits`` and ``max_k`` are floors: the library raises the
    working precision and the assembly depth as far as ``digits`` needs.
    """

    digits: int = 7
    working_digits: int = field(default_factory=_default_working_digits)
    primes: int = 10_000
    max_k: int = 10
    format: str = "text"
    decimal_style: str = "period"

    def validate(self) -> None:
        if self.digits < 1:
            raise ValueError("--digits must be >= 1")
        if self.primes < 1 or self.max_k < 1:
            raise ValueError("depths must be >= 1")
        if self.working_digits < 1:
            raise ValueError("--working-digits must be >= 1")
        if self.format not in FORMATS:
            raise ValueError(f"--format must be one of {FORMATS}")
        if self.decimal_style not in STYLES:
            raise ValueError(f"--decimal-style must be one of {STYLES}")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--digits", type=int, default=7, help="certified output digits (default 7)")
    p.add_argument("--working-digits", type=int, default=None,
                   help=f"least internal precision (default 50, or {ENV_WORKING_DIGITS}); "
                        "raised as --digits needs")
    p.add_argument("--primes", type=int, default=10_000,
                   help="cap on exclusion depth in primes (default 10000); read by "
                        "verify (the oracle steps) and echoed by reproduce; compute "
                        "and scan accept it and ignore it")
    p.add_argument("--max-k", type=int, default=10,
                   help="least assembly depth in terms W(2k+1)/(2k+1) (default 10); "
                        "raised as --digits needs; read by reproduce (table s28) "
                        "and scan (its default value); compute accepts it and "
                        "ignores it")
    p.add_argument("--format", choices=FORMATS, default="text")
    p.add_argument("--decimal-style", choices=STYLES, default="period")


def _config(args) -> RunConfig:
    cfg = RunConfig(digits=args.digits, primes=args.primes, max_k=args.max_k,
                    format=args.format, decimal_style=args.decimal_style)
    if args.working_digits is not None:
        cfg.working_digits = args.working_digits
    return cfg


def _certified_digits(value) -> int:
    # certifies(d) holds exactly when 2 * err < 10**-d.
    if value.err == 0:
        return 999
    return max(0, -(2 * value.err).adjusted() - 1)


def _print_series(sv: SeriesValue, cfg: RunConfig) -> None:
    shown = format_decimal(sv.value, cfg.digits, cfg.decimal_style)
    name = f"{sv.series}({sv.n})" if sv.series == "W" else f"beta({sv.n})"
    print(f"{name} = {shown}")
    print(f"method: {sv.method}")
    print(f"rigorous: {'yes' if sv.rigorous else 'no'}")
    print(f"certified_digits: {_certified_digits(sv.value)}")
    print(f"error_bound: {sv.value.err:.2E}")


def cmd_compute(args) -> int:
    cfg = _config(args)
    cfg.validate()
    with precision(cfg.working_digits):
        if args.series == "W":
            sv = w_inversion(args.n, cfg.digits)
        else:
            bv = beta_closed(args.n, cfg.digits)
            sv = SeriesValue("beta", args.n, bv.value, method="closed-form", rigorous=True)
        _print_series(sv, cfg)
    return 0


def cmd_reproduce(args) -> int:
    cfg = _config(args)
    cfg.validate()
    ids = TABLE_IDS if args.table == "all" else (args.table,)
    with precision(cfg.working_digits):
        tables = [build_table(tid, cfg) for tid in ids]
    if cfg.format == "json":
        import json as _json
        if len(tables) == 1:
            sys.stdout.write(to_json(tables[0]))
        else:
            sys.stdout.write(_json.dumps([to_json_obj(t) for t in tables], indent=2) + "\n")
    elif cfg.format == "csv":
        for t in tables:
            sys.stdout.write(to_csv(t))
    else:
        for t in tables:
            sys.stdout.write(to_text(t, cfg.decimal_style))
    return 0 if all(t.clean for t in tables) else 1


def cmd_verify(args) -> int:
    cfg = _config(args)
    cfg.validate()
    results = run_checks(cfg)
    ok = all(r.passed for r in results)
    if cfg.format == "json":
        import json as _json
        payload = {
            "groups": [{"group": r.group, "passed": r.passed, "detail": r.detail}
                       for r in results],
            "all_passed": ok,
        }
        sys.stdout.write(_json.dumps(payload, indent=2) + "\n")
    else:
        for r in results:
            print(f"{r.group}: {'PASS' if r.passed else 'FAIL'} ({r.detail})")
        print(f"verify: {'all groups pass' if ok else 'FAILURES PRESENT'}")
    return 0 if ok else 1


def cmd_scan(args) -> int:
    cfg = _config(args)
    cfg.validate()
    try:
        tol = Decimal(args.tol)
    except InvalidOperation:
        raise ValueError(f"invalid --tol {args.tol!r}")
    with precision(cfg.working_digits):
        if args.value is not None:
            value = parse_decimal(args.value)
        else:
            need = max(cfg.digits, 2 - tol.adjusted())
            value = assemble_O(cfg.max_k, need).series.value
        candidates = closed_form_scan(value, args.max_den, tol)
        if not candidates:
            print("no candidate found")
        for c in candidates:
            print(f"N = {c.numerator}/{c.denominator}   "
                  f"residual = {c.residual.value:.3E}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charprime",
        description="Alternating prime series W(n), its tables, and their errata.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="print one series value")
    p.add_argument("series", choices=("W", "beta"))
    p.add_argument("n", type=int, help="odd exponent")
    _add_common(p)
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("reproduce", help="recompute a source table")
    p.add_argument("--table", choices=TABLE_IDS + ("all",), default="all")
    _add_common(p)
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser("verify", help="run the self-check suites")
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("scan", help="search for value = ln(pi) - ln(num/den)")
    p.add_argument("--max-den", type=int, default=1000)
    p.add_argument("--tol", default="1e-7")
    p.add_argument("--value", default=None,
                   help="decimal value to scan (default: the assembled W(1))")
    _add_common(p)
    p.set_defaults(fn=cmd_scan)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout.  Point stdout at devnull so the flush at
        # interpreter exit cannot raise again, and end without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
