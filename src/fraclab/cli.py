"""Command-line front end.

Subcommands:

    sieve        build the Moebius/Mertens table, optionally cache it
    correlate    one exact correlation E_X({nx}{mx})
    sine-series  truncations of -pi sum mu(n)/n {nx} against sin(2 pi x)
    series       partial sums of the correlation double series
    figure1      the canonical correlation profile n=1..12 against m=6
    figure2      the canonical partial-sum sweep N=1..100
    tails        Mertens ratio / tail integral report over cutoffs
    verify       run the 12 built-in acceptance criteria

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, 3 I/O error, 4 internal error (an identity the engine checks on
its own results failed; a bug, not bad input).  CSV output is
deterministic: a fixed configuration yields byte-identical bytes on
every run.

--limit is the ceiling of the sieve.  sieve, tails and verify read the
table up to --limit; sine-series, series and figure2 read only to
--n-max, the prefix they use.

The sieve cache path comes from --cache, falling back to the
FRACLAB_CACHE environment variable.  With a cache a command reads just
its prefix from it.  An unreadable cache, or one that does not reach
that prefix, is ignored with a warning and the sieve is rebuilt to
--limit (and re-saved, atomically); a larger cache is cut as it is
read, so output never depends on the cache.  Without a cache a command
sieves just its prefix.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import acceptance, arithmetic, exact, figures, series, tails
from .arithmetic import MoebiusTable, build_tables, load_cache, save_cache
from .formatting import format_decimal, rational_string

DEFAULT_LIMIT = 10**6
CACHE_ENV_VAR = "FRACLAB_CACHE"


class ConfigError(Exception):
    """Bad configuration detected before any real work starts."""


@dataclass
class RunConfig:
    sieve_limit: int = DEFAULT_LIMIT
    cache_path: Optional[str] = None
    output_path: Optional[str] = None
    precision_digits: int = 15


def _warn(message: str) -> None:
    print(f"fraclab: warning: {message}", file=sys.stderr)


def _preflight(config: RunConfig, needed: int) -> None:
    if config.sieve_limit < needed:
        raise ConfigError(
            f"sieve_limit {config.sieve_limit} is below the {needed} this command needs"
        )
    if config.sieve_limit < 1 or config.sieve_limit > arithmetic.MAX_LIMIT:
        raise ConfigError(
            f"sieve_limit must be in 1..{arithmetic.MAX_LIMIT}, got {config.sieve_limit}"
        )


def _get_table(config: RunConfig, needed: int, prefix_only: bool = False) -> MoebiusTable:
    """The table for a command that reads mu(1..needed).

    ``--limit`` is a ceiling, checked by ``_preflight``.  A ``prefix_only``
    command reads mu(1..needed), any other the table to ``--limit``: from
    the cache, read only that far, when it reaches it; otherwise sieved,
    to ``needed`` without a cache path, else to ``--limit`` and saved.
    """
    _preflight(config, needed)
    limit = config.sieve_limit
    read = needed if prefix_only else limit
    path = config.cache_path
    if not path:
        return build_tables(read)
    if os.path.exists(path):
        try:
            # prefix by keyword: perfbench's tracer reads a second
            # positional argument as the cache path
            cached = load_cache(path, prefix=read)
        except ValueError as exc:
            _warn(f"ignoring sieve cache: {exc}")
        else:
            if cached.limit == read:
                return cached
            _warn(
                f"sieve cache at {path} only reaches {cached.limit}; rebuilding to {limit}"
            )
    table = build_tables(limit)
    try:
        save_cache(table, path)
    except OSError as exc:
        _warn(f"could not write sieve cache {path}: {exc}")
    return table


def _require_positive(flag: str, value: int) -> None:
    if value < 1:
        raise ConfigError(f"{flag} must be >= 1, got {value}")


def _emit(config: RunConfig, text: str) -> None:
    if config.output_path:
        with open(config.output_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def cmd_sieve(config: RunConfig) -> int:
    table = _get_table(config, 1)
    lines = [
        f"limit,{table.limit}",
        f"mertens,{arithmetic.mertens(table, table.limit)}",
        f"squarefree_count,{arithmetic.squarefree_count(table, table.limit)}",
    ]
    _emit(config, "\n".join(lines) + "\n")
    return 0


def cmd_correlate(config: RunConfig, n: int, m: int, x_range: int, method: str) -> int:
    table_needed = 1  # correlations never touch the sieve
    _preflight(config, table_needed)
    if method == "closed-form":
        cv = exact.closed_form_value(n, m, x_range)
    else:
        cv = exact.expected_correlation(n, m, x_range)
    out = io.StringIO()
    out.write("n,m,X,value,value_exact,method,gcd\n")
    out.write(
        "%d,%d,%d,%s,%s,%s,%d\n"
        % (
            cv.n,
            cv.m,
            cv.X,
            format_decimal(cv.value, config.precision_digits),
            rational_string(cv.value),
            cv.method,
            math.gcd(n, m),
        )
    )
    _emit(config, out.getvalue())
    return 0


def _n_grid(n_max: int, points: int) -> List[int]:
    grid = np.unique(np.rint(np.geomspace(1, n_max, points)).astype(int))
    return [int(v) for v in grid]


def cmd_sine_series(config: RunConfig, x: float, n_max: int, points: int) -> int:
    _require_positive("--n-max", n_max)
    _require_positive("--points", points)
    if not math.isfinite(x):
        raise ConfigError(f"--x must be a finite number, got {x}")
    table = _get_table(config, n_max, prefix_only=True)
    target = math.sin(2.0 * math.pi * x)
    out = io.StringIO()
    out.write("N,x,value,target,abs_error\n")
    digits = config.precision_digits
    grid = _n_grid(n_max, points)
    for N, value in zip(grid, series.sine_series_partials(table, grid, x)):
        out.write(
            "%d,%s,%s,%s,%s\n"
            % (
                N,
                format_decimal(x, digits),
                format_decimal(value, digits),
                format_decimal(target, digits),
                format_decimal(abs(value - target), digits),
            )
        )
    _emit(config, out.getvalue())
    return 0


def cmd_series(config: RunConfig, n_max: int, exact_mode: bool, naive: bool) -> int:
    _require_positive("--n-max", n_max)
    table = _get_table(config, n_max, prefix_only=True)
    points = series.correlation_double_sum_sweep(
        table, n_max, fast=not naive, exact=exact_mode
    )
    _emit(config, figures.points_csv(points, config.precision_digits))
    return 0


def cmd_figure1(config: RunConfig) -> int:
    _preflight(config, 1)
    _emit(config, figures.figure1_csv(config.precision_digits))
    return 0


def cmd_figure2(config: RunConfig, n_max: int, naive: bool) -> int:
    _require_positive("--n-max", n_max)
    table = _get_table(config, n_max, prefix_only=True)
    _emit(
        config,
        figures.figure2_csv(table, n_max, fast=not naive, digits=config.precision_digits),
    )
    return 0


def cmd_tails(config: RunConfig, cutoffs: List[int], c: float) -> int:
    if not (math.isfinite(c) and c > 0):
        raise ConfigError(f"--c must be a positive finite number, got {c}")
    table = _get_table(config, max(cutoffs))
    report = tails.classical_bound_report(table, cutoffs, c)
    digits = config.precision_digits
    out = io.StringIO()
    out.write("N,mertens_ratio,tail_u2,tail_u1,bound_fit\n")
    for i, N in enumerate(report.cutoffs):
        out.write(
            "%d,%s,%s,%s,%s\n"
            % (
                N,
                format_decimal(report.mertens_ratio[i], digits),
                format_decimal(report.tail_u2[i], digits),
                format_decimal(report.tail_u1[i], digits),
                format_decimal(report.bound_fit[i], digits),
            )
        )
    _emit(config, out.getvalue())
    return 0


def cmd_verify(config: RunConfig, only: Optional[List[int]]) -> int:
    table = _get_table(config, acceptance.REQUIRED_LIMIT)
    results = acceptance.run_criteria(table, only)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.number:3d} {status} [{r.seconds:6.2f}s] {r.name}: {r.detail}")
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} criteria passed")
    report = series.residual_moment_report(table, 100)
    lines.append(
        "bookkeeping (report only): 1/2 + E(eps~_100) = %.6f vs "
        "pi^2/3 sum mu^2/n^2 + pi^2 S(100) = %.6f (Simpson sampling gap %.2e)"
        % (report.lhs, report.rhs, report.gap)
    )
    _emit(config, "\n".join(lines) + "\n")
    if passed != len(results):
        failing = ", ".join(str(r.number) for r in results if not r.passed)
        _warn(f"failing criteria: {failing}")
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--limit", type=int, default=DEFAULT_LIMIT,
                        help="sieve limit (default 10^6)")
    common.add_argument("--cache", help="sieve cache file (overrides FRACLAB_CACHE)")
    common.add_argument("--out", help="output file (default stdout)")
    common.add_argument("--digits", type=int, default=15,
                        help="significant digits for decimal columns")

    def add_naive(p):  # the double-sum route switch of series and figure2
        p.add_argument("--naive", "--no-fast-path", dest="naive", action="store_true",
                       help="the direct O(N^2) route, not the gcd-grouped fast one")

    parser = argparse.ArgumentParser(
        prog="fraclab",
        description="exact fractional-part correlations and Moebius-weighted series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("sieve", parents=[common], help="build (and cache) the sieve table")

    p = sub.add_parser("correlate", parents=[common], help="one exact correlation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--x-range", type=int, default=1, metavar="X",
                   help="expectation range X (default 1)")
    p.add_argument("--method", choices=["piecewise", "closed-form"],
                   default="piecewise")

    p = sub.add_parser("sine-series", parents=[common],
                       help="sine-series truncations at a point")
    p.add_argument("--x", type=float, required=True, help="evaluation point")
    p.add_argument("--n-max", type=int, default=10**5)
    p.add_argument("--points", type=int, default=25, help="size of the N grid")

    p = sub.add_parser("series", parents=[common],
                       help="partial sums of the correlation double series")
    p.add_argument("--n-max", type=int, default=100)
    p.add_argument("--exact", action="store_true",
                   help="exact rational mode (n-max capped at 300 when direct)")
    add_naive(p)

    sub.add_parser("figure1", parents=[common],
                   help="correlation profile n=1..12 against m=6 at X=100")

    p = sub.add_parser("figure2", parents=[common],
                       help="double-series partial sums against the limit")
    p.add_argument("--n-max", type=int, default=100)
    add_naive(p)

    p = sub.add_parser("tails", parents=[common], help="Mertens tail report")
    p.add_argument("--cutoffs", default="1000,10000,100000,1000000",
                   help="comma-separated cutoff grid")
    p.add_argument("--c", type=float, default=1.0,
                   help="exponent constant for the informational bound fit")

    p = sub.add_parser("verify", parents=[common],
                       help="run the built-in acceptance criteria")
    p.add_argument("--only", help="comma-separated criterion numbers")

    return parser


def _criterion_numbers(text: str) -> List[int]:
    known = [number for number, _, _ in acceptance.CRITERIA]
    try:
        numbers = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        numbers = []
    if not numbers or not set(numbers) <= set(known):
        raise ConfigError(
            f"--only needs criterion numbers in {min(known)}..{max(known)}, got {text!r}"
        )
    return numbers


def _cutoffs(text: str) -> List[int]:
    try:
        cutoffs = sorted({int(v) for v in text.split(",") if v.strip()})
    except ValueError:
        cutoffs = []
    if not cutoffs or cutoffs[0] < 1:
        raise ConfigError(f"--cutoffs needs one or more integers >= 1, got {text!r}")
    return cutoffs


def _config_from(args: argparse.Namespace) -> RunConfig:
    cache = args.cache if args.cache else os.environ.get(CACHE_ENV_VAR) or None
    return RunConfig(
        sieve_limit=args.limit,
        cache_path=cache,
        output_path=args.out,
        precision_digits=args.digits,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = _config_from(args)
    try:
        _require_positive("--digits", config.precision_digits)
        if args.command == "sieve":
            return cmd_sieve(config)
        if args.command == "correlate":
            return cmd_correlate(config, args.n, args.m, args.x_range, args.method)
        if args.command == "sine-series":
            return cmd_sine_series(config, args.x, args.n_max, args.points)
        if args.command == "series":
            return cmd_series(config, args.n_max, args.exact, args.naive)
        if args.command == "figure1":
            return cmd_figure1(config)
        if args.command == "figure2":
            return cmd_figure2(config, args.n_max, args.naive)
        if args.command == "tails":
            return cmd_tails(config, _cutoffs(args.cutoffs), args.c)
        if args.command == "verify":
            only = _criterion_numbers(args.only) if args.only else None
            return cmd_verify(config, only)
        parser.error(f"unknown command {args.command}")
    except AssertionError as exc:
        print(f"fraclab: internal error: {exc}", file=sys.stderr)
        return 4
    except ConfigError as exc:
        print(f"fraclab: error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"fraclab: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        target = getattr(exc, "filename", None) or config.output_path or ""
        print(f"fraclab: i/o error on {target}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
