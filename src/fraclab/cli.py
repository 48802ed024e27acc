"""Command-line front end.

``_build_parser`` is the one description of the command line: each
subcommand's parser names its body with ``set_defaults(run=cmd_x)``,
and ``main`` calls ``args.run(args)``.  ``fraclab --help`` lists the
subcommands.  ``figure2`` runs ``cmd_series``: it is ``series`` without
``--exact``.  Every CSV table (a header row, then one line per row)
is rendered by ``figures.csv_text``.

Exit codes: 0 success, 1 verification failure, 2 usage error or bad
input (an ``InputError``, from a flag check here or an entry check of the
library, each rule written once), 3 I/O error, 4 internal error (any
other exception, a failed identity on the program's own results
included; a bug, not bad input).  CSV output is deterministic: a fixed
configuration yields byte-identical bytes on every run.

--limit is the ceiling of the sieve, in 1..MAX_LIMIT, checked first in
``main``.  sieve and tails read the table up to --limit; sine-series,
series and figure2 read only to --n-max, and verify only to the 10^6.

The sieve cache path comes from --cache, falling back to the
FRACLAB_CACHE environment variable.  With a cache a command reads just
its prefix from it.  A cache ``load_cache`` refuses (unreadable,
corrupt, or short of that prefix) is ignored with a warning, a missing
one silently, and the sieve is rebuilt to --limit (and re-saved,
atomically); a larger cache is cut as it is read, so output never
depends on the cache.  Without a cache a command sieves just its prefix.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable, List, Optional

import numpy as np

from . import acceptance, arithmetic, exact, figures, series, tails
from .arithmetic import InputError, MoebiusTable, build_tables, load_cache, save_cache
from .formatting import _check_digits, rational_string

DEFAULT_LIMIT = 10**6
CACHE_ENV_VAR = "FRACLAB_CACHE"

#: largest sine-series --points: the N grid is built in full before its
#: duplicates go, and it holds at most --n-max distinct N anyway
MAX_POINTS = 10**6


def _warn(message: str) -> None:
    print(f"fraclab: warning: {message}", file=sys.stderr)


def _preflight(args: argparse.Namespace, needed: int) -> None:
    if args.limit < needed:
        raise InputError(f"sieve_limit {args.limit} is below the {needed} this command needs")


def _get_table(args: argparse.Namespace, read: int) -> MoebiusTable:
    """The read-only table of mu(1..read) for a command that reads that
    prefix, whatever the cache holds.

    ``--limit`` is a ceiling, checked by ``main`` and ``_preflight``.  The
    prefix is sieved without a cache path, else read from the cache, which
    gives exactly that prefix or raises; on a refusal the sieve is rebuilt
    to ``--limit`` and saved, and the prefix of that table returned.
    """
    _preflight(args, read)
    path = args.cache
    if not path:
        return build_tables(read)
    try:
        # prefix by keyword: perfbench's tracer reads a second
        # positional argument as the cache path
        return load_cache(path, prefix=read)
    except FileNotFoundError:
        pass
    except (OSError, ValueError) as exc:
        _warn(f"ignoring sieve cache: {exc}; rebuilding to {args.limit}")
    table = build_tables(args.limit)
    try:
        save_cache(table, path)
    except OSError as exc:
        _warn(f"could not write sieve cache {path}: {exc}")
    return MoebiusTable(limit=read, mu=table.mu[: read + 1])


def _require_positive(flag: str, value: int) -> None:
    if value < 1:
        raise InputError(f"{flag} must be >= 1, got {value}")


def _int_list(text: str, ok: Callable[[int], bool], rule: str) -> List[int]:
    """The distinct comma-separated integers of ``text``, sorted; InputError
    on ``rule`` unless there is one or more and ``ok`` holds for each."""
    try:
        values = sorted({int(v) for v in text.split(",") if v.strip()})
    except ValueError:
        values = []
    if not values or not all(map(ok, values)):
        raise InputError(f"{rule}, got {text!r}")
    return values


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def cmd_sieve(args: argparse.Namespace) -> int:
    table = _get_table(args, args.limit)
    lines = [
        f"limit,{table.limit}",
        f"mertens,{arithmetic.mertens(table, table.limit)}",
        f"squarefree_count,{arithmetic.squarefree_count(table, table.limit)}",
    ]
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_correlate(args: argparse.Namespace) -> int:
    n, m, X = args.n, args.m, args.x_range
    # the library checks n and m before any engine work; closed-form never sees X
    _require_positive("--x-range", X)
    if args.method == "closed-form":
        value = exact.correlation_closed_form(n, m)
    else:
        value = exact.expected_correlation(n, m, X)
    row = (n, m, X, value, rational_string(value), args.method.replace("-", "_"),
           math.gcd(n, m))
    _emit(args, figures.csv_text("n,m,X,value,value_exact,method,gcd", [row], args.digits))
    return 0


def _n_grid(n_max: int, points: int) -> List[int]:
    # a one-point grid is n_max, where every longer grid ends
    grid = np.rint(np.geomspace(1 if points > 1 else n_max, n_max, points)).astype(int)
    return arithmetic._sorted_distinct(grid).tolist()


def cmd_sine_series(args: argparse.Namespace) -> int:
    _require_positive("--n-max", args.n_max)
    _require_positive("--points", args.points)
    if args.points > MAX_POINTS:
        raise InputError(f"--points must be <= {MAX_POINTS}, got {args.points}")
    x = args.x
    _preflight(args, args.n_max)  # else a huge --n-max overflows in x * n_max
    series._check_x(x, args.n_max)
    if not math.isfinite(2.0 * math.pi * x):
        raise InputError(f"--x is too large: 2 pi x overflows, got {x}")
    table = _get_table(args, args.n_max)
    target = series._sin_two_pi(x)
    grid = _n_grid(args.n_max, args.points)
    rows = (
        (N, x, value, target, abs(value - target))
        for N, value in zip(grid, series.sine_series_partials(table, grid, x))
    )
    _emit(args, figures.csv_text("N,x,value,target,abs_error", rows, args.digits))
    return 0


def cmd_series(args: argparse.Namespace) -> int:
    _require_positive("--n-max", args.n_max)
    if args.exact and args.naive:
        series._check_direct_exact(args.n_max)
    table = _get_table(args, args.n_max)
    values = series.correlation_double_sum_sweep(
        table, args.n_max, fast=not args.naive, exact=args.exact
    )
    _emit(args, figures.points_csv(values, args.digits))
    return 0


def cmd_figure1(args: argparse.Namespace) -> int:
    _emit(args, figures.figure1_csv(args.digits))
    return 0


def cmd_tails(args: argparse.Namespace) -> int:
    rule = "--cutoffs needs one or more integers >= 1"
    cutoffs = _int_list(args.cutoffs, lambda N: N >= 1, rule)
    tails._check_c(args.c)
    _preflight(args, max(cutoffs))
    table = _get_table(args, args.limit)
    rows = tails.classical_bound_report(table, cutoffs, args.c)
    _emit(args, figures.csv_text("N,mertens_ratio,tail_u2,tail_u1,bound_fit", rows,
                                 args.digits))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    known = [number for number, _, _ in acceptance.CRITERIA]
    rule = f"--only needs criterion numbers in {min(known)}..{max(known)}"
    only = _int_list(args.only, lambda k: k in known, rule) if args.only else None
    table = _get_table(args, acceptance.REQUIRED_LIMIT)
    results = acceptance.run_criteria(table, only)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.number:3d} {status} {r.name}: {r.detail}")
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} criteria passed")
    moment = series.residual_moment_report(table, 100)
    lines.append(
        "bookkeeping (report only): pi^2 E(s_100^2) = pi^2/3 sum mu^2/n^2 + pi^2 S(100)"
        " = %.6f (exact rational equality; s_N(x) = sum mu(n)/n {nx})"
        % (math.pi**2 * float(moment))
    )
    _emit(args, "\n".join(lines) + "\n")
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

    def add(name, run, summary):  # a subcommand and the body that runs it
        p = sub.add_parser(name, parents=[common], help=summary)
        p.set_defaults(run=run)
        return p

    add("sieve", cmd_sieve, "build (and cache) the sieve table")

    p = add("correlate", cmd_correlate, "one exact correlation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--x-range", type=int, default=1, metavar="X",
                   help="expectation range X (default 1)")
    p.add_argument("--method", choices=["piecewise", "closed-form"],
                   default="piecewise")

    p = add("sine-series", cmd_sine_series, "sine-series truncations at a point")
    p.add_argument("--x", type=float, required=True, help="evaluation point")
    p.add_argument("--n-max", type=int, default=10**5)
    p.add_argument("--points", type=int, default=25, help="size of the N grid")

    p = add("series", cmd_series, "partial sums of the correlation double series")
    p.add_argument("--n-max", type=int, default=100)
    p.add_argument("--exact", action="store_true",
                   help="exact rational mode (n-max capped at 300 when direct)")
    add_naive(p)

    add("figure1", cmd_figure1, "correlation profile n=1..12 against m=6 at X=100")

    p = add("figure2", cmd_series, "double-series partial sums against the limit")
    p.add_argument("--n-max", type=int, default=100)
    p.set_defaults(exact=False)
    add_naive(p)

    p = add("tails", cmd_tails, "Mertens tail report")
    p.add_argument("--cutoffs", default="1000,10000,100000,1000000",
                   help="comma-separated cutoff grid")
    p.add_argument("--c", type=float, default=1.0,
                   help="exponent constant for the informational bound fit")

    p = add("verify", cmd_verify, "run the built-in acceptance criteria")
    p.add_argument("--only", help="comma-separated criterion numbers")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    args.cache = args.cache or os.environ.get(CACHE_ENV_VAR) or None
    try:
        arithmetic._check_limit(args.limit)
        _check_digits(args.digits)
        return args.run(args)
    except InputError as exc:
        print(f"fraclab: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        target = getattr(exc, "filename", None) or args.out or ""
        print(f"fraclab: i/o error on {target}: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"fraclab: internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
