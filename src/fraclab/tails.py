"""Finite-truncation diagnostics for Mertens-weighted tail integrals.

M(u) = M(floor(u)) is a right-continuous step function, so integrals of
M(u)/u^2 and M(u)/u over [N, U] are finite sums over unit steps:

    integral M(u)/u^2 du = sum_{k=N}^{U-1} M(k) (1/k - 1/(k+1))
    integral M(u)/u  du  = sum_{k=N}^{U-1} M(k) ln((k+1)/k)

Each pass of ``_FSUM_CHUNK`` steps builds both columns as one (2, b - a)
block (``_tail_terms``), and ``_tail_sums`` sums each row to the
correctly rounded value of its float64 terms, what math.fsum over the
term list gives (``arithmetic._range_sums``).  The block's M values are
built as they are summed (``_MertensRun``): M(a - 1), carried from the
block before, plus the cumulative sum of mu over the block, exact
integers below 2^53.  ``classical_bound_report`` returns the rows the
``tails`` command prints: one prefix pass to the table limit gives both
columns' sums at every cutoff, each tail the whole sum less its prefix,
rounded once; M at the cutoffs is summed from mu apart from the pass.

``abel_identity_check`` verifies the summation-by-parts expansion of
sum_{N<n<=U} mu(n)/n {nx} at finite range.  With f(u) = {ux}/u taken
right-continuous, the exact identity is

    sum_{N<n<=U} mu(n) f(n)
        = M(U) f(U) - M(N) f(N)
          - x * integral_N^U M(u)/u du
          + integral_N^U M(u) {ux} / u^2 du
          + x * sum_{N < k/x <= U} M((k/x)^-) / k,

where the last sum collects the unit downward jumps of {ux} at
u = k/x.  There are no distributions here, only explicit jump
bookkeeping: when a jump point coincides with an integer step of M the
weight is M at the left limit, which is what the closed-open step
convention forces (and what a one-step worked example confirms; see the
tie-break tests).

For rational x = p/q every breakpoint is exact: in the scaled variable
t = u * p, integer steps of M land on multiples of p and jump points on
multiples of q, so the pieces come from one all-integer merge of the
two sets of multiples (concatenated, sorted, equal neighbours dropped).
Irrational x would make the breakpoints approximate and the 1e-9
contract unattainable, hence rational x only.

The check also needs x small against U.  The piece terms
M floor(ux) p (1/t1 - 1/t0) telescope, so the rounding of each 1/t (at
most 2^-53/t) is weighted by p times the jump of M floor(ux) at t:
about x 2^-53 at every step of M and at both ends, |M(u)| 2^-53/u at
every {ux}-jump.  With |M(u)| <= u that is at most about
4 floor(U x) 2^-53, 4.4e-10 for floor(U x) <= MAX_FLOOR_UX = 10^6,
which also caps the jump points in (N, U] at 10^6.

The log terms M x log1p((t1 - t0)/t0) do not telescope.  Each is within
a few ulps of its value, about 6 2^-53 of it (one rounding of the
argument, an ulp or so of np.log1p, the products), so together they
are off by about

    6 2^-53 x integral_N^U |M(u)|/u du  <  12 2^-53 x (sqrt(U) - 1),

as |M(u)| < sqrt(u) far past any table (Kotnik & van de Lune,
Experimental Math. 13, 2004).  Under floor(U x) <= 10^6 that is at most
3.3e-10 (at U = 4), so with the terms above the check stays below
1e-9; at the x <= 2, U <= 10^4 of criterion 8 it is under 3e-13.
"""

from __future__ import annotations

import itertools
import math
from decimal import Decimal
from fractions import Fraction
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .arithmetic import InputError, MoebiusTable, _check_integer, _sorted_distinct
from .arithmetic import _fsum, _range_sums

#: largest denominator accepted for the rational evaluation point
MAX_X_DENOMINATOR = 1000

#: largest floor(U x) accepted: past it the rounding of the step
#: integral can reach the 1e-9 contract (module docstring)
MAX_FLOOR_UX = 10**6


def _check_range(table: MoebiusTable, N: int, U: int) -> None:
    _check_integer(N)
    _check_integer(U)
    if not 1 <= N < U <= table.limit:
        raise InputError(f"need 1 <= N < U <= {table.limit}, got N={N}, U={U}")


class _MertensRun:
    """int64 M(k) for k = a..b-1, over consecutive blocks [a, b) from
    ``start`` on: M(a - 1), carried from the block before, plus the
    cumulative sum of mu[a:b].  Only the first block pays for the prefix
    before it, an O(start) buffered sum of mu.  ``last`` is M(b - 1) of
    the latest block, M(start - 1) before the first."""

    def __init__(self, table: MoebiusTable, start: int) -> None:
        self.mu = table.mu
        self.stop = start
        self.last = int(np.sum(table.mu[:start], dtype=np.int64))

    def __call__(self, a: int, b: int) -> np.ndarray:
        if a != self.stop or b <= a:
            raise AssertionError(f"M block [{a}, {b}) does not follow [.., {self.stop})")
        block = np.cumsum(self.mu[a:b], dtype=np.int64)
        block += self.last
        self.stop, self.last = b, int(block[-1])
        return block


def _tail_terms(a: int, b: int, M: np.ndarray) -> np.ndarray:
    """The (2, b - a) block of tail terms for k = a..b-1 from the block
    ``M`` of M(a..b-1): M(k) (1/k - 1/(k+1)) = M(k) / (k (k+1)), then
    M(k) ln((k+1)/k) = M(k) log1p(1/k), elementwise."""
    k = np.arange(a, b, dtype=np.float64)
    m = M.astype(np.float64)
    terms = np.empty((2, b - a))
    d = k + 1.0
    d *= k
    np.divide(m, d, out=terms[0])
    # 1/k into d: a fresh buffer here made a 10^7 pass ~20 % slower
    np.divide(1.0, k, out=d)
    np.log1p(d, out=d)
    np.multiply(m, d, out=terms[1])
    return terms


def _tail_sums(
    M: Callable[[int, int], np.ndarray], start: int, bounds: Sequence[int], tails: bool = False
) -> List[List[float]]:
    """``_range_sums`` of both tail columns, one list each; ``M(a, b)``
    returns the block M(a..b-1), asked for pass by pass."""
    return _range_sums(lambda a, b: _tail_terms(a, b, M(a, b)), start, bounds, rows=2, tails=tails)


def tail_integral_u2(table: MoebiusTable, N: int, U: int) -> float:
    """integral_N^U M(u)/u^2 du over the exact unit steps of M."""
    _check_range(table, N, U)
    return _tail_sums(_MertensRun(table, N), N, [U])[0][0]


def tail_integral_u1(table: MoebiusTable, N: int, U: int) -> float:
    """integral_N^U M(u)/u du over the exact unit steps of M."""
    _check_range(table, N, U)
    return _tail_sums(_MertensRun(table, N), N, [U])[1][0]


def _coerce_x(x) -> Fraction:
    if isinstance(x, (float, np.floating, Decimal)):  # by its exact value
        try:
            x = Fraction(*x.as_integer_ratio())
        except (ValueError, OverflowError):  # a NaN or an infinity
            raise InputError(f"x must be finite, got {x}") from None
    xf = Fraction(x)
    if xf <= 0:
        raise InputError(f"x must be positive, got {xf}")
    if xf.denominator > MAX_X_DENOMINATOR:
        raise InputError(
            f"x denominator {xf.denominator} exceeds {MAX_X_DENOMINATOR}; "
            "breakpoints would blow up"
        )
    return xf


def _jumps(N: int, U: int, p: int, q: int) -> np.ndarray:
    """The k whose jump point u = k/x, x = p/q, lies in (N, U].

    Raises InputError when floor(U x) exceeds MAX_FLOOR_UX.
    """
    k1 = U * p // q  # floor(U x)
    if k1 > MAX_FLOOR_UX:
        raise InputError(
            f"x={p}/{q} gives floor(U x) = {k1} at U={U}, past the limit "
            f"MAX_FLOOR_UX = {MAX_FLOOR_UX} of the 1e-9 check"
        )
    return np.arange(N * p // q + 1, k1 + 1, dtype=np.int64)


def _jump_sum(M: np.ndarray, N: int, k: np.ndarray, p: int, q: int) -> float:
    """x * sum over jump points u0 = k/x in (N, U] of M(u0^-) / k, with
    ``k`` = ``_jumps(N, U, p, q)`` and ``M[i]`` = M(N + i) for
    0 <= i <= U - N.

    M steps at the integers, so its left limit at u0 = kq/p is
    M(ceil(u0) - 1) = M((kq - 1) // p): one index lower when u0 is an
    integer.
    """
    left = M[(k * q - 1) // p - N].astype(np.float64)
    return _fsum(left * (p / q) / k)


def _step_pieces(
    M: np.ndarray, N: int, U: int, k: np.ndarray, p: int, q: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Arrays (t0, t1, M, floor(ux)) of the pieces of [N, U] scaled by
    t = u * p, with ``k`` = ``_jumps(N, U, p, q)`` and ``M[i]`` = M(N + i)
    for 0 <= i <= U - N.

    The breakpoints are the multiples of p (integer u, where M steps) and
    of q (jump points of {ux}) in [Np, Up], merged by concatenating,
    sorting and dropping equal neighbours; on each closed-open piece both
    M(u) = M(t0 // p) and floor(ux) = t0 // q are constant.
    """
    bp = _sorted_distinct(np.concatenate((np.arange(N, U + 1, dtype=np.int64) * p, k * q)))
    t0, t1 = bp[:-1], bp[1:]
    return t0, t1, M[t0 // p - N], t0 // q


def abel_identity_check(table: MoebiusTable, N: int, U: int, x) -> float:
    """|direct sum - summation-by-parts expansion| for sum mu(n)/n {nx}.

    Both sides are evaluated independently: the left as the literal term
    sum with exact rational fractional parts, the right from Mertens
    boundary values, the two step integrals, and the jump sum.  The log
    content of -x * integral M/u and of integral M {ux}/u^2 cancels only
    numerically, which is the point of the check.
    """
    _check_range(table, N, U)
    xf = _coerce_x(x)
    p, q = xf.numerator, xf.denominator
    k = _jumps(N, U, p, q)  # the MAX_FLOOR_UX guard, before any sum

    # mu(n) {nx} / n term by term, q {nx} = n p mod q; mu (n p mod q), q and
    # n are exact in float64, so each division rounds as Python's int / int does
    n = np.arange(N + 1, U + 1, dtype=np.int64)
    lhs = _fsum(table.mu[N + 1 : U + 1] * (n * (p % q) % q) / q / n)

    M = _MertensRun(table, N)(N, U + 1)  # M(N..U), shared by every term below
    boundary = (
        int(M[-1]) * ((U * p) % q) / q / U
        - int(M[0]) * ((N * p) % q) / q / N
    )
    drift = -(p / q) * _tail_sums(lambda a, b: M[a - N : b - N], N, [U])[1][0]
    t0, t1, m, a = _step_pieces(M, N, U, k, p, q)
    logs = np.log1p((t1 - t0) / t0)
    # a * float(p): a p < 2^53 under MAX_FLOOR_UX, so the float product is exact
    frac_integral = _fsum(m * ((p / q) * logs + a * float(p) * (1.0 / t1 - 1.0 / t0)))
    rhs = boundary + drift + frac_integral + _jump_sum(M, N, k, p, q)
    return abs(lhs - rhs)


def _check_c(c: float) -> None:
    if not (math.isfinite(c) and c > 0):
        raise InputError(f"c must be positive and finite, got {c}")


def _bound_fit(m: int, N: int, c: float) -> float:
    """|m| e^{c sqrt(log N)} / N: exactly 0 when m = 0 (not 0 * inf =
    nan), inf when the exponential passes the float range."""
    if m == 0:
        return 0.0
    try:
        return abs(m) * math.exp(c * math.sqrt(math.log(N))) / N
    except OverflowError:
        return math.inf


def classical_bound_report(
    table: MoebiusTable, cutoffs: Sequence[int], c: float = 1.0
) -> List[Tuple[int, float, float, float, float]]:
    """The rows (N, M(N)/N, tail_u2, tail_u1, bound_fit), one per cutoff:
    the Mertens ratio, the truncated tails to the table limit, and the
    informational fit |M(N)| e^{c sqrt(log N)} / N.

    The fit column is diagnostic only; no bound is asserted on it.  The
    exponent constant c is not pinned by theory at desk scale, so it is
    a parameter with default 1.  The cutoffs must strictly increase within
    1..limit.  They and c are validated once, before anything is summed: a
    cutoff outside 1..limit raises IndexError, any other fault InputError.
    """
    _check_c(c)
    cuts = table._check_increasing(cutoffs, "cutoffs")
    # a cutoff at the limit gets the empty tail 0.0; the zip below drops
    # the tail from the limit bound itself
    start = cuts[0] if cuts else table.limit
    u2, u1 = _tail_sums(_MertensRun(table, start), start, [*cuts, table.limit], tails=True)
    # M at each cutoff: the M before plus mu between them, O(limit) in all
    ms = itertools.accumulate(int(table.mu[a + 1 : b + 1].sum()) for a, b in zip([0, *cuts], cuts))
    return [(N, m / N, a, b, _bound_fit(m, N, c)) for N, m, a, b in zip(cuts, ms, u2, u1)]
