"""Partial-sum engines for the Moebius-weighted sawtooth series.

Two families live here, both over a shared MoebiusTable:

* the sine series  -pi sum_{n<=N} mu(n)/n {nx}  -> sin(2 pi x), with the
  expansion of its square (``sine_squared_identity_gap``) and the exact
  period average of s_N(x)^2, s_N(x) = sum_{n<=N} mu(n)/n {nx}, checked
  against D(N)/3 + S(N) (``residual_moment_report``);
* the off-diagonal correlation double sum

      S(N) = sum_{n != m <= N} mu(n) mu(m) / (nm) * C(n, m),

  whose partial sums approach DOUBLE_SUM_LIMIT = -9 / (2 pi^2).

S(N) has two routes.  The direct route walks the O(N^2) square-free
pairs; in exact mode they reach the exact engine as two int64 arrays
(``exact._correlation_terms``), so no closed form is involved anywhere
on that path.  The fast route rewrites gcd(n, m)^2 through the Jordan
totient divisor identity sum_{d | g} J2(d) = g^2, J2 from
``arithmetic.build_jordan2``:

    S(N) = P(N)^2 / 4 + (1/12) sum_{d<=N} J2(d) A_d(N)^2 - D(N) / 3,
    A_d(N) = sum_{n<=N, d|n} mu(n)/n^2,   P(N) = sum mu(n)/n,
    D(N) = sum mu(n)^2/n^2,

which costs O(N log N).  The fast route leans on the closed-form
correlation law, so its exact-mode agreement with the direct route is a
real consistency check, not bookkeeping.

Each route has one implementation, an incremental sweep that returns
S(n) at each square-free n <= n_max, the only N where S(N) changes
(``_fast_sweep``, ``_direct_sweep``).  ``correlation_double_sum_sweep``
expands those to the plain values [S(1), ..., S(n_max)]: Fractions in
exact mode, floats otherwise.  The single-N functions
``correlation_double_sum`` and ``correlation_double_sum_fast`` return
the last value of a sweep to N.

Both fast modes run one integer loop: P, D, A_d and G are integers at a
fixed scale, each term mu(n)/n or mu(n)/n^2 times the scale rounded to
the nearest integer, and a row is 12 scale^2 S(n) as one integer.  Exact
mode takes the scale lcm(square-free n <= n_max)^2, which every n and
n^2 divides, so no term is ever rounded and each row becomes one
Fraction.  Float results are deterministic run to run.  Float mode
takes FIXED_POINT_SCALE = 2**128 and ends each row in one int/int true
division, which Python rounds correctly.  Its truncation error, below
N log N 2**-128, is far under half an ulp of S(N), so a row is the
correctly rounded value of the exact S(N) unless S(N) lies that close
to a rounding boundary (the tests check every N <= 2000).  The sine
series is also correctly rounded in its float64 terms:
``sine_series_partials`` builds them in chunks, takes the exact prefix
at every grid point in a chunk at once and rounds each one once
(``arithmetic._range_sums``), which gives every grid point in one pass
and the same bits as ``math.fsum`` over the term list.  The float
direct sweep sums its rows the same way, with a bound at each
square-free n, so each S(N) is the correctly rounded sum of the rows up
to N.  ``sine_squared_identity_gap`` rounds its sums the same way
(``arithmetic._fsum``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from itertools import accumulate
from typing import List, Sequence, Union

import numpy as np

from .arithmetic import InputError, MoebiusTable, _fsum, _range_sums, _smallest_factors, mertens
from .arithmetic import build_jordan2
from .exact import _correlation_terms

#: limiting value of the correlation double sum
DOUBLE_SUM_LIMIT = -9.0 / (2.0 * math.pi**2)

#: rational-mode guard for the direct O(N^2) double sum
DIRECT_EXACT_LIMIT = 300

#: guard for the O(N^2)-per-point squared-identity check
SQUARED_IDENTITY_LIMIT = 500

#: fixed-point scale of the float fast sweep
FIXED_POINT_SCALE = 2**128

#: S(N): a Fraction in exact mode, a float otherwise
Value = Union[float, Fraction]


def _check_x(x: float, N: int) -> None:
    """InputError unless x * N is finite, which for N >= 1 makes x finite too."""
    if not math.isfinite(x * N):
        raise InputError(f"x must be finite with x * N finite up to N={N}, got x={x}")


def _sin_two_pi(x: float) -> float:
    """sin(2 pi x) from the fraction of x alone: math.fmod(x, 1.0) is
    exact, where the error of the float 2 pi x grows with |x|."""
    return math.sin(2.0 * math.pi * math.fmod(x, 1.0))


def _check_direct_exact(n_max: int) -> None:
    if n_max > DIRECT_EXACT_LIMIT:
        raise InputError(f"exact direct sweep capped at N={DIRECT_EXACT_LIMIT}, got {n_max}")


def _sine_terms(table: MoebiusTable, x: float, a: int, b: int) -> np.ndarray:
    # mu(n)/n {nx} for n = a..b-1, elementwise.  For finite y, y - floor(y)
    # is bit for bit y % 1.0: both are exact for y >= 0, and for y < 0 both
    # round the same exact y + k once; numpy's float remainder is ~17x slower
    n = np.arange(a, b, dtype=np.float64)
    frac = n * x
    frac -= np.floor(frac)
    return table.mu[a:b].astype(np.float64) / n * frac


def sine_series_partials(table: MoebiusTable, Ns: Sequence[int], x: float) -> List[float]:
    """-pi sum_{n<=N} mu(n)/n {nx} for each N of the strictly increasing
    ``Ns``, in one prefix pass over the terms (``_range_sums``).

    Each sum is the correctly rounded value of its float64 terms.  The
    terms of n <= max(Ns) are built once, whatever the number of points.
    """
    Ns = table._check_increasing(Ns, "N values")
    if not Ns:
        return []
    _check_x(x, Ns[-1])
    sums = _range_sums(partial(_sine_terms, table, x), 1, [N + 1 for N in Ns])
    # 0.0 - pi*s is -pi*s for every nonzero s, and +0.0 (not -0.0) for s = 0
    return [0.0 - math.pi * s for s in sums]


def sine_series_partial(table: MoebiusTable, N: int, x: float) -> float:
    """-pi sum_{n<=N} mu(n)/n {nx}, the truncated sine series."""
    return sine_series_partials(table, [N], x)[0]


def _squarefree_upto(table: MoebiusTable, N: int) -> np.ndarray:
    return np.flatnonzero(table.mu[1 : N + 1]) + 1


def _direct_row_float(table: MoebiusTable, n: int, below: np.ndarray) -> float:
    # sum over square-free m < n of mu(m)/m * C(n, m), closed-form C
    if below.size == 0:
        return 0.0
    g = np.gcd(below, n).astype(np.float64)
    c = 0.25 + g * g / (12.0 * n * below.astype(np.float64))
    mum = table.mu[below].astype(np.float64)
    return float(np.sum(mum / below * c))


def _direct_sweep(table: MoebiusTable, n_max: int, exact: bool) -> List[Value]:
    """S(n) at each square-free n <= n_max by the direct route: the sum of
    the rows 2 mu(k)/k * sum_{m < k} mu(m)/m * C(k, m) of the square-free
    k <= n, m over the square-free m < k.

    Exact mode is capped at n_max <= DIRECT_EXACT_LIMIT, because the
    reduced denominators grow like lcm(1..N)^2.  Every C(k, m) = total/den
    comes from one engine batch of pair arrays, and a row sums its reduced
    mu(m) total / (m den) over their lcm in integers, so each row builds
    one Fraction.  Float mode uses the closed-form law per pair, and its
    prefix sums of the rows come from one pass of ``_range_sums``.
    """
    if exact:
        _check_direct_exact(n_max)
    sf = _squarefree_upto(table, n_max)
    ranked = list(enumerate(zip(sf.tolist(), table.mu[sf].tolist())))  # k, (n, mu(n))
    if not exact:
        row = partial(_direct_row_float, table)
        rows = np.array([2.0 * mu_n / n * row(n, sf[:k]) for k, (n, mu_n) in ranked])
        return _range_sums(lambda a, b: rows[a:b], 0, range(1, rows.size + 1))
    i, j = np.tril_indices(sf.size, -1)  # (n, m) = (sf[i], sf[j]), m < n, n-major
    total, den = _correlation_terms(sf[i], sf[j])
    num, den = table.mu[sf[j]] * total, sf[j] * den
    g = np.gcd(num, den)
    num, den = num // g, den // g
    rows = []
    for k, (n, mu_n) in ranked:
        row = slice(k * (k - 1) // 2, k * (k + 1) // 2)  # the k pairs of n
        lcm = np.lcm.reduce(den[row], initial=1)
        rows.append(Fraction(2 * mu_n * (num[row] * (lcm // den[row])).sum(), n * lcm))
    return list(accumulate(rows))


def _squarefree_divisors(n: int, spf: List[int]) -> List[int]:
    divs = [1]
    while n > 1:
        p = spf[n]
        divs += [d * p for d in divs]
        n //= p
    return divs


def _fast_sweep(table: MoebiusTable, n_max: int, exact: bool) -> List[Value]:
    sf = _squarefree_upto(table, n_max).tolist()
    # every mu(n)/n and mu(n)/n^2 is a multiple of 1/lcm(sf)^2, so at that
    # scale the rounded terms below are exact
    scale = math.lcm(*sf) ** 2 if exact else FIXED_POINT_SCALE
    mu = table.mu[: n_max + 1].tolist()
    spf = _smallest_factors(0, n_max + 1).tolist()
    j2 = build_jordan2(MoebiusTable(n_max, table.mu[: n_max + 1])).tolist()
    four_scale = 4 * scale
    row_den = 12 * scale * scale
    P = D = G = 0
    A = [0] * (n_max + 1)
    rows = []
    for n in sf:
        nn = n * n
        # mu(n) scale / n and mu(n) scale / n^2, rounded to the nearest integer
        P += (2 * mu[n] * scale + n) // (2 * n)
        delta = (2 * mu[n] * scale + nn) // (2 * nn)
        D += abs(delta)
        divs = _squarefree_divisors(n, spf)
        # A_d += delta for d | n; as sum_{d|n} J2(d) = n^2, that moves
        # G = sum_d J2(d) A_d^2 by delta * (2 sum_{d|n} J2(d) A_d + n^2 delta)
        G += delta * (2 * sum(j2[d] * A[d] for d in divs) + nn * delta)
        for d in divs:
            A[d] += delta
        rows.append(3 * P * P + G - four_scale * D)
    if exact:
        return [Fraction(v, row_den) for v in rows]
    return [v / row_den for v in rows]


def correlation_double_sum_sweep(
    table: MoebiusTable,
    n_max: int,
    fast: bool = True,
    exact: bool = False,
) -> List[Value]:
    """[S(1), ..., S(n_max)], computed incrementally.

    S(N) changes only at square-free N, so each route returns S at the
    square-free n <= n_max (``_fast_sweep`` or ``_direct_sweep``) and this
    function alone repeats each value up to the next square-free n.
    Both fast sweeps run one integer loop, at an exact scale in exact
    mode (module docstring): each new square-free n updates P, D, G and
    A_d for every d | n, with divisors from the smallest prime factors
    to n_max (``arithmetic._smallest_factors``) and J2 from
    ``arithmetic.build_jordan2`` over 1..n_max.
    The fast sweep makes one Fraction per row in exact mode and rounds
    each row once in float mode.  The direct sweeps add one row of pairs
    (n, m < n) per square-free n; the exact one accumulates Fractions.
    """
    table._check_index(n_max)
    rows = (_fast_sweep if fast else _direct_sweep)(table, n_max, exact)
    # the k-th value is S at the k-th square-free n, and 1 is square-free
    return [rows[k - 1] for k in np.cumsum(table.mu[1 : n_max + 1] != 0).tolist()]


def correlation_double_sum(table: MoebiusTable, N: int, exact: bool = False) -> Value:
    """S(N) by the direct pair loop: the last row of the direct sweep."""
    return correlation_double_sum_sweep(table, N, fast=False, exact=exact)[-1]


def correlation_double_sum_fast(table: MoebiusTable, N: int, exact: bool = False) -> Value:
    """S(N) through the gcd-grouped rearrangement: the last row of the
    fast sweep."""
    return correlation_double_sum_sweep(table, N, fast=True, exact=exact)[-1]


def sine_squared_identity_gap(table: MoebiusTable, N: int, x: float) -> float:
    """|sin^2(2 pi x) + eps~_N(x) - squared expansion| at truncation N.

    The expansion splits (sum_{n<=N} mu(n)/n {nx})^2 into its diagonal
    and off-diagonal double sums and every product is summed explicitly,
    so the returned gap measures floating-point noise only; the identity
    itself is exact at every truncation.
    """
    table._check_index(N)
    if N > SQUARED_IDENTITY_LIMIT:
        raise InputError(f"squared identity check capped at N={SQUARED_IDENTITY_LIMIT}, got {N}")
    a = _sine_terms(table, x, 1, N + 1)
    sin2 = _sin_two_pi(x)
    eps = -math.pi * _fsum(a) - sin2
    lhs = sin2 * sin2 + (2.0 * sin2 * eps + eps * eps)
    pi2 = math.pi * math.pi
    diagonal = pi2 * _fsum(a * a)
    products = np.outer(a, a)
    np.fill_diagonal(products, 0.0)
    off_diagonal = pi2 * _fsum(np.sum(products, axis=1))
    return abs(lhs - (diagonal + off_diagonal))


def residual_moment_report(table: MoebiusTable, N: int) -> Fraction:
    """E[s_N^2] = integral_0^1 s_N(x)^2 dx, s_N(x) = sum_{n<=N} mu(n)/n {nx},
    as an exact Fraction.  Squaring s_N term by term gives D(N)/3 + S(N),
    D(N) = sum mu(n)^2/n^2; a mismatch raises AssertionError, with S(N)
    from the exact direct route (the floor-sum engine).

    With L the lcm of the square-free n <= N, L s_N(t/L) = M(N) t - C(t),
    where the integer step function C jumps by mu(n) L/n at each multiple
    of L/n.  Between consecutive jumps t0 < t1 the integrand is linear,
    from a to b, so its integral there is (t1 - t0)(a^2 + ab + b^2)/3.
    """
    S = correlation_double_sum(table, N, exact=True)  # its guards come first
    sf = _squarefree_upto(table, N).tolist()
    mu = table.mu[: N + 1].tolist()
    L = math.lcm(*sf)
    jumps: dict = {}
    for n in sf:
        k = L // n
        for t in range(k, L + 1, k):
            jumps[t] = jumps.get(t, 0) + mu[n] * k
    M = mertens(table, N)
    total = t0 = c = 0
    for t1 in sorted(jumps):
        a, b = M * t0 - c, M * t1 - c
        total += (t1 - t0) * (a * a + a * b + b * b)
        c += jumps[t1]
        t0 = t1
    value = Fraction(total, 3 * L**3)
    books = Fraction(sum((L // n) ** 2 for n in sf), 3 * L * L) + S
    if value != books:
        raise AssertionError(f"E[s_N^2] = {value} but D(N)/3 + S(N) = {books} at N={N}")
    return value
