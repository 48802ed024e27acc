"""Reference values computed apart from fraclab, and the checks of its outputs.

Nothing here imports fraclab.  Moebius mu comes from a numpy prime-stride
sieve, Mertens values and square-free counts from its prefix sums, and every
correlation from the closed-form law 1/4 + gcd(n, m)^2 / (12 n m).  A check
raises ``Mismatch`` naming the first row that disagrees.

Tolerances for float columns (the program prints 15 significant digits):

* ``series`` / ``figure2`` float rows: 2e-15 absolute.  S(N) is summed here in
  80-bit long double, so the tolerance covers the 15-digit rounding of the
  printed value (at most 5e-16 for |S| < 1) plus a few ulps of the program's
  own float error.  Exact rows (``--exact``) must match digit for digit.
* ``sine-series`` rows: 1e-13 absolute (sums of up to 10^7 terms).
* ``tails`` rows: 1e-13 relative plus 1e-15 absolute; ``mertens_ratio`` must
  match digit for digit, since M(N)/N is one correctly rounded division.
"""

from __future__ import annotations

import decimal
import math
import struct
from fractions import Fraction
from typing import Dict, List, Sequence

import numpy as np

#: published values (OEIS A002321 and A013928), used to check the reference
#: sieve itself before it checks anything else
REF_MERTENS = {10**3: 2, 10**4: -23, 10**5: -48, 10**6: 212, 10**7: 1037}
REF_SQUAREFREE = {10**6: 607926, 10**7: 6079291}

LIMIT_TARGET = -9.0 / (2.0 * math.pi**2)

SERIES_TOL = 2e-15
SINE_TOL = 1e-13
TAILS_REL_TOL = 1e-13
TAILS_ABS_TOL = 1e-15

_CHUNK = 1 << 20


class Mismatch(Exception):
    """An output that disagrees with the reference computation."""


def mobius(limit: int) -> np.ndarray:
    """mu(0..limit) as int8 (mu(0) = 0), by prime strides up to sqrt(limit).

    Each small prime p flips the sign on its multiples and zeroes the
    multiples of p^2; ``rad`` collects the product of the small primes of
    each n.  A square-free n with rad(n) < n has exactly one prime factor
    above sqrt(limit), which flips its sign once more.
    """
    root = math.isqrt(limit)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if small[p]:
            small[p * p :: p] = False
    mu = np.ones(limit + 1, dtype=np.int8)
    rad = np.ones(limit + 1, dtype=np.int32)
    for p in np.nonzero(small)[0].tolist():
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
        rad[p::p] *= p
    extra = (mu != 0) & (rad != np.arange(limit + 1, dtype=np.int32))
    mu[extra] *= -1
    mu[0] = 0
    return mu


def decimal15(value: Fraction) -> str:
    """``value`` rounded half-even to 15 significant digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 15
        ctx.rounding = decimal.ROUND_HALF_EVEN
        return str(decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator))


def g15(value: float) -> str:
    return "%.15g" % value


def law(n: int, m: int) -> Fraction:
    """The closed-form correlation 1/4 + gcd(n, m)^2 / (12 n m)."""
    g = math.gcd(n, m)
    return Fraction(1, 4) + Fraction(g * g, 12 * n * m)


def _prefix_at(terms, stop: int, points: Sequence[int]) -> Dict[int, np.longdouble]:
    """Long-double sums of ``terms(lo, hi)`` over 1..N for every N in ``points``."""
    wanted = sorted(set(points))
    if wanted and wanted[-1] > stop:
        raise ValueError(f"prefix point {wanted[-1]} past the reference table")
    out: Dict[int, np.longdouble] = {}
    total = np.longdouble(0)
    lo = 1
    for N in wanted:
        while lo <= N:
            hi = min(N + 1, lo + _CHUNK)
            total += np.sum(terms(lo, hi))
            lo = hi
        out[N] = total
    return out


class Reference:
    """mu, Mertens and square-free counts up to ``limit``, checked on build."""

    def __init__(self, limit: int):
        self.limit = limit
        self.mu = mobius(limit)
        self.mertens = np.cumsum(self.mu, dtype=np.int64)
        self.squarefree = np.cumsum(self.mu != 0, dtype=np.int64)
        for N, M in REF_MERTENS.items():
            if N <= limit and int(self.mertens[N]) != M:
                raise AssertionError(f"reference sieve gives M({N}) = {self.mertens[N]}")
        for N, Q in REF_SQUAREFREE.items():
            if N <= limit and int(self.squarefree[N]) != Q:
                raise AssertionError(f"reference sieve gives Q({N}) = {self.squarefree[N]}")
        self._series: Dict[str, list] = {}

    def cache_bytes(self, limit: int) -> bytes:
        return b"MUV1" + struct.pack("<Q", limit) + self.mu[1 : limit + 1].tobytes()

    # -- the double series S(N) ------------------------------------------------

    def series_float(self, n_max: int) -> List[float]:
        """S(1..n_max) from the law, summed pair by pair in long double."""
        key = f"float{n_max}"
        if key not in self._series:
            sf = np.nonzero(self.mu[1 : n_max + 1])[0] + 1
            S = np.longdouble(0)
            by_n = {}
            for i, n in enumerate(sf.tolist()):
                m = sf[:i]
                g = np.gcd(m, n).astype(np.longdouble)
                ml = m.astype(np.longdouble)
                c = 0.25 + g * g / (12 * np.longdouble(n) * ml)
                row = np.sum(self.mu[m].astype(np.longdouble) / ml * c)
                S += 2 * int(self.mu[n]) * row / n
                by_n[n] = S
            values, S = [], np.longdouble(0)
            for N in range(1, n_max + 1):
                S = by_n.get(N, S)
                values.append(float(S))
            self._series[key] = values
        return self._series[key]

    def series_exact(self, n_max: int) -> List[Fraction]:
        """S(1..n_max) from the law as exact Fractions.

        Over the common denominator 12 L^4, L = lcm(1..n_max), the pair
        (n, m) contributes 2 mu(n) mu(m) (3 L^2 a b + g^2 a^2 b^2) with
        a = L/n and b = L/m, so the running total stays an integer.
        """
        key = f"exact{n_max}"
        if key not in self._series:
            L = math.lcm(*range(1, n_max + 1))
            L2 = L * L
            seen: List[int] = []
            total = 0
            values = []
            for n in range(1, n_max + 1):
                if self.mu[n]:
                    a = L // n
                    row = 0
                    for m in seen:
                        b = L // m
                        g = math.gcd(n, m)
                        row += int(self.mu[m]) * (3 * L2 * a * b + g * g * a * a * b * b)
                    total += 2 * int(self.mu[n]) * row
                    seen.append(n)
                values.append(Fraction(total, 12 * L2 * L2))
            self._series[key] = values
        return self._series[key]

    # -- sine series and tails -------------------------------------------------

    def sine_partials(self, x: float, grid: Sequence[int]) -> Dict[int, float]:
        """-pi sum_{n<=N} mu(n)/n {nx} for N in ``grid``."""

        def terms(lo, hi):
            n = np.arange(lo, hi, dtype=np.longdouble)
            return self.mu[lo:hi].astype(np.longdouble) / n * ((n * np.longdouble(x)) % 1)

        sums = _prefix_at(terms, self.limit, grid)
        return {N: float(-np.longdouble(math.pi) * s) for N, s in sums.items()}

    def tails(self, cutoffs: Sequence[int], U: int):
        """(sum_{k=N}^{U-1} M(k)/(k(k+1)), sum M(k) ln(1+1/k)) per cutoff N."""

        def u2(lo, hi):
            k = np.arange(lo, hi, dtype=np.longdouble)
            return self.mertens[lo:hi].astype(np.longdouble) / (k * (k + 1))

        def u1(lo, hi):
            k = np.arange(lo, hi, dtype=np.longdouble)
            return self.mertens[lo:hi].astype(np.longdouble) * np.log1p(1 / k)

        points = [N - 1 for N in cutoffs] + [U - 1]
        p2 = _prefix_at(u2, self.limit, points)
        p1 = _prefix_at(u1, self.limit, points)
        return {
            N: (float(p2[U - 1] - p2[N - 1]), float(p1[U - 1] - p1[N - 1]))
            for N in cutoffs
        }


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _rows(text: str, header: str) -> List[List[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise Mismatch(f"header {lines[:1]} != {header!r}")
    return [line.split(",") for line in lines[1:]]


def _close(label: str, got: str, want: float, abs_tol: float, rel_tol: float = 0.0) -> None:
    value = float(got)
    if not abs(value - want) <= abs_tol + rel_tol * abs(want):
        raise Mismatch(f"{label}: {got} vs reference {want!r}")


def _equal(label: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{label}: {got!r} != {want!r}")


def check_sieve(text: str, ref: Reference, limit: int) -> None:
    _equal("sieve output", text.splitlines(), [
        f"limit,{limit}",
        f"mertens,{int(ref.mertens[limit])}",
        f"squarefree_count,{int(ref.squarefree[limit])}",
    ])


def check_cache_file(path: str, ref: Reference, limit: int) -> None:
    with open(path, "rb") as fh:
        body = fh.read()
    if body != ref.cache_bytes(limit):
        raise Mismatch(f"cache file {path} is not MUV1, {limit}, mu(1..{limit})")


def check_correlate(text: str, n: int, m: int, X: int) -> None:
    rows = _rows(text, "n,m,X,value,value_exact,method,gcd")
    value = law(n, m)
    want = [str(n), str(m), str(X), decimal15(value),
            f"{value.numerator}/{value.denominator}", "piecewise", str(math.gcd(n, m))]
    _equal("correlate row", rows, [want])


def check_figure1(text: str) -> None:
    rows = _rows(text, "n,m,X,value,value_exact,gcd,relation")
    want = []
    for n in range(1, 13):
        value, g = law(n, 6), math.gcd(n, 6)
        relation = "coprime" if g == 1 else (
            "multiple" if n % 6 == 0 or 6 % n == 0 else "shared-factor")
        want.append([str(n), "6", "100", decimal15(value),
                     f"{value.numerator}/{value.denominator}", str(g), relation])
    _equal("figure1 rows", rows, want)


def check_series(text: str, ref: Reference, n_max: int, exact: bool = False) -> None:
    """``series`` and ``figure2`` rows: N, X=100, S(N), target, |S(N) - target|."""
    rows = _rows(text, "N,X,value,target,abs_error")
    _equal("series row count", len(rows), n_max)
    target = g15(LIMIT_TARGET)
    if exact:
        for N, row, S in zip(range(1, n_max + 1), rows, ref.series_exact(n_max)):
            _equal(f"series row N={N}", row, [
                str(N), "100", decimal15(S), target, g15(abs(float(S) - LIMIT_TARGET))])
        return
    values = ref.series_float(n_max)
    for N, row, S in zip(range(1, n_max + 1), rows, values):
        _equal(f"series row N={N} (N, X, target)", [row[0], row[1], row[3]],
               [str(N), "100", target])
        _close(f"S({N})", row[2], S, SERIES_TOL)
        _close(f"abs_error at N={N}", row[4], abs(S - LIMIT_TARGET), SERIES_TOL)
    if n_max >= 2000 and not abs(values[1999] - LIMIT_TARGET) < 0.01:
        raise Mismatch("reference S(2000) is not within 0.01 of -9/(2 pi^2)")


def sine_grid(n_max: int) -> List[int]:
    """The N grid of ``sine-series``: 25 rounded geometric steps from 1 to n_max."""
    return sorted({int(v) for v in np.rint(np.geomspace(1, n_max, 25))})


def check_sine_series(text: str, ref: Reference, x: float, n_max: int) -> None:
    rows = _rows(text, "N,x,value,target,abs_error")
    grid = sine_grid(n_max)
    _equal("sine-series N grid", [int(r[0]) for r in rows], grid)
    sums = ref.sine_partials(x, grid)
    target = math.sin(2.0 * math.pi * x)
    for row in rows:
        N = int(row[0])
        _equal(f"sine-series row N={N} (x, target)", [row[1], row[3]], [g15(x), g15(target)])
        _close(f"sine partial at N={N}", row[2], sums[N], SINE_TOL)
        _close(f"sine abs_error at N={N}", row[4], abs(sums[N] - target), SINE_TOL)


def check_tails(text: str, ref: Reference, cutoffs: Sequence[int], limit: int) -> None:
    """``tails`` rows; ``bound_fit`` is checked at c = 1.0, which every workload uses."""
    rows = _rows(text, "N,mertens_ratio,tail_u2,tail_u1,bound_fit")
    _equal("tails cutoffs", [int(r[0]) for r in rows], sorted(cutoffs))
    tails = ref.tails([N for N in cutoffs if N < limit], limit)
    for row in rows:
        N = int(row[0])
        M = int(ref.mertens[N])
        _equal(f"mertens_ratio at N={N}", row[1], g15(M / N))
        u2, u1 = tails.get(N, (0.0, 0.0))
        _close(f"tail_u2 at N={N}", row[2], u2, TAILS_ABS_TOL, TAILS_REL_TOL)
        _close(f"tail_u1 at N={N}", row[3], u1, TAILS_ABS_TOL, TAILS_REL_TOL)
        fit = abs(M) * math.exp(math.sqrt(math.log(N))) / N
        _close(f"bound_fit at N={N}", row[4], fit, TAILS_ABS_TOL, TAILS_REL_TOL)


def check_verify(text: str) -> None:
    """PASS on criteria 1-6 and 8-12; FAIL on 7 for its strict-decrease clause."""
    lines = text.splitlines()
    if len(lines) != 14:
        raise Mismatch(f"verify printed {len(lines)} lines, expected 14")
    for number, line in enumerate(lines[:12], start=1):
        fields = line.split()
        status = "FAIL" if number == 7 else "PASS"
        _equal(f"verify line {number}", fields[:2], [str(number), status])
    if "smallness ok, strict decrease FAILED" not in lines[6]:
        raise Mismatch(f"criterion 7 detail: {lines[6]!r}")
    _equal("verify summary", lines[12], "11/12 criteria passed")
    if not lines[13].startswith("bookkeeping (report only): "):
        raise Mismatch(f"verify bookkeeping line: {lines[13]!r}")
