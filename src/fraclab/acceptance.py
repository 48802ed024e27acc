"""The built-in verification suite behind ``fraclab verify``.

Twelve numbered criteria, each pinned to a fixed tolerance and, where
randomness is involved, a fixed seed.  Exact statements are checked as
exact rational equalities; convergence statements carry tolerances that
were calibrated once against independent reference runs and are frozen
here.  A criterion either passes or fails; nothing is adaptive.

Criterion 7's second clause (strict decay of |M(N)|/N across the decade
cutoffs 10^3..10^6) is checked literally even though the true Mertens
values violate it: |M(10^3)|/10^3 = 0.002 rises to |M(10^4)|/10^4 =
0.0023.  It is expected to FAIL and is kept as an honest record of that
fact rather than silently loosened.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import arithmetic, exact, figures, series, tails
from .arithmetic import MoebiusTable, _range_sums

#: table size the full suite needs
REQUIRED_LIMIT = 10**6

_LAW_SEED = 20260810
_ABEL_SEED = 20260811


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def correlation_quadrature(n: int, m: int) -> float:
    """Simpson's-rule value of integral_0^1 {nx}{mx} dx, exact up to
    float rounding.

    Independent of the exact engine and of the law: float breakpoints,
    float floors.  On each breakpoint interval [l, r] the floors of nx
    and mx are constant (taken at the midpoint), so the integrand
    (nx - a)(mx - b) is a quadratic there, which Simpson's rule on
    l, mid and r integrates exactly.
    """
    bp = arithmetic._sorted_distinct(
        np.concatenate((np.arange(n + 1) / n, np.arange(m + 1) / m))
    )
    left, right = bp[:-1], bp[1:]
    mid = (left + right) / 2
    a, b = np.floor(n * mid), np.floor(m * mid)

    def f(x):
        return (n * x - a) * (m * x - b)

    return float(np.sum((right - left) * (f(left) + 4 * f(mid) + f(right)))) / 6


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def _c1_diagonal_exact(table: MoebiusTable) -> Tuple[bool, str]:
    third = Fraction(1, 3)
    triples = [(n, n, X) for n in range(1, 1001) for X in (1, 7, 100)]
    for (n, _, X), value in zip(triples, exact.expected_correlations(triples)):
        if value != third:
            return False, f"E_{X}({{{n}x}}^2) = {value} != 1/3"
    return True, f"{len(triples)} diagonal averages all exactly 1/3"


def _c2_closed_form_law(table: MoebiusTable) -> Tuple[bool, str]:
    rng = random.Random(_LAW_SEED)
    worst = 0.0
    for _ in range(20):
        n = rng.randint(1, 200)
        m = rng.randint(1, 200)
        gap = abs(
            correlation_quadrature(n, m) - float(exact.correlation_closed_form(n, m))
        )
        worst = max(worst, gap)
        if gap >= 1e-12:
            return False, f"quadrature gap {gap:.3e} at (n={n}, m={m})"
    n, m = np.indices((200, 200)).reshape(2, -1) + 1  # the grid, n-major
    L, p, q = exact._lattices(n, m)
    # total / (6Lpq) = (3pq + 1) / (12pq), the law, cross-multiplied: at most 4.8 10^9
    broken = 2 * exact._sweep_totals(L, p, q) != L * (3 * p * q + 1)
    if broken.any():
        return False, f"law broken at (n={n[broken][0]}, m={m[broken][0]})"
    return True, (
        f"law validated: quadrature worst gap {worst:.2e} on 20 pairs, "
        "then exact equality on the full 200x200 grid"
    )


def _c3_double_sum_convergence(table: MoebiusTable) -> Tuple[bool, str]:
    sweep = series.correlation_double_sum_sweep(table, 2000)
    e100, e2000 = (abs(sweep[N - 1] - series.DOUBLE_SUM_LIMIT) for N in (100, 2000))
    # the rate: N (S(N) + 9/(2 pi^2)) stays in [0.2, 0.3] for N = 100..2000
    rates = [N * (v - series.DOUBLE_SUM_LIMIT) for N, v in enumerate(sweep[99:], 100)]
    low, high = min(rates), max(rates)
    ok = e100 < 0.05 and e2000 < 0.01 and 0.2 <= low and high <= 0.3
    return ok, (
        f"|S(100)+9/(2pi^2)| = {e100:.6f} (<0.05), |S(2000)+...| = {e2000:.6f} (<0.01), "
        f"N (S(N)+9/(2pi^2)) in [{low:.4f}, {high:.4f}] for N = 100..2000 (in [0.2, 0.3])"
    )


def _c4_fast_direct_equivalence(table: MoebiusTable) -> Tuple[bool, str]:
    direct = series.correlation_double_sum_sweep(table, 300, fast=False, exact=True)
    fast = series.correlation_double_sum_sweep(table, 300, fast=True, exact=True)
    for N, (vd, vf) in enumerate(zip(direct, fast), 1):
        if vd != vf:
            return False, f"routes disagree at N={N}: {vd} != {vf}"
    return True, "exact rational equality of both routes for all N <= 300"


def _c5_zeta_ratio(table: MoebiusTable) -> Tuple[bool, str]:
    value = arithmetic.squarefree_zeta2_partial(table, 10**4)
    gap = abs(value - 15.0 / math.pi**2)
    return gap < 2e-4, f"|sum mu^2/n^2 - 15/pi^2| = {gap:.3e} at N=10^4 (<2e-4)"


def _c6_squarefree_density(table: MoebiusTable) -> Tuple[bool, str]:
    gaps = []
    for N in (10**3, 10**4, 10**5, 10**6):
        q = arithmetic.squarefree_count(table, N)
        gap = abs(q - N * 6.0 / math.pi**2)
        if gap > 2.0 * math.sqrt(N):
            return False, f"|Q({N}) - 6N/pi^2| = {gap:.2f} > 2 sqrt(N)"
        gaps.append(f"{gap:.2f}")
    return True, "density gaps " + ", ".join(gaps) + " all within 2 sqrt(N)"


def _c7_mertens_smallness(table: MoebiusTable) -> Tuple[bool, str]:
    cutoffs = [10**3, 10**4, 10**5, 10**6]
    ratios = [abs(arithmetic.mertens(table, N)) / N for N in cutoffs]
    small = ratios[-1] < 1e-3
    decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
    shown = ", ".join(
        f"|M({N})|/{N} = {r:.2e}" for N, r in zip(cutoffs, ratios)
    )
    if small and decreasing:
        return True, shown
    return False, (
        shown
        + f"; smallness {'ok' if small else 'FAILED'}, strict decrease "
        + ("ok" if decreasing else "FAILED (known: true Mertens values are not monotone here)")
    )


def _c8_abel_identity_suite(table: MoebiusTable) -> Tuple[bool, str]:
    rng = random.Random(_ABEL_SEED)
    worst = 0.0
    for _ in range(100):
        N = rng.randint(1, 9999)
        U = rng.randint(N + 1, 10**4)
        q = rng.randint(1, 50)
        p = rng.randint(1, 2 * q)
        gap = tails.abel_identity_check(table, N, U, Fraction(p, q))
        worst = max(worst, gap)
        if gap >= 1e-9:
            return False, f"gap {gap:.3e} at N={N}, U={U}, x={p}/{q}"
    return True, f"100 random triples, worst gap {worst:.2e} (<1e-9)"


def _c9_sine_series_trend(table: MoebiusTable) -> Tuple[bool, str]:
    xs = [k / 10 for k in range(1, 10)]
    # residuals at N = 10^2 and 10^5, one prefix pass per x
    resid = [
        [abs(v - series._sin_two_pi(x))
         for v in series.sine_series_partials(table, [10**2, 10**5], x)]
        for x in xs
    ]
    r_small, r_big = (math.fsum(col) / len(xs) for col in zip(*resid))
    ok = r_big < r_small / 3.0
    return ok, f"mean residual {r_small:.5f} at N=10^2 vs {r_big:.5f} at N=10^5 (need < 1/3)"


def _c10_squared_identity(table: MoebiusTable) -> Tuple[bool, str]:
    worst = 0.0
    for N in (50, 200, 500):
        for x in (0.1, 0.3, 0.7):
            gap = series.sine_squared_identity_gap(table, N, x)
            worst = max(worst, gap)
            if gap >= 1e-10:
                return False, f"gap {gap:.3e} at N={N}, x={x}"
    return True, f"worst expansion gap {worst:.2e} (<1e-10)"


def _c11_figure1(table: MoebiusTable) -> Tuple[bool, str]:
    emitted = figures.figure1_csv().encode()
    golden = resources.files("fraclab").joinpath("data/figure1_golden.csv").read_bytes()
    if emitted != golden:
        return False, "figure 1 CSV is not byte-identical to the golden file"
    values = {row["n"]: row["value"] for row in figures.figure1_rows()}
    for n, v in values.items():
        if v != exact.correlation_closed_form(n, figures.FIGURE1_M):
            return False, f"figure 1 row n={n} deviates from the closed form"
    others = [values[n] for n in values if n not in (6, 12)]
    peak_six = all(values[6] > v for v in others + [values[12]])
    coprime = [values[n] for n in (5, 7, 11)]
    peak_twelve = all(values[12] > v for v in coprime)
    three_smallest = sorted(values, key=values.get)[:3]
    minima = sorted(three_smallest) == [5, 7, 11]
    if not (peak_six and peak_twelve and minima):
        return False, (
            f"structure violated: peak6={peak_six}, peak12={peak_twelve}, minima={minima}"
        )
    return True, (
        "byte-identical golden; E(6)=1/3 global peak, E(12) above the coprime "
        "minima {5,7,11}; exact ties on record: E(3)=E(12)=7/24, and E(4)=19/72 "
        "< E(2)=5/18 (no repeated-factor uplift)"
    )


#: criterion 12's bounds on the summation-by-parts gaps, derived in its docstring
TAIL_U2_TOL, TAIL_U1_TOL = 2e-15, 2e-9


def _tail_identity_gaps(table: MoebiusTable, Ns: Sequence[int], U: int) -> Tuple[list, list]:
    """The u2 tails from each N of the increasing ``Ns`` to U, and per N the
    (u2, u1) gaps |tail - form| of ``_c12_tail_diagnostics``; 1 <= N < U."""

    def mu_terms(a: int, b: int) -> np.ndarray:  # mu(n)/n and mu(n) ln n, n = a..b-1
        n, mu = np.arange(a, b, dtype=np.float64), table.mu[a:b].astype(np.float64)
        return np.stack((mu / n, mu * np.log(n)))

    u2, u1 = tails._tail_sums(tails._MertensRun(table, Ns[0]), Ns[0], [*Ns, U], tails=True)
    s2, s1 = _range_sums(mu_terms, Ns[0] + 1, [N + 1 for N in Ns] + [U], rows=2, tails=True)
    *ms, last = [arithmetic.mertens(table, N) for N in [*Ns, U - 1]]
    gaps = [(abs(t2 - math.fsum([m / N, -last / U, m2])),
             abs(t1 - math.fsum([last * math.log(U), -m * math.log(N), -m1])))
            for N, m, t2, t1, m2, m1 in zip(Ns, ms, u2, u1, s2, s1)]
    return u2[: len(Ns)], gaps


def _c12_tail_diagnostics(table: MoebiusTable) -> Tuple[bool, str]:
    """|tail_u2(1, 10^6)| < 0.05, and at N = 1, 10^3 and U = 10^6 both
    tail columns equal their summation-by-parts forms up to rounding:

        sum_{k=N}^{U-1} M(k) (1/k - 1/(k+1)) = M(N)/N - M(U-1)/U + sum_{N<n<U} mu(n)/n
        sum_{k=N}^{U-1} M(k) ln((k+1)/k) = M(U-1) ln U - M(N) ln N - sum_{N<n<U} mu(n) ln n

    With u = 2^-53 and n < 10^6: each mu(n)/n is one rounded division, so
    the mu sum is off by at most u sum mu(n)^2/n = 9.44u = 1.05e-15; the
    tail terms (u sum |M(k)|/(k(k+1)) = 1.01u) and the roundings of sums
    and boundary terms, none above 1, add a few u: TAIL_U2_TOL = 2e-15.
    np.log is within one ulp, so mu(n) ln n is off by at most 2u ln n:
    2u sum |mu(n)| ln n = 1.73e-9, the rest under 1e-12: TAIL_U1_TOL = 2e-9."""
    u2, gaps = _tail_identity_gaps(table, [1, 10**3], 10**6)
    gap2, gap1 = map(max, zip(*gaps))
    return abs(u2[0]) < 0.05 and gap2 < TAIL_U2_TOL and gap1 < TAIL_U1_TOL, (
        f"tail(1,10^6) = {u2[0]:.3e} (<0.05), summation-by-parts gap at N=1, 10^3: "
        f"u2 {gap2:.2e} (<{TAIL_U2_TOL:.0e}), u1 {gap1:.2e} (<{TAIL_U1_TOL:.0e})"
    )


CRITERIA: List[Tuple[int, str, Callable[[MoebiusTable], Tuple[bool, str]]]] = [
    (1, "diagonal averages exactly 1/3", _c1_diagonal_exact),
    (2, "closed-form correlation law", _c2_closed_form_law),
    (3, "double-sum convergence to -9/(2 pi^2)", _c3_double_sum_convergence),
    (4, "fast/direct double-sum equivalence", _c4_fast_direct_equivalence),
    (5, "sum mu^2/n^2 near 15/pi^2", _c5_zeta_ratio),
    (6, "square-free density within 2 sqrt(N)", _c6_squarefree_density),
    (7, "Mertens ratio smallness and decay", _c7_mertens_smallness),
    (8, "Abel summation identity suite", _c8_abel_identity_suite),
    (9, "sine-series residual trend", _c9_sine_series_trend),
    (10, "squared-series expansion identity", _c10_squared_identity),
    (11, "figure 1 reproduction and structure", _c11_figure1),
    (12, "Mertens tail integral diagnostics", _c12_tail_diagnostics),
]


def run_criteria(
    table: MoebiusTable, only: Optional[Sequence[int]] = None
) -> List[CriterionResult]:
    """Run the numbered criteria (all by default) against ``table``.

    The table must reach REQUIRED_LIMIT; callers are expected to have
    pre-flighted that.
    """
    wanted = set(only) if only else None
    results = []
    for number, name, func in CRITERIA:
        if wanted is not None and number not in wanted:
            continue
        try:
            passed, detail = func(table)
        except Exception as exc:  # a crashed criterion is a failed criterion
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CriterionResult(number, name, passed, detail))
    return results
