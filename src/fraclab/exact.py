"""Exact rational averages of products of fractional parts.

The central object is the single-period correlation

    C(n, m) = integral_0^1 {nx}{mx} dx

and its range average E_X = (1/X) integral_0^X {nx}{mx} dx for integer
X >= 1.  Because both sawtooth factors have period 1 in x, E_X equals
C(n, m) for every integer X; ``expected_correlation`` computes the
[0, X] integral directly and checks that equality instead of assuming
it.

Substitute x = t / L with L = lcm(n, m), p = L/n, q = L/m.  Then
{nx} = (t mod p)/p and {mx} = (t mod q)/q, with p and q coprime, so

    E_X = total / (6 L p q X),  total = 6 integral_0^{XL} (t mod P)(t mod Q) dt

where P = max(p, q) and Q = min(p, q).  The engine behind every exact
correlation, ``_sweep_totals``, computes that integer total for a whole
batch of (T, P, Q) at once, with no rational arithmetic and no rounding.

It walks the intervals [kP, (k+1)P) of the sparser lattice, so the two
breakpoint lattices are never merged or sorted.  On interval k put
s = kP mod Q and J = floor((s + P)/Q); t mod Q wraps J times inside it,
at u = iQ - s for i = 1..J, and

    6 integral_0^P u ((s + u) mod Q) du
        = P^2 (3s + 2P - 3QJ) + 3Q sum_{i=1}^J (iQ - s)^2.

The value depends on k only through s, so the engine counts the s of
every interval with ``np.bincount`` and evaluates the closed form once
per distinct residue.  Every interval is still visited.  The engine
uses neither the law nor the period (that the [0, X] integral is X
times one period); the gcd only fixes L, p and q.

Integer bounds.  Every accepted pair has n + m <= PAIR_SIZE_LIMIT, hence
P + Q <= 10^6 and QJ <= s + P < P + Q.  Each of the two terms above then
stays below about (P + Q)^3 <= 10^18, and so do the partial products the
code forms, about a ninth of 2^63.  The interval value itself is below
3 P^2 Q < 2^59.  Work is cut into passes of at most ENGINE_CHUNK = 2^14
intervals, so memory stays flat in the batch size.  Within a pass each
value is split into 32-bit halves before it is multiplied by its count,
so a segment's sums stay below 2^32 * 2^14 and cannot wrap; Python ints
join the halves and add up the passes.

Intervals are closed-open, so the one-sided values at shared breakpoints
(where k/n = j/m) never contribute; they are measure zero.

The closed-form law C(n, m) = 1/4 + gcd(n, m)^2 / (12*n*m) is exposed
separately (``correlation_closed_form``); nothing in the engine uses it,
which is what makes the exact equality of the two a meaningful test
rather than a tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

import numpy as np

#: guard on n + m, which bounds the single-period breakpoint count
PAIR_SIZE_LIMIT = 10**6

#: piece-count cap for the direct [0, X] cross-check sweep
_DIRECT_CHECK_LIMIT = 2_000_000

#: lattice intervals per engine pass; bounds the engine's working arrays.
#: At 2^14 an int64 array is 128 KiB and stays on the allocator's heap.
#: Larger arrays are mapped afresh on every pass: the per-interval steps
#: took 18 ns per interval at 2^16 against 7.5 ns at 2^14 (2-core Linux
#: host, numpy 2.4)
ENGINE_CHUNK = 1 << 14

_LOW32 = (1 << 32) - 1

METHOD_PIECEWISE = "piecewise"
METHOD_CLOSED_FORM = "closed_form"


@dataclass(frozen=True)
class CorrelationValue:
    """A correlation E_X({nx}{mx}) with the route that produced it.

    A value outside the provable [1/4, 1/3] range is an internal fault,
    not bad input, and raises AssertionError.
    """

    n: int
    m: int
    X: int
    value: Fraction
    method: str

    def __post_init__(self):
        if not Fraction(1, 4) <= self.value <= Fraction(1, 3):
            raise AssertionError(
                f"correlation {self.value} for (n={self.n}, m={self.m}) "
                "outside the provable [1/4, 1/3] range"
            )


def _check_pair(n: int, m: int) -> None:
    if n < 1 or m < 1:
        raise ValueError(f"n and m must be positive integers, got ({n}, {m})")
    if n + m > PAIR_SIZE_LIMIT:
        raise ValueError(
            f"n + m = {n + m} exceeds the breakpoint guard {PAIR_SIZE_LIMIT}"
        )


def _interval_values(s: np.ndarray, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """6 * integral_0^P u * ((s + u) mod Q) du per residue s, as int64."""
    J = (s + P) // Q
    S1 = J * (J + 1) // 2
    S2 = S1 * (2 * J + 1) // 3
    squares = Q * Q * S2 - 2 * Q * s * S1 + J * s * s  # sum_{i<=J} (iQ - s)^2
    return P * P * (3 * s + 2 * P - 3 * Q * J) + 3 * Q * squares


def _pass_totals(segments: List[Tuple[int, int, int, int, int]]) -> List[int]:
    """Exact interval sums of one engine pass, one per segment.

    A segment (pair, k0, k1, P, Q) stands for the intervals k0 <= k < k1
    of one pair.  Each interval's residue kP mod Q goes into a bin of its
    segment; the closed form is then evaluated once per occupied bin.
    """
    _, K0, K1, P, Q = np.array(segments, dtype=np.int64).T
    length = K1 - K0
    bin0 = np.cumsum(Q) - Q

    def spread(values):
        # one value per segment -> one per interval; a lone segment's
        # scalar broadcasts, which spares a copy on the long passes
        return values[0] if len(segments) == 1 else np.repeat(values, length)

    first = np.cumsum(length) - length  # each segment's offset in the pass
    k = np.arange(int(length.sum()), dtype=np.int64) + spread(K0 - first)
    counts = np.bincount(k * spread(P % Q) % spread(Q) + spread(bin0))
    bins = counts.nonzero()[0]
    seg = np.searchsorted(bin0, bins, side="right") - 1
    c = counts[bins]
    v = _interval_values(bins - bin0[seg], P[seg], Q[seg])
    starts = np.searchsorted(seg, np.arange(len(segments)))
    hi = np.add.reduceat((v >> 32) * c, starts).tolist()
    lo = np.add.reduceat((v & _LOW32) * c, starts).tolist()
    return [(h << 32) + l for h, l in zip(hi, lo)]


def _sweep_totals(T: Sequence[int], P: Sequence[int], Q: Sequence[int]) -> List[int]:
    """6 * integral_0^T (t mod P)(t mod Q) dt for each (T, P, Q), exact.

    Needs P >= Q >= 1, T a nonnegative multiple of P, and the pair
    bounds of the module docstring.  Works on the intervals [kP, (k+1)P),
    k < T/P, grouped by their residue kP mod Q; see the module docstring.
    Each pass takes up to ENGINE_CHUNK intervals, cutting a pair's
    k-range where a pass fills.
    """
    totals = [0] * len(T)
    segments: List[Tuple[int, int, int, int, int]] = []
    room = ENGINE_CHUNK

    def flush():
        for (j, *_), total in zip(segments, _pass_totals(segments)):
            totals[j] += total
        segments.clear()

    for j, (t, p, q) in enumerate(zip(T, P, Q)):
        K = t // p
        k0 = 0
        while k0 < K:
            k1 = min(K, k0 + room)
            segments.append((j, k0, k1, p, q))
            room -= k1 - k0
            k0 = k1
            if room == 0:
                flush()
                room = ENGINE_CHUNK
    if segments:
        flush()
    return totals


def _lattices(pairs: Iterable[Tuple[int, int]]) -> Tuple[List[int], List[int], List[int]]:
    """(L, P, Q) per pair: lcm(n, m), then max and min of L/n and L/m."""
    Ls, Ps, Qs = [], [], []
    for n, m in pairs:
        n, m = int(n), int(m)
        _check_pair(n, m)
        g = math.gcd(n, m)
        p, q = m // g, n // g
        Ls.append(n * p)
        Ps.append(max(p, q))
        Qs.append(min(p, q))
    return Ls, Ps, Qs


def exact_correlations(pairs: Iterable[Tuple[int, int]]) -> List[Fraction]:
    """integral_0^1 {nx}{mx} dx as an exact Fraction for every (n, m).

    One batched engine call for all pairs; equal, pair for pair, to
    ``exact_correlation``.
    """
    Ls, Ps, Qs = _lattices(pairs)
    totals = _sweep_totals(Ls, Ps, Qs)
    return [
        Fraction(total, 6 * L * P * Q)
        for total, L, P, Q in zip(totals, Ls, Ps, Qs)
    ]


def exact_correlation(n: int, m: int) -> Fraction:
    """integral_0^1 {nx}{mx} dx as an exact Fraction.

    Denominators reach the scale of lcm(n, m)^2 before reduction, hence
    arbitrary-precision integers for the result; the engine's int64
    work stays inside the bounds of the module docstring.
    """
    return exact_correlations([(n, m)])[0]


def expected_correlation(n: int, m: int, X: int) -> CorrelationValue:
    """(1/X) integral_0^X {nx}{mx} dx, exact, for integer X >= 1.

    Integer x-periodicity of the integrand makes this equal to
    exact_correlation(n, m); whenever the [0, X] sweep is affordable
    (X * (n + m) at most _DIRECT_CHECK_LIMIT) the equality is computed
    and verified, not assumed, in the same engine call.  Non-integer X
    is rejected.  A violated identity raises AssertionError.
    """
    if isinstance(X, bool) or not isinstance(X, (int, np.integer)):
        raise ValueError(f"X must be a positive integer, got {X!r}")
    if X < 1:
        raise ValueError(f"X must be >= 1, got {X}")
    X = int(X)
    (L,), (P,), (Q,) = _lattices([(n, m)])
    den = 6 * L * P * Q
    if X * (n + m) <= _DIRECT_CHECK_LIMIT:
        one, direct = _sweep_totals([L, X * L], [P, P], [Q, Q])
        one_period = Fraction(one, den)
        value = Fraction(direct, den * X)
        if value != one_period:
            raise AssertionError(
                f"period-1 identity violated for (n={n}, m={m}, X={X}): "
                f"{value} != {one_period}"
            )
    else:
        (one,) = _sweep_totals([L], [P], [Q])
        value = Fraction(one, den)
    return CorrelationValue(n=n, m=m, X=X, value=value, method=METHOD_PIECEWISE)


def correlation_closed_form(n: int, m: int) -> Fraction:
    """1/4 + gcd(n, m)^2 / (12 n m), the closed-form correlation law."""
    _check_pair(n, m)
    g = math.gcd(n, m)
    return Fraction(1, 4) + Fraction(g * g, 12 * n * m)


def closed_form_value(n: int, m: int, X: int) -> CorrelationValue:
    """CorrelationValue carrying the closed-form route tag."""
    if X < 1:
        raise ValueError(f"X must be >= 1, got {X}")
    return CorrelationValue(
        n=n, m=m, X=int(X), value=correlation_closed_form(n, m),
        method=METHOD_CLOSED_FORM,
    )

