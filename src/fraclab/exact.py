"""Exact rational averages of products of fractional parts.

The central object is the single-period correlation

    C(n, m) = integral_0^1 {nx}{mx} dx

and its range average E_X = (1/X) integral_0^X {nx}{mx} dx for integer
X >= 1.  Because both sawtooth factors have period 1 in x, E_X equals
C(n, m) for every integer X; ``expected_correlation`` computes the
[0, X] integral directly and checks that equality instead of assuming
it.

Substitute x = t / L with L = lcm(n, m), p = L/n, q = L/m.  Then
{nx} = (t mod p)/p and {mx} = (t mod q)/q, so

    E_X = total / (6 L p q X),  total = 6 integral_0^{XL} (t mod p)(t mod q) dt.

The engine behind every exact correlation, ``_sweep_totals``, computes
that integer for a batch of rows (T, P, Q) with integers P, Q >= 1 and
T a common multiple of both, with no rational arithmetic and no
rounding.

Unit steps.  P and Q are integers, so neither t mod P nor t mod Q wraps
inside a step [j, j+1).  With x = j mod P and y = j mod Q the step gives
6 integral_0^1 (x + u)(y + u) du = 6xy + 3x + 3y + 2, hence

    total = sum_{j<T} [6 (j mod P)(j mod Q) + 3 (j mod P) + 3 (j mod Q) + 2].

Write j mod P = j - P floor(j/P), and likewise for Q.  As P and Q divide
T, every resulting sum has a closed form except
sum_{j<T} floor(j/P) floor(j/Q).  Put j = aP + r, K = T/P and
F(x) = sum_{j<x} floor(j/Q) = c x - Q c(c+1)/2 with c = floor(x/Q); then
that sum is (K - 1) F(T) - sum_{a<K} F(aP), and

    sum_{a<K} F(aP) = P g - Q (f + h)/2,

where f, g, h = sum_{a<K} of floor(aP/Q), a floor(aP/Q) and
floor(aP/Q)^2.  Collecting the closed forms (F(T) = Q M(M-1)/2 with
M = T/Q) leaves

    total = T (2T^2 - 3T(P + Q) + P^2 + 6PQ + Q^2) / 2 + 3PQ (Q (f + h) - 2P g).

Floor sums.  ``_floor_sums`` gets f, g and h by the degree-2 "universal
Euclidean" recursion, which extends the floor_sum of AtCoder Library
(atcoder/math.hpp) to g and h: reduce the slope and the offset mod the
divisor, then swap the two axes of the lattice-point count.

Recursion on arrays.  ``_floor_sums`` takes one row per floor sum.  A
level reduces every row, and only the rows whose reduced maximum m is
positive recurse, together, on their swapped arguments; in the others
y' = 0.  The way back starts every row from the swap's closed forms, 0
where m = 0, and subtracts the swapped sums at the live rows.  A row's
divisors from level to level are c, a mod c and the further remainders
of Euclid's algorithm on (a, c), each at least the sum of the next two,
so a row of k levels has c >= F_{k+1} (Fibonacci) and k <= log_phi(c) + 1:
29 for c < PAIR_SIZE_LIMIT, 91 for c < 2^63 (Python allows 1000).  A row
pays for its own levels only (3.9 on average, 10 at most on criterion
2's grid); while the next level runs, a level holds n, m, qa, qb, live.

Chunks and dtype.  ``_sweep_totals`` cuts the arrays T, P and Q (int64
or object) into chunks of ENGINE_CHUNK rows, which bounds the arrays it
holds at once.  A chunk whose entries are all at most INT64_SIZE = 2^19
(for T >= 1 the largest is T) runs on int64 arrays, any other on object
arrays of Python ints, through the same lines; the totals come back as
one object array.  numpy int64 arithmetic wraps silently, so:

* Let S bound n, a, b, c and y_max + 1 of a floor sum.  The swap makes
  the next level's n the reduced maximum m <= y_max, its y values at
  most the current n - 2, its divisor the reduced slope (< c) and its
  slope and offset at most c, so every level stays within S.  Every
  product of the recursion is then at most S^3: a(n-1) + b < cn <= S^2
  for the reduced a, b; m n (n-1), (n-1) m^2 and s1 (2n - 1) <= S^3.
  Every sum is part of a level's true f <= S^2, g <= S^3/2 or
  h <= S^3, or of h + f or 2g + f: qa qa s2 <= y_max^2 n as
  qa (n-1) <= y_max, and for n <= 1, where s2 = s1 = 0, qa qa <= S^2.
* A row of ``_sweep_totals`` whose T, P and Q are at most S has
  n = T/P, a = P, b = 0, c = Q and y_max < T/Q, all within S.  Its
  closing polynomial stays below 16 S^3: T (2T^2 + P^2 + 6PQ + Q^2)
  <= 10 S^3, and 3PQ Q (f + h) <= 6 T^3, 6 P^2 Q g <= 3 T^3 with
  f <= T^2/(PQ), g <= T^3/(2 P^2 Q) and h <= T^3/(P Q^2).

At S <= 2^19 every intermediate is below 16 * 2^57 = 2^61 < 2^63.

Independence.  The engine never uses the law, the period (that the
[0, X] integral is X times one period), or the Chinese remainder
theorem, which would give sum (j mod P)(j mod Q) over a period in one
step and with it the law; the gcd only fixes L, p and q.  The
closed-form law C(n, m) = 1/4 + gcd(n, m)^2 / (12*n*m) is exposed
separately (``correlation_closed_form``).  Nothing in the engine uses
it, which is what makes the exact equality of the two a meaningful test
rather than a tautology.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Tuple

import numpy as np

from .arithmetic import InputError, _is_integer_type

#: input policy: the largest n + m a request may have.  The engine's
#: dtype follows from each chunk's T, so this bounds no int64 work.
PAIR_SIZE_LIMIT = 10**6

#: rows per chunk of the engine
ENGINE_CHUNK = 4096

#: largest entry of a chunk that runs on int64 arrays (module docstring)
INT64_SIZE = 2**19

def _integers(a: np.ndarray) -> np.ndarray:
    """True where an entry of ``a`` is of an integer type, looked up once per type."""
    if a.dtype.kind in "iu":
        return np.ones(a.shape, dtype=bool)
    kinds = {k: _is_integer_type(k) for k in set(map(type, a))}
    return np.fromiter(map(kinds.get, map(type, a)), dtype=bool, count=a.size)


def _floor_sums(rows: list) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row by row, (f, g, h) = sums over 0 <= i < n of y, i*y and y^2,
    where y = floor((a*i + b) / c); needs n, a, b >= 0 and c >= 1.

    ``rows`` is the list [n, a, b, c] of arrays of one dtype, int64 or
    object, and is emptied on entry; the results have that dtype.  A
    level first splits off y = (a//c) i + b//c + y' and keeps a, b mod
    c.  Then y' counts the j < y'_max with (j+1) c <= a i + b, and
    summing over j instead of i is the same problem for (c, c - b - 1, a)
    over y'_max terms: the rows with y'_max > 0 recurse on it, and y' = 0
    in every other row (module docstring).
    """
    n, a, b, c = rows
    rows.clear()  # the caller keeps no reference to the arrays
    qa, qb = a // c, b // c
    a, b = a % c, b % c
    m = np.maximum((a * (n - 1) + b) // c, 0)  # the largest reduced y'
    live = np.flatnonzero(m)  # a >= 1 there, as b < c
    rows = [v[live] for v in (m, c, c - b - 1, a)]
    del a, b, c
    F, G, H = _floor_sums(rows) if live.size else (0, 0, 0)
    # undo the swap: (F, G, H) of the swapped sums -> (f, g, h) of y';
    # n(n-1) and H + F = sum y(y+1) are even
    f, g, h = m * (n - 1), m * n * (n - 1) // 2, (n - 1) * m * m
    f[live] -= F
    g[live] -= (H + F) // 2
    h[live] -= 2 * G + F
    s1 = n * (n - 1) // 2  # sum of i
    s2 = s1 * (2 * n - 1) // 3  # sum of i^2
    h = h + qa * qa * s2 + qb * qb * n + 2 * (qa * qb * s1 + qa * g + qb * f)
    f = f + qa * s1 + qb * n
    g = g + qa * s2 + qb * s1
    return f, g, h


def _sweep_totals(T: np.ndarray, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """6 * integral_0^T (t mod P)(t mod Q) dt, exact, as an object array,
    for every row of the equal-length integer arrays T, P and Q.

    Needs P, Q >= 1 and T >= 0 a common multiple of P and Q.  The
    polynomial collects the closed-form unit-step sums; the floor sums
    carry -6PQ sum_{a<K} F(aP).  Chunks of ENGINE_CHUNK rows run on
    int64 or object arrays by their largest entry.  See the module
    docstring.
    """
    totals = np.empty(len(T), dtype=object)
    for start in range(0, len(T), ENGINE_CHUNK):
        part = slice(start, start + ENGINE_CHUNK)
        small = max(T[part].max(), P[part].max(), Q[part].max()) <= INT64_SIZE
        t, p, q = (a[part].astype(np.int64 if small else object) for a in (T, P, Q))
        f, g, h = _floor_sums([t // p, p, np.zeros_like(p), q])
        totals[part] = (
            t * (2 * t * t - 3 * t * (p + q) + p * p + 6 * p * q + q * q) // 2
            + 3 * p * q * (q * (f + h) - 2 * p * g)
        )
    return totals


def _lattices(n: np.ndarray, m: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(L, p, q) = (lcm(n, m), L/n, L/m), int64 as L <= 2.5 10^11, for arrays n, m
    of positive integers with n + m <= PAIR_SIZE_LIMIT; an InputError names the first bad pair."""
    positive = _integers(n) & _integers(m)
    positive[positive] = np.minimum(n[positive], m[positive]) >= 1
    ok = positive.copy()
    ok[ok] = np.maximum(n[ok], m[ok]) < PAIR_SIZE_LIMIT
    ok[ok] = n[ok] + m[ok] <= PAIR_SIZE_LIMIT  # cannot wrap, both are below the limit
    if not ok.all():
        i = ok.argmin()
        raise InputError(
            f"n + m = {int(n[i]) + int(m[i])} exceeds the pair size limit {PAIR_SIZE_LIMIT}"
            if positive[i]  # int(): a sum of numpy scalars could wrap
            else f"n and m must be positive integers, got ({n[i]}, {m[i]})"
        )
    n, m = n.astype(np.int64), m.astype(np.int64)
    g = np.gcd(n, m)
    return n * (m // g), m // g, n // g


def _correlation_terms(n: np.ndarray, m: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Object arrays (total, 6 L p q), one engine batch for the pair arrays
    n and m: the unreduced fraction integral_0^1 {nx}{mx} dx."""
    L, p, q = _lattices(n, m)
    return _sweep_totals(L, p, q), 6 * L.astype(object) * p * q


def exact_correlation(n: int, m: int) -> Fraction:
    """integral_0^1 {nx}{mx} dx as an exact Fraction.

    Denominators reach the scale of lcm(n, m)^2 before reduction, hence
    arbitrary-precision integers throughout.
    """
    n, m = np.array([n], dtype=object), np.array([m], dtype=object)
    return list(map(Fraction, *_correlation_terms(n, m)))[0]


def expected_correlations(triples: Iterable[Tuple[int, int, int]]) -> List[Fraction]:
    """``expected_correlation`` for every (n, m, X), from one engine
    batch that holds the [0, 1] and the [0, X] total of each."""
    n, m, X = np.array(list(triples), dtype=object).reshape(-1, 3).T
    ok = _integers(X)
    ok[ok] = X[ok] >= 1
    if not ok.all():
        i = ok.argmin()
        _lattices(n[:i], m[:i])  # the first failing triple raises
        raise InputError(f"X must be >= 1, got {X[i]}" if _is_integer_type(type(X[i]))
                         else f"X must be a positive integer, got {X[i]!r}")
    L, p, q = _lattices(n, m)
    X = np.fromiter(map(int, X), dtype=object, count=X.size)  # an int64 X would wrap in X L
    totals = _sweep_totals(np.concatenate((L, X * L)), np.tile(p, 2), np.tile(q, 2))
    one, full, den = totals[: X.size], totals[X.size :], 6 * L.astype(object) * p * q
    # full / (den X) == one / den and 1/4 <= one / den <= 1/3, cross-multiplied
    broken = full != X * one
    bad = broken | (3 * one > den) | (den > 4 * one)
    if bad.any():
        i = bad.argmax()
        raise AssertionError(
            f"period-1 identity violated for (n={n[i]}, m={m[i]}, X={X[i]}): "
            f"{Fraction(full[i], den[i] * X[i])} != {Fraction(one[i], den[i])}"
            if broken[i]
            else f"correlation {Fraction(one[i], den[i])} for (n={n[i]}, m={m[i]}) "
            "outside the provable [1/4, 1/3] range"
        )
    return list(map(Fraction, one, den))


def expected_correlation(n: int, m: int, X: int) -> Fraction:
    """(1/X) integral_0^X {nx}{mx} dx, exact, for integer X >= 1.

    Integer x-periodicity of the integrand makes this equal to
    exact_correlation(n, m); the [0, X] integral is computed on its own
    and the equality verified, not assumed, for every X.  Non-integer X
    is rejected.  A violated identity, or a value outside the provable
    [1/4, 1/3], raises AssertionError.
    """
    return expected_correlations([(n, m, X)])[0]


def correlation_closed_form(n: int, m: int) -> Fraction:
    """1/4 + gcd(n, m)^2 / (12 n m) = (3pq + 1) / (12pq), the closed-form correlation law."""
    n, m = np.array([n], dtype=object), np.array([m], dtype=object)
    p, q = (int(v[0]) for v in _lattices(n, m)[1:])
    return Fraction(3 * p * q + 1, 12 * p * q)

