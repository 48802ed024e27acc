"""Sieved Moebius tables and the partial sums built on them.

A segmented sieve produces, for all 1 <= n <= limit:

    mu[n]       Moebius function (int8): 0 when a square divides n,
                otherwise (-1)**k for n with k distinct prime factors

Conventions fixed here: mu(1) = 1, M(0) = 0.  A table has the fields
limit and mu and no others, whether it was sieved or loaded from the
cache; n is square-free exactly when mu[n] != 0, so no flag array is
kept.  The Mertens function M(n) = sum_{k <= n} mu(k) is not stored
either: ``mertens`` sums mu for one value, and the tail sums in
``tails`` build M block by block where they read it.

The sieve runs over 1..limit in blocks of ``_SIEVE_BLOCK`` entries, with
the primes p <= isqrt(limit) carried from block to block (Bays & Hudson,
"The segmented sieve of Eratosthenes", BIT 17, 1977), so building a
table peaks at its own byte per entry plus one block's scratch.

The Jordan totient J2, with J2(d) = d**2 * prod_{p|d} (1 - 1/p**2) and
sum_{d|k} J2(d) = k**2, and the smallest prime factor of each n are not
part of the table.  ``_smallest_factors`` builds the factors over any
range, and J2 has one method: J2(d) = J2(d/p) (p**2 - [p does not divide
d/p]), p the smallest prime factor of d.  ``build_jordan2`` runs it over
a table's range, and the gcd-grouped double-sum sweep reads J2 from it.

A table is frozen and its arrays are read-only, so it is safe to share
across threads; every function here is a pure read of the arrays.

The partial sums P(N) = sum mu(n)/n (``moebius_harmonic``) and
sum mu(n)^2/n^2 (``squarefree_zeta2_partial``) are floats: the correctly
rounded sum of the float64 terms (``_fsum``).  Their exact values are
needed only inside the exact gcd-grouped double-sum sweep
(``series.correlation_double_sum_sweep``), which accumulates them itself
as integers at a scale where every term is exact.

``_range_sums`` sums a term sequence exactly over many prefixes in one
pass, as integers scaled by 2^1074, and rounds each prefix or tail (the
whole sum less a prefix) once: bit for bit what ``math.fsum`` over the
range's own terms gives.  It builds the terms ``_FSUM_CHUNK`` at a time,
and one call of ``_exact_prefixes`` per chunk and row gives the exact
prefix at every bound in the chunk: a few whole-array operations per
error-free slice of the terms (Rump, Ogita & Oishi, 2008), whatever the
number of bounds.  Every float sum in ``tails``, criterion 12, the sine
series, the float direct double-sum sweep and ``_fsum`` goes through it.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import os
import struct
from dataclasses import dataclass
from numbers import Integral
from typing import Callable, Optional, Sequence

import numpy as np

#: hard ceiling on sieve size; beyond this the arrays get into the
#: multi-gigabyte range and a request is more likely a bug than intent
MAX_LIMIT = 10**8

CACHE_MAGIC = b"MUV1"


class InputError(ValueError):
    """Bad input, refused before any real work: exit 2 in the CLI, a ValueError to callers."""


@dataclass(frozen=True)
class MoebiusTable:
    """The Moebius function indexed 1..limit (index 0 is padding), one
    byte per entry, read-only as ``build_tables`` and ``load_cache``
    return it."""

    limit: int
    mu: np.ndarray  # int8, mu[0] = 0

    def _check_index(self, n: int) -> None:
        _check_integer(n)
        if not 1 <= n <= self.limit:
            raise IndexError(f"n={n} outside table range 1..{self.limit}")

    def _check_increasing(self, Ns: Sequence[int], what: str) -> list[int]:
        """``Ns`` as ints, each an index; InputError on ``what`` unless they strictly increase."""
        for N in Ns:
            self._check_index(N)
        Ns = [int(N) for N in Ns]
        if any(b <= a for a, b in zip(Ns, Ns[1:])):
            raise InputError(f"{what} must be strictly increasing, got {Ns}")
        return Ns


def _is_integer_type(kind: type) -> bool:
    """The integer rule of indices and of n, m and X: numpy's integers pass, bool fails."""
    return issubclass(kind, Integral) and not issubclass(kind, bool)


def _check_integer(n: int, what: str = "index") -> None:
    """InputError unless ``n`` is of an integer type (``_is_integer_type``)."""
    if not _is_integer_type(type(n)):
        raise InputError(f"{what} must be an integer, got {n!r}")


def _check_limit(limit: int, what: str = "sieve_limit") -> None:
    _check_integer(limit, what)
    if not 1 <= limit <= MAX_LIMIT:
        raise InputError(f"{what} must be in 1..{MAX_LIMIT}, got {limit}")


def _frozen_table(limit: int, mu: np.ndarray) -> MoebiusTable:
    mu.setflags(write=False)
    return MoebiusTable(limit=limit, mu=mu)


def _primes_upto(n: int) -> list[int]:
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).tolist()


#: entries sieved per block.  Every block makes a few numpy calls per
#: prime p <= isqrt(limit), so the Python cost grows with the number of
#: blocks; the scratch (int32 radical and index arrays for mu; int32
#: factor and cofactor arrays, an int64 factor and the gathered int64
#: J2(d/p) for J2) grows with the block.  A 10^7 sieve took 0.52,
#: 0.19 and 0.17 s at 2^16, 2^18 and 2^20, at 38.8, 40.8 and 48.3 MB
#: peak RSS (2-core x86-64 VM, numpy 2.4.6)
_SIEVE_BLOCK = 1 << 18


def build_tables(limit: int) -> MoebiusTable:
    """Sieve mu up to ``limit``, one block [lo, hi) of at most
    ``_SIEVE_BLOCK`` indices at a time.  Index 0 belongs to no block, so
    no stride of a prime touches it: its int32 radical would wrap.

    In a block, each prime p <= isqrt(limit) negates mu on its multiples,
    clears mu on the multiples of p^2, and multiplies p into an int32
    radical array (radical(n) divides n <= MAX_LIMIT < 2^31).  A
    square-free n has n // radical(n) equal to 1 or to its one prime
    factor above isqrt(limit), which negates mu(n) once more; as
    radical(n) divides n, that factor exists exactly when radical(n) < n,
    so no division is needed.  Where a square divides n, mu(n) is already
    0.  The peak is the one-byte-per-entry table plus one block's scratch.
    Output is deterministic for a given limit, and the array is read-only.
    """
    _check_limit(limit)
    primes = _primes_upto(math.isqrt(limit))
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    for lo in range(1, limit + 1, _SIEVE_BLOCK):
        hi = min(lo + _SIEVE_BLOCK, limit + 1)
        block = mu[lo:hi]
        radical = np.ones(hi - lo, dtype=np.int32)
        for p in primes:
            first = -lo % p
            block[first::p] *= -1
            radical[first::p] *= p
            pp = p * p
            block[-lo % pp :: pp] = 0
        large = radical < np.arange(lo, hi, dtype=np.int32)
        block *= 1 - 2 * large.view(np.int8)

    return _frozen_table(limit, mu)


def _smallest_factors(lo: int, hi: int) -> np.ndarray:
    """int32 array whose i-th entry is the smallest prime factor of
    k = lo + i, for 0 <= lo <= k < hi (k itself for k < 2 and for the
    primes).

    Striding the primes p <= isqrt(hi - 1) from the largest down, each p
    claims its multiples in the range from max(p^2, ceil(lo/p) p) on, so
    the smallest one writes last; a k no such p claims is 0, 1 or a prime.
    """
    spf = np.arange(lo, hi, dtype=np.int32)
    for p in reversed(_primes_upto(math.isqrt(hi - 1))):
        spf[max(p * p, -(-lo // p) * p) - lo :: p] = p
    return spf


def build_jordan2(table: MoebiusTable) -> np.ndarray:
    """Read-only int64 array of J2(d) for d = 0..table.limit (J2(0) = 0).

    With p the smallest prime factor of d > 1 (``_smallest_factors``) and
    r = d/p, J2(d) = J2(r) (p^2 - 1) when p does not divide r and
    J2(r) p^2 when it does.  The recurrence runs over blocks [lo, hi) with
    hi <= min(2 lo, lo + ``_SIEVE_BLOCK``), so every r <= d/2 lies below
    lo and is already final.  p and r are int32 (d <= MAX_LIMIT < 2^31).
    The table is only read for its limit n; J2 does not depend on mu.
    """
    n = table.limit
    j2 = np.empty(n + 1, dtype=np.int64)
    j2[:2] = 0, 1
    lo = 2
    while lo <= n:
        hi = min(2 * lo, lo + _SIEVE_BLOCK, n + 1)
        p = _smallest_factors(lo, hi)
        r = np.arange(lo, hi, dtype=np.int32)
        r //= p
        factor = p.astype(np.int64)
        factor *= factor
        factor -= r % p != 0
        np.multiply(j2[r], factor, out=j2[lo:hi])
        lo = hi
    j2.setflags(write=False)
    return j2


def mertens(table: MoebiusTable, n: int) -> int:
    """M(n) = sum_{m <= n} mu(m), summed from mu in O(n): an exact int64
    sum that numpy casts in small buffers, so no length-n temporary."""
    table._check_index(n)
    return int(np.sum(table.mu[: n + 1], dtype=np.int64))


def squarefree_count(table: MoebiusTable, N: int) -> int:
    """Q(N) = number of square-free integers <= N (equals sum mu^2)."""
    table._check_index(N)
    return int(np.count_nonzero(table.mu[1 : N + 1]))


def moebius_harmonic(table: MoebiusTable, N: int) -> float:
    """P(N) = sum_{n <= N} mu(n)/n, the correctly rounded sum of its
    float64 terms (``_fsum``)."""
    table._check_index(N)
    return _fsum(table.mu[1 : N + 1] / np.arange(1, N + 1, dtype=np.float64))


def squarefree_zeta2_partial(table: MoebiusTable, N: int) -> float:
    """sum_{n <= N} mu(n)^2 / n^2, tending to 15/pi^2; the correctly
    rounded sum of its float64 terms (``_fsum``)."""
    table._check_index(N)
    return _fsum((table.mu[1 : N + 1] != 0) / np.arange(1, N + 1, dtype=np.float64) ** 2)


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The non-empty ``values``, sorted in place, with equal neighbours
    dropped: what ``np.unique`` returns, without its first-use import of
    numpy.ma (~10 ms a process)."""
    values.sort()
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


#: terms built per pass of ``_range_sums``: 2^14 slices of at most 2^39
#: units sum exactly, below 2^53 units.  At 2^16 each pass faulted in fresh
#: pages unless a large free had raised malloc's mmap threshold; 2^14 does not
_FSUM_CHUNK = 1 << 14

#: 2^1074 times any finite float64 is an integer
_SUM_SCALE = 1 << 1074


def _exact_prefixes(terms: np.ndarray, at: Sequence[int]) -> list[int]:
    """The exact sums of ``terms[:p]`` for each p of the nondecreasing
    ``at``, the last p being ``terms.size``, times 2^1074.

    Error-free slices are taken from the largest term down (Rump, Ogita &
    Oishi, "Accurate floating-point summation part I", SIAM J. Sci.
    Comput. 31(1), 2008).  With the largest |t| left below 2^e and the
    unit u = 2^(e-39), never below 2^-1074, hi = (t + sigma) - sigma with
    sigma = 1.5 * 2^52 u is t rounded to a multiple of u, at most 2^39
    units, and t - hi is exact.  Up to ``_FSUM_CHUNK`` slices sum below
    2^53 units, exactly in any order: ``np.sum`` when every p is the end,
    ``np.cumsum`` read at each p otherwise.  The slices go on over
    the remainders t - hi until those are all zero.  With a term of 2^1000
    or more, sigma or a sum of 2^14 slices could overflow: then the terms
    times 2^-32 are summed, and apart from them the bits below 2^-1042
    that the scaling lost.
    """
    top = float(max(terms.max(), -terms.min()))
    if not math.isfinite(top):
        raise AssertionError("a term to be summed is not finite")
    if top >= 2.0**1000:
        scaled = terms * 2.0**-32
        lost = _exact_prefixes(terms - scaled * 2.0**32, at)
        return [(a << 32) + b for a, b in zip(_exact_prefixes(scaled, at), lost)]
    ends = None if at[0] == terms.size else np.asarray(at) - 1
    sums = [0] * len(at)
    while top:
        unit = max(math.frexp(top)[1] - 39, -1074)
        sigma = math.ldexp(1.5, unit + 52)
        hi = (terms + sigma) - sigma
        terms = terms - hi
        units = [float(hi.sum())] * len(at) if ends is None else np.cumsum(hi)[ends].tolist()
        sums = [s + (int(math.ldexp(k, -unit)) << (unit + 1074)) for s, k in zip(sums, units)]
        top = float(max(terms.max(), -terms.min()))
    return sums


def _range_sums(
    term: Callable[[int, int], np.ndarray],
    start: int,
    bounds: Sequence[int],
    rows: Optional[int] = None,
    tails: bool = False,
):
    """The correctly rounded sums of the terms over [start, b) for each b
    in the nondecreasing ``bounds``, or with ``tails`` over [b, last
    bound); an equal pair of bounds is an empty range.

    ``term(a, b)`` returns the float64 terms of the indices a..b-1; it is
    called once per pass of ``_FSUM_CHUNK`` indices, in order, up to the
    last bound, so every term is built once.  With ``rows``, it returns a
    (rows, b - a) block of that many term sequences instead, and the
    result is one list of sums per row.  One ``_exact_prefixes`` call per
    pass and row gives the exact prefix at every bound the pass reaches.
    Each prefix, or the whole sum less a prefix, is rounded once by
    Python's int / int division, which rounds correctly: bit for bit what
    ``math.fsum`` over the range's own terms gives.
    """
    cuts = [start, *bounds]
    if any(b < a for a, b in zip(cuts, cuts[1:])):
        raise AssertionError(f"bounds must not decrease from {start}, got {cuts[1:]}")
    width = 1 if rows is None else rows
    done = bisect.bisect_right(cuts, start)  # cuts[1:done] end empty ranges
    sums = [[0] * (done - 1) for _ in range(width)]
    totals = [0] * width
    for s in range(start, cuts[-1], _FSUM_CHUNK):
        e = min(s + _FSUM_CHUNK, cuts[-1])
        upto = bisect.bisect_right(cuts, e, done)
        at = [b - s for b in cuts[done:upto]] + [e - s]  # the bounds, then the pass's end
        for r, row in enumerate(term(s, e).reshape(width, e - s)):
            *cut, totals[r] = [totals[r] + p for p in _exact_prefixes(row, at)]
            sums[r] += cut
        done = upto
    read = [[((row[-1] - s) if tails else s) / _SUM_SCALE for s in row] for row in sums]
    return read[0] if rows is None else read


def _fsum(terms: np.ndarray) -> float:
    """The correctly rounded sum of the float64 ``terms``: ``math.fsum``'s
    value, by ``_range_sums``."""
    return _range_sums(lambda a, b: terms[a:b], 0, [terms.size])[0]


def save_cache(table: MoebiusTable, path) -> None:
    """Write the binary sieve cache: b"MUV1", little-endian uint64 limit,
    then mu(1..limit) as signed bytes: exactly 12 + limit bytes, the size
    ``load_cache`` requires.

    The bytes go to ``<path>.tmp-<pid>`` in the same directory, which
    then replaces ``path``, so a failed write leaves the old cache whole.
    """
    tmp = f"{os.fspath(path)}.tmp-{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CACHE_MAGIC + struct.pack("<Q", table.limit))
            fh.write(table.mu[1:])
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def load_cache(path, prefix: Optional[int] = None) -> MoebiusTable:
    """Restore a read-only table of exactly mu(1..prefix), or of all of
    the cache when ``prefix`` is None, from a file ``save_cache`` wrote.

    Only the header and the prefix's bytes are read, straight into the
    table's mu array; the file size must be exactly the 12 header bytes
    plus the ``limit`` body bytes ``save_cache`` writes.  A loaded table
    has the same fields as a sieved one and nothing is derived on load,
    so it takes one byte per entry.  InputError unless ``prefix`` is an
    integer in 1..MAX_LIMIT; ValueError on a bad magic, a bad header, a
    body shorter or longer than the limit, a limit below ``prefix``, or a
    read value outside {-1, 0, 1}.
    """
    if prefix is not None:
        _check_limit(prefix, "cache prefix")
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CACHE_MAGIC:
            raise ValueError(f"bad sieve cache magic {magic!r} in {path}")
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError(f"truncated sieve cache header in {path}")
        (limit,) = struct.unpack("<Q", header)
        if not 1 <= limit <= MAX_LIMIT:
            raise ValueError(f"sieve cache limit {limit} out of range in {path}")
        body = os.fstat(fh.fileno()).st_size - 12
        if body != limit:
            kind = "truncated" if body < limit else "oversized"
            raise ValueError(
                f"{kind} sieve cache body in {path}: {body} bytes for limit {limit}"
            )
        read = limit if prefix is None else int(prefix)
        if read > limit:
            raise ValueError(f"sieve cache in {path} only reaches {limit}, not {read}")
        mu = np.empty(read + 1, dtype=np.int8)
        mu[0] = 0
        if fh.readinto(mu[1:]) != read:
            raise ValueError(f"truncated sieve cache body in {path}")
    if mu[1] != 1 or mu.min() < -1 or mu.max() > 1:
        raise ValueError(f"sieve cache in {path} holds values outside {{-1,0,1}}")
    return _frozen_table(read, mu)
