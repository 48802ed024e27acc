"""Sieve correctness: definitions, divisor identities, partial sums."""

import ast
import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import example, given, strategies as st

import fraclab
from fraclab import InputError, arithmetic


def mobius_bruteforce(n):
    """Trial-division Moebius, independent of the sieve."""
    if n == 1:
        return 1
    count = 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            count += 1
        d += 1
    if n > 1:
        count += 1
    return -1 if count % 2 else 1


def linear_sieve(limit):
    """mu, the smallest prime factor and J2 of 0..limit from the linear
    sieve that ``build_tables`` and the fast sweeps used before their
    numpy passes; the oracle for them.  The smallest prime factor of 0
    and 1 is taken to be 0 and 1.

    Crossing off i*p through its smallest prime factor p multiplies
    J2(i) by p^2 when p divides i and by p^2 - 1 otherwise.
    """
    mu = [0] * (limit + 1)
    spf = [0] * (limit + 1)
    j2 = [0] * (limit + 1)
    primes = []
    mu[1] = j2[1] = 1
    for i in range(2, limit + 1):
        if spf[i] == 0:
            spf[i] = i
            primes.append(i)
            mu[i] = -1
            j2[i] = i * i - 1
        si = spf[i]
        for p in primes:
            ip = i * p
            if p > si or ip > limit:
                break
            spf[ip] = p
            if p == si:
                mu[ip] = 0
                j2[ip] = j2[i] * p * p
            else:
                mu[ip] = -mu[i]
                j2[ip] = j2[i] * (p * p - 1)
    spf[1] = 1
    return mu, spf, j2


#: indices on either side of the first three block edges of the sieve
BLOCK_EDGES = [
    k * arithmetic._SIEVE_BLOCK + i for k in (1, 2, 3) for i in (-1, 0, 1)
]


def test_numpy_sieve_matches_linear_sieve():
    # every limit up to 300, p^2 - 1, p^2, p^2 + 1 for each prime
    # p <= 997 (where p joins the primes <= isqrt(limit)), and limits that
    # end a block one short of, at, and one past its last entry
    limits = list(range(1, 301)) + BLOCK_EDGES
    for p in sympy.primerange(2, 998):
        limits += [p * p - 1, p * p, p * p + 1]
    mu = np.array(linear_sieve(max(limits))[0], dtype=np.int8)
    for limit in limits:
        t = fraclab.build_tables(limit)
        assert np.array_equal(t.mu, mu[: limit + 1]), limit


def test_sweep_factor_tables_match_linear_sieve():
    # the smallest prime factors the fast sweeps read and the J2 sieve, at
    # every limit up to 300, around p^2 for each prime p <= 101, and at 10^5
    limits = list(range(1, 301)) + [10**5]
    for p in sympy.primerange(2, 102):
        limits += [p * p - 1, p * p, p * p + 1]
    _, spf, j2 = (np.array(a, dtype=np.int64) for a in linear_sieve(max(limits)))
    for limit in limits:
        spf_limit = arithmetic._smallest_factors(0, limit + 1)
        assert np.array_equal(spf_limit, spf[: limit + 1])
        table = fraclab.build_tables(limit)
        assert np.array_equal(fraclab.build_jordan2(table), j2[: limit + 1])


@given(
    lo=st.integers(0, 3 * arithmetic._SIEVE_BLOCK),
    width=st.integers(1, 2 * arithmetic._SIEVE_BLOCK),
)
@example(lo=0, width=1)
@example(lo=1, width=1)
@example(lo=arithmetic._SIEVE_BLOCK, width=arithmetic._SIEVE_BLOCK)
def test_smallest_factors_of_a_range_match_the_whole_range(lo, width):
    hi = lo + width
    spf = arithmetic._smallest_factors(lo, hi)
    assert np.array_equal(spf, arithmetic._smallest_factors(0, hi)[lo:])


@pytest.fixture(scope="module")
def jordan2_6(table6):
    return fraclab.build_jordan2(table6)


def at_block_edges(test):
    # the mu sieve's block edges, and 2^j - 1, 2^j and 2^j + 1, where the
    # J2 recurrence's doubling blocks end
    powers = {2**j + i for j in range(1, 20) for i in (-1, 0, 1)}
    for n in sorted(set(BLOCK_EDGES) | powers):
        test = example(n=n)(test)
    return test


@given(n=st.integers(1, 10**6))
@at_block_edges
def test_sieve_and_jordan2_match_factorint(table6, jordan2_6, n):
    factors = sympy.factorint(n)
    squarefree = all(e == 1 for e in factors.values())
    assert int(table6.mu[n]) == ((-1) ** len(factors) if squarefree else 0)
    j2 = n * n
    for p in factors:
        j2 = j2 // (p * p) * (p * p - 1)
    assert int(jordan2_6[n]) == j2


def test_limit_one():
    t = fraclab.build_tables(1)
    assert t.mu[1:].tolist() == [1]
    assert np.cumsum(t.mu)[1:].tolist() == [1]
    assert fraclab.mertens(t, 1) == 1


def test_first_six_values():
    t = fraclab.build_tables(6)
    assert t.mu[1:].tolist() == [1, -1, -1, 0, -1, 1]
    assert np.cumsum(t.mu)[1:].tolist() == [1, 0, -1, -1, -2, -1]
    assert [fraclab.mertens(t, n) for n in range(1, 7)] == [1, 0, -1, -1, -2, -1]


def test_build_rejects_bad_limits():
    with pytest.raises(InputError, match=r"sieve_limit must be in 1\.\.100000000, got 0"):
        fraclab.build_tables(0)
    with pytest.raises(InputError, match="got 100000001"):
        fraclab.build_tables(arithmetic.MAX_LIMIT + 1)
    # a float is not cut to an int, and True does not build a one-entry table
    for limit in (2.5, True):
        with pytest.raises(InputError, match=f"sieve_limit must be an integer, got {limit}"):
            fraclab.build_tables(limit)


def test_mertens_examples(table4):
    assert fraclab.mertens(table4, 1) == 1
    assert fraclab.mertens(table4, 2) == 0
    assert fraclab.mertens(table4, 5) == -2
    with pytest.raises(IndexError):
        fraclab.mertens(table4, table4.limit + 1)
    with pytest.raises(IndexError):
        fraclab.mertens(table4, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda t: fraclab.sine_series_partial(t, 2.9, 0.1),
        lambda t: fraclab.classical_bound_report(t, [2.5]),
        lambda t: fraclab.squarefree_count(t, True),
        lambda t: fraclab.sine_squared_identity_gap(t, True, 0.1),
        lambda t: fraclab.mertens(t, 2.5),
        lambda t: fraclab.correlation_double_sum_sweep(t, 2.5),
        lambda t: fraclab.tail_integral_u2(t, 1.5, 3),
        lambda t: fraclab.residual_moment_report(t, 2.5),
    ],
    ids=["sine", "report", "count", "identity", "mertens", "sweep", "tail", "moment"],
)
def test_table_readers_refuse_non_integer_index(table4, call):
    # a float is not cut to an int and a bool is not read as 0 or 1
    with pytest.raises(InputError, match="must be an integer"):
        call(table4)


def test_table_readers_take_numpy_integers(table4):
    assert fraclab.mertens(table4, np.int64(5)) == -2
    assert fraclab.squarefree_count(table4, np.int32(10)) == 7
    assert fraclab.tail_integral_u2(table4, np.int64(1), np.uint16(3)) == 0.5


def test_mertens_decade_values(table6):
    # well-known reference values
    assert fraclab.mertens(table6, 10**3) == 2
    assert fraclab.mertens(table6, 10**4) == -23
    assert fraclab.mertens(table6, 10**5) == -48
    assert fraclab.mertens(table6, 10**6) == 212


def test_mertens_and_squarefree_count_at_1e7():
    t = fraclab.build_tables(10**7)
    assert fraclab.mertens(t, 10**7) == 1037
    assert fraclab.squarefree_count(t, 10**7) == 6079291


def test_mertens_difference_is_mu(table4):
    # M(n) from ``mertens``, one sum of mu per n, against its own cumsum
    m = np.array([0] + [fraclab.mertens(table4, n) for n in range(1, table4.limit + 1)])
    assert np.array_equal(m, np.cumsum(table4.mu, dtype=np.int64))
    assert np.array_equal((m[1:] - m[:-1]).astype(np.int8), table4.mu[1:])


def test_divisor_sum_vanishes(table4):
    acc = np.zeros(10**4 + 1, dtype=np.int64)
    for d in range(1, 10**4 + 1):
        acc[d::d] += int(table4.mu[d])
    assert acc[1] == 1
    assert not np.any(acc[2:])


def test_multiplicative_on_coprime_pairs(table6):
    rng = random.Random(4242)
    for _ in range(10**4):
        a = rng.randint(1, 1000)
        b = rng.randint(1, 1000)
        if math.gcd(a, b) != 1:
            continue
        assert table6.mu[a * b] == table6.mu[a] * table6.mu[b]


def test_sieve_against_trial_division(table6):
    rng = random.Random(99)
    sample = list(range(1, 301)) + [rng.randint(301, 10**6) for _ in range(500)]
    for n in sample:
        assert int(table6.mu[n]) == mobius_bruteforce(n), n


def test_squarefree_count_examples(table4):
    assert fraclab.squarefree_count(table4, 1) == 1
    # square-free up to 10: {1,2,3,5,6,7,10}
    assert fraclab.squarefree_count(table4, 10) == 7


def test_squarefree_count_monotone_with_mu_square_steps(table4):
    prev = 0
    for N in range(1, 200):
        q = fraclab.squarefree_count(table4, N)
        assert q - prev == int(table4.mu[N]) ** 2
        assert q >= prev
        prev = q


def exact_partial_sum(table, N, power):
    """sum_{n<=N} mu(n)^power / n^power as an exact Fraction, over the
    common denominator lcm(1..N)^power."""
    den = math.lcm(*range(1, N + 1)) ** power
    num = sum(int(table.mu[n]) ** power * (den // n**power) for n in range(1, N + 1))
    return Fraction(num, den)


def test_moebius_harmonic_examples(table4):
    assert fraclab.moebius_harmonic(table4, 1) == 1.0
    assert fraclab.moebius_harmonic(table4, 3) == pytest.approx(1 / 6, abs=1e-15)


def test_moebius_harmonic_small_at_1e5(table6):
    assert abs(fraclab.moebius_harmonic(table6, 10**5)) < 0.01


def test_harmonic_paths_agree_at_crossover(table6):
    # the float sum against the exact Fraction at N = 10^4
    compensated = fraclab.moebius_harmonic(table6, 10**4)
    assert isinstance(compensated, float)
    assert abs(float(exact_partial_sum(table6, 10**4, 1)) - compensated) < 1e-12


def test_zeta2_partial_examples(table4):
    assert fraclab.squarefree_zeta2_partial(table4, 1) == 1.0
    assert fraclab.squarefree_zeta2_partial(table4, 3) == pytest.approx(49 / 36, abs=1e-15)


def test_zeta2_paths_agree_at_crossover(table6):
    # the float sum against the exact Fraction at N = 10^4
    compensated = fraclab.squarefree_zeta2_partial(table6, 10**4)
    assert isinstance(compensated, float)
    assert abs(float(exact_partial_sum(table6, 10**4, 2)) - compensated) < 1e-12


def test_jordan2_values(table4):
    j2 = fraclab.build_jordan2(table4)
    assert j2.dtype == np.int64 and j2.shape == (table4.limit + 1,)
    assert j2[:3].tolist() == [0, 1, 3]
    assert sum(int(j2[d]) for d in (1, 2, 3, 6)) == 36


def test_jordan2_divisor_identity(table4):
    acc = np.zeros(10**4 + 1, dtype=np.int64)
    j2 = fraclab.build_jordan2(table4)
    for d in range(1, 10**4 + 1):
        acc[d::d] += j2[d]
    k = np.arange(10**4 + 1, dtype=np.int64)
    assert np.array_equal(acc[1:], (k * k)[1:])


def test_table_arrays_are_read_only(tmp_path):
    t = fraclab.build_tables(1000)
    path = tmp_path / "sieve.muv"
    fraclab.save_cache(t, path)
    loaded = fraclab.load_cache(path)
    for arr in (t.mu, fraclab.build_jordan2(t), loaded.mu):
        with pytest.raises(ValueError, match="read-only"):
            arr[1] = 0
    # the square-free flags are mu != 0: no copy of them is kept to freeze
    assert np.array_equal(loaded.mu != 0, t.mu != 0)


def test_table_shape(tmp_path):
    t = fraclab.build_tables(1000)
    names = [f.name for f in dataclasses.fields(fraclab.MoebiusTable)]
    assert names == ["limit", "mu"]
    path = tmp_path / "sieve.muv"
    fraclab.save_cache(t, path)
    loaded = fraclab.load_cache(path)
    for name in names[1:]:  # same arrays, dtypes and values, sieved or loaded
        ours, theirs = getattr(t, name), getattr(loaded, name)
        assert theirs.dtype == ours.dtype and np.array_equal(theirs, ours), name
    assert loaded.limit == t.limit
    for table in (t, loaded):
        assert table.mu.dtype == np.int8
        assert table.mu.nbytes == table.limit + 1
        assert fraclab.mertens(table, table.limit) == np.cumsum(table.mu, dtype=np.int64)[-1]
    assert arithmetic.MAX_LIMIT < 2**31, (
        "the sieve's int32 radical, factor and cofactor arrays hold divisors of n <= MAX_LIMIT"
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.mu = loaded.mu
    before = {name: np.copy(getattr(t, name)) for name in names}
    j2 = fraclab.build_jordan2(t)
    assert not j2.flags.writeable
    assert sorted(vars(t)) == sorted(names)
    for name in names:
        assert np.array_equal(getattr(t, name), before[name]), name


@pytest.mark.parametrize(
    "source, limit, bound",
    [
        # the table plus one block of sieve scratch
        pytest.param("sieve", 10**6, 10**6 + 16 * arithmetic._SIEVE_BLOCK, id="sieve"),
        # the table alone: nothing is derived on load
        pytest.param("cache", 10**6, 1.1 * 10**6, id="cache"),
        pytest.param(
            "sieve", 4 * 10**6, 4 * 10**6 + 16 * arithmetic._SIEVE_BLOCK, id="sieve-4e6"
        ),
        # the int64 result plus one block of recurrence scratch
        pytest.param(
            "jordan2",
            4 * 10**6,
            8 * (4 * 10**6 + 1) + 28 * arithmetic._SIEVE_BLOCK,
            id="jordan2-4e6",
        ),
    ],
)
def test_table_peak_memory_per_entry(tmp_path, source, limit, bound):
    # numpy reports its buffers to tracemalloc: the one byte an entry
    # holds (int8 mu), or the eight of J2 (int64), plus, when sieving or
    # building J2, the scratch of one block
    path = tmp_path / "sieve.muv"
    table = fraclab.build_tables(limit)
    fraclab.save_cache(table, path)
    tracemalloc.start()
    try:
        if source == "sieve":
            table = fraclab.build_tables(limit)
        elif source == "cache":
            table = fraclab.load_cache(path, prefix=limit)
        else:
            assert fraclab.build_jordan2(table).shape == (limit + 1,)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.limit == limit
    assert peak <= bound, f"{peak / limit:.2f} bytes per entry at peak"


@pytest.mark.slow
def test_sieve_at_max_limit():
    # opt-in (pytest -m slow): ~0.2 GB peak RSS.  M(10^8) = 1928 is OEIS A084237
    limit = arithmetic.MAX_LIMIT
    tracemalloc.start()
    try:
        table = fraclab.build_tables(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    top = fraclab.mertens(table, limit)
    del table  # free the 0.1 GB before asserting
    assert top == 1928
    assert peak <= limit + 16 * arithmetic._SIEVE_BLOCK, f"{peak / limit:.2f} B/entry"


def test_public_names_resolve():
    # a stale export fails here rather than later in ``from fraclab import *``
    assert len(set(fraclab.__all__)) == len(fraclab.__all__)
    for name in fraclab.__all__:
        assert hasattr(fraclab, name), name
    exec("from fraclab import *", {})
    tree = ast.parse(Path(fraclab.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert public <= set(fraclab.__all__), public - set(fraclab.__all__)
