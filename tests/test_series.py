"""Series partial sums: sine series, double sum routes, identities."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import example, given, strategies as st

import fraclab
from fraclab import InputError, arithmetic, cli, series
from fraclab.series import DIRECT_EXACT_LIMIT, DOUBLE_SUM_LIMIT


def test_sine_series_at_zero(table4):
    # every {n*0} is 0, so the sum is +0.0 (float.hex tells it from -0.0)
    assert fraclab.sine_series_partial(table4, 50, 0.0).hex() == (0.0).hex()


@pytest.mark.parametrize("x", [2.0, -3.0])
def test_sine_series_at_integers(table4, x):
    # every {nx} is 0 at an integer x too, so the sum is +0.0 there as well
    assert fraclab.sine_series_partial(table4, 50, x).hex() == (0.0).hex()


def test_sine_series_single_term(table4):
    assert fraclab.sine_series_partial(table4, 1, 0.25) == pytest.approx(
        -math.pi / 4, abs=1e-15
    )


def test_sine_series_converges_slowly(table6):
    assert abs(fraclab.sine_series_partial(table6, 10**5, 0.25) - 1.0) < 1e-2


def test_sine_series_chunks_sum_like_one_array(table6):
    N, x = 3 * arithmetic._FSUM_CHUNK + 1234, 0.3
    n = np.arange(1, N + 1, dtype=np.float64)
    terms = table6.mu[1 : N + 1].astype(np.float64) / n * ((n * x) % 1.0)
    expected = -math.pi * math.fsum(terms.tolist())
    assert fraclab.sine_series_partial(table6, N, x) == expected


@given(x=st.floats(-1e300, 1e300))
@example(x=-0.3711)
@example(x=1e-9)
@example(x=-123456.789)
@example(x=5e-324)
@example(x=-5e-324)
@example(x=1e300)
@example(x=-1e300)
def test_sine_terms_match_float_remainder(table4, x):
    # {nx} as y - floor(y) has the bits of numpy's y % 1.0 at every finite y
    n = np.arange(1, 3001, dtype=np.float64)
    expected = table4.mu[1:3001].astype(np.float64) / n * ((n * x) % 1.0)
    assert bits(series._sine_terms(table4, x, 1, 3001)) == bits(expected)


def oracle_sine_partials(table, Ns, x):
    # the per-N fsum over the term list, as it was before the one-pass
    # binned sums; the terms are built the same way, elementwise, and an
    # all-zero sum gives +0.0
    n = np.arange(1, max(Ns) + 1, dtype=np.float64)
    terms = table.mu[1 : max(Ns) + 1].astype(np.float64) / n * ((n * x) % 1.0)
    return [0.0 - math.pi * math.fsum(terms[:N].tolist()) for N in Ns]


def bits(values):
    # float.hex tells -0.0 from 0.0, which == does not
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("x", [0.25, 0.1, 1 / 3, 0.7, 0.0, -2.75, 1e6 + 0.5])
def test_sine_series_partials_match_per_point_fsum(table6, x):
    grid = cli._n_grid(10**6, 25)
    got = fraclab.sine_series_partials(table6, grid, x)
    assert bits(got) == bits(oracle_sine_partials(table6, grid, x))
    assert bits([fraclab.sine_series_partial(table6, grid[7], x)]) == bits([got[7]])


def test_sine_series_partials_run_the_kernel_once_per_chunk(table6):
    # 10^4 grid points over 3 chunks of terms: one exact-sum kernel call per
    # chunk, not one per piece between grid points
    c, x = arithmetic._FSUM_CHUNK, 0.3711
    Ns = np.linspace(1, 3 * c, 10_000).astype(np.int64).tolist()
    assert len(set(Ns)) == len(Ns)
    with mock.patch.object(arithmetic, "_exact_prefixes", wraps=arithmetic._exact_prefixes) as kernel:
        got = fraclab.sine_series_partials(table6, Ns, x)
    assert kernel.call_count == 3
    assert bits(got[::97]) == bits(oracle_sine_partials(table6, Ns[::97], x))


def test_sine_series_partials_validation(table4):
    assert fraclab.sine_series_partials(table4, [], 0.3) == []
    for Ns in ([5, 5], [7, 3]):
        with pytest.raises(InputError, match="strictly increasing"):
            fraclab.sine_series_partials(table4, Ns, 0.3)
    for Ns in ([0, 5], [5, table4.limit + 1]):
        with pytest.raises(IndexError):
            fraclab.sine_series_partials(table4, Ns, 0.3)
    for x in (math.nan, math.inf, -math.inf, 1e305):  # 1e305 * 10^4 overflows
        with pytest.raises(InputError, match="finite"):
            fraclab.sine_series_partials(table4, [10, table4.limit], x)
        with pytest.raises(InputError, match="finite"):
            fraclab.sine_series_partial(table4, table4.limit, x)


def test_sine_series_cli_bytes_match_oracle(monkeypatch, capsys, table6):
    args = ["sine-series", "--x", "0.25", "--n-max", "100000"]
    assert cli.main(args) == 0
    got = capsys.readouterr().out
    monkeypatch.setattr(series, "sine_series_partials", oracle_sine_partials)
    assert cli.main(args) == 0
    assert got == capsys.readouterr().out


def test_double_sum_empty_and_first_pair(table4):
    assert fraclab.correlation_double_sum(table4, 1, exact=True) == 0
    assert fraclab.correlation_double_sum(table4, 2, exact=True) == Fraction(-7, 24)
    assert fraclab.correlation_double_sum_fast(table4, 2, exact=True) == Fraction(-7, 24)


def test_double_sum_routes_agree_exactly(table4):
    # 59 is prime, so the fast sweep's exact scale gains a factor 59^2 there
    for n_max in (1, 2, 59, 60):
        direct = fraclab.correlation_double_sum_sweep(table4, n_max, fast=False, exact=True)
        fast = fraclab.correlation_double_sum_sweep(table4, n_max, fast=True, exact=True)
        assert direct == fast, n_max
        for value in fast:
            assert type(value.numerator) is int and type(value.denominator) is int
        spot = fraclab.correlation_double_sum(table4, n_max, exact=True)
        assert spot == direct[-1]
        assert fraclab.correlation_double_sum_fast(table4, n_max, exact=True) == spot


def test_exact_fast_sweep_makes_one_fraction_per_row(table4):
    # the loop runs on integers at an exact scale; only each row's value
    # becomes a Fraction
    with mock.patch.object(series, "Fraction", wraps=Fraction) as fraction:
        fraclab.correlation_double_sum_sweep(table4, 300, fast=True, exact=True)
    assert fraction.call_count == fraclab.squarefree_count(table4, 300)


def test_float_fast_sweep_is_correctly_rounded(table4):
    floats = fraclab.correlation_double_sum_sweep(table4, 1000, fast=True, exact=False)
    exact = fraclab.correlation_double_sum_sweep(table4, 1000, fast=True, exact=True)
    assert floats == [float(v) for v in exact]


def jordan2_factorint(d):
    # J2(d) = d^2 prod_{p | d} (1 - 1/p^2), from sympy's factorization
    j2 = d * d
    for p in sympy.factorint(d):
        j2 = j2 // (p * p) * (p * p - 1)
    return j2


def oracle_gcd_grouped(table, N, j2):
    """S(N) = P^2/4 + (1/12) sum_{d<=N} J2(d) A_d^2 - D/3, summed afresh
    for this N with A_d = sum_{n<=N, d|n} mu(n)/n^2: the non-incremental
    gcd-grouped formula, with J2 passed in."""
    mu = [int(v) for v in table.mu[: N + 1]]
    P = sum((Fraction(mu[n], n) for n in range(1, N + 1) if mu[n]), Fraction(0))
    D = sum((Fraction(1, n * n) for n in range(1, N + 1) if mu[n]), Fraction(0))
    G = Fraction(0)
    for d in range(1, N + 1):
        a = sum(
            (Fraction(mu[n], n * n) for n in range(d, N + 1, d) if mu[n]), Fraction(0)
        )
        G += j2[d] * a * a
    return P * P / 4 + G / 12 - D / 3


def test_exact_sweeps_match_gcd_grouped_oracle(table4):
    j2 = [0] + [jordan2_factorint(d) for d in range(1, 201)]
    expected = [oracle_gcd_grouped(table4, N, j2) for N in range(1, 201)]
    for fast in (True, False):
        sweep = fraclab.correlation_double_sum_sweep(table4, 200, fast=fast, exact=True)
        assert sweep == expected, fast


def oracle_direct_float_sweep(table, n_max):
    # the direct float sweep as it was with a growing ``below`` array
    contribs, values = [], []
    below = np.array([], dtype=np.int64)
    for n in range(1, n_max + 1):
        if table.mu[n] != 0:
            row = series._direct_row_float(table, n, below)
            contribs.append(2.0 * int(table.mu[n]) / n * row)
            below = np.append(below, n)
        values.append(math.fsum(contribs))
    return values


def test_direct_float_sweep_matches_growing_array_oracle(table4):
    sweep = fraclab.correlation_double_sum_sweep(table4, 1500, fast=False)
    assert bits(sweep) == bits(oracle_direct_float_sweep(table4, 1500))


@pytest.mark.parametrize("fast", [True, False])
@pytest.mark.parametrize("exact", [True, False])
def test_single_n_calls_are_sweep_rows(table4, fast, exact):
    n_max = 120
    single = fraclab.correlation_double_sum_fast if fast else fraclab.correlation_double_sum
    sweep = fraclab.correlation_double_sum_sweep(table4, n_max, fast=fast, exact=exact)
    assert len(sweep) == n_max
    assert all(type(value) is (Fraction if exact else float) for value in sweep)
    # S(N) moves only at square-free N: the expansion repeats the value
    for N in range(2, n_max + 1):
        if table4.mu[N] == 0:
            assert sweep[N - 1] == sweep[N - 2], N
    for N in (1, 2, 97, n_max):
        value = single(table4, N, exact=exact)
        assert type(value) is (Fraction if exact else float)
        assert type(value) is type(sweep[N - 1])
        assert value == sweep[N - 1]


def test_exact_direct_guard(table4, monkeypatch):
    def no_engine(*args):
        pytest.fail("the exact engine ran before the guard")

    monkeypatch.setattr(series, "_correlation_terms", no_engine)
    with pytest.raises(InputError, match="exact direct sweep capped at N=300, got 301"):
        fraclab.correlation_double_sum(table4, DIRECT_EXACT_LIMIT + 1, exact=True)
    with pytest.raises(InputError, match="capped"):
        fraclab.correlation_double_sum_sweep(
            table4, DIRECT_EXACT_LIMIT + 1, fast=False, exact=True
        )


def test_float_routes_agree_on_grid(table6):
    sweep = fraclab.correlation_double_sum_sweep(table6, 3000, fast=False, exact=False)
    for N in (100, 300, 1000, 3000):
        fast = fraclab.correlation_double_sum_fast(table6, N)
        assert abs(sweep[N - 1] - fast) < 1e-12


def test_error_envelope_shrinks(table6):
    errs = [
        abs(fraclab.correlation_double_sum_fast(table6, N) - DOUBLE_SUM_LIMIT)
        for N in (10, 100, 2000)
    ]
    assert errs[2] < errs[1] < errs[0]


def test_convergence_rate_to_ten_to_the_five(table6):
    # N (S(N) + 9/(2 pi^2)) stays in [0.2, 0.3] well past criterion 3's N = 2000
    sweep = fraclab.correlation_double_sum_sweep(table6, 10**5, fast=True)
    rates = [N * (v - DOUBLE_SUM_LIMIT) for N, v in enumerate(sweep[99:], 100)]
    assert len(rates) == 10**5 - 99
    assert 0.2 <= min(rates) and max(rates) <= 0.3


def test_squared_identity_gap(table6):
    assert fraclab.sine_squared_identity_gap(table6, 50, 0.0) == 0.0
    assert fraclab.sine_squared_identity_gap(table6, 50, 0.3) < 1e-10
    assert fraclab.sine_squared_identity_gap(table6, 500, 0.7) < 1e-10
    with pytest.raises(InputError, match="capped at N=500, got 501"):
        fraclab.sine_squared_identity_gap(table6, 501, 0.3)


def test_residual_moment_bookkeeping(table4):
    # E[s_N^2] over breakpoint intervals is D(N)/3 + S(N) exactly, by both routes
    direct = fraclab.correlation_double_sum_sweep(table4, 100, fast=False, exact=True)
    fast = fraclab.correlation_double_sum_sweep(table4, 100, fast=True, exact=True)
    D = Fraction(0)
    for N in range(1, 101):
        D += Fraction(int(table4.mu[N]) ** 2, N * N)
        moment = fraclab.residual_moment_report(table4, N)
        assert moment == D / 3 + direct[N - 1] == D / 3 + fast[N - 1]
    assert moment * math.pi**2 == pytest.approx(0.5051844277730189, rel=1e-15)
    assert fraclab.residual_moment_report(table4, 1) == Fraction(1, 3)


def test_residual_moment_guard_comes_first(table4, monkeypatch):
    def no_mertens(*args):
        pytest.fail("the jump loop ran before the exact direct guard")

    monkeypatch.setattr(series, "mertens", no_mertens)
    with pytest.raises(InputError, match="capped"):
        fraclab.residual_moment_report(table4, DIRECT_EXACT_LIMIT + 1)
