"""Step-function tail integrals and the finite Abel-summation identities."""

import itertools
import math
import random
import sys
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fraclab
from fraclab import InputError, acceptance, arithmetic, cli, tails


# -- oracles: the per-cutoff fsum over a term list, as it was before the
# one-pass binned sums; the terms are built the same way, elementwise,
# from a whole-length M array


def mertens_array(table):
    return np.cumsum(table.mu, dtype=np.int64)


def oracle_tail_u2(table, N, U):
    k = np.arange(N, U, dtype=np.float64)
    terms = mertens_array(table)[N:U].astype(np.float64) / (k * (k + 1.0))
    return math.fsum(terms.tolist())


def oracle_tail_u1(table, N, U):
    k = np.arange(N, U, dtype=np.float64)
    terms = mertens_array(table)[N:U].astype(np.float64) * np.log1p(1.0 / k)
    return math.fsum(terms.tolist())


def oracle_report(table, cutoffs, c=1.0):
    M = mertens_array(table)
    rows = []
    for N in cutoffs:
        m = int(M[N])
        if N < table.limit:
            u2 = oracle_tail_u2(table, N, table.limit)
            u1 = oracle_tail_u1(table, N, table.limit)
        else:
            u2 = u1 = 0.0
        fit = abs(m) * math.exp(c * math.sqrt(math.log(N))) / N
        rows.append((N, m / N, u2, u1, fit))
    return rows


def bits(values):
    # float.hex tells -0.0 from 0.0, which == does not
    return [float(v).hex() for v in values]


# -- the binned range sums against math.fsum over the term list

finite = st.one_of(
    # the whole finite range: subnormals, -0.0 and the float maximum too
    st.floats(min_value=-sys.float_info.max, max_value=sys.float_info.max),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1023)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1.0, 2.0**900,
                     sys.float_info.max, -sys.float_info.max]),
)


@st.composite
def term_arrays(draw):
    xs = draw(st.lists(finite, max_size=40))
    if xs:  # exact cancellation: some terms again with the sign flipped
        xs += [-v for v in draw(st.lists(st.sampled_from(xs), max_size=20))]
    return np.array(draw(st.permutations(xs)), dtype=np.float64)


def fsum(values):
    """``math.fsum``, which raises OverflowError once one of its partial sums
    passes the float range; there the exact sum, rounded once from
    Fractions, which raises OverflowError only when the sum itself does."""
    try:
        return math.fsum(values)
    except OverflowError:
        return float(sum(map(Fraction, values), Fraction(0)))


def prefixes_and_tails(term, start, bounds, rows=None):
    """The prefix and the tail to the last bound for each bound, from two
    ``_range_sums`` passes."""
    prefix, tail = (arithmetic._range_sums(term, start, bounds, rows, t) for t in (False, True))
    for row in (prefix + tail) if rows else [prefix, tail]:
        assert all(type(s) is float for s in row)
    return list(zip(prefix, tail)) if rows else (prefix, tail)


@given(term_arrays(), st.data(), st.sampled_from([1, 2, 7, 1 << 16]))
def test_range_fsums_equal_fsum_over_the_terms(x, data, chunk):
    start = data.draw(st.integers(0, len(x)))
    # bounds may repeat and may reach the end of the terms
    bounds = sorted(data.draw(st.lists(st.integers(start, len(x)), min_size=1, max_size=8)))
    stop = bounds[-1]
    built = []

    def term(a, b):
        built.append((a, b))
        return x[a:b]

    y = x[::-1].copy()

    def two_rows(a, b):
        return np.stack((x[a:b], y[a:b]))

    def expected(z):  # the prefix and the tail sums of z, one list each
        return ([fsum(z[start:b].tolist()) for b in bounds],
                [fsum(z[b:stop].tolist()) for b in bounds])

    try:
        (x_prefix, x_tail), (y_prefix, y_tail) = expected(x), expected(y)
    except OverflowError:  # a sum past the float range (test_range_fsums_past_the_float_range)
        assume(False)
    with mock.patch.object(arithmetic, "_FSUM_CHUNK", chunk):
        prefix, tail = prefixes_and_tails(term, start, bounds)
        rows = prefixes_and_tails(two_rows, start, bounds, rows=2)
    assert bits(prefix) == bits(x_prefix)
    assert bits(tail) == bits(x_tail)
    # each pass (prefixes, then tails) builds every term up to the last
    # bound once, one chunk at a time
    assert built == 2 * [(a, min(a + chunk, stop)) for a in range(start, stop, chunk)]
    # a block of rows sums each row as its own term sequence
    assert len(rows) == 2
    assert bits(rows[0][0]) == bits(prefix) and bits(rows[0][1]) == bits(tail)
    assert bits(rows[1][0]) == bits(y_prefix)
    assert bits(rows[1][1]) == bits(y_tail)


def test_range_fsums_past_the_float_range():
    big = sys.float_info.max
    # a partial sum past the float range, where math.fsum raises, and back
    x = np.array([big, big, -big, 2.0**-1074])
    assert bits(arithmetic._range_sums(lambda a, b: x[a:b], 0, [3, 4])) == bits([big, big])
    with pytest.raises(OverflowError, match="intermediate overflow"):
        math.fsum(x.tolist())
    # a sum past the float range raises OverflowError, as math.fsum does
    with pytest.raises(OverflowError):
        arithmetic._range_sums(lambda a, b: x[a:b], 0, [1, 2])


def test_range_fsums_full_chunks_of_huge_terms():
    # terms up to the float maximum, of mixed sign, over two passes: the
    # extraction constant 1.5 * 2^52 u must not overflow, nor a slice sum
    c = arithmetic._FSUM_CHUNK
    rng = np.random.default_rng(7)
    n = 2 * c + 300
    x = rng.choice([-1.0, 1.0], n) * np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(900, 1012, n))
    big = sys.float_info.max
    # each +-big and its partner share a gap between bounds; 2^1023 spans one
    x[[3, 4, c + 20, c + 21, 2 * c + 5, 2 * c + 6]] = big, -big, big, -big, -big, big
    x[[c - 1, c + 9]] = 2.0**1023, -(2.0**1023)
    x[[6, 7, 8, c + 1]] = 5e-324, -(2.0**-1060), 2.0**-1022, -0.0  # bits far below the rest
    bounds = [0, 1, 3, 5, 9, c - 1, c, c, c + 11, 2 * c, n]
    prefix, tail = prefixes_and_tails(lambda a, b: x[a:b], 0, bounds)
    exact = list(itertools.accumulate(map(Fraction, x.tolist()), initial=Fraction(0)))
    assert bits(prefix) == bits(float(exact[b]) for b in bounds)
    assert bits(tail) == bits(float(exact[n] - exact[b]) for b in bounds)
    # the bits below 2^-1042 that scaling by 2^-32 drops, once the huge terms cancel
    x = np.array([big, 5e-324, -big, -(2.0**-1060), 2.0**1023, -(2.0**1023)])
    assert bits(arithmetic._range_sums(lambda a, b: x[a:b], 0, [2, 4, 6])) == bits(
        [big, 5e-324 - 2.0**-1060, 5e-324 - 2.0**-1060])
    # a whole chunk of one term, each rounded up to 2^1010 by its top slice:
    # 2^14 of those sum to 2^1024, past the float range, unless scaled first
    x = np.full(c, 2.0**1010 - 2.0**970)
    prefix, tail = prefixes_and_tails(lambda a, b: x[a:b], 0, [1, c])
    assert bits(prefix) == bits([x[0], math.fsum(x.tolist())])
    assert bits(tail) == bits([math.fsum(x[1:].tolist()), 0.0])


def test_range_fsums_full_chunks_in_one_binade():
    # three chunks of terms with full mantissas in [1, 2): whole chunks share a bin
    c = arithmetic._FSUM_CHUNK
    x = 1.0 + np.random.default_rng(5).random(3 * c + 17)
    x[::3] *= -1.0
    bounds = [0, 1, c - 1, c, c, c + 1, 2 * c + 5, len(x), len(x)]
    prefix, tail = prefixes_and_tails(lambda a, b: x[a:b], 0, bounds)
    assert bits(prefix) == bits(math.fsum(x[:b].tolist()) for b in bounds)
    assert bits(tail) == bits(math.fsum(x[b:].tolist()) for b in bounds)


def test_range_fsums_subnormals_and_signed_zeros():
    x = np.array(
        [-0.0, 5e-324, -0.0, -5e-324, 2.0**-1022, -(2.0**-1074) * 3, 0.0, 1.0, -1.0,
         2.0**-1060, -0.0, 2.0**900, -(2.0**900), 5e-324]
    )
    bounds = list(range(len(x) + 1)) + [len(x)]
    for chunk in (1, 3, 1 << 14):
        with mock.patch.object(arithmetic, "_FSUM_CHUNK", chunk):
            prefix, tail = prefixes_and_tails(lambda a, b: x[a:b], 0, bounds)
        assert bits(prefix) == bits(math.fsum(x[:b].tolist()) for b in bounds)
        assert bits(tail) == bits(math.fsum(x[b:].tolist()) for b in bounds)
    # an all-zero range of -0.0 terms reads +0.0, as math.fsum gives
    assert bits(prefix[:1] + tail[-2:]) == bits([0.0, 0.0, 0.0])


def test_range_fsums_on_a_dense_grid():
    # 2 * 10^4 bounds over 3 * 10^4 terms of mixed scale: most pieces are
    # a term or two, many empty
    rng = np.random.default_rng(11)
    n = 30_000
    x = rng.standard_normal(n) * np.exp2(rng.integers(-60, 60, n))
    bounds = np.sort(rng.integers(0, n + 1, 20_000)).tolist() + [n]
    prefix, tail = prefixes_and_tails(lambda a, b: x[a:b], 0, bounds)
    exact = list(itertools.accumulate(map(Fraction, x.tolist()), initial=Fraction(0)))
    assert bits(prefix) == bits(float(exact[b]) for b in bounds)
    assert bits(tail) == bits(float(exact[n] - exact[b]) for b in bounds)
    picks = slice(None, None, 97)
    assert bits(prefix[picks]) == bits(math.fsum(x[:b].tolist()) for b in bounds[picks])
    assert bits(tail[picks]) == bits(math.fsum(x[b:].tolist()) for b in bounds[picks])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_range_fsums_reject_non_finite_terms(bad):
    x = np.array([1.0, 2.0, bad, 3.0])
    with pytest.raises(AssertionError, match="not finite"):
        arithmetic._range_sums(lambda a, b: x[a:b], 0, [0, 4])


@pytest.mark.parametrize("bounds", [[5, 4], [0], [3, 2, 7], [2, 9, 8]])
def test_range_fsums_reject_bad_bounds(bounds):
    with pytest.raises(AssertionError, match="bounds"):
        arithmetic._range_sums(lambda a, b: np.ones(b - a), 1, bounds)


def test_range_fsums_run_the_kernel_once_per_chunk_and_row(table6):
    # both tail columns over 3 chunks, cut at 10 cutoffs: 2 rows x 3 chunks
    c = arithmetic._FSUM_CHUNK
    cutoffs = list(range(1, 3 * c, 3 * c // 10))
    with mock.patch.object(arithmetic, "_exact_prefixes", wraps=arithmetic._exact_prefixes) as kernel:
        rows = tails._tail_sums(tails._MertensRun(table6, 1), 1, [*cutoffs, 3 * c + 1])
    assert kernel.call_count == 6
    assert bits(rows[0]) == bits(oracle_tail_u2(table6, 1, b) for b in [*cutoffs, 3 * c + 1])


# -- M built from mu where it is read, against one whole-length cumsum

CHUNK = arithmetic._FSUM_CHUNK
LIMIT6 = 10**6
#: 1, the 10^6 limit, and the indices next to every chunk boundary below it
EDGES = sorted(
    {1, LIMIT6}
    | {k * CHUNK + d for k in range(1, LIMIT6 // CHUNK + 1) for d in (-1, 0, 1)}
)


@settings(max_examples=30)
@given(st.lists(st.sampled_from(EDGES), min_size=2, max_size=5, unique=True))
@example([1, LIMIT6])
@example([1, CHUNK - 1, CHUNK, CHUNK + 1, LIMIT6])
def test_mertens_from_mu_matches_cumsum(table6, points):
    M = mertens_array(table6)
    points = sorted(points)
    start, stop = points[0], points[-1]
    # carried blocks, asked for chunk by chunk as _range_sums does
    run = tails._MertensRun(table6, start)
    assert run.last == M[start - 1]
    blocks = [run(a, min(a + CHUNK, stop)) for a in range(start, stop, CHUNK)]
    assert np.array_equal(np.concatenate(blocks), M[start:stop])
    assert run.last == M[stop - 1]
    for n in points:
        assert fraclab.mertens(table6, n) == M[n]
    # the report reads M at its cutoffs, the limit included
    with mock.patch.object(tails, "_bound_fit", wraps=tails._bound_fit) as fit:
        rows = fraclab.classical_bound_report(table6, points)
    assert [call.args[0] for call in fit.call_args_list] == [int(M[N]) for N in points]
    assert [row[1] for row in rows] == [int(M[N]) / N for N in points]


@pytest.mark.parametrize("limit", [2, 3, CHUNK + 1, 2 * CHUNK - 1, 3 * CHUNK + 1])
def test_report_reads_mertens_at_the_limit(limit):
    # the tail pass stops before the limit; mu(limit) != 0 here, so
    # M(limit) differs from the M(limit - 1) its last block ends on
    table = fraclab.build_tables(limit)
    assert table.mu[limit] != 0
    M = mertens_array(table)
    for cuts in ([limit], [1, limit], [limit - 1, limit]):
        with mock.patch.object(tails, "_bound_fit", wraps=tails._bound_fit) as fit:
            fraclab.classical_bound_report(table, cuts)
        assert [call.args[0] for call in fit.call_args_list] == [int(M[N]) for N in cuts]


@settings(max_examples=15)
@given(st.sampled_from(EDGES), st.sampled_from([1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK]))
@example(1, CHUNK)
@example(LIMIT6 - CHUNK - 1, 2 * CHUNK)
def test_abel_shares_mertens_from_mu(table6, N, width):
    U = min(N + width, LIMIT6)
    assume(N < U)
    with mock.patch.object(tails, "_jump_sum", wraps=tails._jump_sum) as jump, \
            mock.patch.object(tails, "_step_pieces", wraps=tails._step_pieces) as steps, \
            mock.patch.object(tails, "_jumps", wraps=tails._jumps) as jumps, \
            mock.patch.object(tails, "_MertensRun", wraps=tails._MertensRun) as runs:
        assert fraclab.abel_identity_check(table6, N, U, Fraction(1, 7)) < 1e-9
    assert runs.call_count == 1  # the drift term sums over the same M
    assert jumps.call_count == 1  # both the pieces and the jump sum take k
    shared = jump.call_args.args[0]
    assert steps.call_args.args[0] is shared  # built once per call
    assert np.array_equal(shared, mertens_array(table6)[N : U + 1])


def test_tail_integrals_match_oracle(table6):
    chunk = arithmetic._FSUM_CHUNK
    for N, U in [(1, 2), (1, 10**6), (7, chunk + 7), (chunk - 1, 3 * chunk + 1),
                 (999_999, 10**6), (12345, 678_901)]:
        assert bits([fraclab.tail_integral_u2(table6, N, U)]) == bits(
            [oracle_tail_u2(table6, N, U)]
        )
        assert bits([fraclab.tail_integral_u1(table6, N, U)]) == bits(
            [oracle_tail_u1(table6, N, U)]
        )


@pytest.mark.parametrize(
    "cutoffs, c",
    [
        ([10**3, 10**4, 10**5, 10**6], 1.0),
        ([1, 2, 7, 65535, 65536, 65537, 999_999, 10**6], 0.5),
        ([3, 500_000], 2.0),
    ],
)
def test_classical_bound_report_matches_oracle(table6, cutoffs, c):
    got = fraclab.classical_bound_report(table6, cutoffs, c)
    want = oracle_report(table6, cutoffs, c)
    assert len(got) == len(want)
    columns = ("N", "mertens_ratio", "tail_u2", "tail_u1", "bound_fit")
    for column, g, w in zip(columns, zip(*got), zip(*want)):
        assert bits(g) == bits(w), column


def test_tails_cli_bytes_match_oracle(monkeypatch, capsys, table6):
    args = ["tails", "--cutoffs", "1000,10000,100000,1000000"]
    assert cli.main(args) == 0
    got = capsys.readouterr().out
    monkeypatch.setattr(tails, "classical_bound_report", oracle_report)
    assert cli.main(args) == 0
    assert got == capsys.readouterr().out


@pytest.mark.parametrize(
    "c, cutoffs, limit, fits",
    [
        # e^{800 sqrt(log 1000)} passes the float range
        ("800", "1000", "1000", ["inf"]),
        # M(2) = 0 prints 0, not 0 * inf = nan
        ("1e308", "2,3", "10", ["0", "inf"]),
    ],
)
def test_tails_bound_fit_past_the_float_range(capsys, c, cutoffs, limit, fits):
    args = ["tails", "--cutoffs", cutoffs, "--limit", limit]
    assert cli.main(args + ["--c", c]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[-1] for row in rows] == fits
    # the other columns do not depend on c
    assert cli.main(args) == 0
    assert [row[:-1] for row in rows] == [
        line.split(",")[:-1] for line in capsys.readouterr().out.splitlines()[1:]
    ]


def test_u2_single_steps(table4):
    assert fraclab.tail_integral_u2(table4, 1, 2) == pytest.approx(0.5, abs=1e-15)
    assert fraclab.tail_integral_u2(table4, 2, 3) == 0.0  # M(2) = 0


def test_u1_single_steps(table4):
    assert fraclab.tail_integral_u1(table4, 1, 2) == pytest.approx(math.log(2), abs=1e-15)
    assert fraclab.tail_integral_u1(table4, 2, 4) == pytest.approx(
        -math.log(4 / 3), abs=1e-15
    )


def test_range_validation(table4):
    for fn in (fraclab.tail_integral_u2, fraclab.tail_integral_u1):
        with pytest.raises(InputError):
            fn(table4, 5, 5)
        with pytest.raises(InputError):
            fn(table4, 10, 5)
        with pytest.raises(InputError):
            fn(table4, 1, table4.limit + 1)


def test_additivity(table6):
    for fn in (fraclab.tail_integral_u2, fraclab.tail_integral_u1):
        whole = fn(table6, 1, 10**6)
        for mid in (7, 10**3, 999_999):
            split = fn(table6, 1, mid) + fn(table6, mid, 10**6)
            assert abs(split - whole) < 1e-12


@st.composite
def identity_ranges(draw):
    U = draw(st.integers(2, LIMIT6))
    Ns = draw(st.lists(st.integers(1, U - 1), min_size=1, max_size=3, unique=True))
    return sorted(Ns), U


@settings(max_examples=25)
@given(identity_ranges())
@example(([1], 2))
@example(([1, 10**3], LIMIT6))
@example(([CHUNK - 1, CHUNK, CHUNK + 1], 3 * CHUNK + 1))
@example(([LIMIT6 - 1], LIMIT6))
def test_tails_equal_their_summation_by_parts_forms(table6, ranges):
    # criterion 12's identities, within its derived bounds, for any N < U
    Ns, U = ranges
    u2, gaps = acceptance._tail_identity_gaps(table6, Ns, U)
    assert len(u2) == len(gaps) == len(Ns)
    gap2, gap1 = map(max, zip(*gaps))
    assert gap2 < acceptance.TAIL_U2_TOL and gap1 < acceptance.TAIL_U1_TOL


def test_u1_grid_magnitudes(table6):
    # finite truncations of the u1 tail fluctuate at O(10) scale here;
    # only boundedness is asserted, the convergence claim is asymptotic
    for N in (10**2, 10**3, 10**4):
        assert abs(fraclab.tail_integral_u1(table6, N, 10**6)) < 50


def test_abel_single_step(table4):
    assert fraclab.abel_identity_check(table4, 1, 2, Fraction(1, 2)) < 1e-9


def test_abel_example(table4):
    assert fraclab.abel_identity_check(table4, 10, 100, Fraction(1, 3)) < 1e-9


def test_abel_random_suite(table4):
    rng = random.Random(31337)
    for _ in range(30):
        N = rng.randint(1, 9000)
        U = rng.randint(N + 1, 10**4)
        q = rng.randint(1, 50)
        p = rng.randint(1, 2 * q)
        assert fraclab.abel_identity_check(table4, N, U, Fraction(p, q)) < 1e-9


def test_abel_tie_break_at_coincident_jumps(table4):
    # x = 1/2 puts a sawtooth jump on every even u, exactly where M steps;
    # the identity only closes if those jumps read M at the left limit
    for N, U in [(1, 2), (2, 4), (10, 50), (99, 200)]:
        assert fraclab.abel_identity_check(table4, N, U, Fraction(1, 2)) < 1e-9
    # one jump in each range: the jump sum is x M(u^-) / k at index (kq - 1) // p
    M = mertens_array(table4)
    k = tails._jumps(1, 2, 1, 2)
    assert tails._jump_sum(M[1:3], 1, k, 1, 2) == 0.5 * int(M[1])  # u = 2
    k = tails._jumps(2, 3, 2, 5)
    assert tails._jump_sum(M[2:4], 2, k, 2, 5) == 0.4 * int(M[2])  # u = 5/2


def test_abel_rejects_bad_x(table4):
    with pytest.raises(InputError, match="x must be positive"):
        fraclab.abel_identity_check(table4, 1, 10, Fraction(0))
    with pytest.raises(InputError, match="x must be positive"):
        fraclab.abel_identity_check(table4, 1, 10, Fraction(-1, 3))
    with pytest.raises(InputError, match="denominator 1001 exceeds 1000"):
        fraclab.abel_identity_check(table4, 1, 10, Fraction(1, 1001))
    with pytest.raises(InputError, match="denominator"):
        # floats carry huge power-of-two denominators; they must not
        # sneak through as "rational" x
        fraclab.abel_identity_check(table4, 1, 10, 0.3)
    non_finite = (math.nan, math.inf, -math.inf, np.float32("nan"), np.float32("inf"),
                  Decimal("NaN"), Decimal("sNaN"), Decimal("Infinity"), Decimal("-Infinity"))
    for x in non_finite:  # refused before Fraction(x) raises
        with pytest.raises(InputError, match=f"x must be finite, got {x}"):
            fraclab.abel_identity_check(table4, 1, 10, x)
    # a numpy float is read by its value, as a float is
    half = fraclab.abel_identity_check(table4, 1, 10, 0.5)
    assert fraclab.abel_identity_check(table4, 1, 10, np.float32(0.5)) == half
    with pytest.raises(InputError, match="denominator"):
        fraclab.abel_identity_check(table4, 1, 10, np.float32(0.3))


def test_abel_x_above_one_is_fine(table4):
    assert fraclab.abel_identity_check(table4, 5, 400, Fraction(7, 5)) < 1e-9


def test_abel_large_numerator_does_not_wrap(table6):
    # the largest numerator the guard admits: floor(2x) = 999999 and
    # floor(ux) * p near 5e14, exact in float64
    assert fraclab.abel_identity_check(table6, 1, 2, Fraction(5 * 10**8 - 1, 1000)) < 1e-9
    # floor(ux) * p reached 1e19 here, past int64; now past the guard too
    with pytest.raises(InputError, match="MAX_FLOOR_UX"):
        fraclab.abel_identity_check(table6, 999990, 999991, Fraction(10**8 + 1, 1000))


@pytest.mark.parametrize(
    "N, U, x, ok",
    [
        (1, 2, Fraction(500000), True),         # floor(U x) = 10^6, at the limit
        (1, 2, Fraction(1000001, 2), False),    # 10^6 + 1
        (1, 10**4, Fraction(100), True),        # 10^6 with 99 * 10^4 jumps
        (1, 10**4, Fraction(100001, 1000), False),
        # 2 * 10^6 jump points passed the old jump-count guard, and the
        # check returned 2.53e-9 against its 1e-9 contract
        (9990, 9991, Fraction(2 * 10**9 + 1, 1000), False),
    ],
)
def test_abel_guard_is_floor_ux(monkeypatch, table4, N, U, x, ok):
    if ok:
        assert fraclab.abel_identity_check(table4, N, U, x) < 1e-9
    else:
        def no_mertens(*args):
            pytest.fail("the Abel sums ran before the MAX_FLOOR_UX guard")

        monkeypatch.setattr(tails, "_MertensRun", no_mertens)
        with pytest.raises(InputError, match="past the limit MAX_FLOOR_UX = 1000000"):
            fraclab.abel_identity_check(table4, N, U, x)


def floor_sum_expansion(table, N, U, p, q):
    """The jump sum x * sum_{N<k/x<=U} M((k/x)^-)/k at x = p/q, expanded
    by the same summation by parts applied to floor(ux)/u instead of
    {ux}/u:

        M(U) floor(Ux)/U - M(N) floor(Nx)/N
          + integral_N^U M(u) floor(ux)/u^2 du - sum_{N<n<=U} mu(n) floor(nx)/n
    """
    M = mertens_array(table)
    boundary = (
        int(M[U]) * (U * p // q) / U
        - int(M[N]) * (N * p // q) / N
    )
    k = tails._jumps(N, U, p, q)
    pieces = (v.tolist() for v in tails._step_pieces(M[N : U + 1], N, U, k, p, q))
    floor_integral = math.fsum(
        m * a * p * (1.0 / t0 - 1.0 / t1) for t0, t1, m, a in zip(*pieces)
    )
    mu_sum = math.fsum(
        int(table.mu[n]) * (n * p // q) / n for n in range(N + 1, U + 1)
    )
    return boundary + floor_integral - mu_sum


def test_floor_sum_identity(table4):
    # the jump sum of the Abel identity, checked on its own
    for N, U, p, q in [(10, 50, 1, 2), (3, 97, 5, 7)]:
        M = mertens_array(table4)[N : U + 1]
        jumps = tails._jump_sum(M, N, tails._jumps(N, U, p, q), p, q)
        assert abs(jumps - floor_sum_expansion(table4, N, U, p, q)) < 1e-9


def test_classical_bound_report(table6):
    cutoffs = [10**3, 10**4, 10**5, 10**6]
    Ns, ratios, tail_u2, tail_u1, bound_fit = zip(
        *fraclab.classical_bound_report(table6, cutoffs)
    )
    assert list(Ns) == cutoffs
    assert list(ratios) == [2e-3, -23e-4, -48e-5, 212e-6]
    assert all(f > 0 for f in bound_fit)
    assert tail_u2[-1] == 0.0 and tail_u1[-1] == 0.0
    # |M(N)|/N at desk scale
    assert abs(ratios[0]) <= 1e-2
    assert abs(ratios[-1]) < 1e-3
    # the true ratios are not monotone: 0.002 rises to 0.0023
    mags = [abs(r) for r in ratios]
    assert not all(b < a for a, b in zip(mags, mags[1:]))


def test_report_validation(table4):
    with pytest.raises(InputError, match="cutoffs must be strictly increasing"):
        fraclab.classical_bound_report(table4, [100, 100])
    with pytest.raises(InputError, match="c must be positive and finite, got 0.0"):
        fraclab.classical_bound_report(table4, [100, 200], c=0.0)
    with pytest.raises(IndexError):
        fraclab.classical_bound_report(table4, [table4.limit + 1])


@pytest.mark.parametrize(
    "cutoffs, c, error",
    [
        ([200, 100], 1.0, ValueError),
        ([0, 100], 1.0, IndexError),
        ([100, 10**4 + 1], 1.0, IndexError),
        ([100], math.nan, ValueError),
        ([100], math.inf, ValueError),
        ([100], -1.0, ValueError),
    ],
)
def test_report_rejects_before_summing(monkeypatch, table4, cutoffs, c, error):
    monkeypatch.setattr(tails, "_range_sums", None)  # nothing may be summed
    with pytest.raises(error):
        fraclab.classical_bound_report(table4, cutoffs, c)
