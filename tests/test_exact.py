"""Exact correlation engine: examples, the law, the quadrature oracle.

The engine is pinned against the law, against a merged-breakpoint
oracle that lives only here, and its floor sums against a literal loop;
its int64 and object arrays against each other at the int64 switch.
"""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fraclab
from fraclab import InputError, exact
from fraclab.acceptance import correlation_quadrature


THIRD = Fraction(1, 3)


def test_basic_examples():
    assert fraclab.exact_correlation(1, 1) == THIRD
    assert fraclab.exact_correlation(1, 2) == Fraction(7, 24)
    assert fraclab.exact_correlation(2, 6) == Fraction(5, 18)
    assert fraclab.exact_correlation(5, 6) == Fraction(91, 360)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 100, 640])
def test_diagonal_is_one_third(n):
    assert fraclab.exact_correlation(n, n) == THIRD


def test_expected_correlation_examples():
    assert fraclab.expected_correlation(1, 2, 1) == Fraction(7, 24)
    assert fraclab.expected_correlation(1, 2, 100) == Fraction(7, 24)
    assert fraclab.expected_correlation(6, 6, 100) == THIRD


def test_expected_correlation_x_independent():
    values = {fraclab.expected_correlation(3, 8, X) for X in (1, 2, 3, 10, 100)}
    assert len(values) == 1


def test_expected_correlation_rejects_bad_x():
    with pytest.raises(InputError, match="X must be >= 1, got 0"):
        fraclab.expected_correlation(1, 2, 0)
    with pytest.raises(InputError, match="X must be a positive integer, got 2.5"):
        fraclab.expected_correlation(1, 2, 2.5)


def test_domain_and_size_guards():
    with pytest.raises(InputError, match=r"positive integers, got \(0, 3\)"):
        fraclab.exact_correlation(0, 3)
    with pytest.raises(InputError, match=r"positive integers, got \(3, 0\)"):
        fraclab.exact_correlation(3, 0)
    with pytest.raises(InputError, match="n \\+ m = 1100000 exceeds the pair size limit"):
        fraclab.exact_correlation(600_000, 500_000)
    # non-integers and bools are refused, not truncated; numpy integers pass
    for call in (
        lambda: fraclab.exact_correlation(2.5, 3),
        lambda: fraclab.exact_correlation(True, 3),
        lambda: fraclab.expected_correlation(2.9, 3, 1),
        lambda: fraclab.expected_correlation(True, 3, 1),
        lambda: fraclab.correlation_closed_form(2.5, 3),
    ):
        with pytest.raises(InputError, match="n and m must be positive integers"):
            call()
    assert fraclab.exact_correlation(np.int64(5), np.int32(6)) == Fraction(91, 360)


def test_law_on_random_pairs_with_quadrature_oracle():
    rng = random.Random(2024)
    for _ in range(5):
        n = rng.randint(1, 200)
        m = rng.randint(1, 200)
        law = fraclab.correlation_closed_form(n, m)
        assert fraclab.exact_correlation(n, m) == law
        assert abs(correlation_quadrature(n, m) - float(law)) < 1e-12


@given(n=st.integers(1, 60), m=st.integers(1, 60))
@settings(max_examples=40, deadline=None)
def test_symmetry(n, m):
    assert fraclab.exact_correlation(n, m) == fraclab.exact_correlation(m, n)


@given(n=st.integers(1, 40), m=st.integers(1, 40), c=st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_scale_invariance(n, m, c):
    assert fraclab.exact_correlation(c * n, c * m) == fraclab.exact_correlation(n, m)


@given(n=st.integers(1, 80), m=st.integers(1, 80))
@settings(max_examples=40, deadline=None)
def test_bounds(n, m):
    value = fraclab.exact_correlation(n, m)
    assert Fraction(1, 4) < value <= THIRD
    assert (value == THIRD) == (n == m)


def _merged_sweep_total(T, p, q):
    # oracle: 6 * integral_0^T (t mod p)(t mod q) dt, piece by piece over the
    # merged breakpoints of both lattices, in Python ints
    total = 0
    t = 0
    na, nb = p, q
    while t < T:
        t1 = min(na, nb, T)
        A = t - t % p
        B = t - t % q
        total += (
            2 * (t1**3 - t**3)
            - 3 * (A + B) * (t1**2 - t**2)
            + 6 * A * B * (t1 - t)
        )
        if t1 == na:
            na += p
        if t1 == nb:
            nb += q
        t = t1
    return total


# (T, P, Q) with T = k lcm(P, Q), a common multiple, as the engine takes them
sweep_args = st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(0, 6)).map(
    lambda t: (t[2] * math.lcm(t[0], t[1]), t[0], t[1])
)


@given(triple=sweep_args)
@settings(max_examples=150)
@example(triple=(0, 7, 3))     # k = 0
@example(triple=(15, 5, 5))    # P = Q
@example(triple=(24, 8, 1))    # Q = 1
@example(triple=(24, 1, 8))    # P = 1
def test_engine_matches_merged_breakpoint_oracle(triple):
    assert exact._sweep_totals(*np.array([triple]).T).tolist() == [_merged_sweep_total(*triple)]


S = exact.INT64_SIZE


def literal_floor_sums(n, a, b, c):
    ys = [(a * i + b) // c for i in range(n)]
    return sum(ys), sum(i * y for i, y in enumerate(ys)), sum(y * y for y in ys)


def floor_sums_batch(rows):
    # the module docstring's rule for floor sums: int64 when n, a, b, c and
    # y_max + 1 of every row are at most INT64_SIZE, object arrays otherwise
    size = max(max(n, a, b, c, (a * (n - 1) + b) // c + 1) for n, a, b, c in rows)
    f, g, h = exact._floor_sums(list(np.array(rows, dtype=np.int64 if size <= S else object).T))
    return list(zip(f.tolist(), g.tolist(), h.tolist()))


small_or_large = st.one_of(
    st.integers(0, 60), st.integers(0, 10**9), st.sampled_from([S - 1, S, S + 1, S + 2])
)
floor_rows = st.tuples(
    st.integers(0, 40), small_or_large, small_or_large,
    st.one_of(st.integers(1, 60), st.integers(1, 10**9), st.sampled_from([S, S + 1])),
)


@given(rows=st.lists(floor_rows, min_size=1, max_size=6))
@settings(max_examples=300)
@example(rows=[(0, 5, 3, 2), (7, 0, 9, 4), (30, 13, 0, 8)])
@example(rows=[(40, S, S - 1, S), (40, S + 1, 0, S + 1)])   # below and above, one batch
# a = 0 ends at the first level, consecutive Fibonacci a and c take
# Euclid's longest path (F_25 = 75025 terms, 23 levels); n = 0 and n = 1
@example(rows=[(9, 0, 5, 7), (75025, 46368, 0, 75025), (0, 13, 2, 21), (1, 8, 7, 13)])
@example(rows=[(0, 0, 3, 1), (10**5, 1134903170, 5, 1836311903), (1, 10**9, 10**9, 1)])
def test_floor_sums_match_a_literal_loop(rows):
    expected = [literal_floor_sums(*row) for row in rows]
    assert floor_sums_batch(rows) == expected                # one batch, one dtype
    assert [floor_sums_batch([row])[0] for row in rows] == expected   # each at its own


def at_the_switch(row):
    # cut n so that y_max + 1 <= S: every row of size at most S, n up to S
    n, a, b, c = row
    if a:
        n = min(n, (S * c - 1 - b) // a + 1)
    return n, a, b, c


switch_rows = st.tuples(
    st.integers(S // 2, S), st.integers(0, S), st.integers(0, S - 1), st.integers(1, S)
).map(at_the_switch)


@given(rows=st.lists(switch_rows, min_size=1, max_size=4))
@settings(max_examples=60)
@example(rows=[(S, 1, 0, 1), (S, S, S - 1, S), (1, S, S - 1, 1), (2, S - 1, 0, 1)])
def test_floor_sums_int64_equals_object_at_the_switch(rows):
    # the largest rows the int64 path takes, against the same lines on
    # Python ints (pinned to the literal loop above): a wrap would differ
    def run(dtype):
        return [v.tolist() for v in exact._floor_sums(list(np.array(rows, dtype=dtype).T))]

    assert all(max(n, a, b, c, (a * (n - 1) + b) // c + 1) <= S for n, a, b, c in rows)
    assert run(np.int64) == run(object)


def law_total(T, P, Q):
    # 6 integral_0^T (t mod P)(t mod Q) dt from the law: T/L periods of
    # 6 L P Q C(n, m) with L = lcm(P, Q), n = L/P, m = L/Q
    L = math.lcm(P, Q)
    n, m = L // P, L // Q
    g = math.gcd(n, m)
    return T // L * 6 * L * P * Q * (3 * n * m + g * g) // (12 * n * m)


sweep_switch_rows = st.tuples(st.integers(1, 2000), st.integers(1, 2000), st.integers(-2, 2)).map(
    lambda t: ((S // math.lcm(t[0], t[1]) + t[2]) * math.lcm(t[0], t[1]), t[0], t[1])
).filter(lambda row: row[0] > 0)


@pytest.mark.parametrize("chunk", [1, exact.ENGINE_CHUNK])
@given(rows=st.lists(sweep_switch_rows, min_size=2, max_size=6))
@settings(max_examples=40)
@example(rows=[(S, 1, 1), (S + 1, 1, 1), (S, S, 1), (2 * S, S, S)])
def test_sweep_totals_at_the_int64_switch(chunk, rows):
    # T just below and just above INT64_SIZE in one batch; with chunks of
    # one row each row runs at its own dtype, whatever the arrays came in
    expected = [law_total(*row) for row in rows]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "ENGINE_CHUNK", chunk)
        for dtype in (np.int64, object):
            assert exact._sweep_totals(*np.array(rows, dtype=dtype).T).tolist() == expected


FIB = [0, 1]
while len(FIB) < 92:
    FIB.append(FIB[-2] + FIB[-1])


def test_sweep_totals_on_consecutive_fibonacci_rows(monkeypatch):
    # P = F_k, Q = F_{k+1}: Euclid's longest path, one level per step,
    # on object arrays up to F_90 F_91 ~ 1.3 10^37
    rows = [(FIB[k] * FIB[k + 1], FIB[k], FIB[k + 1]) for k in range(1, 91)]
    levels = []

    def counted(*args, floor_sums=exact._floor_sums):
        levels.append(len(args[0][0]))   # one call per level: the rows that reach it
        return floor_sums(*args)

    monkeypatch.setattr(exact, "_floor_sums", counted)
    T, P, Q = np.array(rows, dtype=object).T
    assert exact._sweep_totals(T, P, Q).tolist() == [law_total(*row) for row in rows]
    # row k takes max(k - 1, 1) levels, within log_phi(F_{k+1}) + 1 (module
    # docstring), and leaves the recursion after its last
    assert levels == [90] + list(range(88, 0, -1))


def test_floor_sums_peak_memory_on_a_deep_chunk():
    # 4,096 equal rows at F_27/F_28 take 26 levels on int64 arrays of
    # 4,096 * 8 = 32,768 bytes.  Across its call a level holds five: n, m,
    # qa, qb and live, so 26 levels hold 130 arrays, 4.26 MB.  The level
    # at work adds its own temporaries: its reduced a and b, c, the four
    # live arguments, f, g, h and the swapped sums, about 13 arrays; the
    # bound allows 16, 4.78 MB in all.  A level whose caller kept its four
    # arguments across the call, as a star-argument call does, peaks at
    # 6.98 MB here, and one that also kept a, b, c and three zero arrays
    # at 11.15 MB.
    rows, size = 4096, 4096 * 8
    args = [np.full(rows, v, dtype=np.int64) for v in (FIB[28], FIB[27], 0, FIB[28])]
    tracemalloc.start()
    try:
        f, g, h = exact._floor_sums(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert args == []
    assert (f[0], g[0], h[0]) == literal_floor_sums(FIB[28], FIB[27], 0, FIB[28])
    assert peak <= (5 * 26 + 16) * size, f"{peak / size:.1f} row arrays at peak"


def test_batch_longer_than_a_chunk(monkeypatch):
    monkeypatch.setattr(exact, "ENGINE_CHUNK", 7)
    pairs = [(n, m) for n in (1, 5, 6, 12, 199) for m in (1, 7, 30, 200)] + [(499999, 500000)]
    triples = [(n, m, X) for (n, m), X in zip(pairs, [1, 2, 100, 10**9] * 6)]
    triples.append((499999, 500000, np.int64(10**18)))   # X L passes 2^63
    assert len(pairs) > 2 * exact.ENGINE_CHUNK
    assert list(map(Fraction, *exact._correlation_terms(*np.array(pairs).T))) == [
        fraclab.exact_correlation(n, m) for n, m in pairs
    ]
    values = fraclab.expected_correlations(triples)
    assert values == [fraclab.expected_correlation(*triple) for triple in triples]
    assert values[-1] == fraclab.correlation_closed_form(499999, 500000)
    # one bad pair in the middle of the batch is named in the one-pair words
    for bad, message in [((0, 7), r"positive integers, got \(0, 7\)"),
                         ((600000, 500000), r"n \+ m = 1100000 exceeds the pair size limit")]:
        pairs[10] = bad
        with pytest.raises(InputError, match=message):
            exact._correlation_terms(*np.array(pairs).T)
        with pytest.raises(InputError, match=message):
            fraclab.expected_correlations([(n, m, 1) for n, m in pairs])
    pairs[5] = (0, 7)   # two bad pairs: the first is named
    with pytest.raises(InputError, match=r"positive integers, got \(0, 7\)"):
        exact._correlation_terms(*np.array(pairs).T)


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _pair_message(n, m):
    """What the pair rule says of (n, m), or None when the pair is good."""
    if not (_is_int(n) and _is_int(m)) or min(n, m) < 1:
        return f"n and m must be positive integers, got ({n}, {m})"
    if n + m > exact.PAIR_SIZE_LIMIT:
        return f"n + m = {n + m} exceeds the pair size limit {exact.PAIR_SIZE_LIMIT}"
    return None


def _row_message(n, m, X):
    """What is said of the triple (n, m, X): a bad X is named before a bad pair."""
    if not _is_int(X):
        return f"X must be a positive integer, got {X!r}"
    if X < 1:
        return f"X must be >= 1, got {X}"
    return _pair_message(n, m)


good_rows = st.tuples(st.integers(1, 30), st.integers(1, 30), st.integers(1, 3))


@st.composite
def bad_rows(draw):
    """A good row with one or more faults: a float, a bool, 0 or a negative
    n or m, n + m one past the limit, X = 0 or X = 2.5."""
    n, m, X = draw(good_rows)
    faults = draw(st.sets(st.sampled_from(["size", "n", "m", "X"]), min_size=1))
    if "size" in faults:
        k = draw(st.integers(1, exact.PAIR_SIZE_LIMIT))
        n, m = exact.PAIR_SIZE_LIMIT + 1 - k, k
    bad_entry = st.sampled_from([2.5, True, 0, -3])
    n = draw(bad_entry) if "n" in faults else n
    m = draw(bad_entry) if "m" in faults else m
    X = draw(st.sampled_from([0, 2.5])) if "X" in faults else X
    return n, m, X


@st.composite
def mixed_batches(draw):
    rows = draw(st.lists(good_rows, max_size=5))
    for row in draw(st.lists(bad_rows(), min_size=1, max_size=4)):
        rows.insert(draw(st.integers(0, len(rows))), row)
    return rows


def _raised(call, *args):
    with pytest.raises(InputError) as info:
        call(*args)
    return str(info.value)


@given(rows=mixed_batches())
@settings(max_examples=150)
@example(rows=[(0, 7, 0)])                                      # the X message
@example(rows=[(1, 2, 1), (600000, 500000, 1), (2.5, 3, 1)])   # the size fault
@example(rows=[(1, 2, 1), (2.5, 3, 1), (1, 2, 0)])             # (2.5, 3)
def test_one_pair_rule_names_the_first_bad_row(rows):
    first = next(row for row in rows if _row_message(*row))
    said = _row_message(*first)
    assert _raised(fraclab.expected_correlations, rows) == said
    assert _raised(fraclab.expected_correlation, *first) == said
    n, m = (np.array(column, dtype=object) for column in list(zip(*rows))[:2])
    bad_pairs = [(a, b) for a, b, _ in rows if _pair_message(a, b)]
    if not bad_pairs:
        assert len(exact._correlation_terms(n, m)[0]) == len(rows)
        return
    said = _pair_message(*bad_pairs[0])
    assert _raised(exact._correlation_terms, n, m) == said
    assert _raised(fraclab.exact_correlation, *bad_pairs[0]) == said
    assert _raised(fraclab.correlation_closed_form, *bad_pairs[0]) == said


@given(a=st.integers(1, 10**9), b=st.integers(1, 10**9), k=st.integers(1, 10**9))
@settings(max_examples=200)
@example(a=10**9, b=10**9 - 1, k=10**9)
@example(a=1, b=10**9, k=1)
def test_engine_matches_law_past_the_pair_guard(a, b, k):
    # n, m up to 10^18: the lattice is built here, below the pair rule of
    # _lattices, and the law written out
    n, m = k * a, k * b
    g = math.gcd(n, m)
    p, q = m // g, n // g
    L = n * p
    law = Fraction(1, 4) + Fraction(g * g, 12 * n * m)
    T, P, Q = np.array([(L, p, q)], dtype=object).T
    assert Fraction(exact._sweep_totals(T, P, Q)[0], 6 * L * p * q) == law


@given(n=st.integers(1, exact.PAIR_SIZE_LIMIT - 1), data=st.data())
@settings(max_examples=25)
def test_engine_matches_law_over_the_pair_range(n, data):
    m = data.draw(st.integers(1, exact.PAIR_SIZE_LIMIT - n), label="m")
    assert fraclab.exact_correlation(n, m) == fraclab.correlation_closed_form(n, m)


@pytest.mark.parametrize(
    "n, m, X",
    [
        (1, 999999, 1),
        (499999, 500000, 1),
        (1, 999999, 2),
        (333333, 666667, 2),
        (499999, 500000, 2),
        (499999, 500000, 10**9),   # the [0, X] check at any X
    ],
)
def test_law_on_large_pairs(n, m, X):
    assert fraclab.expected_correlation(n, m, X) == fraclab.correlation_closed_form(n, m)


def test_engine_does_not_consult_the_law(monkeypatch):
    def refuse(n, m):
        raise AssertionError("the engine consulted the closed-form law")

    monkeypatch.setattr(exact, "correlation_closed_form", refuse)
    assert fraclab.exact_correlation(5, 6) == Fraction(91, 360)
    assert fraclab.expected_correlation(12, 6, 100) == Fraction(7, 24)


def test_profile_structure_against_six():
    values = {n: fraclab.exact_correlation(n, 6) for n in range(1, 13)}
    others = [values[n] for n in values if n != 6]
    assert all(values[6] > v for v in others)            # global strict peak
    for n in (5, 7, 11):
        assert values[12] > values[n]                    # end peak above coprime dips
    assert sorted(values, key=values.get)[:3] == [11, 7, 5]
    # exact ties and orderings the profile actually has
    assert values[3] == values[12] == Fraction(7, 24)
    assert values[4] < values[2]                         # no repeated-factor uplift
