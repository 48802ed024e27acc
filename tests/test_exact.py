"""Exact correlation engine: examples, the law, the quadrature oracle.

The engine is pinned against the law and against a merged-breakpoint
oracle that lives only here.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fraclab
from fraclab import acceptance, exact
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
    assert fraclab.expected_correlation(1, 2, 1).value == Fraction(7, 24)
    assert fraclab.expected_correlation(1, 2, 100).value == Fraction(7, 24)
    assert fraclab.expected_correlation(6, 6, 100).value == THIRD


def test_expected_correlation_x_independent():
    values = {fraclab.expected_correlation(3, 8, X).value for X in (1, 2, 3, 10, 100)}
    assert len(values) == 1


def test_expected_correlation_rejects_bad_x():
    with pytest.raises(ValueError):
        fraclab.expected_correlation(1, 2, 0)
    with pytest.raises(ValueError):
        fraclab.expected_correlation(1, 2, 2.5)


def test_domain_and_size_guards():
    with pytest.raises(ValueError):
        fraclab.exact_correlation(0, 3)
    with pytest.raises(ValueError):
        fraclab.exact_correlation(3, 0)
    with pytest.raises(ValueError):
        fraclab.exact_correlation(600_000, 500_000)


def test_law_on_random_pairs_with_quadrature_oracle():
    rng = random.Random(2024)
    for _ in range(5):
        n = rng.randint(1, 200)
        m = rng.randint(1, 200)
        law = fraclab.correlation_closed_form(n, m)
        assert fraclab.exact_correlation(n, m) == law
        assert abs(correlation_quadrature(n, m) - float(law)) < 1e-9


def quadrature_one_array(n, m):
    """The quadrature oracle as one (pieces x panels) array, before row
    blocks; returns the estimate and its panel count."""
    bp = np.union1d(np.arange(n + 1) / n, np.arange(m + 1) / m)
    w = np.diff(bp)
    s3 = float(np.sum(w**3))
    panels = max(64, int(math.sqrt(n * m * s3 / (12.0 * 2e-10))) + 1)
    offsets = (np.arange(panels) + 0.5) / panels
    xs = bp[:-1][:, None] + w[:, None] * offsets[None, :]
    f = (n * xs - np.floor(n * xs)) * (m * xs - np.floor(m * xs))
    return float(np.sum(f.mean(axis=1) * w)), panels


@pytest.mark.parametrize("rows", [1, 2, 3, 7, None])
def test_quadrature_blocks_equal_one_array(monkeypatch, rows):
    # the pair has 300 breakpoint rows of 14,427 panels, cut into blocks of
    # `rows` rows (7 leaves a short last block); None keeps the default
    # block size, 72 rows
    expected, panels = quadrature_one_array(148, 153)
    if rows is not None:
        monkeypatch.setattr(acceptance, "QUADRATURE_BLOCK", rows * panels + panels // 2)
    assert correlation_quadrature(148, 153).hex() == expected.hex()


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


# (T, P, Q) with P >= Q and T a multiple of P, as the engine takes them
sweep_args = st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(0, 30)).map(
    lambda t: (t[2] * max(t[0], t[1]), max(t[0], t[1]), min(t[0], t[1]))
)


@given(triple=sweep_args)
@settings(max_examples=150)
def test_engine_matches_merged_breakpoint_oracle(triple):
    T, P, Q = triple
    assert exact._sweep_totals([T], [P], [Q]) == [_merged_sweep_total(T, P, Q)]


@given(n=st.integers(1, exact.PAIR_SIZE_LIMIT - 1), data=st.data())
@settings(max_examples=25)
def test_engine_matches_law_over_the_pair_range(n, data):
    m = data.draw(st.integers(1, exact.PAIR_SIZE_LIMIT - n), label="m")
    assert fraclab.exact_correlation(n, m) == fraclab.correlation_closed_form(n, m)


@given(
    batch=st.lists(sweep_args, min_size=1, max_size=12),
    chunk=st.sampled_from([1, 2, 3, 7, 64]),
)
@settings(max_examples=60)
@example(batch=[(6, 3, 3), (0, 5, 2), (12, 2, 2), (35, 7, 5), (4, 1, 1)], chunk=4)
def test_batch_equals_one_at_a_time(batch, chunk):
    alone = [exact._sweep_totals([T], [P], [Q])[0] for T, P, Q in batch]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "ENGINE_CHUNK", chunk)
        assert exact._sweep_totals(*zip(*batch)) == alone


def test_exact_correlations_match_single_calls():
    pairs = [(5, 6), (6, 5), (7, 7), (1, 200), (12, 6), (499999, 500000)]
    assert fraclab.exact_correlations(pairs) == [
        fraclab.exact_correlation(n, m) for n, m in pairs
    ]


@pytest.mark.parametrize(
    "n, m, X",
    [
        (1, 999999, 1),
        (499999, 500000, 1),
        (1, 999999, 2),            # X (n + m) at the direct-check limit
        (333333, 666667, 2),       # same, with the largest P^2 Q
        (499999, 500000, 2),
    ],
)
def test_int64_edges(n, m, X):
    assert X * (n + m) <= exact._DIRECT_CHECK_LIMIT
    cv = fraclab.expected_correlation(n, m, X)
    assert cv.value == fraclab.correlation_closed_form(n, m)


@pytest.mark.parametrize(
    "P, Q", [(999999, 1), (999998, 2), (666667, 333333), (500000, 499999)]
)
def test_interval_values_fit_int64(P, Q):
    # the same closed form in Python ints (object arrays) cannot wrap
    rng = np.random.default_rng(P)
    s = np.unique(np.r_[0:50, Q - 50 : Q, rng.integers(0, Q, 500)].clip(0, Q - 1))
    fixed = exact._interval_values(s, np.int64(P), np.int64(Q))
    wide = exact._interval_values(s.astype(object), P, Q)
    assert fixed.tolist() == wide.tolist()
    assert all(0 <= v < 3 * P * P * Q for v in wide.tolist())


def test_engine_does_not_consult_the_law(monkeypatch):
    def refuse(n, m):
        raise AssertionError("the engine consulted the closed-form law")

    monkeypatch.setattr(exact, "correlation_closed_form", refuse)
    assert fraclab.exact_correlation(5, 6) == Fraction(91, 360)
    assert fraclab.expected_correlation(12, 6, 100).value == Fraction(7, 24)


def test_correlation_value_rejects_out_of_range():
    with pytest.raises(AssertionError):
        exact.CorrelationValue(n=1, m=2, X=1, value=Fraction(1, 5), method="piecewise")


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
