"""The twelve acceptance criteria, one test each, at their pinned tolerances.

Each test prints its own PASS/FAIL line with the measured detail.

Criterion 7 still reports FAIL, and its test passes because it asserts
that verdict.  The criterion demands |M(10^6)|/10^6 < 10^-3 and
|M(N)|/N strictly decreasing across N = 10^3, 10^4, 10^5, 10^6.  The
true Mertens values are M = 2, -23, -48, 212 there, so the ratio rises
from 0.002 to 0.0023 at the first step: smallness holds, strict decrease
does not.  The test derives both clause verdicts from these reference
values, which come from outside the sieve, and checks the criterion's
verdict and detail against them.  The criterion is kept as stated
rather than loosened; its FAIL documents the fact.
"""

import random

import numpy as np

from fraclab import acceptance, cli, exact

#: M(10^k) for k = 3..6 (OEIS A084237), independent of the sieve
MERTENS_AT_DECADES = {10**3: 2, 10**4: -23, 10**5: -48, 10**6: 212}


def _run(table, number):
    (result,) = acceptance.run_criteria(table, only=[number])
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {result.number:2d} {status} {result.name}: {result.detail}")
    return result


def _assert_passes(table, number):
    result = _run(table, number)
    assert result.passed, f"criterion {number}: {result.detail}"


def union1d_quadrature(n, m):
    # correlation_quadrature as it was with np.union1d for the breakpoints
    bp = np.union1d(np.arange(n + 1) / n, np.arange(m + 1) / m)
    left, right = bp[:-1], bp[1:]
    mid = (left + right) / 2
    a, b = np.floor(n * mid), np.floor(m * mid)

    def f(x):
        return (n * x - a) * (m * x - b)

    return float(np.sum((right - left) * (f(left) + 4 * f(mid) + f(right)))) / 6


def test_quadrature_matches_union1d_on_criterion_02_pairs():
    rng = random.Random(acceptance._LAW_SEED)  # the pairs criterion 2 draws
    pairs = [(rng.randint(1, 200), rng.randint(1, 200)) for _ in range(20)]
    for n, m in pairs + [(1, 1), (6, 6), (4, 6), (199, 200)]:
        got = acceptance.correlation_quadrature(n, m)
        assert got.hex() == union1d_quadrature(n, m).hex(), (n, m)


def test_criterion_01_diagonal_exact(table6):
    _assert_passes(table6, 1)


def test_criterion_02_closed_form_law(table6):
    _assert_passes(table6, 2)


def test_criterion_02_names_the_first_broken_grid_pair(monkeypatch, table6):
    sweep_totals = exact._sweep_totals

    def off_by_one(T, P, Q):
        totals = sweep_totals(T, P, Q)
        totals[(17 - 1) * 200 + 91 - 1] += 1   # (17, 91) on the n-major 200x200 grid
        return totals

    monkeypatch.setattr(exact, "_sweep_totals", off_by_one)
    result = _run(table6, 2)
    assert (result.passed, result.detail) == (False, "law broken at (n=17, m=91)")


def test_criterion_03_double_sum_convergence(table6):
    _assert_passes(table6, 3)


def test_criterion_04_fast_direct_equivalence(table6):
    _assert_passes(table6, 4)


def test_criterion_05_zeta_ratio(table6):
    _assert_passes(table6, 5)


def test_criterion_06_squarefree_density(table6):
    _assert_passes(table6, 6)


def test_criterion_07_mertens_smallness_and_decay(table6):
    ratios = [abs(M) / N for N, M in MERTENS_AT_DECADES.items()]
    small = ratios[-1] < 1e-3
    decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
    assert small and not decreasing

    result = _run(table6, 7)
    # a crashed criterion is reported as failed, which would mimic the verdict
    assert not result.detail.startswith("raised"), result.detail
    assert result.passed == (small and decreasing)
    shown = ", ".join(
        f"|M({N})|/{N} = {r:.2e}" for N, r in zip(MERTENS_AT_DECADES, ratios)
    )
    assert result.detail.startswith(
        f"{shown}; smallness ok, strict decrease FAILED"
    ), result.detail


def test_criterion_08_abel_identity_suite(table6):
    _assert_passes(table6, 8)


def test_criterion_09_sine_series_trend(table6):
    _assert_passes(table6, 9)


def test_criterion_10_squared_identity(table6):
    _assert_passes(table6, 10)


def test_criterion_11_figure1_reproduction(table6):
    _assert_passes(table6, 11)


def test_criterion_12_tail_diagnostics(table6):
    _assert_passes(table6, 12)


def test_crashed_criterion_is_reported_failed(monkeypatch, capsys, table6):
    def crash(table):
        raise ValueError("no verdict")

    monkeypatch.setattr(acceptance, "CRITERIA", [
        (k, name, crash if k == 5 else func) for k, name, func in acceptance.CRITERIA
    ])
    results = acceptance.run_criteria(table6, only=[4, 5, 6])
    # the crash fails its own criterion only: the ones around it still run
    assert [(r.number, r.passed) for r in results] == [(4, True), (5, False), (6, True)]
    assert results[1].detail == "raised ValueError: no verdict"
    monkeypatch.setattr(cli, "build_tables", lambda limit: table6)
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    assert cli.main(["verify", "--only", "5"]) == 1
    out, err = capsys.readouterr()
    assert "  5 FAIL sum mu^2/n^2 near 15/pi^2: raised ValueError: no verdict\n" in out
    assert "0/1 criteria passed\n" in out
    assert err == "fraclab: warning: failing criteria: 5\n"
