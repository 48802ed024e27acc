"""Command-line surface: CSV schemas, determinism, exit codes."""

import ast
import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraclab
from fraclab import arithmetic, cli, exact, formatting, series
from fraclab.formatting import format_decimal


def run_cli(args, capsys):
    rc = cli.main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_figure1_matches_golden(tmp_path, capsys):
    out = tmp_path / "figure1.csv"
    rc, _, _ = run_cli(["figure1", "--out", str(out)], capsys)
    assert rc == 0
    golden = resources.files("fraclab").joinpath("data/figure1_golden.csv").read_bytes()
    assert out.read_bytes() == golden


#: the fast float and the direct exact routes print the same rows
SERIES_12 = """\
N,X,value,target,abs_error
1,100,0,-0.45594532639052,0.45594532639052
2,100,-0.291666666666667,-0.45594532639052,0.164278659723853
3,100,-0.388888888888889,-0.45594532639052,0.0670564375016311
4,100,-0.388888888888889,-0.45594532639052,0.0670564375016311
5,100,-0.409814814814815,-0.45594532639052,0.0461305115757052
6,100,-0.417407407407407,-0.45594532639052,0.0385379189831126
7,100,-0.429062736205593,-0.45594532639052,0.0268825901849266
8,100,-0.429062736205593,-0.45594532639052,0.0268825901849266
9,100,-0.429062736205593,-0.45594532639052,0.0268825901849266
10,100,-0.431239606953893,-0.45594532639052,0.0247057194366273
11,100,-0.436201001980223,-0.45594532639052,0.0197443244102972
12,100,-0.436201001980223,-0.45594532639052,0.0197443244102972
"""

#: stdout of the small CSV commands, byte for byte
GOLDEN_STDOUT = {
    "sieve --limit 1000": """\
limit,1000
mertens,2
squarefree_count,608
""",
    "correlate --n 5 --m 6 --x-range 100": """\
n,m,X,value,value_exact,method,gcd
5,6,100,0.252777777777778,91/360,piecewise,1
""",
    "correlate --n 5 --m 6 --x-range 100 --method closed-form": """\
n,m,X,value,value_exact,method,gcd
5,6,100,0.252777777777778,91/360,closed_form,1
""",
    "sine-series --x 0.3 --n-max 1000 --points 7 --digits 8": """\
N,x,value,target,abs_error
1,0.3,-0.9424778,0.95105652,1.8935343
3,0.3,0.9424778,0.95105652,0.0085787202
10,0.3,0.88263794,0.95105652,0.06841858
32,0.3,1.1723777,0.95105652,0.22132115
100,0.3,1.0233397,0.95105652,0.072283204
316,0.3,0.99452459,0.95105652,0.04346807
1000,0.3,0.93927853,0.95105652,0.01177799
""",
    "series --n-max 12": SERIES_12,
    "series --n-max 12 --exact --naive": SERIES_12,
    "figure2 --n-max 12 --naive --digits 20": """\
N,X,value,target,abs_error
1,100,0,-0.45594532639051998935,0.45594532639051998935
2,100,-0.29166666666666668517,-0.45594532639051998935,0.16427865972385330418
3,100,-0.38888888888888889506,-0.45594532639051998935,0.067056437501631094289
4,100,-0.38888888888888889506,-0.45594532639051998935,0.067056437501631094289
5,100,-0.40981481481481485396,-0.45594532639051998935,0.046130511575705135385
6,100,-0.41740740740740744918,-0.45594532639051998935,0.038537918983112540161
7,100,-0.42906273620559337578,-0.45594532639051998935,0.026882590184926613563
8,100,-0.42906273620559337578,-0.45594532639051998935,0.026882590184926613563
9,100,-0.42906273620559337578,-0.45594532639051998935,0.026882590184926613563
10,100,-0.4312396069538926846,-0.45594532639051998935,0.024705719436627304741
11,100,-0.43620100198022276894,-0.45594532639051998935,0.019744324410297220407
12,100,-0.43620100198022276894,-0.45594532639051998935,0.019744324410297220407
""",
    "tails --cutoffs 100,1000 --limit 1000": """\
N,mertens_ratio,tail_u2,tail_u1,bound_fit
100,0.01,-0.0187196637572914,-4.3126538192227,0.0855029706072321
1000,0.002,0,0,0.0276993255754002
""",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_csv_commands_match_golden(monkeypatch, capsys, command):
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    assert run_cli(command.split(), capsys) == (0, GOLDEN_STDOUT[command], "")


#: the whole stdout of ``verify``; criterion 7 stays red, so it exits 1
VERIFY_STDOUT = """\
  1 PASS diagonal averages exactly 1/3: 3000 diagonal averages all exactly 1/3
  2 PASS closed-form correlation law: law validated: quadrature worst gap 1.44e-15 on 20 pairs, then exact equality on the full 200x200 grid
  3 PASS double-sum convergence to -9/(2 pi^2): |S(100)+9/(2pi^2)| = 0.002579 (<0.05), |S(2000)+...| = 0.000118 (<0.01), N (S(N)+9/(2pi^2)) in [0.2264, 0.2807] for N = 100..2000 (in [0.2, 0.3])
  4 PASS fast/direct double-sum equivalence: exact rational equality of both routes for all N <= 300
  5 PASS sum mu^2/n^2 near 15/pi^2: |sum mu^2/n^2 - 15/pi^2| = 6.076e-05 at N=10^4 (<2e-4)
  6 PASS square-free density within 2 sqrt(N): density gaps 0.07, 3.73, 1.29, 1.10 all within 2 sqrt(N)
  7 FAIL Mertens ratio smallness and decay: |M(1000)|/1000 = 2.00e-03, |M(10000)|/10000 = 2.30e-03, |M(100000)|/100000 = 4.80e-04, |M(1000000)|/1000000 = 2.12e-04; smallness ok, strict decrease FAILED (known: true Mertens values are not monotone here)
  8 PASS Abel summation identity suite: 100 random triples, worst gap 7.62e-15 (<1e-9)
  9 PASS sine-series residual trend: mean residual 0.04405 at N=10^2 vs 0.00262 at N=10^5 (need < 1/3)
 10 PASS squared-series expansion identity: worst expansion gap 5.55e-16 (<1e-10)
 11 PASS figure 1 reproduction and structure: byte-identical golden; E(6)=1/3 global peak, E(12) above the coprime minima {5,7,11}; exact ties on record: E(3)=E(12)=7/24, and E(4)=19/72 < E(2)=5/18 (no repeated-factor uplift)
 12 PASS Mertens tail integral diagnostics: tail(1,10^6) = -1.140e-05 (<0.05), summation-by-parts gap at N=1, 10^3: u2 1.62e-17 (<2e-15), u1 3.62e-13 (<2e-09)
11/12 criteria passed
bookkeeping (report only): pi^2 E(s_100^2) = pi^2/3 sum mu^2/n^2 + pi^2 S(100) = 0.505184 (exact rational equality; s_N(x) = sum mu(n)/n {nx})
"""

#: sha256 of the stdout of ``series --n-max 300 --exact --naive``
SERIES_300_EXACT_SHA256 = "13bb26c97dfc8ea706013ffbbc157be94f6e549c3464a571a928495a422dd348"


def test_verify_stdout_pinned(monkeypatch, capsys):
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    assert run_cli(["verify"], capsys) == (1, VERIFY_STDOUT, "fraclab: warning: failing criteria: 7\n")


def test_series_exact_naive_300_pinned(monkeypatch, capsys):
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    rc, out, err = run_cli(["series", "--n-max", "300", "--exact", "--naive"], capsys)
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SERIES_300_EXACT_SHA256


#: sha256 of the stdout of the fast sweep in float and exact mode, which
#: derives J2 from the smallest prime factors as it goes
FAST_SWEEP_SHA256 = {
    "series --n-max 20000": "b311aa80a5c90b9a55b4350cd91e0ba8de8a299e6c22eba2c717151c318db151",
    "series --n-max 1000 --exact": "afc5dd7a7def70dbf085140485db61f22616ac12c4d53d9f28514be6ba4751f8",
}


@pytest.mark.parametrize("command", sorted(FAST_SWEEP_SHA256))
def test_fast_sweep_stdout_pinned(monkeypatch, capsys, command):
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    rc, out, err = run_cli(command.split(), capsys)
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == FAST_SWEEP_SHA256[command]


#: sha256 of the stdout of a dense sine-series grid and of the README
#: ``tails`` example, whose sums all come from ``arithmetic._range_sums``
RANGE_SUMS_SHA256 = {
    "sine-series --x 0.3711 --n-max 1000000 --points 100000":
        "cde2de5d61a08154c5c5aef7e94dd3b1d3e561ac24b6a07b54676a96db8c36fc",
    "tails --cutoffs 1000,10000,100000,1000000 --c 1.0":
        "07959d8c3e377332e939ce0c839468cc9915523762aec3c2ad81405af0ff4e29",
}


@pytest.mark.parametrize("command", sorted(RANGE_SUMS_SHA256))
def test_range_sums_stdout_pinned(monkeypatch, capsys, command):
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    rc, out, err = run_cli(command.split(), capsys)
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == RANGE_SUMS_SHA256[command]


def test_figure1_deterministic(capsys):
    rc1, first, _ = run_cli(["figure1"], capsys)
    rc2, second, _ = run_cli(["figure1"], capsys)
    assert rc1 == rc2 == 0
    assert first == second


def test_figure2_rows(capsys):
    rc, out, _ = run_cli(["figure2", "--n-max", "5", "--limit", "1000"], capsys)
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,X,value,target,abs_error"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "100" and first[2] == "0"
    second = lines[2].split(",")
    assert second[2].startswith("-0.2916666666666")


def test_correlate_row(capsys):
    rc, out, _ = run_cli(
        ["correlate", "--n", "12", "--m", "6", "--x-range", "100"], capsys
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,m,X,value,value_exact,method,gcd"
    assert lines[1] == "12,6,100,0.291666666666667,7/24,piecewise,6"


def test_correlate_closed_form_method(capsys):
    rc, out, _ = run_cli(
        ["correlate", "--n", "5", "--m", "6", "--method", "closed-form"], capsys
    )
    assert rc == 0
    assert "91/360,closed_form" in out


def test_sine_series_rows(capsys):
    rc, out, _ = run_cli(
        ["sine-series", "--x", "0.25", "--n-max", "100", "--points", "5",
         "--limit", "1000"],
        capsys,
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,x,value,target,abs_error"
    assert lines[1].startswith("1,0.25,-0.785398163397448,1,")


def test_series_exact_mode(capsys):
    rc, out, _ = run_cli(
        ["series", "--n-max", "4", "--exact", "--naive", "--limit", "100"], capsys
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[2].split(",")[2] == "-0.291666666666667"


def test_tails_csv(capsys):
    rc, out, _ = run_cli(
        ["tails", "--cutoffs", "100,1000", "--limit", "10000"], capsys
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,mertens_ratio,tail_u2,tail_u1,bound_fit"
    assert len(lines) == 3
    assert lines[1].startswith("100,0.01,")


def test_series_rows_correctly_rounded(capsys, table6):
    rc, out, _ = run_cli(["series", "--n-max", "2000"], capsys)
    assert rc == 0
    values = [line.split(",")[2] for line in out.strip().splitlines()[1:]]
    exact = series.correlation_double_sum_sweep(table6, 2000, fast=True, exact=True)
    assert values == [format_decimal(float(v)) for v in exact]


@pytest.mark.parametrize("cutoffs", ["0,10", "", "1000,abc", "1.5"])
def test_tails_bad_cutoffs_rejected(capsys, cutoffs):
    rc, out, err = run_cli(["tails", "--cutoffs", cutoffs, "--limit", "1000"], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("fraclab: error: --cutoffs")


@pytest.mark.parametrize(
    "args, flag",
    [
        (["series", "--n-max", "0"], "--n-max"),
        (["figure2", "--n-max", "0"], "--n-max"),
        (["sine-series", "--x", "0.25", "--n-max", "0"], "--n-max"),
        (["sine-series", "--x", "0.25", "--n-max", "100", "--points", "0"], "--points"),
    ],
)
def test_nonpositive_sizes_rejected(capsys, args, flag):
    rc, out, err = run_cli(args + ["--limit", "1000"], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith(f"fraclab: error: {flag} must be >= 1")


@pytest.mark.parametrize(
    "args, message",
    [
        # x * N finite, the library's rule, also refuses a non-finite x
        (["sine-series", "--x", "nan", "--n-max", "10"],
         "x must be finite with x * N finite up to N=10, got x=nan"),
        (["sine-series", "--x", "inf", "--n-max", "10"],
         "x must be finite with x * N finite up to N=10, got x=inf"),
        (["sine-series", "--x=-inf", "--n-max", "10"],
         "x must be finite with x * N finite up to N=10, got x=-inf"),
        (["tails", "--c", "nan"], "c must be positive and finite, got nan"),
        (["tails", "--c", "inf"], "c must be positive and finite, got inf"),
        (["tails", "--c", "0"], "c must be positive and finite, got 0.0"),
        (["tails", "--c", "-1"], "c must be positive and finite, got -1.0"),
        # at N = 1 x * N is x itself, and only 2 pi x overflows
        (["sine-series", "--x", "1e308", "--n-max", "1"],
         "--x is too large: 2 pi x overflows, got 1e+308"),
        (["sine-series", "--x=-3e307", "--n-max", "1"],
         "--x is too large: 2 pi x overflows, got -3e+307"),
        (["sine-series", "--x", "2e307", "--n-max", "10"],
         "x must be finite with x * N finite up to N=10, got x=2e+307"),
        (["sine-series", "--x", "0.3", "--n-max", "10", "--points", "1000001"],
         "--points must be <= 1000000, got 1000001"),
        (["sine-series", "--x", "0.3", "--n-max", "10", "--points", "100000000000"],
         "--points must be <= 1000000, got 100000000000"),
        # x * N runs after the sieve-limit check, so a huge --n-max cannot overflow it
        (["sine-series", "--x", "1e308", "--n-max", "10"],
         "x must be finite with x * N finite up to N=10, got x=1e+308"),
        (["sine-series", "--x", "nan"], "sieve_limit 1000 is below the 100000 this command needs"),
    ],
)
def test_bad_float_flags_rejected(monkeypatch, capsys, args, message):
    monkeypatch.setattr(cli, "build_tables", None)  # no sieve before the check
    rc, out, err = run_cli(args + ["--limit", "1000"], capsys)
    assert rc == 2
    assert out == ""
    assert err == f"fraclab: error: {message}\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (["series", "--n-max", "301", "--exact", "--naive"],
         "exact direct sweep capped at N=300, got 301"),
        (["correlate", "--n", "999999", "--m", "2"],
         "n + m = 1000001 exceeds the pair size limit 1000000"),
        (["correlate", "--n", "999999", "--m", "2", "--method", "closed-form"],
         "n + m = 1000001 exceeds the pair size limit 1000000"),
        # the library's pair rule, before any engine work, by either method
        (["correlate", "--n", "0", "--m", "6"], "n and m must be positive integers, got (0, 6)"),
        (["correlate", "--n", "5", "--m", "-6"], "n and m must be positive integers, got (5, -6)"),
        (["correlate", "--n", "0", "--m", "6", "--method", "closed-form"],
         "n and m must be positive integers, got (0, 6)"),
        # X stays the CLI's check, as closed-form never sees it; it comes first
        (["correlate", "--n", "5", "--m", "6", "--x-range", "0"], "--x-range must be >= 1, got 0"),
        (["correlate", "--n", "0", "--m", "6", "--x-range", "0", "--method", "closed-form"],
         "--x-range must be >= 1, got 0"),
    ],
)
def test_size_caps_rejected_before_work(monkeypatch, capsys, args, message):
    monkeypatch.setattr(cli, "build_tables", None)  # no sieve before the check
    monkeypatch.setattr(exact, "_sweep_totals", None)  # nor any engine work
    rc, out, err = run_cli(args + ["--limit", "1000"], capsys)
    assert (rc, out, err) == (2, "", f"fraclab: error: {message}\n")


@pytest.mark.parametrize(
    "args",
    [
        ["tails"],
        ["series", "--n-max", "10"],
        ["sine-series", "--x", "0.25"],
        ["correlate", "--n", "5", "--m", "6"],
        ["verify", "--only", "5"],
    ],
)
@pytest.mark.parametrize("digits", ["0", "-3", "1001", "2147483648", "1000000000000000000"])
def test_bad_digits_rejected_before_sieving(monkeypatch, capsys, args, digits):
    monkeypatch.setattr(cli, "build_tables", None)  # no sieve before the check
    rc, out, err = run_cli(args + ["--digits", digits], capsys)
    assert rc == 2
    assert out == ""
    assert err == f"fraclab: error: digits must be in 1..1000, got {digits}\n"


@pytest.mark.parametrize(
    "args, row",
    [
        (["correlate", "--n", "5", "--m", "6"], "5,6,1,0.2527777777777777777777"),
        # a float prints in full, -pi/4 as its double's exact decimal value
        (["sine-series", "--x", "0.25", "--n-max", "1", "--limit", "1"],
         "1,0.25,-0.78539816339744827899949086713604629039764404296875,1,"),
    ],
)
def test_max_digits_accepted(capsys, args, row):
    rc, out, err = run_cli(args + ["--digits", str(formatting.MAX_DIGITS)], capsys)
    assert (rc, err) == (0, "")
    assert out.splitlines()[1].startswith(row)


@pytest.mark.parametrize("x", ["0", "2"])
def test_sine_series_at_integer_x_prints_no_negative_zero(capsys, x):
    rc, out, _ = run_cli(
        ["sine-series", "--x", x, "--n-max", "1000", "--points", "5", "--limit", "1000"],
        capsys,
    )
    assert rc == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [row[0] for row in rows] == ["1", "6", "32", "178", "1000"]
    assert {row[2] for row in rows} == {"0"}


@pytest.mark.parametrize("x, target", [("1099511627776.25", "1"), ("1e300", "0")])
def test_sine_series_target_reads_the_fraction_of_x(capsys, x, target):
    # x = 2^40 + 1/4 and the integer 1e300: rounding the float 2 pi x loses
    # part or all of the fraction that decides the sine; x mod 1 is exact
    rc, out, _ = run_cli(
        ["sine-series", "--x", x, "--n-max", "100", "--points", "3", "--limit", "1000"],
        capsys,
    )
    assert rc == 0
    assert {line.split(",")[3] for line in out.strip().splitlines()[1:]} == {target}


@pytest.mark.parametrize(
    "args, cached, sieved",
    [
        (["series", "--n-max", "60"], False, 60),
        (["figure2", "--n-max", "70"], False, 70),
        (["sine-series", "--x", "0.25", "--n-max", "80"], False, 80),
        (["tails", "--cutoffs", "100"], False, 1000),
        (["series", "--n-max", "60"], True, 1000),
    ],
)
def test_sieve_limit_per_command(
    tmp_path, monkeypatch, capsys, args, cached, sieved
):
    limits = []

    def recording_build(limit):
        limits.append(limit)
        return arithmetic.build_tables(limit)

    monkeypatch.setattr(cli, "build_tables", recording_build)
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    cache = ["--cache", str(tmp_path / "sieve.muv")] if cached else []
    rc, _, _ = run_cli(args + ["--limit", "1000"] + cache, capsys)
    assert rc == 0
    assert limits == [sieved]


def test_preflight_limit_error(capsys):
    rc, _, err = run_cli(["figure2", "--n-max", "10000", "--limit", "1000"], capsys)
    assert rc == 2
    assert "sieve_limit" in err


@pytest.mark.parametrize(
    "args",
    [
        ["sieve"],
        ["correlate", "--n", "0", "--m", "6"],
        ["sine-series", "--x", "nan"],
        ["series", "--n-max", "0"],
        ["figure1"],
        ["figure2"],
        ["tails", "--cutoffs", "0"],
        ["verify", "--only", "99"],
    ],
    ids=lambda args: args[0],
)
@pytest.mark.parametrize("limit", ["0", "100000001"])
def test_invalid_limit_rejected(monkeypatch, capsys, args, limit):
    # checked once, in main, before every other flag (--digits 0 included)
    monkeypatch.setattr(cli, "build_tables", None)
    rc, out, err = run_cli(args + ["--digits", "0", "--limit", limit], capsys)
    assert (rc, out, err) == (
        2, "", f"fraclab: error: sieve_limit must be in 1..100000000, got {limit}\n"
    )


def _raising(kind):
    def fault(T, total):
        raise kind("engine fault")
    return fault


@pytest.mark.parametrize(
    "x_range, wrong, message",
    [
        ("100", lambda T, total: total + 1, "period-1 identity violated"),
        # (5, 6) has its one period at T = 30: only the [0, X] total is off
        ("200000", lambda T, total: total + (T > 30), "period-1 identity violated"),
        # both totals zero: the identity holds and the range check fails
        ("200000", lambda T, total: 0, "outside the provable"),
        # any exception from inside the library but an InputError is a bug, not bad input
        ("100", _raising(ValueError), "engine fault"),
        ("100", _raising(IndexError), "engine fault"),
        ("100", _raising(OverflowError), "engine fault"),
    ],
    ids=["period-1", "period-1-large-x", "range", "value-error", "index-error", "overflow-error"],
)
def test_engine_fault_is_internal_error(monkeypatch, capsys, x_range, wrong, message):
    real = exact._sweep_totals
    monkeypatch.setattr(
        exact, "_sweep_totals",
        lambda T, P, Q: np.array(
            [wrong(t, total) for t, total in zip(T, real(T, P, Q))], dtype=object
        ),
    )
    rc, out, err = run_cli(
        ["correlate", "--n", "5", "--m", "6", "--x-range", x_range], capsys
    )
    assert rc == 4
    assert out == ""
    assert err.startswith("fraclab: internal error: ")
    assert message in err


#: every function that raises InputError, which main turns into exit 2: the
#: library's entry checks and the CLI's own flag checks.  An InputError
#: raised anywhere else could report an internal fault as bad input, so a
#: new raise site must be added here on purpose.
INPUT_ERROR_SITES = {
    "arithmetic.MoebiusTable._check_increasing",
    "arithmetic._check_integer",
    "arithmetic._check_limit",
    "cli._int_list",
    "cli._preflight",
    "cli._require_positive",
    "cli.cmd_sine_series",
    "exact._lattices",
    "exact.expected_correlations",
    "formatting._check_digits",
    "series._check_direct_exact",
    "series._check_x",
    "series.sine_squared_identity_gap",
    "tails._check_c",
    "tails._check_range",
    "tails._coerce_x",
    "tails._jumps",
}


def _input_error_sites(node, name):
    """The dotted name of the innermost function, class or module around
    each ``raise InputError`` in ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _input_error_sites(child, f"{name}.{child.name}")
        elif isinstance(child, ast.Raise):
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == "InputError":
                yield name
        else:
            yield from _input_error_sites(child, name)


def test_input_error_raised_only_by_entry_checks():
    sites = set()
    for path in sorted(Path(fraclab.__file__).parent.glob("*.py")):
        sites.update(_input_error_sites(ast.parse(path.read_text()), path.stem))
    assert sites == INPUT_ERROR_SITES


def test_bookkeeping_mismatch_is_internal_error(monkeypatch, capsys):
    real = series.correlation_double_sum
    monkeypatch.setattr(
        series, "correlation_double_sum",
        lambda table, N, exact=False: real(table, N, exact) + Fraction(1, 10**30),
    )
    rc, out, err = run_cli(["verify", "--only", "5"], capsys)
    assert rc == 4
    assert out == ""
    assert err.startswith("fraclab: internal error: E[s_N^2] = ")


def test_fast_path_switch_only_on_series_and_figure2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sieve", "--no-fast-path", "--limit", "10"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-fast-path" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["series", "figure2"])
def test_naive_has_two_spellings(capsys, command):
    args = [command, "--n-max", "30", "--limit", "100"]
    naive = run_cli(args + ["--naive"], capsys)
    assert naive[0] == 0
    assert run_cli(args + ["--no-fast-path"], capsys) == naive


def test_out_io_error(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "f.csv"
    rc, _, err = run_cli(["figure1", "--out", str(missing_dir)], capsys)
    assert rc == 3
    assert "i/o error" in err


def test_unreadable_cache_is_ignored_with_warnings(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    args = ["series", "--n-max", "50", "--limit", "1000"]
    rc, without, _ = run_cli(args, capsys)
    assert rc == 0
    directory = tmp_path / "cache-dir"
    directory.mkdir()
    rc, out, err = run_cli(args + ["--cache", str(directory)], capsys)
    assert rc == 0
    assert out == without
    assert "ignoring sieve cache" in err
    assert "could not write sieve cache" in err
    assert directory.is_dir()


def test_verify_passing_subset(capsys, table6):
    rc, out, err = run_cli(["verify", "--only", "5,12"], capsys)
    assert rc == 0
    assert "  5 PASS" in out
    assert " 12 PASS" in out
    assert "2/2 criteria passed" in out
    assert err == ""


def test_verify_stdout_depends_only_on_configuration(capsys, table6):
    first = run_cli(["verify", "--only", "5,12"], capsys)
    assert first[0] == 0
    assert run_cli(["verify", "--only", "5,12"], capsys) == first


@pytest.mark.parametrize("only", ["13", "0", "1,13", "x", "5.0", ","])
def test_verify_rejects_unknown_criteria(monkeypatch, capsys, only):
    monkeypatch.setattr(cli, "build_tables", None)  # no sieve before the check
    rc, out, err = run_cli(["verify", "--only", only], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("fraclab: error: --only needs criterion numbers in 1..12")


def test_verify_known_failing_criterion(capsys, table6):
    rc, out, err = run_cli(["verify", "--only", "7"], capsys)
    assert rc == 1
    assert "  7 FAIL" in out
    assert "smallness ok" in out
    assert "strict decrease FAILED" in out
    assert "failing criteria: 7" in err


@settings(max_examples=50)
@given(st.integers(1, arithmetic.MAX_LIMIT), st.integers(1, 10**5))
@example(1, 1)
@example(10, 1000)
@example(1000, 1)
@example(arithmetic.MAX_LIMIT, cli.MAX_POINTS)
def test_n_grid_is_the_sorted_set(n_max, points):
    # one point is n_max itself; geomspace alone would give [1]
    raw = np.rint(np.geomspace(1, n_max, points)).astype(int).tolist() if points > 1 else [n_max]
    grid = cli._n_grid(n_max, points)
    assert grid == sorted(set(raw))
    assert all(type(N) is int for N in grid)


#: what a check for numpy.ma in sys.modules prints, after ``import numpy``
#: and after the command (numpy.matrixlib shares the prefix, not the package)
NUMPY_MA_PROBE = """\
import sys
import numpy
def ma():
    return {m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")}
base = ma()
from fraclab import cli
rc = cli.main(sys.argv[1:])
print(sorted(ma() - base), file=sys.stderr)
sys.exit(rc)
"""


@pytest.mark.parametrize(
    "args, rc",
    [(["sine-series", "--x", "0.25", "--n-max", "1000"], 0), (["verify"], 1)],
    ids=["sine-series", "verify"],
)
def test_commands_do_not_import_numpy_ma(args, rc):
    # np.unique and np.union1d import numpy.ma on first use, which costs
    # each process ~10 ms and, on its first run, compiling numpy.ma
    env = {k: v for k, v in os.environ.items() if k != "FRACLAB_CACHE"}
    src = str(Path(fraclab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_PROBE, *args],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=300,
    )
    assert done.returncode == rc, done.stderr
    assert done.stderr.splitlines()[-1] == "[]"
