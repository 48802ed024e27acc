"""Tests of the benchmark itself, kept out of the repository's test run.

    python3 -m pytest perfbench -q

Each output check accepts what fraclab prints and rejects a wrong output: a
changed digit, a wrong limit, a swapped criterion verdict.  The kept
``sieve --limit 1000000`` operation of ``cache-warm`` is counted as failed
while ``cli._get_table`` hands back a larger cached table, and only its
documented wrong output leaves the run correct.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

import pytest

import checks
import run
import runner
import workloads
from checks import Mismatch, Reference


@pytest.fixture(scope="module")
def ref6():
    return Reference(10**6)


@pytest.fixture(scope="module")
def ref7():
    return Reference(10**7)


@pytest.fixture(scope="module")
def fraclab(tmp_path_factory):
    with run.Launcher(tmp_path_factory.mktemp("fraclab"), time.perf_counter() + 600) as launcher:

        def call(*args, rc=0):
            proc = launcher.fraclab(list(args))
            assert proc.rc == rc, args
            return proc.out

        yield call


def change_digit(text: str, line: int, field: int, position: int = -1) -> str:
    """``text`` with one digit of one CSV field replaced by another digit."""
    lines = text.splitlines()
    fields = lines[line].split(",")
    digits = [i for i, ch in enumerate(fields[field]) if ch.isdigit()]
    i = digits[position]
    chars = list(fields[field])
    chars[i] = "7" if chars[i] != "7" else "3"
    fields[field] = "".join(chars)
    lines[line] = ",".join(fields)
    return "\n".join(lines) + "\n"


def rejects(check, text: str) -> bool:
    try:
        check(text)
    except Mismatch:
        return True
    return False


def test_reference_sieve_matches_sympy_and_published_values(ref6):
    sympy = pytest.importorskip("sympy")
    assert [int(v) for v in ref6.mu[1:5001]] == [sympy.mobius(n) for n in range(1, 5001)]
    for N in (10**3, 10**4, 10**5, 10**6):
        assert int(ref6.mertens[N]) == checks.REF_MERTENS[N]
    assert int(ref6.squarefree[10**6]) == checks.REF_SQUAREFREE[10**6]


def test_sieve_check(fraclab, ref6, tmp_path):
    cache = str(tmp_path / "s.muv")
    out = fraclab("sieve", "--limit", "1000000", "--cache", cache)
    checks.check_sieve(out, ref6, 10**6)
    checks.check_cache_file(cache, ref6, 10**6)
    check = lambda text: checks.check_sieve(text, ref6, 10**6)  # noqa: E731
    assert rejects(check, out.replace("limit,1000000", "limit,10000000"))
    assert rejects(check, out.replace("mertens,212", "mertens,213"))
    assert rejects(check, out.replace("607926", "607927"))
    with open(cache, "r+b") as fh:
        fh.seek(12 + 29)  # mu(30) = -1
        fh.write(b"\x01")
    with pytest.raises(Mismatch):
        checks.check_cache_file(cache, ref6, 10**6)


def test_correlate_and_figure1_checks(fraclab):
    out = fraclab("correlate", "--n", "5", "--m", "6", "--x-range", "100")
    checks.check_correlate(out, 5, 6, 100)
    check = lambda text: checks.check_correlate(text, 5, 6, 100)  # noqa: E731
    assert rejects(check, change_digit(out, 1, 3))
    assert rejects(check, change_digit(out, 1, 4, 0))
    out = fraclab("figure1")
    checks.check_figure1(out)
    assert rejects(checks.check_figure1, change_digit(out, 5, 3, 5))
    assert rejects(checks.check_figure1, out.replace("coprime", "multiple", 1))


def test_series_checks(fraclab, ref6):
    out = fraclab("series", "--n-max", "400")
    checks.check_series(out, ref6, 400)
    check = lambda text: checks.check_series(text, ref6, 400)  # noqa: E731
    # the 13th significant digit: well above the float tolerance
    assert rejects(check, change_digit(out, 400, 2, 13))
    assert rejects(check, change_digit(out, 17, 4, 0))
    out = fraclab("series", "--n-max", "60", "--exact", "--naive")
    checks.check_series(out, ref6, 60, exact=True)
    check = lambda text: checks.check_series(text, ref6, 60, exact=True)  # noqa: E731
    assert rejects(check, change_digit(out, 60, 2))
    out = fraclab("figure2", "--n-max", "100")
    checks.check_series(out, ref6, 100)
    assert rejects(lambda text: checks.check_series(text, ref6, 100), change_digit(out, 50, 2, 8))


def test_sine_and_tails_checks(fraclab, ref6):
    out = fraclab("sine-series", "--x", "0.25", "--n-max", "100000")
    checks.check_sine_series(out, ref6, 0.25, 10**5)
    check = lambda text: checks.check_sine_series(text, ref6, 0.25, 10**5)  # noqa: E731
    assert rejects(check, change_digit(out, 25, 2, 10))
    assert rejects(check, change_digit(out, 3, 0))
    out = fraclab("tails", "--cutoffs", "1000,10000,100000,1000000", "--c", "1.0")
    cutoffs = workloads.TAILS_CUTOFFS
    checks.check_tails(out, ref6, cutoffs, 10**6)
    check = lambda text: checks.check_tails(text, ref6, cutoffs, 10**6)  # noqa: E731
    for field in (1, 2, 3, 4):
        assert rejects(check, change_digit(out, 2, field, -1 if field == 1 else 9))


def test_verify_check_rejects_swapped_verdicts(fraclab):
    out = fraclab("verify", rc=1)
    checks.check_verify(out)
    assert rejects(checks.check_verify, out.replace("  7 FAIL", "  7 PASS"))
    assert rejects(checks.check_verify, out.replace("  3 PASS", "  3 FAIL"))
    assert rejects(checks.check_verify, out.replace("smallness ok", "smallness FAILED"))
    assert rejects(checks.check_verify, out.replace("11/12", "12/12"))


KEPT_WRONG = "limit,10000000\nmertens,1037\nsquarefree_count,6079291\n"


def kept_op_round(tmp_path, monkeypatch, ref7, launcher):
    """One round of the kept operation alone, on a 10^7 set-up cache."""
    monkeypatch.setattr(run, "Reference", lambda limit: ref7)
    workload = workloads.make("cache-warm", 1)
    workload.ops = [op for op in workload.ops if op.known_fault]
    session = run.Run(workload, 1.0, launcher)
    Path(session.cache).write_bytes(ref7.cache_bytes(10**7))
    session.round(1)
    return session


def test_kept_sieve_operation_is_counted_failed(tmp_path, monkeypatch, ref7):
    kept = [op for op in workloads.make("cache-warm", 1).ops if op.known_fault]
    assert [op.args for op in kept] == [
        ["sieve", "--limit", "1000000", "--cache", "{round_cache}"]]
    with run.Launcher(tmp_path, time.perf_counter() + 600) as launcher:
        session = kept_op_round(tmp_path, monkeypatch, ref7, launcher)
    assert (session.attempted, session.failed, session.correct) == (1, 1, True)


class OneAnswer:
    """A launcher whose every fraclab process exits with ``rc`` and prints ``out``."""

    def __init__(self, run_dir, rc, out):
        self.run_dir = run_dir
        self.proc = run.Proc(rc, 0.5, 0.5, 30.0, out)

    def fraclab(self, args, spans=None):
        return self.proc


@pytest.mark.parametrize("rc, out, failed, correct", [
    (0, KEPT_WRONG, 1, True),
    (0, "limit,1000000\nmertens,212\nsquarefree_count,607926\n", 0, True),
    (0, KEPT_WRONG.replace("1037", "1036"), 1, False),
    (1, "", 1, False),
    (1, KEPT_WRONG, 1, False),
])
def test_only_the_documented_output_of_the_kept_operation_is_expected(
        tmp_path, monkeypatch, ref7, rc, out, failed, correct):
    session = kept_op_round(tmp_path, monkeypatch, ref7, OneAnswer(tmp_path, rc, out))
    assert (session.attempted, session.failed, session.correct) == (1, failed, correct)


def test_a_changed_set_up_cache_makes_the_run_incorrect(tmp_path, monkeypatch, ref7):
    class Overwrites(OneAnswer):
        def fraclab(self, args, spans=None):
            (self.run_dir / "sieve.muv").write_bytes(ref7.cache_bytes(10**6))
            return self.proc

    session = kept_op_round(tmp_path, monkeypatch, ref7, Overwrites(tmp_path, 0, KEPT_WRONG))
    assert (session.failed, session.correct) == (1, False)


def test_correlate_pairs_fix_their_piece_counts():
    for seed in range(20):
        (n1, m1, x1), (n2, m2, x2) = workloads.correlate_pairs(seed)
        assert n1 + m1 - 1 == 999998 and x1 == 1 and checks.math.gcd(n1, m1) == 1
        assert x2 * (n2 + m2 - 1) == 1998000 and checks.math.gcd(n2, m2) == 1
        assert n1 * m1 > 800_000 and n2 * m2 > 800_000
    assert workloads.correlate_pairs(3) == workloads.correlate_pairs(3)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == workloads.NAMES
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in runner.PER_LAYER]
    for m in spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}", m["name"])


def test_layer_accounting_adds_up():
    # root (0..10) -> sweep (1..7) -> exact_correlation (2..3); dump 0.5 s; wall 12 s
    names = ["cli.main", runner.SWEEP, "exact.exact_correlation"]
    spans = {"names": names, "dump_s": 0.5, "spans": [
        [0, "", 0.0, 10.0, -1, 0],
        [1, "direct_exact", 1.0, 7.0, 0, 300],
        [2, "", 2.0, 3.0, 1, 11],
    ]}
    out = runner.layer_metrics([{"spans": spans, "wall_s": 12.0}], {}, 0.2, 12.25, 12.0)
    assert out["cli.main_self_s"] == 4.0
    assert out["series.sweep_direct_exact_s"] == 5.0
    assert out["exact.exact_correlation_s"] == 1.0
    assert out["cli.process_start_s"] == 1.5
    assert out["exact.pieces"] == 11 and out["series.sweep_points"] == 300
    self_s = sum(v for k, v in out.items() if k.endswith("_s") and not k.startswith(
        ("trace.", "host.", "cli.process_start")) and k != "exact.pieces_per_s")
    assert self_s + out["cli.process_start_s"] + out["trace.dump_s"] == 12.0
    assert out["trace.remainder_s"] == 0.25
