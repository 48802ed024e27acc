"""The benchmark's three workloads: the commands of a round, the set-up
before the first result, and the check of every output.

A round is a list of ``Op``s, each one ``fraclab`` process.  ``args`` may
hold ``{cache}``, the cache path of the run, or ``{round_cache}``, a path
of the round's own; the run fills them in.  On a workload whose set-up
writes a cache, ``{round_cache}`` is a copy of that cache, made before the
round and not timed; otherwise nothing is there when the round starts.  ``check`` gets the text the
process printed, the reference tables and that path, and raises
``checks.Mismatch`` on a wrong output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional

import checks
from checks import Mismatch, Reference

L7 = ["--limit", "10000000", "--cache", "{cache}"]
TAILS_CUTOFFS = [1000, 10000, 100000, 1000000]


@dataclass
class Op:
    name: str
    args: List[str]
    check: Callable[[str, Reference, str], None]
    rc: int = 0
    #: the wrong lines this operation prints today because of a fault in
    #: fraclab.  That exact output, with the expected exit status, is counted
    #: in ``failed`` and leaves ``correct`` true; any other wrong output or
    #: exit status makes the run incorrect.
    known_fault: Optional[List[str]] = None


@dataclass
class Workload:
    name: str
    ref_limit: int
    ops: List[Op]
    #: the set-up, timed as ``setup_s``: either fraclab arguments that write
    #: the cache, or None for "import fraclab and build the 10^6 tables"
    setup_args: Optional[List[str]] = None
    #: rounds a run makes whatever ``--seconds`` says.  Two on ``readme-cold``
    #: give its ``cmd_p50_s`` sixteen commands to take the median of.  Two on
    #: ``verify``, whose 11-16 s round is about half of a 30 s run: otherwise
    #: the host's speed would decide whether a run measures one round or two.
    min_rounds: int = 1

    def check_setup(self, text: str, ref: Reference, cache: str) -> None:
        if self.setup_args is None:
            if text:
                raise Mismatch(f"table set-up printed {text!r}")
            return
        checks.check_sieve(text, ref, 10**7)
        self.check_cache(cache, ref)

    def check_cache(self, cache: str, ref: Reference) -> None:
        """The set-up cache as set-up wrote it; checked again after every round."""
        checks.check_cache_file(cache, ref, 10**7)


def _readme_cold() -> Workload:
    def sieve_check(text, ref, cache):
        checks.check_sieve(text, ref, 10**6)
        checks.check_cache_file(cache, ref, 10**6)

    return Workload(
        name="readme-cold",
        ref_limit=10**6,
        ops=[
            Op("sieve", ["sieve", "--limit", "1000000", "--cache", "{round_cache}"],
               sieve_check),
            Op("correlate", ["correlate", "--n", "5", "--m", "6", "--x-range", "100"],
               lambda text, ref, cache: checks.check_correlate(text, 5, 6, 100)),
            Op("sine-series", ["sine-series", "--x", "0.25", "--n-max", "100000"],
               lambda text, ref, cache: checks.check_sine_series(text, ref, 0.25, 10**5)),
            Op("series", ["series", "--n-max", "2000"],
               lambda text, ref, cache: checks.check_series(text, ref, 2000)),
            Op("series-exact", ["series", "--n-max", "300", "--exact", "--naive"],
               lambda text, ref, cache: checks.check_series(text, ref, 300, exact=True)),
            Op("figure1", ["figure1"], lambda text, ref, cache: checks.check_figure1(text)),
            Op("figure2", ["figure2", "--n-max", "100"],
               lambda text, ref, cache: checks.check_series(text, ref, 100)),
            Op("tails", ["tails", "--cutoffs", "1000,10000,100000,1000000", "--c", "1.0"],
               lambda text, ref, cache: checks.check_tails(text, ref, TAILS_CUTOFFS, 10**6)),
        ],
        min_rounds=2,
    )


def _verify() -> Workload:
    return Workload(
        name="verify",
        ref_limit=10**3,
        ops=[Op("verify", ["verify"],
                lambda text, ref, cache: checks.check_verify(text), rc=1)],
        min_rounds=2,
    )


def correlate_pairs(seed: int):
    """The two ``correlate`` requests of ``cache-warm``, drawn from ``seed``.

    * (n, m, 1) with n + m = 999999 and gcd(n, m) = 1: 999998 pieces at X = 1,
      just under the 10^6 pair guard;
    * (n, m, 1000) with n + m = 1999, a prime, so gcd(n, m) = 1: 1998 pieces
      per period and 1998000 in the [0, X] check, X (n + m) just under 2*10^6.

    Both have lcm(n, m) above 800000, so both run on the pure-Python sweep.
    """
    rng = random.Random(seed)
    while True:
        n = rng.randint(490000, 499999)
        if math.gcd(n, 999999) == 1:
            break
    k = rng.randint(600, 999)
    return [(n, 999999 - n, 1), (k, 1999 - k, 1000)]


def _cache_warm(seed: int) -> Workload:
    ops = [
        Op("sieve", ["sieve"] + L7,
           lambda text, ref, cache: checks.check_sieve(text, ref, 10**7)),
        Op("tails", ["tails", "--cutoffs", "1000,10000,100000,1000000,10000000"] + L7,
           lambda text, ref, cache: checks.check_tails(
               text, ref, TAILS_CUTOFFS + [10**7], 10**7)),
        Op("sine-series", ["sine-series", "--x", "0.25", "--n-max", "10000000"] + L7,
           lambda text, ref, cache: checks.check_sine_series(text, ref, 0.25, 10**7)),
        Op("figure2", ["figure2", "--n-max", "100"] + L7,
           lambda text, ref, cache: checks.check_series(text, ref, 100)),
        Op("series-direct", ["series", "--n-max", "2000", "--no-fast-path"] + L7,
           lambda text, ref, cache: checks.check_series(text, ref, 2000)),
    ]
    for n, m, X in correlate_pairs(seed):
        ops.append(Op(
            f"correlate-{n}-{m}",
            ["correlate", "--n", str(n), "--m", str(m), "--x-range", str(X)] + L7,
            lambda text, ref, cache, n=n, m=m, X=X: checks.check_correlate(text, n, m, X)))
    # cli._get_table returns any cached table with cached.limit >= limit, so
    # this prints the 10^7 table's limit, Mertens value and count.  It runs
    # on the round's copy of the cache: once the fault is mended it sieves
    # 10^6 and saves over that copy, not over the cache of later rounds.
    ops.append(Op(
        "sieve-1e6", ["sieve", "--limit", "1000000", "--cache", "{round_cache}"],
        lambda text, ref, cache: checks.check_sieve(text, ref, 10**6),
        known_fault=["limit,10000000", "mertens,1037", "squarefree_count,6079291"]))
    return Workload(
        name="cache-warm",
        ref_limit=10**7,
        ops=ops,
        setup_args=["sieve", "--limit", "10000000", "--cache", "{cache}"],
    )


NAMES = ["readme-cold", "verify", "cache-warm"]


def make(name: str, seed: int) -> Workload:
    if name == "readme-cold":
        return _readme_cold()
    if name == "verify":
        return _verify()
    if name == "cache-warm":
        return _cache_warm(seed)
    raise ValueError(f"unknown workload {name!r}")
