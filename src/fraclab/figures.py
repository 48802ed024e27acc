"""Canonical CSV datasets emitted by the command-line tool.

Figure 1 is the correlation profile E_100({nx}{6x}) for n = 1..12 with
exact values; figure 2 is the partial-sum sweep of the correlation
double series against its limit.  Every CSV table the command-line
tool prints is rendered by ``csv_text``.  Emission is fully
deterministic, so repeated runs are byte-identical and figure 1 is
pinned by a golden file shipped with the package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, List, Sequence

from .arithmetic import MoebiusTable
from .exact import expected_correlations
from .formatting import format_decimal, rational_string
from .series import DOUBLE_SUM_LIMIT, Value, correlation_double_sum_sweep

FIGURE1_M = 6
FIGURE1_N_MAX = 12
FIGURE1_X = 100

#: the X column of series rows
SERIES_X = 100


def _relation(n: int, m: int) -> str:
    g = math.gcd(n, m)
    if g == 1:
        return "coprime"
    if n % m == 0 or m % n == 0:
        return "multiple"
    return "shared-factor"


def figure1_rows() -> List[dict]:
    ns = range(1, FIGURE1_N_MAX + 1)
    values = expected_correlations([(n, FIGURE1_M, FIGURE1_X) for n in ns])
    return [
        {
            "n": n,
            "m": FIGURE1_M,
            "X": FIGURE1_X,
            "value": value,
            "gcd": math.gcd(n, FIGURE1_M),
            "relation": _relation(n, FIGURE1_M),
        }
        for n, value in zip(ns, values)
    ]


def csv_text(header: str, rows: Iterable[Sequence], digits: int) -> str:
    """CSV text: the header line, then one line per row.

    ``str`` and ``int`` cells print as ``str(c)``; ``Fraction`` and
    ``float`` cells through ``format_decimal`` at ``digits`` significant
    figures.
    """
    lines = [header]
    for row in rows:
        lines.append(",".join(
            format_decimal(c, digits) if isinstance(c, (Fraction, float)) else str(c)
            for c in row
        ))
    return "\n".join(lines) + "\n"


def figure1_csv(digits: int = 15) -> str:
    rows = (
        (r["n"], r["m"], r["X"], r["value"], rational_string(r["value"]), r["gcd"],
         r["relation"])
        for r in figure1_rows()
    )
    return csv_text("n,m,X,value,value_exact,gcd,relation", rows, digits)


def points_csv(values: Sequence[Value], digits: int = 15) -> str:
    """Series sweep rows: N, X, value, target, abs_error for the sweep
    ``values`` = [S(1), S(2), ...].

    S(N) does not depend on X, since E_X({nx}{mx}) = C(n, m) for every
    integer X; the X column is always SERIES_X and the target always
    DOUBLE_SUM_LIMIT.
    """
    target = format_decimal(DOUBLE_SUM_LIMIT, digits)
    rows = (
        (N, SERIES_X, v, target, abs(float(v) - DOUBLE_SUM_LIMIT))
        for N, v in enumerate(values, 1)
    )
    return csv_text("N,X,value,target,abs_error", rows, digits)


def figure2_csv(table: MoebiusTable, n_max: int, fast: bool, digits: int) -> str:
    return points_csv(correlation_double_sum_sweep(table, n_max, fast=fast), digits)
