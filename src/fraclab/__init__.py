"""fraclab: exact fractional-part correlations and Moebius-weighted series.

The package sieves the Moebius and Mertens functions, evaluates the
correlation E_X({nx}{mx}) in exact rational arithmetic from closed
forms and floor sums, sums the Moebius-weighted sine series and the
off-diagonal correlation double series toward its limit -9/(2 pi^2),
and checks the finite Abel-summation identities behind the Mertens tail
integrals.  See the ``fraclab`` command for the CSV front end and the
``verify`` subcommand for the built-in acceptance suite.
"""

from .arithmetic import (
    InputError,
    MoebiusTable,
    build_jordan2,
    build_tables,
    load_cache,
    mertens,
    moebius_harmonic,
    save_cache,
    squarefree_count,
    squarefree_zeta2_partial,
)
from .exact import (
    correlation_closed_form,
    exact_correlation,
    expected_correlation,
    expected_correlations,
)
from .series import (
    DOUBLE_SUM_LIMIT,
    correlation_double_sum,
    correlation_double_sum_fast,
    correlation_double_sum_sweep,
    residual_moment_report,
    sine_series_partial,
    sine_series_partials,
    sine_squared_identity_gap,
)
from .tails import (
    abel_identity_check,
    classical_bound_report,
    tail_integral_u1,
    tail_integral_u2,
)

__version__ = "0.1.0"

__all__ = [
    "InputError",
    "MoebiusTable",
    "build_jordan2",
    "build_tables",
    "load_cache",
    "mertens",
    "moebius_harmonic",
    "save_cache",
    "squarefree_count",
    "squarefree_zeta2_partial",
    "correlation_closed_form",
    "exact_correlation",
    "expected_correlation",
    "expected_correlations",
    "DOUBLE_SUM_LIMIT",
    "correlation_double_sum",
    "correlation_double_sum_fast",
    "correlation_double_sum_sweep",
    "residual_moment_report",
    "sine_series_partial",
    "sine_series_partials",
    "sine_squared_identity_gap",
    "abel_identity_check",
    "classical_bound_report",
    "tail_integral_u1",
    "tail_integral_u2",
    "__version__",
]
