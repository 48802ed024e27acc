"""Deterministic decimal rendering for CSV output.

Exact rationals always travel with a companion "num/den" column, so the
decimal column is a convenience view and may round; it does so at a
configurable number of significant digits with round-half-even ties.
"""

from __future__ import annotations

import decimal
from fractions import Fraction


def format_decimal(value, digits: int = 15) -> str:
    """Render a number at ``digits`` significant figures, ties to even.

    Fractions are divided in decimal arithmetic at the requested
    precision; floats go through the platform's correctly rounded
    shortest-digits conversion via ``%g``.
    """
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    if isinstance(value, Fraction):
        with decimal.localcontext() as ctx:
            ctx.prec = digits
            ctx.rounding = decimal.ROUND_HALF_EVEN
            return str(decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator))
    return "%.*g" % (digits, float(value))


def rational_string(value: Fraction) -> str:
    """Exact "num/den" rendering (lowest terms, positive denominator)."""
    return f"{value.numerator}/{value.denominator}"
