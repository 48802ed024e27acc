"""Deterministic decimal rendering for CSV output.

Exact rationals always travel with a companion "num/den" column, so the
decimal column is a convenience view and may round; it does so at a
configurable number of significant digits with round-half-even ties.
"""

from __future__ import annotations

import decimal
from fractions import Fraction

from .arithmetic import InputError

#: most digits of a decimal column: no float64 has more than 767 significant
#: decimal digits, and every Fraction column has an exact num/den companion
MAX_DIGITS = 1000


def _check_digits(digits: int) -> None:
    if not 1 <= digits <= MAX_DIGITS:
        raise InputError(f"digits must be in 1..{MAX_DIGITS}, got {digits}")


def format_decimal(value, digits: int = 15) -> str:
    """Render a number at ``digits`` significant figures, ties to even.

    Fractions are divided in decimal arithmetic at the requested
    precision; floats go through the platform's correctly rounded
    shortest-digits conversion via ``%g``.
    """
    _check_digits(digits)
    if isinstance(value, Fraction):
        with decimal.localcontext() as ctx:
            ctx.prec = digits
            ctx.rounding = decimal.ROUND_HALF_EVEN
            return str(decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator))
    return "%.*g" % (digits, float(value))


def rational_string(value: Fraction) -> str:
    """Exact "num/den" rendering (lowest terms, positive denominator)."""
    return f"{value.numerator}/{value.denominator}"
