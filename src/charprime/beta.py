"""Secant and tangent numbers, and the alternating odd-power series beta(n).

beta(n) = 1 - 1/3^n + 1/5^n - 7^-n + ... for odd n.  At odd arguments it
has the exact closed form

    beta(2m + 1) = S_m * pi**(2m+1) / (4**(m+1) * (2m)!)

where S_m = |E_2m| are the secant numbers.  They and the tangent numbers
T_m come from one cached table of exact integers, built by the integer
triangles of Knuth & Buckholtz (Math. Comp. 21, 1967).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .arith import MAX_DIGITS, _PAD, HighPrecReal, _up, constant, precision, working_digits
from .primes import chi4

_FIRST_ROWS = 32

# Row m holds (S_m, T_m), with T_0 = 0.
_rows: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class BetaValue:
    """The series value for one odd exponent."""

    n: int
    value: HighPrecReal


def _triangles(count: int) -> tuple[tuple[int, int], ...]:
    # The triangles of Knuth & Buckholtz in the form Brent & Zimmermann give
    # (Modern Computer Arithmetic, 2010, section 4.7.2): O(count**2)
    # updates, each a sum of two small-integer multiples, with no division.
    sec = [1] * count
    for k in range(1, count):
        sec[k] = k * sec[k - 1]
    for k in range(1, count):
        for j in range(k + 1, count):
            sec[j] = (j - k) * sec[j - 1] + (j - k + 1) * sec[j]
    tan = [0] * count
    if count > 1:
        tan[1] = 1
    for k in range(2, count):
        tan[k] = (k - 1) * tan[k - 1]
    for k in range(2, count):
        for j in range(k, count):
            tan[j] = (j - k) * tan[j - 1] + (j - k + 2) * tan[j]
    return tuple(zip(sec, tan))


def secant_tangent(count: int) -> tuple[tuple[int, int], ...]:
    """Rows (S_m, T_m), exact, for m = 0 up to at least ``count`` - 1.

    S_m = |E_2m| are the secant numbers (1, 1, 5, 61, ...) and T_m the
    tangent numbers (T_0 = 0, then 1, 2, 16, ...).  The rows come from one
    cached table; a request past its end replaces it by one at least twice
    as long, never changing it in place.
    """
    global _rows
    if len(_rows) < count:
        _rows = _triangles(max(count, 2 * len(_rows), _FIRST_ROWS))
    return _rows


def euler_numbers(count: int) -> list[int]:
    """Absolute secant numbers |E_0|, |E_2|, ..., ``count`` of them, exact."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return [s for s, _ in secant_tangent(count)[:count]]


def beta_closed(n: int, digits: int | None = None) -> BetaValue:
    """beta(n) for odd n >= 1 from the secant-number closed form."""
    _require_odd(n)
    digits = digits or working_digits()
    m = (n - 1) // 2
    # pi is asked for at digits + 8 + n // 2, and `constant` stops _PAD short
    # of the precision cap.
    reach = MAX_DIGITS - _PAD - 8 - n // 2
    if digits > reach:
        raise ValueError(f"cannot certify beta({n}) to {digits} digits; "
                         f"the closed form certifies at most {reach} digits")
    e_abs = secant_tangent(m + 1)[m][0]
    # pi**n amplifies pi's relative error about n-fold; pad accordingly.
    with precision(digits + 10 + n // 2):
        pi = constant("pi", digits + 8 + n // 2)
        value = pi.pow_int(n) * Fraction(e_abs, 4 ** (m + 1) * math.factorial(2 * m))
    if not value.err < Decimal(1).scaleb(-digits):
        raise ValueError(f"could not certify beta({n}) to {digits} digits")
    return BetaValue(n, value)


def beta_direct(n: int, terms: int) -> BetaValue:
    """Partial sum of the alternating series, odd n >= 3.

    Covers odd m = 1, 3, ..., 2*terms - 1; the error bound includes the
    first omitted term, which dominates the alternating tail.  n = 1 is
    rejected: its tail shrinks too slowly to certify anything useful.
    """
    _require_odd(n)
    if n == 1:
        raise ValueError("beta_direct rejects n = 1; use beta_closed")
    if terms < 1:
        raise ValueError("terms must be >= 1")
    total = HighPrecReal.exact(0)
    for j in range(terms):
        m = 2 * j + 1
        total = total + Fraction(chi4(m), m ** n)
    omitted = HighPrecReal.from_fraction(Fraction(1, (2 * terms + 1) ** n))
    return BetaValue(n, HighPrecReal(total.value, _up(total.err, omitted.value, omitted.err)))


def _require_odd(n: int) -> None:
    if n < 1 or n % 2 == 0:
        raise ValueError(f"exponent must be an odd integer >= 1, got {n}")
