"""Secant numbers and the alternating odd-power series beta(n).

beta(n) = 1 - 1/3^n + 1/5^n - 7^-n + ... for odd n.  At odd arguments it
has the exact closed form

    beta(2m + 1) = |E_2m| * pi**(2m+1) / (4**(m+1) * (2m)!)

where E_2m are the secant numbers, computed here as exact integers from
the recurrence sum_k C(2m, 2k) E_2k = 0 with E_0 = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .arith import HighPrecReal, _up, constant, precision, working_digits
from .primes import chi4


@dataclass(frozen=True)
class BetaValue:
    """The series value for one odd exponent."""

    n: int
    value: HighPrecReal


def euler_numbers(count: int) -> list[int]:
    """Absolute secant numbers |E_0|, |E_2|, ..., ``count`` of them, exact.

    The signed numbers satisfy sum_{k=0..m} C(2m, 2k) E_2k = 0, so each new
    one is an integer combination of its predecessors; no rounding anywhere.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    signed = [1]
    for m in range(1, count):
        acc = sum(math.comb(2 * m, 2 * k) * signed[k] for k in range(m))
        signed.append(-acc)
    return [abs(e) for e in signed]


def beta_closed(n: int, digits: int | None = None) -> BetaValue:
    """beta(n) for odd n >= 1 from the secant-number closed form."""
    _require_odd(n)
    digits = digits or working_digits()
    m = (n - 1) // 2
    e_abs = euler_numbers(m + 1)[m]
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
