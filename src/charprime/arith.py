"""Decimal arithmetic with a tracked absolute error bound.

Every quantity in this package is a :class:`HighPrecReal`: a ``Decimal``
value carried at a configurable working precision together with a
conservative absolute error bound.  Arithmetic propagates the bound, and a
result is certified to ``d`` decimal places when ``err < 0.5e-d``: its
``d``-place rounding is then faithful, within one unit in the ``d``-th
place of every point the bound admits (not necessarily the correctly
rounded value of the true number).

The only transcendental machinery provided is what the series work needs:
one odd-power series, ``(1/2) ln((a+1)/(a-1)) = 1/a + 1/(3 a^3) + ...``
and its alternating twin ``atan(1/a)``, summed until the terms fall below
the working precision and closed with a geometric tail bound.  It gives
pi (Machin's formula), ln 2, ln pi and natural logs of rationals.

Values are immutable; operations are pure functions reading the working
precision from a context variable, so concurrent use is safe.  Each
constant is summed once per working precision and remembered for the life
of the process, so a repeated request returns the identical value.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from decimal import Context, Decimal, Inexact, ROUND_CEILING, ROUND_FLOOR, ROUND_HALF_EVEN, ROUND_HALF_UP
from fractions import Fraction
from functools import cache

DEFAULT_DIGITS = 50
MAX_DIGITS = 1000

# Guard digits used internally when building constants and series, on top
# of the precision the caller asked for.
_PAD = 10

_working_digits: ContextVar[int] = ContextVar("charprime_working_digits", default=DEFAULT_DIGITS)

# Error-bound arithmetic runs at low precision, always rounding outward.
_ERR_UP = Context(prec=12, rounding=ROUND_CEILING)
_ERR_DOWN = Context(prec=12, rounding=ROUND_FLOOR)

# Roomy context for exact quantization regardless of value width.
_QUANTIZE_CTX = Context(prec=2 * MAX_DIGITS)

_ZERO = Decimal(0)
_ONE = Decimal(1)


class UncertifiedError(ValueError):
    """Requested digits exceed what the tracked error bound certifies."""


def working_digits() -> int:
    return _working_digits.get()


@contextmanager
def precision(digits: int):
    """Temporarily switch the working precision."""
    if not 1 <= digits <= MAX_DIGITS:
        raise ValueError(f"working digits must be in 1..{MAX_DIGITS}, got {digits}")
    token = _working_digits.set(digits)
    try:
        yield
    finally:
        _working_digits.reset(token)


def _value_ctx() -> Context:
    return Context(prec=_working_digits.get(), rounding=ROUND_HALF_EVEN)


def _ulp(value: Decimal, prec: int) -> Decimal:
    # One unit in the last place of a prec-digit result; exact results add 0.
    if value.is_zero():
        return _ZERO
    return _ONE.scaleb(value.adjusted() - prec + 1)


def _up(*terms: Decimal) -> Decimal:
    total = _ZERO
    for t in terms:
        total = _ERR_UP.add(total, t)
    return total


@dataclass(frozen=True)
class HighPrecReal:
    """A real number with a conservative absolute error bound."""

    value: Decimal
    err: Decimal = _ZERO

    def __post_init__(self):
        if self.err < 0:
            raise ValueError("error bound must be nonnegative")

    # -- construction ------------------------------------------------------

    @classmethod
    def exact(cls, x: int | str | Decimal) -> "HighPrecReal":
        return cls(Decimal(x), _ZERO)

    @classmethod
    def from_fraction(cls, frac: Fraction | int) -> "HighPrecReal":
        frac = Fraction(frac)
        ctx = _value_ctx()
        ctx.clear_flags()
        v = ctx.divide(Decimal(frac.numerator), Decimal(frac.denominator))
        e = _ulp(v, ctx.prec) if ctx.flags[Inexact] else _ZERO
        return cls(v, e)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "HighPrecReal":
        if isinstance(other, HighPrecReal):
            return other
        if isinstance(other, int):
            return HighPrecReal(Decimal(other), _ZERO)
        if isinstance(other, Fraction):
            return HighPrecReal.from_fraction(other)
        if isinstance(other, Decimal):
            return HighPrecReal(other, _ZERO)
        return NotImplemented

    def _binary(self, other, op):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ctx = _value_ctx()
        ctx.clear_flags()
        return op(self, other, ctx)

    def __add__(self, other):
        def op(a, b, ctx):
            v = ctx.add(a.value, b.value)
            rnd = _ulp(v, ctx.prec) if ctx.flags[Inexact] else _ZERO
            return HighPrecReal(v, _up(a.err, b.err, rnd))
        return self._binary(other, op)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return HighPrecReal(self.value.copy_negate(), self.err)

    def __abs__(self):
        return HighPrecReal(self.value.copy_abs(), self.err)

    def __mul__(self, other):
        def op(a, b, ctx):
            v = ctx.multiply(a.value, b.value)
            rnd = _ulp(v, ctx.prec) if ctx.flags[Inexact] else _ZERO
            e = _up(
                _ERR_UP.multiply(a.value.copy_abs(), b.err),
                _ERR_UP.multiply(b.value.copy_abs(), a.err),
                _ERR_UP.multiply(a.err, b.err),
                rnd,
            )
            return HighPrecReal(v, e)
        return self._binary(other, op)

    __rmul__ = __mul__

    def __truediv__(self, other):
        def op(a, b, ctx):
            b_low = _ERR_DOWN.subtract(b.value.copy_abs(), b.err)
            if b_low <= 0:
                raise ZeroDivisionError("divisor is not certified away from zero")
            v = ctx.divide(a.value, b.value)
            rnd = _ulp(v, ctx.prec) if ctx.flags[Inexact] else _ZERO
            # |x/y - a/b| <= ea/|y| + |a| eb/(|y||b|) with |y| >= b_low.
            e = _up(_ERR_UP.divide(a.err, b_low), rnd)
            if b.err:
                e = _up(e, _ERR_UP.divide(
                    _ERR_UP.multiply(a.value.copy_abs(), b.err),
                    _ERR_DOWN.multiply(b_low, b.value.copy_abs())))
            return HighPrecReal(v, e)
        return self._binary(other, op)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__truediv__(self)

    def pow_int(self, k: int) -> "HighPrecReal":
        """k-th power for integer k >= 0, by binary exponentiation."""
        if k < 0:
            raise ValueError("negative exponents are not supported")
        result = HighPrecReal(_ONE)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- inspection --------------------------------------------------------

    def certifies(self, d: int) -> bool:
        """True when err < 0.5e-d, so the d-place rounding is faithful.

        The rounded value is then within one unit in the d-th place of every
        point in [value - err, value + err].  It may still differ by that one
        unit from the correctly rounded true value: (0.123450001 +/- 1e-8)
        certifies 4 places and rounds to 0.1235, although 0.12344999 lies in
        the interval and rounds to 0.1234.
        """
        return self.err < Decimal("0.5").scaleb(-d)

    def round_decimal(self, d: int) -> Decimal:
        """Round to d decimal places, halves away from zero."""
        q = self.value.quantize(_ONE.scaleb(-d), rounding=ROUND_HALF_UP, context=_QUANTIZE_CTX)
        return q.copy_abs() if q.is_zero() else q

    def __float__(self):
        return float(self.value)

    def __repr__(self):
        return f"HighPrecReal({self.value}, err={self.err})"


# ---------------------------------------------------------------------------
# Constants
# ---------------------------------------------------------------------------

CONSTANT_NAMES = ("pi", "ln2", "lnpi")


def constant(name: str, digits: int) -> HighPrecReal:
    """Return pi, ln2 or lnpi with err < 10**(-digits)."""
    if name not in CONSTANT_NAMES:
        raise ValueError(f"unknown constant {name!r}; expected one of {CONSTANT_NAMES}")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if digits > MAX_DIGITS - _PAD:
        raise ValueError(f"constant digits capped at {MAX_DIGITS - _PAD}")
    x = _series_constant(name, digits + _PAD)
    if not x.err < _ONE.scaleb(-digits):
        raise UncertifiedError(f"could not certify {name} to {digits} digits")
    return x


@cache
def _series_constant(name: str, prec: int) -> HighPrecReal:
    # One entry per (name, precision): at most 3 * MAX_DIGITS of them.
    with precision(prec):
        return {"pi": _pi, "ln2": _ln2, "lnpi": _lnpi}[name]()


def _pi() -> HighPrecReal:
    # Machin: pi = 16 atan(1/5) - 4 atan(1/239).
    return (16 * _odd_power_series(HighPrecReal.exact(5), alternating=True)
            - 4 * _odd_power_series(HighPrecReal.exact(239), alternating=True))


def _ln2() -> HighPrecReal:
    # ln 2 = 2 * ((1/2) ln((3+1)/(3-1))).
    return 2 * half_log_ratio(HighPrecReal.exact(3))


def _lnpi() -> HighPrecReal:
    # ln pi = ln 2 + ln x with x = pi/2 in (1, 2), and
    # ln x = 2 * ((1/2) ln((a+1)/(a-1))) for a = (x+1)/(x-1) = (pi+2)/(pi-2).
    pi = _series_constant("pi", working_digits())
    return _series_constant("ln2", working_digits()) + 2 * half_log_ratio((pi + 2) / (pi - 2))


def _odd_power_series(a: HighPrecReal, alternating: bool = False) -> HighPrecReal:
    """sum_k (+-1)**k / ((2k+1) a**(2k+1)) for a > 1, at working precision.

    All signs positive gives (1/2) ln((a+1)/(a-1)); alternating signs give
    atan(1/a).  Summation stops at the first term below
    cut = 10**-(working digits + 2); with its own rounding error that term is
    below cut + term.err.  Each later term is at most a**-2 times the one
    before, so the omitted tail, of either sign pattern, is at most
    (cut + term.err) / (1 - a**-2), evaluated with a rounded down.
    """
    a_low = _ERR_DOWN.subtract(a.value, a.err)
    if a_low <= 1:
        raise ValueError("the odd-power series needs a > 1")
    cut = _ONE.scaleb(-(working_digits() + 2))
    inv = HighPrecReal(_ONE) / a
    inv2 = inv * inv
    power = total = inv
    k = 1
    while True:
        power = power * inv2
        term = power / (2 * k + 1)
        if term.value < cut:
            break
        total = total - term if alternating and k % 2 else total + term
        k += 1
    inv_hi = _ERR_UP.divide(_ONE, a_low)
    tail = _ERR_UP.divide(_up(cut, term.err),
                          _ERR_DOWN.subtract(_ONE, _ERR_UP.multiply(inv_hi, inv_hi)))
    return HighPrecReal(total.value, _up(total.err, tail))


def half_log_ratio(a) -> HighPrecReal:
    """(1/2) ln((a+1)/(a-1)) = 1/a + 1/(3 a^3) + 1/(5 a^5) + ... for a > 1.

    The series is summed until its terms fall below the working precision,
    and the bound covers the omitted tail; the term count grows like
    working digits / log10(a**2).
    """
    a = HighPrecReal._coerce(a)
    if a is NotImplemented:
        raise TypeError("a must be a number")
    return _odd_power_series(a)


def ln_fraction(num: int, den: int) -> HighPrecReal:
    """Natural log of a positive rational, certified at working precision."""
    if num <= 0 or den <= 0:
        raise ValueError("ln_fraction needs a positive rational")
    # Scale num/den by a power of two into [1, 2).
    shift = 0
    n, d = num, den
    while n >= 2 * d:
        d <<= 1
        shift += 1
    while n < d:
        n <<= 1
        shift -= 1
    ln2 = _series_constant("ln2", working_digits())
    if n == d:
        body = HighPrecReal(_ZERO)
    else:
        # ln(n/d) = 2 * ((1/2) ln((a+1)/(a-1))) with a = (n+d)/(n-d) > 3.
        body = 2 * half_log_ratio(Fraction(n + d, n - d))
    return body + shift * ln2


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------

DECIMAL_STYLES = ("period", "euler-comma")


def format_decimal(x: HighPrecReal, d: int, style: str = "period") -> str:
    """Fixed-point decimal string with d places, halves rounded away from zero.

    Refuses when the error bound does not certify the last place.
    """
    if style not in DECIMAL_STYLES:
        raise ValueError(f"unknown decimal style {style!r}")
    if d < 0:
        raise ValueError("d must be >= 0")
    if not x.certifies(d):
        raise UncertifiedError(
            f"error bound {x.err} does not certify {d} decimal places")
    q = x.round_decimal(d)
    s = format(q, "f")
    if d > 0 and "." not in s:
        s += "." + "0" * d
    if style == "euler-comma":
        s = s.replace(".", ",")
    return s


_DECIMAL_RE = re.compile(r"^-?\d+(\.\d*)?$")


def parse_decimal(s: str) -> HighPrecReal:
    """Parse a period-style decimal string into an exact HighPrecReal."""
    s = s.strip()
    if not _DECIMAL_RE.match(s):
        raise ValueError(f"not a plain decimal string: {s!r}")
    return HighPrecReal(Decimal(s), _ZERO)
