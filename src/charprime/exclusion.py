"""Composite-exclusion recurrence for the prime character series.

Start from the full alternating odd-power series (value beta(n)) and strip,
one odd prime at a time, every remaining term whose denominator is
divisible by that prime.  With V the current sieved-series value and s the
partial prime sum 1 + sum chi4(p_j)/p_j^n over the primes handled so far,
one step at prime p is

    V' = V - (chi4(p)/p^n) (V - s),      s' = s + chi4(p)/p^n.

V converges to the prime-only series Z(n), and the target prime sum is
W(n) = 1 - Z(n).  For n >= 3 the distance from the limit is rigorously
bounded by the surviving composite terms, which all sit above the square
of the next unused prime.

States are immutable; each step builds a new one, so runs for different
exponents are independent and deterministic under any scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .arith import HighPrecReal, _up, working_digits
from .beta import beta_closed
from .primes import chi4, nth_odd_prime, odd_primes


@dataclass(frozen=True)
class SeriesValue:
    """A labeled series result with its certification status."""

    series: str
    n: int
    value: HighPrecReal
    method: str
    rigorous: bool


@dataclass(frozen=True)
class ExclusionState:
    n: int
    k: int
    V: HighPrecReal
    s: HighPrecReal


def init_state(n: int, digits: int | None = None) -> ExclusionState:
    """Fresh state: no primes processed, V = beta(n), s = 1."""
    start = beta_closed(n, digits or working_digits())
    return ExclusionState(n=n, k=0, V=start.value, s=HighPrecReal.exact(1))


def _term(p: int, n: int) -> HighPrecReal:
    return HighPrecReal.from_fraction(Fraction(chi4(p), p ** n))


def step(state: ExclusionState) -> ExclusionState:
    """Strip multiples of the next odd prime: V' = V - (chi/p^n)(V - s)."""
    p = nth_odd_prime(state.k + 1)
    t = _term(p, state.n)
    V = state.V - t * (state.V - state.s)
    return ExclusionState(state.n, state.k + 1, V, state.s + t)


def step_closed_form(state: ExclusionState) -> ExclusionState:
    """Algebraically identical step, V' = ((p^n - chi)/p^n) V + (chi/p^n) s.

    Kept as an independent evaluation route for equivalence checks.
    """
    p = nth_odd_prime(state.k + 1)
    c = chi4(p)
    pn = p ** state.n
    V = state.V * Fraction(pn - c, pn) + state.s * Fraction(c, pn)
    return ExclusionState(state.n, state.k + 1, V, state.s + _term(p, state.n))


def composite_tail_bound(n: int, k: int) -> Decimal:
    """Upper bound on |V_k - Z(n)| for n >= 3.

    Composites surviving k exclusion steps have smallest prime factor
    greater than the k-th odd prime, hence are at least the square of the
    next odd prime; bound their character sum by the full odd power tail.
    """
    if n < 3:
        raise ValueError("rigorous tail bound needs n >= 3")
    q = nth_odd_prime(k + 1)
    return _odd_power_tail(q * q, n)


def _odd_power_tail(start: int, n: int) -> Decimal:
    # sum over odd m >= start of m^-n  <=  start^-n + start^(1-n)/(2(n-1))
    first = HighPrecReal.from_fraction(Fraction(1, start ** n))
    integral = HighPrecReal.from_fraction(Fraction(1, 2 * (n - 1) * start ** (n - 1)))
    return _up(first.value, first.err, integral.value, integral.err)


def run(n: int, num_primes: int, digits: int | None = None) -> SeriesValue:
    """Exclude ``num_primes`` primes and report W(n) ~= 1 - V, odd n >= 3.

    The error bound is rigorous: arithmetic plus the surviving composite
    tail.  n = 1 is rejected; its recurrence converges, but no usable tail
    bound exists.
    """
    if n < 3:
        raise ValueError(f"run needs odd n >= 3, got {n}")
    if num_primes < 1:
        raise ValueError("num_primes must be >= 1")
    state = init_state(n, digits)
    for _ in range(num_primes):
        state = step(state)
    w = 1 - state.V
    value = HighPrecReal(w.value, _up(w.err, composite_tail_bound(n, state.k)))
    return SeriesValue(series="W", n=n, value=value, method="exclusion", rigorous=True)


def sieved_tail_oracle(n: int, k: int, limit: int) -> HighPrecReal:
    """Brute-force sum over odd m in [3, limit] with spf(m) > p_k of chi4(m)/m^n.

    Independent check of the state invariant V - s.  The terms are summed as
    integers scaled by 10^(working digits + 5), each floored, and converted
    once; the error bound covers those floors, the one conversion and the
    terms beyond ``limit``.  n = 1 is rejected, its tail does not admit a
    useful absolute bound.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("oracle needs odd n >= 3")
    if k < 0:
        raise ValueError("k must be >= 0")
    small = odd_primes(k)
    places = working_digits() + 5
    scale = 10 ** places
    total = count = 0
    for m in range(3, limit + 1, 2):
        if all(m % p for p in small):
            total += chi4(m) * (scale // m ** n)
            count += 1
    value = HighPrecReal.from_fraction(Fraction(total, scale))
    # Each floor is off by less than one unit of 1/scale.
    floors = Decimal(count).scaleb(-places)
    start = limit + 1 if limit % 2 == 0 else limit + 2
    return HighPrecReal(value.value, _up(value.err, floors, _odd_power_tail(start, n)))
