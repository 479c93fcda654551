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

import csv
import io
import json
from dataclasses import dataclass, field
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
class TraceStep:
    k: int
    prime: int
    value: HighPrecReal
    partial_sum: HighPrecReal


@dataclass(frozen=True)
class ExclusionState:
    n: int
    k: int
    V: HighPrecReal
    s: HighPrecReal
    trace: tuple[TraceStep, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class RunResult:
    series: SeriesValue
    state: ExclusionState


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
    s = state.s + t
    rec = TraceStep(state.k + 1, p, V, s)
    return ExclusionState(state.n, state.k + 1, V, s, state.trace + (rec,))


def step_closed_form(state: ExclusionState) -> ExclusionState:
    """Algebraically identical step, V' = ((p^n - chi)/p^n) V + (chi/p^n) s.

    Kept as an independent evaluation route for equivalence checks.
    """
    p = nth_odd_prime(state.k + 1)
    c = chi4(p)
    pn = p ** state.n
    V = state.V * Fraction(pn - c, pn) + state.s * Fraction(c, pn)
    s = state.s + _term(p, state.n)
    rec = TraceStep(state.k + 1, p, V, s)
    return ExclusionState(state.n, state.k + 1, V, s, state.trace + (rec,))


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


def run(n: int, num_primes: int, digits: int | None = None) -> RunResult:
    """Exclude ``num_primes`` primes and report W(n) ~= 1 - V.

    For n >= 3 the error bound is rigorous (arithmetic plus the surviving
    composite tail).  For n = 1 the recurrence still converges in practice
    but no usable tail bound exists; the bound reported is the magnitude of
    the last step, and the result is flagged non-rigorous.
    """
    if num_primes < 1:
        raise ValueError("num_primes must be >= 1")
    state = init_state(n, digits)
    previous = state.V
    for _ in range(num_primes):
        previous = state.V
        state = step(state)
    w = 1 - state.V
    if n >= 3:
        err = _up(w.err, composite_tail_bound(n, state.k))
        rigorous = True
    else:
        err = _up(w.err, (state.V - previous).value.copy_abs())
        rigorous = False
    value = HighPrecReal(w.value, err)
    series = SeriesValue(series="W", n=n, value=value, method="exclusion", rigorous=rigorous)
    return RunResult(series=series, state=state)


def sieved_tail_oracle(n: int, k: int, limit: int) -> HighPrecReal:
    """Brute-force sum over odd m in [3, limit] with spf(m) > p_k of chi4(m)/m^n.

    Independent check of the state invariant V - s; the error bound covers
    the terms beyond ``limit``.  n = 1 is rejected, its tail does not admit
    a useful absolute bound.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("oracle needs odd n >= 3")
    if k < 0:
        raise ValueError("k must be >= 0")
    small = odd_primes(k)
    total = HighPrecReal.exact(0)
    m = 3
    while m <= limit:
        if all(m % p for p in small):
            total = total + Fraction(chi4(m), m ** n)
        m += 2
    start = limit + 1 if limit % 2 == 0 else limit + 2
    return HighPrecReal(total.value, _up(total.err, _odd_power_tail(start, n)))


# -- trace export -----------------------------------------------------------

TRACE_FIELDS = ("prime", "letter_index", "V", "s", "err")


def trace_rows(state: ExclusionState) -> list[dict]:
    return [
        {
            "prime": t.prime,
            "letter_index": t.k,
            "V": str(t.value.value),
            "s": str(t.partial_sum.value),
            "err": str(t.value.err),
        }
        for t in state.trace
    ]


def trace_to_csv(state: ExclusionState) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=TRACE_FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(trace_rows(state))
    return buf.getvalue()


def trace_to_json(state: ExclusionState) -> str:
    return json.dumps({"n": state.n, "steps": trace_rows(state)}, indent=2) + "\n"
