"""The accelerated routes to W(n): products, the half-log-2 identity,
the inversion of the Euler product, scans.

Taking logarithms of the product 2 = prod (p - chi4(p))/(p + chi4(p)) over
odd primes and expanding each factor as the odd-power series in 1/p groups
the terms by exponent into the master identity

    (1/2) ln 2 = W(1) + W(3)/3 + W(5)/5 + W(7)/7 + ...

where W(n) = sum over odd primes of (-chi4(p))/p^n.  Every W(n) with n >= 3
converges fast and is certified by the exclusion recurrence (or, for large
n, by the complement of beta(n)), so W(1) falls out to many digits even
though its own series converges painfully slowly.  This is the memoir's
route, and the table reproductions use it.

The third route, ``w_inversion``, Moebius-inverts the Euler products of
the L-functions of chi4 and its powers (Flajolet & Vardi 1996; Languasco
& Zaccagnini, Exp. Math. 19, 2010).  For odd n every L-value it needs is a
rational multiple of a power of pi, so any odd n certifies to hundreds of
digits.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction
from math import factorial, gcd

from .arith import (MAX_DIGITS, HighPrecReal, _ERR_DOWN, _ERR_UP, _PAD, _QUANTIZE_CTX, _ulp,
                    _up, constant, half_log_ratio, ln_fraction, precision, working_digits)
from .beta import beta_closed, secant_tangent
from .exclusion import SeriesValue, _odd_power_tail, composite_tail_bound, run
from .primes import chi4, nth_odd_prime, odd_primes

_ONE = Decimal(1)


# ---------------------------------------------------------------------------
# Euler products
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductPartials:
    """Running partial products over odd primes in natural order."""

    product_id: str
    factors: list[Fraction]
    partials: list[HighPrecReal]
    rigorous: bool

    @property
    def value(self) -> HighPrecReal:
        return self.partials[-1]


def _running_products(num_primes, factor_of):
    if num_primes < 1:
        raise ValueError("num_primes must be >= 1")
    factors = [factor_of(p, chi4(p)) for p in odd_primes(num_primes)]
    partials = []
    acc = HighPrecReal.exact(1)
    for f in factors:
        acc = acc * f
        partials.append(acc)
    return factors, partials


def product_pi4(num_primes: int) -> ProductPartials:
    """prod p/(p - chi4(p)), converging (conditionally) to pi/4.

    Taken in natural prime order; no rigorous tail exists, so the result is
    flagged non-rigorous.
    """
    factors, partials = _running_products(num_primes, lambda p, chi: Fraction(p, p - chi))
    return ProductPartials("pi4", factors, partials, rigorous=False)


def product_pi2_8(num_primes: int) -> ProductPartials:
    """prod p^2/(p^2 - 1), absolutely convergent to pi^2/8.

    The last partial carries a certified bound: the remaining factors
    multiply in at most exp(1/(2(P+1))), by the telescoping bound on
    sum 1/(m^2 - 1) over odd m > P.
    """
    factors, partials = _running_products(num_primes,
                                          lambda p, chi: Fraction(p * p, p * p - 1))
    last = partials[-1]
    p_last = nth_odd_prime(num_primes)
    bound = _ERR_UP.divide(_ONE, Decimal(2 * (p_last + 1)))
    extra = _ERR_UP.multiply(_ERR_UP.multiply(last.value.copy_abs(), bound), Decimal(2))
    partials[-1] = HighPrecReal(last.value, _up(last.err, extra))
    return ProductPartials("pi2_8", factors, partials, rigorous=True)


def product_two(num_primes: int) -> ProductPartials:
    """prod (p - chi4(p))/(p + chi4(p)), converging (conditionally) to 2."""
    factors, partials = _running_products(num_primes,
                                          lambda p, chi: Fraction(p - chi, p + chi))
    return ProductPartials("two", factors, partials, rigorous=False)


# ---------------------------------------------------------------------------
# W(n) for odd n >= 3
# ---------------------------------------------------------------------------

def beta_complement_bound(n: int) -> Decimal:
    """Bound on |W(n) - (1 - beta(n))|: twice 9**(-n).

    The two sums differ by the odd composite terms, which start at 9 and
    thin out geometrically.
    """
    f = HighPrecReal.from_fraction(Fraction(2, 9 ** n))
    return _up(f.value, f.err)


def w_value(n: int, digits: int, max_primes: int = 10_000) -> SeriesValue:
    """W(n) certified to ``digits`` decimal places, odd n >= 3.

    Runs the exclusion recurrence with just enough primes for the surviving
    composite tail to clear the requested tolerance; once the complement of
    beta(n) alone is within tolerance (large n), uses it directly.  Works at
    ``digits`` plus guard digits, or at the working precision if that is
    higher.  A request that ``max_primes`` primes cannot certify raises,
    naming the digits they do certify.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"w_value needs odd n >= 3, got {n}")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    with precision(max(digits + _PAD, working_digits())):
        tol = _ONE.scaleb(-digits)
        if n >= 9 and beta_complement_bound(n) < tol / 10:
            bv = beta_closed(n, digits + 8)
            w = 1 - bv.value
            value = HighPrecReal(w.value, _up(w.err, beta_complement_bound(n)))
            return SeriesValue("W", n, value, method="beta-complement", rigorous=True)
        # The composite tail bound never grows with k, so the least clearing
        # depth is found by bisection.
        depth = bisect_left(range(1, max_primes + 1), True,
                            key=lambda k: composite_tail_bound(n, k) < tol / 4) + 1
        if depth > max_primes:
            raise ValueError(
                f"cannot certify W({n}) to {digits} digits within {max_primes} primes; "
                f"they certify at most {_w_reach(n, max_primes)} digits")
        return run(n, depth, digits + 8)


def _w_reach(n: int, max_primes: int = 10_000) -> int:
    # The most digits w_value(n, ., max_primes) certifies by exclusion; the
    # bound is taken at guard precision so a low ambient one cannot shift it.
    with precision(_PAD):
        return -(4 * composite_tail_bound(n, max_primes)).adjusted() - 1


# ---------------------------------------------------------------------------
# W(n) for odd n >= 1 by Moebius inversion of L-values
# ---------------------------------------------------------------------------

# Primes below M are summed directly; 61 is the first odd number above M.
_M = 60

# pi is asked for at digits + _PAD, and `constant` stops _PAD short of the
# precision cap.
_INVERSION_MAX_DIGITS = MAX_DIGITS - 2 * _PAD


def _mobius(k: int) -> int:
    mu, d = 1, 2
    while d * d <= k:
        if k % d == 0:
            k //= d
            if k % d == 0:
                return 0
            mu = -mu
        d += 1
    return -mu if k > 1 else mu


def _ln(x: HighPrecReal) -> HighPrecReal:
    # ln x = +-2 * ((1/2) ln((x+1)/|x-1|)), the sign that of x - 1.
    d = x - 1
    if d.value > 0:
        return 2 * half_log_ratio((x + 1) / d)
    return -2 * half_log_ratio((x + 1) / -d)


def _quotient(num: int, den: int) -> HighPrecReal:
    # num/den > 0 to the working precision by one integer division, so huge
    # exact ratios never pass through Decimal whole.  The floor of
    # num * 10**e / den keeps at least working-digits figures, and is short
    # of the true value by less than 10**-e.
    e = max(0, working_digits() + 1
            + (den.bit_length() - num.bit_length() + 1) * 30103 // 100000)
    q = Decimal(num * 10 ** e // den)
    return HighPrecReal(q.scaleb(-e, context=_QUANTIZE_CTX), _ONE.scaleb(-e))


def _l_ratio(s: int, small: tuple[int, ...],
             rows: tuple[tuple[int, int], ...]) -> HighPrecReal:
    """L_M(s, chi4**s) / pi**s from its exact rational value.

    For odd s = 2m + 1, L(s, chi4) = beta(s) = S_m pi^s / (4^(m+1) (2m)!).
    For even s = 2m, chi4**s is the principal character mod 4, and
    L = (1 - 2^-s) zeta(s) = m T_m pi^s / (4^m (2m)!).  Removing the primes
    in ``small`` multiplies by their local factors (p^s - chi(p)) / p^s.
    ``rows`` holds the secant and tangent numbers (S_m, T_m).
    """
    m, odd = divmod(s, 2)
    if odd:
        num, den = rows[m][0], 4 ** (m + 1) * factorial(2 * m)
    else:
        num, den = m * rows[m][1], 4 ** m * factorial(2 * m)
    for p in small:
        ps = p ** s
        num *= ps - (chi4(p) if odd else 1)
        den *= ps
    return _quotient(num, den)


def w_inversion(n: int, digits: int) -> SeriesValue:
    """W(n) certified to ``digits`` decimal places, odd n >= 1.

    With L_M(s, chi) = L(s, chi) * prod_{p<M} (1 - chi(p) p^-s), Moebius
    inversion of log L_M(s, chi) = sum_{p>M} sum_j chi(p)^j / (j p^(js))
    gives

        W(n) = -sum_{p<M} chi4(p)/p^n - sum_{k<=K} mu(k)/k log L_M(kn, chi4^k).

    Each |log L_M(s, chi)| is at most the sum of m^-s over odd m >= 61,
    which `_odd_power_tail` bounds; those bounds fall geometrically in k
    with ratio 61^-n, so the terms past K add at most the first one over
    (1 - 61^-n), and K is the least depth at which twice the first one is
    below a quarter unit in the last place.  The sum runs at ``digits`` plus guard digits, or
    at the working precision if that is higher, and ``err`` covers its
    rounding and the omitted terms.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"w_inversion needs odd n >= 1, got {n}")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if digits > _INVERSION_MAX_DIGITS:
        raise ValueError(f"cannot certify W({n}) to {digits} digits; "
                         f"the L-value inversion certifies at most {_INVERSION_MAX_DIGITS} digits")
    q = _M + 1
    tol = _ONE.scaleb(-digits) / 4
    with precision(_PAD):
        # The k = 1 log diverges at n = 1, so that term is always kept.
        depth = 1 if n == 1 else 0
        while not 2 * _odd_power_tail(q, (depth + 1) * n) < tol:
            depth += 1
        ratio = HighPrecReal.from_fraction(Fraction(1, q ** n))
        k_tail = _ERR_UP.divide(_odd_power_tail(q, (depth + 1) * n),
                                _ERR_DOWN.subtract(_ONE, _up(ratio.value, ratio.err)))
    small = tuple(p for p in odd_primes(_M // 2) if p < _M)
    with precision(max(digits + _PAD, working_digits())):
        total = HighPrecReal.from_fraction(-sum(Fraction(chi4(p), p ** n) for p in small))
        if depth:
            pi_n = constant("pi", digits + _PAD).pow_int(n)
            pi_s = HighPrecReal.exact(1)
            rows = secant_tangent(depth * n // 2 + 1)
        for k in range(1, depth + 1):
            pi_s = pi_s * pi_n
            mu = _mobius(k)
            if mu:
                l_m = pi_s * _l_ratio(k * n, small, rows)
                total = total - _ln(l_m) * mu / k
    value = HighPrecReal(total.value, _up(total.err, k_tail))
    return SeriesValue("W", n, value, method="moebius-inversion", rigorous=True)


# ---------------------------------------------------------------------------
# Assembly of W(1)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssemblyStep:
    k: int
    n: int
    w: SeriesValue
    running: HighPrecReal


@dataclass(frozen=True)
class AssemblyResult:
    series: SeriesValue
    steps: list[AssemblyStep]


def analytic_tail_bound(max_k: int) -> Decimal:
    """Bound on sum_{k > max_k} W(2k+1)/(2k+1).

    Each W(n) is below (4/3) 3^-n and the leftover sum is geometric with
    ratio 1/9, so the first term times 9/8 dominates.
    """
    n = 2 * max_k + 3
    first = HighPrecReal.from_fraction(Fraction(4, 3 * n * 3 ** n))
    return _ERR_UP.multiply(_up(first.value, first.err), Decimal("1.125"))


def assemble_O(max_k: int, digits: int) -> AssemblyResult:
    """W(1) = (1/2) ln 2 - sum_{k=1..K} W(2k+1)/(2k+1), certified to ``digits``.

    K is ``max_k``, raised to the least depth whose analytic tail clears the
    requested digits; the sum runs at ``digits`` plus guard digits, or at
    the working precision if that is higher.
    """
    if max_k < 1:
        raise ValueError("max_k must be >= 1")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    # Each W(2k+1) is asked for 4 more digits, and W(3) reaches least far.
    reach = _w_reach(3) - 4
    if digits > reach:
        raise ValueError(f"cannot certify W(1) to {digits} digits; "
                         f"the log assembly certifies at most {reach} digits")
    half_unit = Decimal("0.5").scaleb(-digits)
    with precision(max(digits + _PAD, working_digits())):
        while analytic_tail_bound(max_k) >= half_unit:
            max_k += 1
        total = constant("ln2", digits + 8) / 2
        steps = []
        for k in range(1, max_k + 1):
            n = 2 * k + 1
            w = w_value(n, digits + 4)
            total = total - w.value / n
            steps.append(AssemblyStep(k, n, w, total))
    value = HighPrecReal(total.value, _up(total.err, analytic_tail_bound(max_k)))
    series = SeriesValue("W", 1, value, method="log-assembly", rigorous=True)
    return AssemblyResult(series, steps)


def master_identity_residual(max_k: int) -> HighPrecReal:
    """(1/2) ln 2 minus the partial sum of W(2k+1)/(2k+1) through max_k.

    The k = 0 term W(1) is taken from an 11-digit assembly ten terms deeper,
    so the residual isolates the genuine tail beyond max_k; the partial sum
    is that assembly's own running value after max_k terms.
    """
    if max_k < 0:
        raise ValueError("max_k must be >= 0")
    assembly = assemble_O(max_k + 10, 11)
    if max_k == 0:
        running = constant("ln2", 11 + 8) / 2
    else:
        running = assembly.steps[max_k - 1].running
    return running - assembly.series.value


# ---------------------------------------------------------------------------
# Closed-form scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosedFormCandidate:
    """A reduced fraction N with ln(pi) - ln(N) close to the scanned value."""

    numerator: int
    denominator: int
    residual: HighPrecReal


def closed_form_scan(value: HighPrecReal, max_den: int, tol: Decimal) -> list[ClosedFormCandidate]:
    """All reduced N = num/den, den <= max_den, with |value - (ln pi - ln N)| < tol.

    Sorted by |residual|.  The scanned value must be certified well below
    the tolerance, otherwise candidates would be meaningless.  Works at
    guard digits below the tolerance, or at the working precision if that
    is finer.
    """
    tol = Decimal(tol)
    if tol <= 0:
        return []
    if not value.err < tol / 10:
        raise ValueError("value is not certified finely enough for this tolerance")
    if max_den < 1:
        raise ValueError("max_den must be >= 1")
    digits = max(working_digits(), _PAD - tol.adjusted())
    with precision(digits):
        lnpi = constant("lnpi", digits + 5)
        # Candidates must sit in a narrow window around exp(ln pi - value):
        # |ln N - (ln pi - value)| < tol bounds |N - center| by roughly
        # center * (e^tol - 1); the factor below over-covers up to tol = 2.
        # The centre is exp of the argument's midpoint, correctly rounded; the
        # argument's error moves it by at most 2 * center * err, and the
        # rounding by less than one unit in the last place.
        arg = lnpi - value
        center = Context(prec=digits).exp(arg.value)
        factor = Decimal(2) if tol <= Decimal("0.5") else Decimal(8)
        half_width = center * tol * factor + 2 * center * arg.err + _ulp(center, digits)
        out = []
        for den in range(1, max_den + 1):
            approx = center * den
            window = half_width * den
            lo = int((approx - window).to_integral_value(rounding="ROUND_FLOOR"))
            hi = int((approx + window).to_integral_value(rounding="ROUND_CEILING"))
            for num in range(max(lo, 1), hi + 1):
                if abs(Decimal(num) - approx) > window:
                    continue
                if gcd(num, den) != 1:
                    continue
                residual = value - (lnpi - ln_fraction(num, den))
                if residual.value.copy_abs() < tol:
                    out.append(ClosedFormCandidate(num, den, residual))
    out.sort(key=lambda c: (c.residual.value.copy_abs(), c.denominator, c.numerator))
    return out
