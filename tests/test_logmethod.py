from decimal import Decimal
from fractions import Fraction
from itertools import count

import mpmath as mp
import pytest

from charprime.arith import HighPrecReal, constant, ln_fraction, precision
from charprime.exclusion import composite_tail_bound, run
from charprime.logmethod import (analytic_tail_bound, assemble_O,
                                 beta_complement_bound, closed_form_scan,
                                 master_identity_residual, product_pi2_8,
                                 product_pi4, product_two, w_value)

from goldens import HALF_LN2, LNPI, PI, RESIDUALS, RUN_CONVERGED, W1_REFERENCE, W_TRUE


# -- products ---------------------------------------------------------------

def test_product_pi4_factors():
    prod = product_pi4(7)
    assert prod.factors == [Fraction(3, 4), Fraction(5, 4), Fraction(7, 8),
                            Fraction(11, 12), Fraction(13, 12), Fraction(17, 16),
                            Fraction(19, 20)]
    assert prod.partials[0].value == Decimal("0.75")
    assert prod.partials[1].value == Decimal("0.9375")
    assert not prod.rigorous


def test_product_pi4_empirical_convergence():
    prod = product_pi4(10_000)
    assert abs(prod.value.value - PI / 4) < Decimal("0.002")


def test_product_pi2_8_factors_and_bound():
    prod = product_pi2_8(3)
    assert prod.factors[:2] == [Fraction(9, 8), Fraction(25, 24)]
    assert prod.partials[0].value == Decimal("1.125")
    assert prod.partials[1].value == Decimal("1.171875")
    assert prod.rigorous
    big = product_pi2_8(1000)
    target = PI * PI / 8
    assert abs(big.value.value - target) <= big.value.err


def test_product_two_factors():
    prod = product_two(5)
    assert prod.factors == [Fraction(2, 1), Fraction(2, 3), Fraction(4, 3),
                            Fraction(6, 5), Fraction(6, 7)]
    assert prod.partials[0].value == 2
    assert (prod.partials[1] - Fraction(4, 3)).value.copy_abs() < Decimal("1e-49")
    assert not prod.rigorous


def test_product_two_empirical_convergence():
    prod = product_two(10_000)
    assert abs(prod.value.value - 2) < Decimal("0.01")


def test_product_log_expansion_consistency():
    # ln of the partial product equals -2 * sum of chi-signed odd-power
    # expansions over the same primes.
    from charprime.arith import half_log_ratio
    from charprime.primes import chi4, odd_primes
    prod = product_two(8)
    frac = Fraction(1)
    for f in prod.factors:
        frac *= f
    lhs = ln_fraction(frac.numerator, frac.denominator)
    rhs = HighPrecReal.exact(0)
    for p in odd_primes(8):
        rhs = rhs - 2 * chi4(p) * half_log_ratio(HighPrecReal.exact(p))
    assert (lhs - rhs).value.copy_abs() <= lhs.err + rhs.err + Decimal("1e-45")


def test_product_rejects_zero_primes():
    with pytest.raises(ValueError):
        product_pi4(0)


# -- w_value ------------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
def test_w_value_matches_truth_within_bound(n):
    sv = w_value(n, 9)
    assert sv.rigorous
    assert sv.value.err < Decimal("1e-9")
    assert abs(sv.value.value - W_TRUE[n]) <= sv.value.err


def test_w_value_method_policy():
    assert w_value(3, 7).method == "exclusion"
    assert w_value(9, 7).method == "beta-complement"
    assert w_value(9, 10).method == "exclusion"
    assert w_value(13, 7).method == "beta-complement"


def test_w_value_seven_place_prints():
    assert w_value(9, 7).value.round_decimal(7) == Decimal("0.0000503")
    assert w_value(11, 7).value.round_decimal(7) == Decimal("0.0000056")
    assert w_value(13, 7).value.round_decimal(7) == Decimal("0.0000006")


def test_w_value_domain_and_depth_errors():
    with pytest.raises(ValueError):
        w_value(1, 7)
    with pytest.raises(ValueError):
        w_value(4, 7)
    with pytest.raises(ValueError):
        w_value(3, 25, max_primes=50)


@pytest.mark.parametrize("digits", [5, 11, 14, 20, 28])
@pytest.mark.parametrize("n", [3, 5, 7, 13])
def test_w_value_uses_least_depth(n, digits):
    tol = Decimal(1).scaleb(-digits)
    if n >= 9 and beta_complement_bound(n) < tol / 10:
        assert w_value(n, digits).method == "beta-complement"
        return
    # Reference: the least clearing depth by a linear scan.
    max_primes = 10_000
    depth = next((k for k in range(1, max_primes + 1)
                  if composite_tail_bound(n, k) < tol / 4), None)
    if depth is None:
        with pytest.raises(ValueError, match=f"within {max_primes} primes"):
            w_value(n, digits)
        return
    assert w_value(n, digits).value == run(n, depth, digits + 8).value
    assert depth == 1 or not composite_tail_bound(n, depth - 1) < tol / 4


@pytest.mark.parametrize("n, max_primes, reachable",
                         [(3, 10_000, 20), (3, 50, 9), (5, 10_000, 40)])
def test_w_value_refusal_names_reachable_digits(n, max_primes, reachable):
    assert w_value(n, reachable, max_primes).value.certifies(reachable)
    with pytest.raises(ValueError, match=f"certify at most {reachable} digits"):
        w_value(n, reachable + 1, max_primes)


def _odd_primes_to(limit):
    sieve = bytearray([1]) * (limit + 1)
    for i in range(3, int(limit ** 0.5) + 1, 2):
        if sieve[i]:
            sieve[i * i::2 * i] = bytes(len(range(i * i, limit + 1, 2 * i)))
    return [m for m in range(3, limit + 1, 2) if sieve[m]]


def test_w13_certifies_sixty_places_at_default_precision():
    # Oracle: the direct sum over primes p <= P at 75 digits; the omitted
    # primes lie among the odd m > P, whose sum of m^-13 is below
    # P^-13 + P^-12/24.
    limit = 150_000
    with mp.workdps(75):
        oracle = mp.fsum((-1 if p % 4 == 1 else 1) / mp.mpf(p) ** 13
                         for p in _odd_primes_to(limit))
        oracle = Decimal(mp.nstr(oracle, 75))
    tail = Decimal(limit) ** -13 + Decimal(limit) ** -12 / 24 + Decimal("1e-74")
    w = w_value(13, 60).value
    assert w.certifies(60)
    assert abs(w.value - oracle) <= w.err + tail


def test_beta_complement_bound_covers_gap():
    for n in (9, 11, 13):
        comp = 1 - Decimal(str(__import__("charprime").beta_closed(n, 30).value.value))
        assert abs(W_TRUE[n] - comp) <= beta_complement_bound(n)


# -- assembly -----------------------------------------------------------------

def test_assemble_matches_truth():
    res = assemble_O(10, 9)
    assert res.series.rigorous
    assert res.series.method == "log-assembly"
    assert abs(res.series.value.value - W1_REFERENCE) <= res.series.value.err
    assert res.series.value.err < Decimal("1e-9")


def test_assemble_running_values():
    res = assemble_O(10, 9)
    for step_, frozen in zip(res.steps, RUN_CONVERGED):
        assert abs(step_.running.value - frozen) < Decimal("1e-12")
    # Successive runnings differ by exactly the subtracted term.
    for a, b in zip(res.steps, res.steps[1:]):
        gap = a.running - b.running - b.w.value / b.n
        assert gap.value.copy_abs() <= a.running.err + b.running.err + b.w.value.err


def test_assemble_stability_under_deeper_runs():
    shallow = assemble_O(10, 7).series.value
    deep = assemble_O(20, 9).series.value
    assert abs(shallow.value - deep.value) < Decimal("1e-9")


def test_assemble_rejects_insufficient_depth():
    # Too shallow a max_k is deepened; below one term is refused.
    assert assemble_O(1, 9).series.value.certifies(9)
    with pytest.raises(ValueError):
        assemble_O(0, 7)


@pytest.mark.parametrize("max_k", [1, 5, 10, 12])
@pytest.mark.parametrize("digits", range(1, 17))
def test_assemble_depth_is_max_k_or_least_clearing(max_k, digits):
    least = next(k for k in count(1)
                 if analytic_tail_bound(k) < Decimal("0.5").scaleb(-digits))
    res = assemble_O(max_k, digits)
    value = res.series.value
    assert value.certifies(digits)
    assert abs(value.value - W1_REFERENCE) <= value.err
    assert len(res.steps) == max(max_k, least)


def test_analytic_tail_bound_dominates_true_tail():
    for max_k in (2, 4, 6):
        true_tail = HALF_LN2 - W1_REFERENCE
        for k in range(1, max_k + 1):
            true_tail -= W_TRUE.get(2 * k + 1, Decimal(0)) / (2 * k + 1)
        # Beyond n=13 the W terms are below 1e-7 and only shrink the tail.
        assert true_tail < analytic_tail_bound(max_k)


@pytest.mark.parametrize("max_k", [0, 2, 4, 6])
def test_master_identity_residual(max_k):
    res = master_identity_residual(max_k)
    assert abs(res.value - RESIDUALS[max_k]) < Decimal("1e-12") + res.err
    assert res.value > 0
    assert res.value.copy_abs() < analytic_tail_bound(max_k)


def test_master_identity_residual_shrinks():
    values = [master_identity_residual(k).value for k in (0, 1, 2, 3)]
    assert all(a > b > 0 for a, b in zip(values, values[1:]))


# -- closed-form scan ----------------------------------------------------------

def test_scan_finds_constructed_target():
    value = constant("lnpi", 40) - ln_fraction(2, 1)
    hits = closed_form_scan(value, 10, Decimal("1e-9"))
    assert [(c.numerator, c.denominator) for c in hits] == [(2, 1)]
    assert hits[0].residual.value.copy_abs() < Decimal("1e-12")


def test_scan_on_assembled_value_is_empty():
    value = assemble_O(10, 9).series.value
    assert closed_form_scan(value, 1000, Decimal("1e-7")) == []


def test_scan_zero_tolerance():
    value = HighPrecReal(Decimal("0.5"))
    assert closed_form_scan(value, 100, Decimal(0)) == []


def test_scan_loose_tolerance_sorted():
    value = assemble_O(10, 9).series.value
    hits = closed_form_scan(value, 12, Decimal("0.1"))
    assert len(hits) > 3
    residuals = [c.residual.value.copy_abs() for c in hits]
    assert residuals == sorted(residuals)
    assert all(r < Decimal("0.1") for r in residuals)
    assert (hits[0].numerator, hits[0].denominator) == (9, 4)
    for c in hits:
        from math import gcd
        assert gcd(c.numerator, c.denominator) == 1


def test_scan_requires_certified_value():
    fuzzy = HighPrecReal(Decimal("0.33"), Decimal("1e-3"))
    with pytest.raises(ValueError):
        closed_form_scan(fuzzy, 100, Decimal("1e-4"))


def test_lnpi_residual_identity():
    # value = lnpi - ln(N) makes the residual vanish identically.
    value = constant("lnpi", 40) - ln_fraction(7, 3)
    hits = closed_form_scan(value, 10, Decimal("1e-9"))
    assert (hits[0].numerator, hits[0].denominator) == (7, 3)
    assert abs(value.value - ln_fraction(3, 7).value - LNPI) < Decimal("1e-30")


def test_scan_tolerance_finer_than_default_precision():
    # The residual of an exact hit is below 1e-55 only if the scan works
    # finer than the default 50 digits.
    with precision(80):
        value = constant("lnpi", 80) - ln_fraction(7, 3)
    hits = closed_form_scan(value, 10, Decimal("1e-55"))
    assert [(c.numerator, c.denominator) for c in hits] == [(7, 3)]
