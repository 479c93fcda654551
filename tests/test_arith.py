from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charprime import arith
from charprime.arith import (CONSTANT_NAMES, HighPrecReal, UncertifiedError, _PAD,
                             _odd_power_series, _series_constant, constant,
                             format_decimal, half_log_ratio, ln_fraction,
                             parse_decimal, precision)
from charprime.checks import _eval_program

from goldens import HALF_LN_3_2, LN2, LNPI, PI


def hp(s, err="0"):
    return HighPrecReal(Decimal(s), Decimal(err))


# -- constants ---------------------------------------------------------------

@pytest.mark.parametrize("name,reference", [("pi", PI), ("ln2", LN2), ("lnpi", LNPI)])
def test_constants_against_reference(name, reference):
    x = constant(name, 50)
    assert x.err < Decimal("1e-50")
    assert abs(x.value - reference) <= x.err + Decimal("1e-50")


def test_constants_against_live_oracle():
    mp.mp.dps = 70
    for name, ref in [("pi", mp.pi), ("ln2", mp.log(2)), ("lnpi", mp.log(mp.pi))]:
        x = constant(name, 60)
        assert abs(x.value - Decimal(mp.nstr(+ref, 65))) < Decimal("1e-60")


@pytest.mark.parametrize("digits", [443, 990])
def test_constants_certify_to_the_cap(digits):
    # ln 2 gains log10 9 ~ 0.954 digits per series term; one term per digit
    # stopped certifying at 443 digits.
    mp.mp.dps = digits + 20
    for name, ref in [("pi", mp.pi), ("ln2", mp.log(2)), ("lnpi", mp.log(mp.pi))]:
        x = constant(name, digits)
        assert x.err < Decimal(10) ** -digits
        ref = Decimal(mp.nstr(+ref, digits + 15))
        assert abs(x.value - ref) <= x.err + Decimal(10) ** -(digits + 12), name


def test_constant_examples():
    assert (constant("pi", 10) / 4).round_decimal(10) == Decimal("0.7853981634")
    assert (constant("ln2", 10) / 2).round_decimal(10) == Decimal("0.3465735903")
    lnpi = constant("lnpi", 20)
    assert str(lnpi.round_decimal(19)) == "1.1447298858494001741"


def test_constant_errors(monkeypatch):
    # The checks sit outside the memo: a refusal raises cold and warm alike.
    _series_constant.cache_clear()
    for _ in range(2):
        with pytest.raises(ValueError):
            constant("e", 10)
        with pytest.raises(ValueError):
            constant("pi", 0)
        with pytest.raises(ValueError):
            constant("pi", 100_000)
        for name in CONSTANT_NAMES:
            constant(name, 10)
    # Without guard digits pi's last-place rounding exceeds 1e-30.
    monkeypatch.setattr(arith, "_PAD", 0)
    for _ in range(2):
        with pytest.raises(UncertifiedError):
            constant("pi", 30)


# -- the constant memo -------------------------------------------------------

def _summed(name):
    # Each constant's series, summed afresh at the working precision.
    pi = (16 * _odd_power_series(HighPrecReal.exact(5), alternating=True)
          - 4 * _odd_power_series(HighPrecReal.exact(239), alternating=True))
    ln2 = 2 * half_log_ratio(3)
    return {"pi": pi, "ln2": ln2,
            "lnpi": ln2 + 2 * half_log_ratio((pi + 2) / (pi - 2))}[name]


@pytest.mark.parametrize("digits", [10, 50, 200])
@pytest.mark.parametrize("name", CONSTANT_NAMES)
def test_memoised_constant_equals_a_fresh_sum(name, digits):
    _series_constant.cache_clear()
    cold = constant(name, digits)
    warm = constant(name, digits)
    with precision(digits + _PAD):
        fresh = _summed(name)
    assert (cold.value, cold.err) == (warm.value, warm.err) == (fresh.value, fresh.err)


def test_memoised_constant_ignores_ambient_precision():
    _series_constant.cache_clear()
    with precision(20):
        low = constant("pi", 60)
    with precision(200):
        high = constant("pi", 60)
    assert (low.value, low.err) == (high.value, high.err)
    assert low.err < Decimal("1e-60")


def test_memoised_constant_is_summed_once(monkeypatch):
    _series_constant.cache_clear()
    calls = []
    series = arith._odd_power_series
    monkeypatch.setattr(arith, "_odd_power_series",
                        lambda *a, **kw: calls.append(a) or series(*a, **kw))
    constant("lnpi", 40)
    # Two arctangents for pi, one series for ln 2 and one for ln(pi/2).
    assert len(calls) == 4
    # ln pi at 50 working digits left pi and ln 2 at 50 in the memo too.
    for name in CONSTANT_NAMES:
        constant(name, 40)
    assert len(calls) == 4
    constant("pi", 41)
    assert len(calls) == 6


def test_ln_fraction_sums_ln2_once_per_precision(monkeypatch):
    _series_constant.cache_clear()
    calls = []
    ln2 = arith._ln2
    monkeypatch.setattr(arith, "_ln2", lambda: calls.append(1) or ln2())
    with precision(40):
        for num, den in [(7, 3), (1, 9), (22, 7), (5, 1), (3, 1)]:
            ln_fraction(num, den)
    assert len(calls) == 1
    with precision(41):
        ln_fraction(7, 3)
    assert len(calls) == 2


# -- the odd-power series ----------------------------------------------------

def test_half_log_ratio_at_three_gives_half_ln2():
    x = half_log_ratio(hp("3"))
    assert abs(x.value - LN2 / 2) <= x.err + Decimal("1e-28")
    assert x.err < Decimal("1e-29")


def test_half_log_ratio_at_five():
    x = half_log_ratio(hp("5"))
    assert abs(x.value - HALF_LN_3_2) <= x.err + Decimal("1e-19")
    assert x.round_decimal(10) == Decimal("0.2027325541")


def test_half_log_ratio_domain():
    with pytest.raises(ValueError):
        half_log_ratio(hp("1"))
    with pytest.raises(ValueError):
        half_log_ratio(hp("0.5"))
    with pytest.raises(ValueError):
        half_log_ratio(hp("1.5", "0.5"))


SERIES_ARGS = [2, 3, 5, 10, 239]


@pytest.mark.parametrize("a", SERIES_ARGS)
@pytest.mark.parametrize("digits", [15, 30, 50])
def test_half_log_ratio_tail_dominates_refinement(a, digits):
    with precision(digits):
        coarse = half_log_ratio(hp(a))
    with precision(2 * digits):
        fine = half_log_ratio(hp(a))
    assert abs(coarse.value - fine.value) <= coarse.err
    # Rounding adds up over the terms: at most a thousand units of the last place.
    assert coarse.err < Decimal(10) ** (3 - digits)


@pytest.mark.parametrize("a", SERIES_ARGS)
@pytest.mark.parametrize("digits", [15, 50, 200])
def test_odd_power_series_contains_mpmath(a, digits):
    mp.mp.dps = digits + 30
    refs = [(False, mp.atanh(mp.mpf(1) / a)), (True, mp.atan(mp.mpf(1) / a))]
    with precision(digits):
        for alternating, ref in refs:
            x = _odd_power_series(hp(a), alternating=alternating)
            ref = Decimal(mp.nstr(ref, digits + 25))
            assert abs(x.value - ref) <= x.err + Decimal(10) ** -(digits + 20), alternating
            assert x.err < Decimal(10) ** (3 - digits)


def test_ln_fraction():
    mp.mp.dps = 60
    for num, den in [(2, 1), (3, 2), (355, 113), (1, 7), (10, 1)]:
        x = ln_fraction(num, den)
        ref = Decimal(mp.nstr(mp.log(mp.mpf(num) / den), 55))
        assert abs(x.value - ref) < Decimal("1e-45"), (num, den)


# -- error propagation -------------------------------------------------------

def test_division_requires_separated_divisor():
    with pytest.raises(ZeroDivisionError):
        hp("1") / hp("0.001", "0.01")
    with pytest.raises(ZeroDivisionError):
        hp("1") / hp("0")


def test_err_is_nonnegative():
    with pytest.raises(ValueError):
        HighPrecReal(Decimal(1), Decimal(-1))


def test_pow_int():
    x = hp("1.1")
    assert abs(x.pow_int(10).value - Decimal("2.5937424601")) < Decimal("1e-40")
    assert x.pow_int(0).value == 1
    with pytest.raises(ValueError):
        x.pow_int(-1)


@st.composite
def programs(draw):
    leaves = draw(st.lists(
        st.fractions(min_value=-50, max_value=50, max_denominator=97),
        min_size=4, max_size=8))
    ops = draw(st.lists(st.sampled_from("+-*/"), min_size=2, max_size=12))
    return [leaves, ops]


@given(programs())
@settings(max_examples=80, deadline=None)
def test_error_bounds_sound_across_precisions(prog):
    """Evaluating the same tree at 2x digits stays inside the tracked bound."""
    with precision(30):
        lo = _eval_program(prog)
    with precision(60):
        hi = _eval_program(prog)
    assert (lo.value - hi.value).copy_abs() <= lo.err


# -- formatting --------------------------------------------------------------

def test_format_euler_comma_style():
    x = hp("0.33498164", "1e-9")
    assert format_decimal(x, 7, "euler-comma") == "0,3349816"


def test_format_period_examples():
    assert format_decimal(hp("1.0"), 3) == "1.000"
    # The half-away rule on the worked chain value.
    assert format_decimal(hp("0.70442470762394486359", "1e-12"), 6) == "0.704425"


def test_format_refuses_uncertified():
    x = hp("0.5", "0.01")
    with pytest.raises(UncertifiedError):
        format_decimal(x, 7)
    assert format_decimal(x, 1) == "0.5"


def test_format_negative_zero_normalized():
    assert format_decimal(hp("-0.0000001", "1e-12"), 3) == "0.000"


def test_format_rejects_bad_style():
    with pytest.raises(ValueError):
        format_decimal(hp("1"), 3, "comma")


@given(st.fractions(min_value=-10, max_value=10, max_denominator=999),
       st.integers(min_value=0, max_value=15))
@settings(max_examples=80, deadline=None)
def test_format_parse_roundtrip(frac, d):
    x = HighPrecReal.from_fraction(frac)
    back = parse_decimal(format_decimal(x, d))
    assert (back.value - x.value).copy_abs() <= Decimal("0.5").scaleb(-d) + x.err


@given(st.decimals(min_value=-10, max_value=10, places=12),
       st.integers(min_value=0, max_value=10),
       st.fractions(min_value=0, max_value=2, max_denominator=1000))
@example(Decimal("0.123450001"), 4, Fraction(1, 5000))
@settings(max_examples=200, deadline=None)
def test_certified_rounding_is_faithful(value, d, err_scale):
    """Once certified, the d-place rounding is within one unit of every point.

    The distance to the rounded value is largest at an end of the interval.
    """
    err = Decimal(err_scale.numerator) / err_scale.denominator * Decimal("0.5").scaleb(-d)
    x = HighPrecReal(value, err)
    if not x.certifies(d):
        return
    rounded = x.round_decimal(d)
    for end in (value - err, value + err):
        assert (rounded - end).copy_abs() < Decimal(1).scaleb(-d)


def test_parse_rejects_garbage():
    for bad in ("1,5", "1e5", "abc", ""):
        with pytest.raises(ValueError):
            parse_decimal(bad)
