import math
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import pytest

from charprime.arith import HighPrecReal
from charprime.beta import BetaValue, beta_closed, beta_direct, euler_numbers, secant_tangent

from goldens import BETA, EULER_NUMBERS_9


def test_euler_numbers_table():
    assert euler_numbers(9) == EULER_NUMBERS_9
    assert euler_numbers(1) == [1]
    assert euler_numbers(3) == [1, 1, 5]


def test_euler_numbers_recurrence_is_exact():
    count = 14
    values = euler_numbers(count)
    signed = [v if m % 2 == 0 else -v for m, v in enumerate(values)]
    for m in range(1, count):
        assert sum(math.comb(2 * m, 2 * k) * signed[k] for k in range(m + 1)) == 0


def test_tangent_numbers_give_bernoulli_numbers():
    rows = secant_tangent(40)
    assert [t for _, t in rows[:8]] == [0, 1, 2, 16, 272, 7936, 353792, 22368256]
    for m in range(1, 40):
        # |B_2m| = 2m T_m / (4^m (4^m - 1)).
        b = Fraction(*mp.bernfrac(2 * m))
        assert Fraction(2 * m * rows[m][1], 4 ** m * (4 ** m - 1)) == abs(b), m


def test_secant_tangent_table_grows_without_changing_rows():
    short = secant_tangent(3)
    longer = secant_tangent(len(short) + 1)
    assert len(longer) >= 2 * len(short)
    assert longer[:len(short)] == short
    assert secant_tangent(1) is longer


def test_euler_numbers_rejects_bad_count():
    with pytest.raises(ValueError):
        euler_numbers(0)


@pytest.mark.parametrize("n", sorted(BETA))
def test_beta_closed_against_frozen(n):
    bv = beta_closed(n, 35)
    assert bv.value.err < Decimal("1e-35")
    assert abs(bv.value.value - BETA[n]) <= bv.value.err + Decimal("2e-29")


def test_beta_closed_against_hurwitz_oracle():
    mp.mp.dps = 50
    for n in range(1, 19, 2):
        ref = mp.power(4, -n) * (mp.zeta(n, mp.mpf(1) / 4) - mp.zeta(n, mp.mpf(3) / 4)) \
            if n > 1 else mp.pi / 4
        bv = beta_closed(n, 40)
        assert abs(bv.value.value - Decimal(mp.nstr(+ref, 45))) < Decimal("1e-39"), n


def test_beta_closed_seven_place_prints():
    # Rounded to the seven places used by the source table.
    assert beta_closed(3, 20).value.round_decimal(7) == Decimal("0.9689461")
    assert beta_closed(5, 20).value.round_decimal(7) == Decimal("0.9961578")
    assert beta_closed(1, 20).value.round_decimal(10) == Decimal("0.7853981634")


def test_beta_closed_rejects_even():
    with pytest.raises(ValueError):
        beta_closed(2)
    with pytest.raises(ValueError):
        beta_closed(-3)


def test_beta_direct_examples():
    three = beta_direct(9, 3)
    expected = HighPrecReal.from_fraction(
        Fraction(1) - Fraction(1, 3 ** 9) + Fraction(1, 5 ** 9))
    assert abs(three.value.value - expected.value) < Decimal("1e-45")
    assert three.value.err >= Decimal(1) / Decimal(7 ** 9)
    assert three.value.err < Decimal("3e-8")


def test_beta_direct_rejects_n1_and_bad_terms():
    with pytest.raises(ValueError):
        beta_direct(1, 100)
    with pytest.raises(ValueError):
        beta_direct(3, 0)


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 15, 17])
def test_beta_direct_agrees_with_closed(n):
    closed = beta_closed(n, 40)
    direct = beta_direct(n, 60)
    gap = abs(direct.value.value - closed.value.value)
    assert gap <= direct.value.err + closed.value.err


def test_beta_values_increase_toward_one():
    values = [beta_closed(n, 30) for n in range(3, 19, 2)]
    for a, b in zip(values, values[1:]):
        assert a.value.value < b.value.value < 1
    for bv in values:
        assert Decimal("0.9") < bv.value.value
        # 1 - beta(n) < (4/3) 3^-n
        assert 1 - bv.value.value < Decimal(4) / (3 * Decimal(3) ** bv.n)


def test_beta_differences_match_prints():
    values = [beta_closed(n, 20) for n in (3, 5, 7, 9, 11, 13, 15)]
    diffs = [b.value - a.value for a, b in zip(values, values[1:])]
    assert [d.round_decimal(7) for d in diffs] == [
        Decimal("0.0272117"), Decimal("0.0033967"), Decimal("0.0003952"),
        Decimal("0.0000447"), Decimal("0.0000050"), Decimal("0.0000006")]
    assert abs(diffs[0].value - Decimal("0.0272116818")) < Decimal("1e-9")


def test_beta_value_type():
    bv = beta_closed(3, 20)
    assert isinstance(bv, BetaValue)
    assert bv.n == 3
