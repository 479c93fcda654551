from decimal import Decimal
from fractions import Fraction

import pytest

from charprime.arith import precision
from charprime.beta import beta_closed
from charprime.exclusion import (_odd_power_tail, composite_tail_bound,
                                 init_state, run, sieved_tail_oracle, step,
                                 step_closed_form)
from charprime.primes import chi4, nth_odd_prime, odd_primes

from goldens import (BETA, ORACLE_N3_K4_M169, P_AT_DEPTH4, Q_AT_DEPTH2,
                     R_AT_DEPTH1, S13_CHAIN, S23_CHAIN_N3, S24_CHAIN_N5,
                     S25_CHAIN_N7, W_TRUE)


def advance(state, steps, stepper=step):
    for _ in range(steps):
        state = stepper(state)
    return state


def test_init_state():
    for n in (1, 3, 7):
        st = init_state(n)
        assert st.k == 0
        assert st.s.value == 1
        assert abs(st.V.value - BETA[n]) < Decimal("1e-28")


def test_first_power_chain_matches_frozen():
    st = init_state(1)
    for letter in "BCDEFGHIK":
        st = step(st)
        assert abs(st.V.value - S13_CHAIN[letter]) < Decimal("1e-19"), letter
    # The lowercase partial sum after nine primes.
    assert abs(st.s.value - Decimal("0.70701995803903054612")) < Decimal("1e-19")


def test_first_power_six_place_prints():
    # Rounded to the table's six places; the I row shows the misprint.
    st = init_state(1)
    seen = {}
    for letter in "BCDEFGHIK":
        st = step(st)
        seen[letter] = st.V.round_decimal(6)
    assert seen["B"] == Decimal("0.713864")
    assert seen["I"] == Decimal("0.669245")   # printed as 0.699245
    assert seen["K"] == Decimal("0.669359")


def test_misprinted_row_cannot_reach_the_next_one():
    # Stepping from the printed 0.699245 would give 0.698324, not 0.669358:
    # the next printed value only follows from the corrected row.
    i_bad = Decimal("0.699245")
    i_partial = Decimal("0.6725371994")
    k_from_bad = i_bad - (i_bad - i_partial) / 29
    assert abs(k_from_bad - Decimal("0.698324")) < Decimal("1e-6")


def test_third_power_chain():
    st = init_state(3)
    for expected in S23_CHAIN_N3:
        st = step(st)
        assert abs(st.V.value - expected) < Decimal("1e-19")


def test_fifth_and_seventh_power_chains():
    st = init_state(5)
    for expected in S24_CHAIN_N5:
        st = step(st)
        assert abs(st.V.value - expected) < Decimal("1e-19")
    st = init_state(7)
    for expected in S25_CHAIN_N7:
        st = step(st)
        assert abs(st.V.value - expected) < Decimal("1e-19")


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_step_and_closed_form_agree(n):
    a = init_state(n)
    b = init_state(n)
    for _ in range(10):
        a = step(a)
        b = step_closed_form(b)
        gap = (a.V - b.V).value.copy_abs()
        assert gap <= 10 * (a.V.err + b.V.err)


def test_step_changes_bounded_by_next_term():
    st = init_state(3)
    for _ in range(8):
        nxt = step(st)
        p = nth_odd_prime(nxt.k)
        bound = (st.V - st.s) / p ** 3
        change = (nxt.V - st.V).value.copy_abs()
        allowance = bound.err + st.V.err + st.s.err + nxt.V.err
        assert change <= bound.value.copy_abs() + allowance
        st = nxt


def test_partial_sum_is_directly_recomputable():
    from charprime.arith import HighPrecReal
    st = advance(init_state(3), 7)
    acc = Fraction(1)
    for p in odd_primes(7):
        acc += Fraction(chi4(p), p ** 3)
    exact = HighPrecReal.from_fraction(acc)
    assert (st.s - exact).value.copy_abs() < Decimal("1e-40")


def test_run_at_source_depths():
    assert abs(run(3, 4).value.value - P_AT_DEPTH4) < Decimal("1e-19")
    assert abs(run(5, 2).value.value - Q_AT_DEPTH2) < Decimal("1e-19")
    assert abs(run(7, 1).value.value - R_AT_DEPTH1) < Decimal("1e-19")
    assert run(3, 4).value.round_decimal(7) == Decimal("0.0322522")
    assert run(5, 2).value.round_decimal(7) == Decimal("0.0038581")
    assert run(7, 1).value.round_decimal(7) == Decimal("0.0004457")


def test_run_bound_covers_true_value():
    for n in (3, 5, 7, 9):
        for depth in (1, 3, 6):
            res = run(n, depth)
            assert res.rigorous
            assert abs(res.value.value - W_TRUE[n]) <= res.value.err, (n, depth)


def test_run_rejects_bad_depth():
    with pytest.raises(ValueError):
        run(3, 0)
    with pytest.raises(ValueError):
        run(1, 9)


def test_composite_tail_bound_covers_limit_distance():
    z3 = 1 - W_TRUE[3]
    st = init_state(3)
    for k in range(1, 7):
        st = step(st)
        assert (st.V.value - z3).copy_abs() <= composite_tail_bound(3, k) + st.V.err
    assert composite_tail_bound(3, 3) < composite_tail_bound(3, 1)
    with pytest.raises(ValueError):
        composite_tail_bound(1, 4)


def test_sieved_tail_oracle_full_series():
    # With no primes excluded the sieved tail is the whole series minus 1.
    tail = sieved_tail_oracle(3, 0, 30001)
    target = beta_closed(3, 30).value - 1
    assert abs(tail.value - target.value) <= tail.err + target.err
    assert abs(tail.value - Decimal("-0.0310538537")) < Decimal("1e-8")


def test_sieved_tail_oracle_spot_value():
    tail = sieved_tail_oracle(3, 4, 169)
    assert abs(tail.value - ORACLE_N3_K4_M169) < Decimal("1e-18")
    # First surviving denominator is 13^3.
    assert abs(tail.value - Decimal(1) / 13 ** 3) < Decimal("1e-5")


def test_sieved_tail_oracle_empty():
    tail = sieved_tail_oracle(3, 25, 99)
    assert tail.value == 0
    assert tail.err > 0


def test_sieved_tail_oracle_rejects_n1():
    with pytest.raises(ValueError):
        sieved_tail_oracle(1, 2, 1000)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_state_invariant_matches_oracle(n):
    st = init_state(n)
    for _ in range(6):
        st = step(st)
        tail = sieved_tail_oracle(n, st.k, 4001)
        diff = (st.V - st.s - tail).value.copy_abs()
        assert diff <= st.V.err + st.s.err + tail.err, (n, st.k)


@pytest.mark.parametrize("digits", [15, 50])
@pytest.mark.parametrize("k", [0, 2, 6])
@pytest.mark.parametrize("n", [3, 5, 7])
def test_sieved_tail_oracle_contains_exact_sum(n, k, digits):
    limit = 2001
    small = odd_primes(k)
    exact = sum(Fraction(chi4(m), m ** n) for m in range(3, limit + 1, 2)
                if all(m % p for p in small))
    with precision(digits):
        tail = sieved_tail_oracle(n, k, limit)
    # Without the tail beyond the limit, the bound still covers the finite sum.
    arithmetic = tail.err - _odd_power_tail(limit + 2, n)
    assert abs(Fraction(tail.value) - exact) <= Fraction(arithmetic)


def test_runs_are_deterministic_and_independent():
    with precision(40):
        first = run(3, 6).value.value
    with precision(40):
        second = run(3, 6).value.value
    assert first == second
