"""W(n) by the L-value inversion, checked against an mpmath oracle.

The oracle repeats the Moebius inversion of the Euler product with mpmath's
own L-values, ``mp.dirichlet(s, chi4)`` and ``(1 - 2^-s) zeta(s)``, at
digits + 20 places.  It splits off the primes below 100 where the route
splits off those below 60, so it shares neither the route's arithmetic,
its closed forms, nor its split.
"""

from decimal import Decimal
from functools import cache

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from charprime.logmethod import _w_reach, w_inversion, w_value
from charprime.primes import chi4, odd_primes

_ORACLE_M = 100


def _mobius(k):
    mu, d = 1, 2
    while d * d <= k:
        if k % d == 0:
            k //= d
            if k % d == 0:
                return 0
            mu = -mu
        d += 1
    return -mu if k > 1 else mu


@cache
def _oracle(n, digits):
    small = [p for p in odd_primes(_ORACLE_M // 2) if p < _ORACLE_M]
    with mp.workdps(digits + 20):
        total = -mp.fsum(mp.mpf(chi4(p)) / mp.mpf(p) ** n for p in small)
        k = 1
        # Omitted terms are below (M + 1)^-kn each, and fall geometrically.
        while mp.mpf(_ORACLE_M + 1) ** (-k * n) > mp.mpf(10) ** (-digits - 20):
            mu, s = _mobius(k), k * n
            if mu:
                if s % 2:
                    L = mp.dirichlet(s, [0, 1, 0, -1])
                    L *= mp.fprod(1 - mp.mpf(chi4(p)) / mp.mpf(p) ** s for p in small)
                else:
                    L = (1 - mp.mpf(2) ** -s) * mp.zeta(s)
                    L *= mp.fprod(1 - mp.mpf(p) ** -s for p in small)
                total -= mu * mp.log(L) / k
            k += 1
        return Decimal(mp.nstr(total, digits + 20, strip_zeros=False))


def _contains(value, n, digits):
    # The oracle itself is good to about 10**-(digits + 20).
    slack = Decimal(1).scaleb(-(digits + 15))
    return abs(value.value - _oracle(n, digits)) <= value.err + slack


@pytest.mark.parametrize("n, digits", [(1, 50), (1, 200), (3, 50), (3, 200),
                                       (7, 50), (7, 200), (41, 60)])
def test_inversion_contains_oracle(n, digits):
    # At W(41) to 60 digits no log term is kept, and the bound on the
    # omitted ones is within a factor 2 of the gap it covers.
    sv = w_inversion(n, digits)
    assert sv.rigorous
    assert sv.method == "moebius-inversion"
    assert sv.value.certifies(digits)
    assert _contains(sv.value, n, digits)


def _odd_n_and_digits(j):
    n = 2 * j + 1
    return st.tuples(st.just(n), st.integers(1, _w_reach(n)))


@given(st.integers(1, 20).flatmap(_odd_n_and_digits))
@example((41, 60))
@settings(max_examples=25, deadline=None)
def test_inversion_overlaps_exclusion(case):
    # Odd n in 3..41, digits up to what the exclusion route reaches.
    n, digits = case
    new = w_inversion(n, digits).value
    old = w_value(n, digits).value
    assert abs(new.value - old.value) <= new.err + old.err
    assert _contains(new, n, digits)
    assert _contains(old, n, digits)
