import pytest

from charprime import primes
from charprime.primes import chi4, nth_odd_prime, odd_primes


def trial_division_primes(limit):
    out = []
    for m in range(3, limit + 1, 2):
        d = 3
        while d * d <= m:
            if m % d == 0:
                break
            d += 2
        else:
            out.append(m)
    return out


def test_sieve_small():
    got = odd_primes(10)
    assert got == (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    assert [chi4(p) for p in got] == [-1, 1, -1, -1, 1, 1, -1, -1, 1, -1]


def test_sieve_edges():
    assert odd_primes(0) == ()
    assert odd_primes(1) == (3,)
    with pytest.raises(ValueError):
        odd_primes(-1)


def test_sieve_matches_trial_division():
    expected = trial_division_primes(100_000)
    assert list(odd_primes(len(expected))) == expected
    assert nth_odd_prime(len(expected) + 1) > 100_000


def test_odd_prime_count_to_1e4():
    assert nth_odd_prime(1228) < 10_000 < nth_odd_prime(1229)


def test_odd_primes_growing_cache():
    got = odd_primes(1500)
    assert len(got) == 1500
    assert got[0] == 3
    assert nth_odd_prime(1) == 3
    assert nth_odd_prime(10) == 31
    with pytest.raises(ValueError):
        nth_odd_prime(0)


def test_nth_matches_slice_across_growth(monkeypatch):
    # From an empty table the first sieve (to 1000) holds 167 primes; the
    # range below crosses that end and the next three.
    monkeypatch.setattr(primes, "_odd_primes", ())
    sizes = set()
    for i in range(160, 1240):
        assert nth_odd_prime(i) == odd_primes(i)[-1]
        sizes.add(len(primes._odd_primes))
    assert min(sizes) == 167
    assert len(sizes) >= 4


def test_table_never_shrinks():
    big = nth_odd_prime(5000)
    assert len(odd_primes(10)) == 10
    assert len(primes._odd_primes) >= 5000
    assert nth_odd_prime(5000) == big


def test_results_are_ints():
    assert type(nth_odd_prime(7)) is int
    assert all(type(p) is int for p in odd_primes(300))


def test_chi4_values():
    assert chi4(1) == 1
    assert chi4(9) == 1
    assert chi4(25) == 1
    assert chi4(3) == -1
    assert chi4(7) == -1
    with pytest.raises(ValueError):
        chi4(4)


def test_residue_consistency():
    for p in odd_primes(100):
        assert chi4(p) == (1 if p % 4 == 1 else -1)


def test_chi4_completely_multiplicative_exhaustive():
    bound = 10_000
    for m in range(1, bound + 1, 2):
        for n in range(1, bound // m + 1, 2):
            assert chi4(m * n) == chi4(m) * chi4(n)
