"""Odd primes and the residue character mod 4.

The prime 2 is excluded throughout: every series in this package ranges
over odd numbers only.  Odd primes come from one cached table of plain
ints.  Nothing is sieved at import; the first request sieves to 1000, and
a request past the end of the table replaces it by a longer one, sieved to
twice its last prime, so the table is never changed in place.
"""

from __future__ import annotations

from itertools import compress

_FIRST_LIMIT = 1000

_odd_primes: tuple[int, ...] = ()


def chi4(m: int) -> int:
    """The completely multiplicative character mod 4 on odd integers."""
    if m % 2 == 0:
        raise ValueError(f"chi4 is defined on odd integers only, got {m}")
    return 1 if m % 4 == 1 else -1


def _sieve(limit: int) -> tuple[int, ...]:
    # Odd primes <= limit; flags are read at odd indices only.
    flags = bytearray([1]) * (limit + 1)
    for i in range(3, int(limit ** 0.5) + 1, 2):
        if flags[i]:
            flags[i * i::2 * i] = bytes(len(range(i * i, limit + 1, 2 * i)))
    return tuple(compress(range(3, limit + 1, 2), flags[3::2]))


def _table(count: int) -> tuple[int, ...]:
    """The cached table, grown until it holds at least ``count`` primes."""
    global _odd_primes
    while len(_odd_primes) < count:
        # Bertrand's postulate: each doubling adds at least one prime.
        _odd_primes = _sieve(2 * _odd_primes[-1] if _odd_primes else _FIRST_LIMIT)
    return _odd_primes


def odd_primes(count: int) -> tuple[int, ...]:
    """The first ``count`` odd primes (3, 5, 7, ...)."""
    if count < 0:
        raise ValueError("count must be >= 0")
    return _table(count)[:count]


def nth_odd_prime(index: int) -> int:
    """The index-th odd prime, 1-based (1 -> 3)."""
    if index < 1:
        raise ValueError("index is 1-based")
    return _table(index)[index - 1]
