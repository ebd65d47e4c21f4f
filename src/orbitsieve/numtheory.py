"""Arbitrary-precision integer and elementary number theory primitives.

Everything here is deterministic: the Miller-Rabin witness schedule is fixed,
Pollard-Brent rho runs a fixed parameter sequence under a step budget, and no
global state is consulted. All functions operate on Python's native big ints.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from itertools import compress, cycle
from typing import Iterable, Iterator, Optional

__all__ = [
    "FactorizationBudgetError",
    "Factorization",
    "is_prime",
    "primality_confidence",
    "next_prime",
    "good_primes",
    "prime_set",
    "valuation",
    "factorial_valuation",
    "FactorialDepthRow",
    "degree_one_demo",
    "mobius",
    "factorize",
    "DEFAULT_RHO_STEPS",
    "DEFAULT_TRIAL_BOUND",
]

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# (B, k): B is the least strong pseudoprime to each of the first k primes, so
# Miller-Rabin with those k witnesses is exact for every n < B. Rows from
# Jaeschke, Math. Comp. 61 (1993), and Sorenson-Webster, Math. Comp. 86
# (2017); a k with no row of its own shares the B of the next smaller k
# (k = 8 that of 7; k = 10 and 11 that of 9).
_MR_WITNESS_BOUNDS = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)
# Below this bound is_prime is deterministic; from it on it is probabilistic.
_MR_DETERMINISTIC_BOUND = _MR_WITNESS_BOUNDS[-1][0]
_MR_EXTRA_ROUNDS = 40

_SMALL_SIEVE_LIMIT = 10_000

DEFAULT_RHO_STEPS = 500_000
DEFAULT_TRIAL_BOUND = 10 ** 6


def _sieve_small_primes() -> tuple[int, ...]:
    # odd numbers only: flags[j] stands for 2j + 1, and p * p for odd p has
    # index p * p // 2, from which its odd multiples are p indices apart
    flags = bytearray([1]) * (_SMALL_SIEVE_LIMIT // 2)
    flags[0] = 0
    for j in range(1, (math.isqrt(_SMALL_SIEVE_LIMIT) + 1) // 2):
        if flags[j]:
            p = 2 * j + 1
            flags[p * p // 2 :: p] = bytes(len(flags[p * p // 2 :: p]))
    return (2, *compress(range(1, _SMALL_SIEVE_LIMIT, 2), flags))


# The primes below 10^4, sieved once per process: is_prime looks every n <
# 10^4 up in the set, and factorize takes one gcd with their product.
_SIEVED_PRIMES = _sieve_small_primes()
_SIEVED_PRIME_SET = frozenset(_SIEVED_PRIMES)
_SIEVED_PRODUCT = math.prod(_SIEVED_PRIMES)


class FactorizationBudgetError(RuntimeError):
    """Factoring budget ran out; carries the unfactored composite cofactor."""

    def __init__(self, cofactor: int, partial: Iterable[tuple[int, int]]):
        self.cofactor = cofactor
        self.partial = tuple(partial)
        super().__init__(
            "factorization budget exhausted with composite cofactor of "
            f"{cofactor.bit_length()} bits"
        )


def _miller_rabin_round(n: int, a: int, d: int, s: int) -> bool:
    """One MR round; True means 'n passes for witness a'."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality test, deterministic below ~3.3e24.

    n < 10^4 (negative n included) is looked up in the set of primes below
    10^4 that the module sieves once, the table factorize divides by. Larger
    n are divided by the first 13 primes and then tested by Miller-Rabin
    with the first k of them as witnesses, k from the first row of
    _MR_WITNESS_BOUNDS whose bound exceeds n: 2 witnesses below 1,373,653,
    ..., 13 below ~3.3e24. From ~3.3e24 on all 13 run and the answer is
    probabilistic (40 extra rounds with bases drawn from a PRNG seeded by n,
    so repeated calls agree); see primality_confidence().
    """
    if n < _SMALL_SIEVE_LIMIT:
        return n in _SIEVED_PRIME_SET
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # past the last bound the loop ends on its last row, k = 13
    for bound, k in _MR_WITNESS_BOUNDS:
        if n < bound:
            break
    for a in _MR_WITNESSES[:k]:
        if not _miller_rabin_round(n, a, d, s):
            return False
    if n < _MR_DETERMINISTIC_BOUND:
        return True
    rng = random.Random(n)
    for _ in range(_MR_EXTRA_ROUNDS):
        a = rng.randrange(2, n - 1)
        if not _miller_rabin_round(n, a, d, s):
            return False
    return True


def primality_confidence(n: int) -> str:
    """'deterministic' or 'probabilistic' for what is_prime(n) reports."""
    return "deterministic" if n < _MR_DETERMINISTIC_BOUND else "probabilistic"


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    c = max(n + 1, 2)
    if c > 2 and c % 2 == 0:
        c += 1
    while not is_prime(c):
        c += 1 if c == 2 else 2
    return c


def good_primes() -> Iterator[int]:
    """Yield the primes in increasing order, without end."""
    p = 0
    while True:
        p = next_prime(p)
        yield p


def prime_set(entries: Iterable[int]) -> frozenset[int]:
    """A list of primes to exclude, as a frozenset; raises ValueError
    naming an entry that is not prime."""
    primes = frozenset(entries)
    for q in primes:
        if not is_prime(q):
            raise ValueError(f"excluded entry {q} is not prime")
    return primes


def valuation(n: int, p: int) -> int:
    """Exact power of the prime p dividing n (n must be nonzero).

    O(log v) divisions for valuation v, not v: the powers p^(2^i) are
    tried while they divide n, so that 2^(m-1) <= v < 2^m when m of them
    do, and the binary digits of v are then read off from the highest down,
    dividing n by p^(2^i) wherever it still divides.
    """
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    n = abs(n)
    squares = []
    q = p
    while n % q == 0:
        squares.append(q)
        q *= q
    v = 0
    for i in reversed(range(len(squares))):
        quotient, rest = divmod(n, squares[i])
        if rest == 0:
            n = quotient
            v += 1 << i
    return v


def factorial_valuation(n: int, p: int) -> int:
    """v_p(n!) by Legendre's sum of floor(n / p^i); n! is never formed."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


class FactorialDepthRow(namedtuple("FactorialDepthRow", "p k minimal_n")):
    """Least n with p^k dividing n!, found by stepping through multiples of p."""

    __slots__ = ()


def degree_one_demo(max_prime: int = 5, max_depth: int = 3) -> list[FactorialDepthRow]:
    """Rows (p, k, least n with v_p(n!) >= k) for p <= max_prime, k <= max_depth.

    This is the arithmetic heart of why the translation map z + 1 starting
    at 1 with target 0 can never get an empty modular certificate: past row
    (p, k), every index of the form n! - 1 is a hit mod p^k (the orbit value
    n! is divisible by p^k), so the hit sets all stay nonempty while the
    exact orbit 2, 3, 4, ... never reaches 0.
    """
    rows = []
    p = 2
    while p <= max_prime:
        for k in range(1, max_depth + 1):
            n = p
            while factorial_valuation(n, p) < k:
                n += p
            rows.append(FactorialDepthRow(p, k, n))
        p = next_prime(p)
    return rows


def mobius(n: int) -> int:
    """Moebius function: 0 on squareful n, else (-1)^(number of prime factors)."""
    if n < 1:
        raise ValueError("mobius is defined for positive integers")
    fac = factorize(n)
    for _, e in fac.factors:
        if e > 1:
            return 0
    return -1 if len(fac.factors) % 2 else 1


class Factorization(namedtuple("Factorization", "value factors")):
    """A verified factorization: value == product of p^e over factors.

    `factors` is a tuple of (prime, exponent) pairs with strictly increasing
    primes and positive exponents. A named tuple whose constructor checks
    all of that (ValueError), so a pickled or copied one is checked again.
    """

    __slots__ = ()

    def __new__(cls, value: int, factors: tuple[tuple[int, int], ...]) -> "Factorization":
        prod = 1
        last = 1
        for p, e in factors:
            if p <= last or e < 1:
                raise ValueError("factors must be increasing primes with e >= 1")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            last = p
            prod *= p ** e
        if prod != value:
            raise ValueError("factors do not multiply back to value")
        return tuple.__new__(cls, (value, factors))

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def divisors(self) -> list[int]:
        """All positive divisors, sorted increasing."""
        divs = [1]
        for p, e in self.factors:
            divs = [d * p ** i for d in divs for i in range(e + 1)]
        return sorted(divs)


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0, exact integer bisection."""
    if n < 2 or k == 1:
        return n
    lo, hi = 1, 1 << (n.bit_length() // k + 1)
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid
    return lo


def _perfect_power(n: int) -> Optional[tuple[int, int]]:
    """(base, least exponent >= 2) if n is a perfect power, else None.

    n must have no prime factor below 10^4, so a base exceeds 2^13 and an
    exponent e has 13e < bits. Only prime e are tried: r^(ab) with a prime
    is also (r^b)^a, so the least exponent that works is prime.
    """
    e = 2
    while 13 * e < n.bit_length():
        r = math.isqrt(n) if e == 2 else _iroot(n, e)
        if r ** e == n:
            return r, e
        e = next_prime(e)
    return None


def _pollard_brent(n: int, budget: int) -> tuple[Optional[int], int]:
    """Brent-cycle rho with a fixed (c, m) schedule, on an odd composite n.

    Returns (nontrivial factor or None, steps consumed). Deterministic: the
    polynomial constant c walks 1, 2, 3, ... and the starting value is 2.
    factorize passes only odd composites: its trial division removes 2 from
    every cofactor, and the factors it splits off odd numbers are odd.

    A step is y = y * y % n + c: c is added to the reduced square, not to
    the square twice its size, so y lies in [c, n + c) with the residue of
    y^2 + c mod n, and every use of y is taken mod n. The product q of the
    differences x - y is reduced once per four steps, so it is reduced at
    every gcd; each gcd, factor and step count is that of the walk reduced
    at every step.
    """
    steps = 0
    m = 128
    for c in range(1, 10_000):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r >> 2):
                y = y * y % n + c
                y = y * y % n + c
                y = y * y % n + c
                y = y * y % n + c
            for _ in range(r & 3):
                y = y * y % n + c
            k = 0
            while k < r and g == 1:
                ys = y
                chunk = min(m, r - k)
                for _ in range(chunk >> 2):
                    y = y * y % n + c
                    q *= x - y
                    y = y * y % n + c
                    q *= x - y
                    y = y * y % n + c
                    q *= x - y
                    y = y * y % n + c
                    q = q * (x - y) % n
                for _ in range(chunk & 3):
                    y = y * y % n + c
                    q = q * (x - y) % n
                k += chunk
                steps += chunk
                g = math.gcd(q, n)
                if steps >= budget and g == 1:
                    return None, steps
            r <<= 1
        if g == n:
            # backtrack one step at a time to recover the factor
            g = 1
            while g == 1:
                ys = ys * ys % n + c
                steps += 1
                g = math.gcd(x - ys, n)
                if steps >= budget and g == 1:
                    return None, steps
        if 1 < g < n:
            return g, steps
        if steps >= budget:
            return None, steps
        # g == n even after backtracking: retry with the next constant
    return None, steps


# The residues mod 30 prime to 30, and the gap from each to the next.
_WHEEL_RESIDUES = (1, 7, 11, 13, 17, 19, 23, 29)
_WHEEL_GAPS = (6, 4, 2, 4, 2, 4, 6, 2)


def _trial_range(n: int, lo: int, hi: int) -> tuple[int, dict[int, int]]:
    """Divide out all prime factors of n lying in (lo, hi] by trial division
    over a mod-30 wheel, returning the cofactor and the factors found.

    Precondition: lo >= 5 and n has no prime factor <= 5, so skipping the
    multiples of 2, 3 and 5 drops no factor. Every d found is prime when n
    has no prime factor <= lo either, as in factorize, which sweeps from
    lo = 10^4 after removing every prime below it. The sweep stops once
    d > min(hi, isqrt(n)).
    """
    found: dict[int, int] = {}
    d = lo + 1
    while math.gcd(d, 30) != 1:
        d += 1
    i = _WHEEL_RESIDUES.index(d % 30)
    limit = min(hi, math.isqrt(n))
    for gap in cycle(_WHEEL_GAPS[i:] + _WHEEL_GAPS[:i]):
        if d > limit:
            break
        if n % d == 0:
            while n % d == 0:
                found[d] = found.get(d, 0) + 1
                n //= d
            limit = min(hi, math.isqrt(n))
        d += gap
    return n, found


def factorize(
    n: int,
    trial_bound: int = DEFAULT_TRIAL_BOUND,
    rho_steps: int = DEFAULT_RHO_STEPS,
) -> Factorization:
    """Fully factor a positive integer, deterministically.

    Strategy: one gcd with the product of the sieved primes below 10^4
    names those dividing n, and only they are divided out; then
    Pollard-Brent rho under `rho_steps` total budget (perfect powers peeled
    first), then a last-resort trial sweep from 10^4 up to `trial_bound`.
    The sweep steps over a mod-30 wheel, skipping the multiples of 2, 3 and
    5; that is exact because the first stage has already removed every
    prime below 10^4. Inputs whose prime factors all lie below
    `trial_bound` always succeed. Raises FactorizationBudgetError carrying
    the composite cofactor otherwise.

    Every cofactor on the stack is at least 2 and has no prime factor below
    10^4, as _perfect_power and _pollard_brent (odd n) require: the first is
    what the gcd stage leaves, the rest divide it (perfect-power bases, and
    rho's split of v into 1 < g < v and v / g). n = 1 factors as ().
    Each prime is proven once, by the sieve or is_prime, so the result is
    built unchecked by tuple.__new__; the checking constructor of
    Factorization serves values from outside, as in tests and pickles.
    """
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    found: dict[int, int] = {}
    m = n
    g = math.gcd(n, _SIEVED_PRODUCT)  # squarefree: the scan leaves 1 or a prime
    for p in _SIEVED_PRIMES:
        if p * p > g:
            break
        if g % p == 0:
            g //= p
            found[p] = 0
    if g > 1:
        found[g] = 0
    for p in found:
        while m % p == 0:
            found[p] += 1
            m //= p
    budget = rho_steps
    stack = [m] if m > 1 else []
    stuck: list[int] = []
    while stack:
        v = stack.pop()
        if is_prime(v):
            found[v] = found.get(v, 0) + 1
            continue
        power = _perfect_power(v)
        if power is not None:
            base, exp = power
            stack.extend([base] * exp)
            continue
        g, used = _pollard_brent(v, budget)
        budget -= used
        if g is None:
            leftover, extra = _trial_range(v, _SMALL_SIEVE_LIMIT, trial_bound)
            for p, e in extra.items():
                found[p] = found.get(p, 0) + e
            if leftover == 1:
                continue
            if is_prime(leftover):
                found[leftover] = found.get(leftover, 0) + 1
                continue
            stuck.append(leftover)
        else:
            stack.append(g)
            stack.append(v // g)
    if stuck:
        cofactor = math.prod(stuck)
        raise FactorizationBudgetError(
            cofactor, tuple(sorted(found.items()))
        )
    return tuple.__new__(Factorization, (n, tuple(sorted(found.items()))))
