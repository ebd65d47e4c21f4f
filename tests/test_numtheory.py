"""Tests for the integer arithmetic helpers."""

import hashlib
import itertools
import math
import random

import pytest

from orbitsieve import numtheory
from orbitsieve.numtheory import (
    Factorization,
    FactorizationBudgetError,
    _trial_range,
    factorial_valuation,
    factorize,
    good_primes,
    is_prime,
    mobius,
    next_prime,
    primality_confidence,
    valuation,
)
from orbitsieve.orbit import HitSet


def _trial_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division_below_2000():
    for n in range(2000):
        assert is_prime(n) == _trial_is_prime(n), n


def test_is_prime_matches_trial_division_across_the_small_prime_boundary():
    # below 10^4 is_prime looks n up in the sieved primes; from 10^4
    # on it runs Miller-Rabin, so both sides of the boundary are compared
    for n in range(-5, 2 * 10 ** 4 + 1):
        assert is_prime(n) == _trial_is_prime(n), n


def _sieve(limit):
    flags = [True] * limit
    flags[0] = flags[1] = False
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            for j in range(i * i, limit, i):
                flags[j] = False
    return [i for i in range(limit) if flags[i]]


def test_good_primes_match_a_sieve():
    # the 2,000th prime is 17,389, past the trial-division range
    first = list(itertools.islice(good_primes(), 2000))
    assert first == _sieve(17390)


def test_is_prime_rejects_carmichael_numbers():
    for n in (561, 1105, 1729, 2465, 2821, 6601):
        assert not is_prime(n)


def test_is_prime_large_values():
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 67 - 1)  # 193707721 * 761838257287
    assert is_prime(65537)
    # past the deterministic witness bound, the probabilistic branch runs
    assert is_prime(2 ** 89 - 1)
    assert not is_prime((2 ** 89 - 1) * (2 ** 61 - 1))


_FIRST_13_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _strong_probable_prime(n, a):
    """Whether odd n > a passes the Miller-Rabin round for the base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


# (B, k): B is the least strong pseudoprime to each of the first k primes
# (Jaeschke, Math. Comp. 61 (1993); Sorenson-Webster, Math. Comp. 86
# (2017)), so k witnesses would be exact below B. is_prime runs all 13 for
# every n >= 10^4; the corpus below takes values on both sides of each
# bound, where a smaller witness set stops being exact.
_LEAST_STRONG_PSEUDOPRIMES = (
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


def _thirteen_round_is_prime(n):
    """The primality test with all 13 witnesses for every n >= 10^4, written
    apart from is_prime as its reference. From
    3,317,044,064,679,887,385,961,981 on, 40 rounds with bases drawn from
    a PRNG seeded by n follow, as in is_prime."""
    assert n >= 10 ** 4
    if any(n % p == 0 for p in _FIRST_13_PRIMES):
        return False
    if not all(_strong_probable_prime(n, a) for a in _FIRST_13_PRIMES):
        return False
    if n < numtheory._MR_DETERMINISTIC_BOUND:
        return True
    rng = random.Random(n)
    return all(_strong_probable_prime(n, rng.randrange(2, n - 1)) for _ in range(40))


def test_witness_bounds_are_the_least_strong_pseudoprimes():
    # each bound B passes the Miller-Rabin rounds of its first k primes
    # and is composite, so the first k primes cannot serve up to B itself;
    # the last is is_prime's deterministic bound
    assert _LEAST_STRONG_PSEUDOPRIMES[-1] == (numtheory._MR_DETERMINISTIC_BOUND, 13)
    for bound, k in _LEAST_STRONG_PSEUDOPRIMES:
        witnesses = _FIRST_13_PRIMES[:k]
        assert all(_strong_probable_prime(bound, a) for a in witnesses)
        assert not is_prime(bound), bound


def test_is_prime_agrees_with_thirteen_rounds():
    # 82-bit n reach past the deterministic bound
    rng = random.Random(1901)
    corpus = []
    while len(corpus) < 20000:
        n = rng.getrandbits(rng.randint(14, 82)) | 1
        if n >= 10 ** 4:
            corpus.append(n)
    for bound, _ in _LEAST_STRONG_PSEUDOPRIMES:
        corpus += [bound - 2, bound + 2]
        # products of two primes near sqrt(B), on both sides of B
        root = math.isqrt(bound)
        for offset in (-200, -40, 0, 40):
            p = next_prime(max(root + offset, 2))
            corpus += [p * next_prime(p), p * p]
    # strong pseudoprimes to the base 2 past the table of primes below 10^4
    corpus += [15841, 29341, 42799, 49141, 52633, 65281, 74665, 80581]
    corpus = [n for n in corpus if n >= 10 ** 4]
    assert sum(map(is_prime, corpus)) > 300
    assert sum(n >= numtheory._MR_DETERMINISTIC_BOUND for n in corpus) > 50
    for n in corpus:
        assert is_prime(n) == _thirteen_round_is_prime(n), n


def test_primality_confidence_bound():
    assert primality_confidence(2 ** 61 - 1) == "deterministic"
    assert primality_confidence(2 ** 89 - 1) == "probabilistic"


def test_next_prime():
    assert next_prime(0) == 2
    assert next_prime(2) == 3
    assert next_prime(8) == 11
    assert next_prime(13) == 17
    assert next_prime(65536) == 65537


def test_good_primes_yields_every_prime_in_order():
    first = list(itertools.islice(good_primes(), 200))
    assert first[:6] == [2, 3, 5, 7, 11, 13]
    assert first == [n for n in range(first[-1] + 1) if _trial_is_prime(n)]


def test_valuation():
    assert valuation(8, 2) == 3
    assert valuation(-45, 3) == 2
    assert valuation(7, 5) == 0
    with pytest.raises(ValueError):
        valuation(0, 2)
    with pytest.raises(ValueError):
        valuation(10, 4)


def test_valuation_matches_the_naive_loop():
    # c * p^v for v up to 2,000, around each power of two where the
    # squaring stops, with signed cofactors c prime to p of up to 64 bits
    def naive(n, p):
        n, v = abs(n), 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    rng = random.Random(41)
    edges = {2**k + e for k in range(1, 11) for e in (-1, 0, 1)}
    vs = sorted({*range(20), *edges, 2000, *(rng.randint(0, 2000) for _ in range(20))})
    for p in (2, 3, 5, 7919):
        for v in vs:
            c = rng.getrandbits(rng.randint(1, 64)) or 1
            while c % p == 0:
                c += 1
            n = rng.choice((1, -1)) * c * p**v
            assert valuation(n, p) == naive(n, p) == v, (p, v)
        with pytest.raises(ValueError):
            valuation(0, p)
    for q in (-7, 0, 1, 4, 7917):
        with pytest.raises(ValueError):
            valuation(7**5, q)


def test_factorial_valuation_known_values():
    assert factorial_valuation(10, 2) == 8
    assert factorial_valuation(100, 5) == 24
    assert factorial_valuation(4, 2) == 3
    assert factorial_valuation(6, 3) == 2
    assert factorial_valuation(0, 7) == 0
    assert factorial_valuation(1, 7) == 0


def test_factorial_valuation_matches_running_count():
    # accumulate v_p(n!) one factor at a time, never forming n!
    for p in (2, 3, 5, 7):
        running = 0
        for n in range(1, 10_001):
            running += valuation(n, p) if n % p == 0 else 0
            assert factorial_valuation(n, p) == running, (n, p)


def test_mobius_values():
    assert mobius(1) == 1
    assert mobius(2) == -1
    assert mobius(4) == 0
    assert mobius(6) == 1
    assert mobius(30) == -1
    with pytest.raises(ValueError):
        mobius(0)


def test_mobius_divisor_sums():
    # sum of mobius over the divisors of n is 1 at n = 1 and 0 after
    assert sum(mobius(d) for d in factorize(1).divisors()) == 1
    for n in range(2, 1001):
        total = sum(mobius(d) for d in factorize(n).divisors())
        assert total == 0, n


def test_factorize_known_values():
    assert factorize(1).factors == ()
    assert factorize(2).factors == ((2, 1),)
    assert factorize(1024).factors == ((2, 10),)
    assert factorize(255).factors == ((3, 1), (5, 1), (17, 1))
    assert factorize(65537).factors == ((65537, 1),)
    assert factorize(2 ** 16).factors == ((2, 16),)
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_reassembles_random_64_bit_values():
    rng = random.Random(20260817)
    for _ in range(10_000):
        n = rng.randrange(2, 1 << 64)
        fac = factorize(n)
        assert fac.value == n
        prod = 1
        for p, e in fac.factors:
            prod *= p ** e
        assert prod == n


def test_factorize_semiprime_with_large_prime_factors():
    # rho must actually split a product of two 31 bit primes
    p, q = 2147483647, 2147483629
    assert factorize(p * q).factors == ((q, 1), (p, 1))


def _trial_factor(n):
    """(prime, exponent) pairs of n by trial division over every d >= 2."""
    factors = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            factors.append((d, e))
        d += 1
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


def test_factorize_gcd_stage_and_perfect_powers_match_trial_division():
    # factorize finds the primes below 10^4 by one gcd with their product,
    # peels perfect powers at prime exponents only, and builds its result
    # without Factorization's checks; the checking constructor re-proves
    # every prime here
    rng = random.Random(9973)
    near = (9949, 9967, 9973, 10007, 10009)
    inputs = [p ** e for p in near for e in (1, 2, 3)]
    inputs += [2 * 9973, 9973 * 9967, math.prod(_sieve(10 ** 4))]
    bases = (10007, 10009, 10037, 10007 * 10009, 10009 ** 2 * 10037)
    inputs += [b ** e for b in bases for e in (4, 6)]
    for _ in range(40):
        b = rng.choice(bases) * rng.choice((1, 1, 10039, 19997))
        c = rng.choice((1, 2, 6, 9973, 9973 * 10007, 2 ** 5 * 9967 ** 2))
        inputs.append(b ** rng.randint(2, 7) * c)
    for n in inputs:
        fac = factorize(n)
        assert type(fac) is Factorization
        assert fac.factors == _trial_factor(n), n
        assert fac == Factorization(n, fac.factors)
    # the prime that the scan of g leaves is divided out before rho runs
    p, q = next_prime(1 << 64), next_prime(1 << 65)
    with pytest.raises(FactorizationBudgetError) as info:
        factorize(2 * 9973 * p * q, trial_bound=10 ** 4, rho_steps=8)
    assert info.value.cofactor == p * q
    assert info.value.partial == ((2, 1), (9973, 1))
    b = 10007 * 10009
    assert numtheory._perfect_power(b ** 6) == (b ** 3, 2)
    assert numtheory._perfect_power(b ** 15) == (b ** 5, 3)
    assert numtheory._perfect_power(10007 * 10009) is None


def test_factorization_budget_error_carries_cofactor():
    p = next_prime(1 << 64)
    q = next_prime(1 << 65)
    with pytest.raises(FactorizationBudgetError) as info:
        factorize(p * q, trial_bound=10 ** 4, rho_steps=8)
    assert info.value.cofactor == p * q
    assert info.value.partial == ()

    with pytest.raises(FactorizationBudgetError) as info:
        factorize(12 * p * q, trial_bound=10 ** 4, rho_steps=8)
    assert info.value.cofactor == p * q
    assert (2, 2) in info.value.partial
    assert (3, 1) in info.value.partial


def _odd_trial_range(n, lo, hi):
    """The sweep over every odd d in (lo, hi] with d * d <= n."""
    found = {}
    d = lo + 1
    if d % 2 == 0:
        d += 1
    while d * d <= n and d <= hi:
        while n % d == 0:
            found[d] = found.get(d, 0) + 1
            n //= d
        d += 2
    return n, found


def test_trial_range_wheel_matches_the_odd_step_sweep():
    # the mod-30 wheel skips only multiples of 3 and 5, which never divide
    # an n with no prime factor <= 5
    rng = random.Random(30)
    primes = [p for p in range(7, 7_000) if is_prime(p)]
    cases = 0
    for r in range(30):
        for _ in range(12):
            lo = 30 * rng.randint(0, 100) + r
            if lo < 5:
                lo += 30
            hi = lo + rng.choice((-7, 0, 1, 50, 3000))
            # factors mostly in and just past (lo, hi], with repeats, and
            # sometimes one below lo
            window = [p for p in primes if lo < p <= hi + 300]
            n = rng.choice((1, 1, 1, 7, 11 ** 2))
            for _ in range(rng.randint(0, 4)):
                n *= rng.choice(window) ** rng.choice((1, 1, 2, 3))
            # prime squares just below and above hi
            below = max((p for p in primes if p <= hi), default=7)
            above = next_prime(max(hi, 5))
            n *= rng.choice((1, below ** 2, above ** 2, below ** 2 * above ** 2))
            assert math.gcd(n, 30) == 1
            got = _trial_range(n, lo, hi)
            assert got == _odd_trial_range(n, lo, hi), (n, lo, hi)
            cases += bool(got[1])
    assert cases > 100
    # the sweep is the last resort of factorize: a starved rho leaves it
    # three primes between 10^4 and the trial bound
    p, q, r = 10_007, 104_729, 999_983
    assert factorize(p * q * q * r, rho_steps=8).factors == ((p, 1), (q, 2), (r, 1))


def _reference_pollard_brent(n, budget, events):
    """_pollard_brent as it was with the step (y * y + c) % n and the
    product reduced at every step; appends "backtrack" to events when the
    gcd reaches n, and "retry" when backtracking leaves it at n."""
    steps = 0
    m = 128
    for c in range(1, 10_000):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                chunk = min(m, r - k)
                for _ in range(chunk):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                k += chunk
                steps += chunk
                g = math.gcd(q, n)
                if steps >= budget and g == 1:
                    return None, steps
            r <<= 1
        if g == n:
            events.append("backtrack")
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                steps += 1
                g = math.gcd(abs(x - ys), n)
                if steps >= budget and g == 1:
                    return None, steps
        if 1 < g < n:
            return g, steps
        if steps >= budget:
            return None, steps
        events.append("retry")
    return None, steps


def test_pollard_brent_takes_the_steps_of_the_reference_walk():
    # the step adds c after the reduction and the product is reduced once
    # per four steps; every (factor, steps) must be the reference's, at
    # budgets that end inside the first chunk, at the chunk size m = 128
    # and one past it, and far into the walk
    rng = random.Random(35)
    composites = [25, 49, 9 * 11, 15, 21, 1001, 3 ** 5 * 7]
    for _ in range(12):
        # close primes, whose walks mod p and mod q often close together
        p = next_prime(rng.getrandbits(rng.randint(10, 30)))
        q = next_prime(p)
        composites += [p * q, p * p * q, p * q * q]
    for _ in range(30):
        composites.append(next_prime(rng.getrandbits(12)) * next_prime(rng.getrandbits(18)))
    for _ in range(20):
        n = rng.getrandbits(rng.randint(20, 64)) | 1
        if not is_prime(n):
            composites.append(n)
    # walks that split between 5,000 and 60,000 steps, and past 60,000
    composites.append(next_prime(1 << 28) * next_prime(3 << 27))
    composites.append(next_prime(1 << 40) * next_prime(1 << 41))
    events = []
    splits = {}
    for n in composites:
        for budget in (1, 7, 128, 129, 5_000, 60_000):
            want = _reference_pollard_brent(n, budget, events)
            assert numtheory._pollard_brent(n, budget) == want, (n, budget)
            splits[budget] = splits.get(budget, 0) + (want[0] is not None)
    # the gcd reaches n 47 times; backtracking then finds a factor, or
    # leaves the gcd at n and the walk retries with the next constant (5)
    assert events.count("backtrack") > 40 and events.count("retry") > 0
    # each budget stops some walks short of a factor: 9 of the 93 split
    # within 1 step, 91 within 5,000, 92 within 60,000
    assert splits[1] < splits[128] < splits[5_000] < splits[60_000] < len(composites)


def _factorize_outcomes_digest(count, rho_steps):
    rng = random.Random(35)
    lines = []
    for _ in range(count):
        n = rng.getrandbits(rng.randint(40, 120)) | 1 << 39
        try:
            lines.append(f"{n} {factorize(n, 10 ** 4, rho_steps).factors}")
        except FactorizationBudgetError as exc:
            lines.append(f"{n} budget {exc.cofactor} {exc.partial}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_factorize_outcomes_match_a_pinned_digest():
    # every factorization, and every budget error with its cofactor and
    # partial factors, of seeded 40-120-bit values; 500 of the 2,000 runs
    # at 2,000 steps end in a budget error, and 55 of the 400 at 20,000.
    # The trial bound 10^4 skips the wheel sweep, which takes longer than
    # rho here. The digests were taken with rho reducing at every step.
    assert _factorize_outcomes_digest(2_000, 2_000) == (
        "4a751d9edba60274aa0ab5dd6b542efe95c1870458c456846064985527e253f4"
    )
    assert _factorize_outcomes_digest(400, 20_000) == (
        "37272c224fe0ce864b900246beb9b4b1a80c53de4986b78b3f16fa17cbbbe878"
    )


def test_factorization_type_validates():
    fac = Factorization(12, ((2, 2), (3, 1)))
    assert fac.primes() == (2, 3)
    assert fac.divisors() == [1, 2, 3, 4, 6, 12]
    with pytest.raises(ValueError):
        Factorization(12, ((2, 1), (3, 1)))
    with pytest.raises(ValueError):
        Factorization(8, ((4, 1), (2, 1)))


def test_residue_class_set():
    # The periodic part of a hit set: the residue classes mod its cycle length.
    hs = HitSet(0, (), 6, (1, 3))
    assert [n for n in range(14) if hs.contains(n)] == [1, 3, 7, 9, 13]
    assert len(hs.residues) == 2
    assert not hs.is_empty()
    assert HitSet(0, (), 4, ()).is_empty()
    for cycle, residues in ((4, (4,)), (4, (-1,)), (4, (2, 1)), (4, (1, 1)), (0, ())):
        with pytest.raises(ValueError):
            HitSet(0, (), cycle, residues)
