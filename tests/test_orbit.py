"""Tests for orbit computation over Q and over residue rings."""

import random
import re
from fractions import Fraction

import pytest

from orbitsieve import orbit as orbit_module
from orbitsieve.numtheory import good_primes
from orbitsieve.orbit import HitSet, OrbitSummary, hit_set, orbit_mod, orbit_rational
from orbitsieve.projective import (
    INFINITY,
    PrimePowerModulus,
    _residue_pair,
    canonical_residue,
    normalize,
    reduce_mod,
)
from orbitsieve.ratmap import (
    BadPrimeError,
    DegenerateMapError,
    HeightBudgetError,
    RationalMap,
    iterate_point,
    parse_map,
)


def test_orbit_rational_preperiodic():
    phi = parse_map("z^2-1")
    summary = orbit_rational(phi, 0, 10)
    assert summary.is_preperiodic
    assert summary.tail == 0
    assert summary.cycle == 2
    assert len(summary.points) == 3
    assert summary.points[2] == summary.points[0]
    assert summary.cycle_points() == (normalize(0), normalize(-1))
    assert summary.distinct_points() == (normalize(0), normalize(-1))


def test_orbit_rational_truncated():
    phi = parse_map("z^2-1")
    summary = orbit_rational(phi, 3, 5)
    assert summary.stop == "budget"
    assert summary.steps_done == 5
    assert [p.as_fraction() for p in summary.points[:4]] == [3, 8, 63, 3968]
    with pytest.raises(ValueError):
        summary.cycle_points()


def test_orbit_rational_stops_at_proven_escape():
    # under z^2 (L = 5) a point of 7 or more bits proves escape
    phi = parse_map("z^2")
    walk = orbit_rational(phi, 2, 10, escape_from=0)
    assert [p.as_fraction() for p in walk.points] == [2, 4, 16, 256]
    assert (walk.stop, walk.steps_done) == ("escaped", 3)
    assert orbit_rational(phi, 2, 10, escape_from=4).steps_done == 4
    start = orbit_rational(phi, 2 ** 40, 10, escape_from=0)
    assert start.points == (normalize(2 ** 40),)
    assert (start.stop, start.steps_done) == ("escaped", 0)
    # an empty stop set never blocks the stop at escape
    assert orbit_rational(phi, 2, 10, stop_at=(), escape_from=0) == walk
    # a closed orbit is never cut short
    assert orbit_rational(phi, INFINITY, 10, escape_from=0).is_preperiodic
    # with stop points, escape ends the walk only at an iterate as high as
    # each of them: 256 proves escape but is lower than 300, 65536 and 2^32
    for stop, end in (([0, 100], 256), ([300], 65536), ([65536], 65536),
                      ([2 ** 32, 3], 2 ** 32)):
        got = orbit_rational(
            phi, 2, 10, stop_at={normalize(t) for t in stop}, escape_from=0
        )
        assert got.points[-1] == normalize(end)


def test_orbit_rational_fixed_point():
    summary = orbit_rational(parse_map("z^2"), INFINITY, 10)
    assert summary.is_preperiodic
    assert (summary.tail, summary.cycle) == (0, 1)


def test_orbit_rational_height_budget_is_a_status():
    summary = orbit_rational(parse_map("z^2"), 2, 100, height_bits=64)
    assert summary.stop == "height"
    assert 0 < summary.steps_done < 10


def test_orbit_rational_tail():
    # -1 -> 0 -> -1 under z^2 - 1, but 2 -> 3 -> 8 ... never closes;
    # 1 -> 0 -> -1 -> 0 has a genuine tail
    summary = orbit_rational(parse_map("z^2-1"), 1, 10)
    assert summary.is_preperiodic
    assert (summary.tail, summary.cycle) == (1, 2)


def _random_map(rng):
    while True:
        d = rng.randint(1, 3)
        try:
            return RationalMap.make(
                [rng.randint(-3, 3) for _ in range(d + 1)],
                [rng.randint(-3, 3) for _ in range(d + 1)],
            )
        except DegenerateMapError:
            pass


def _height(pt):
    return max(abs(pt.x1), abs(pt.x2))


def _brute_orbit(phi, x, steps, height_bits):
    """Iterates 0..steps, stopping before the first one wider than height_bits."""
    points = [normalize(x)]
    for _ in range(steps):
        nxt = phi.evaluate(points[-1])
        if max(abs(nxt.x1).bit_length(), abs(nxt.x2).bit_length()) > height_bits:
            break
        points.append(nxt)
    return points


def test_orbit_walks_match_a_brute_force_loop():
    rng = random.Random(2008)
    stop_rng = random.Random(2026)
    edge_rng = random.Random(2027)
    outcomes = set()
    stops = set()
    for _ in range(80):
        phi = _random_map(rng)
        x = rng.choice([(1, 0), (rng.randint(-4, 4), rng.randint(1, 3))])
        bits = rng.choice((16, 64, 300))
        ref = _brute_orbit(phi, x, 24, bits)
        summary = orbit_rational(phi, x, 24, bits)
        assert summary.points == tuple(ref[: len(summary.points)])
        # the plain loop's own reason: the first repeat, else the height
        # budget when the loop broke off, else the step budget
        repeat = next((n for n in range(len(ref)) if ref[n] in ref[:n]), None)
        if repeat is not None:
            assert summary.stop == "closed" and summary.steps_done == repeat
        else:
            assert summary.stop == ("height" if len(ref) <= 24 else "budget")
        stops.add(summary.stop)
        # a stop set drawn from the orbit and off it; the start is tested
        # like every later point, so it joins the set on some draws only
        stop = {pt for pt in ref if stop_rng.random() < 0.1}
        stop.add(normalize(stop_rng.randint(-9, 9)))
        if stop_rng.random() < 0.25:
            stop.add(ref[0])
        stopped = orbit_rational(phi, x, 24, bits, stop_at=stop)
        end = len(summary.points) - 1
        hit = next((n for n in range(end + 1) if ref[n] in stop), None)
        if hit is None:
            assert stopped == summary
        else:
            outcomes.add("stop at 0" if hit == 0 else "stop later")
            assert stopped == OrbitSummary(tuple(ref[: hit + 1]), "target", steps_done=hit)
        stops.add(stopped.stop)
        # escape_from = k ends the walk at the first iterate of index >= k
        # that proves escape, which a closed orbit never has
        k = stop_rng.randint(0, 6)
        escaping = [n for n in range(k, end + 1) if phi.proves_escape(ref[n])]
        if summary.is_preperiodic:
            assert not escaping
        escaped = orbit_rational(phi, x, 24, bits, escape_from=k)
        if escaping:
            outcomes.add("escape")
            e = escaping[0]
            assert escaped == OrbitSummary(tuple(ref[: e + 1]), "escaped", steps_done=e)
        else:
            assert escaped == summary
        stops.add(escaped.stop)
        # with the stop set too, escape ends the walk only at an iterate that
        # is no stop point and is at least as high as each of them; no later
        # iterate is a stop point or closes the orbit, so every hit is kept
        top = max(_height(pt) for pt in stop)
        above = [
            n for n in range(k, len(stopped.points))
            if phi.proves_escape(ref[n]) and _height(ref[n]) >= top
            and ref[n] not in stop
        ]
        got = orbit_rational(phi, x, 24, bits, stop, escape_from=k)
        if above:
            outcomes.add("escape above the stop set")
            assert not stopped.is_preperiodic
            assert not any(pt in stop for pt in ref[above[0]:])
            e = above[0]
            assert got == OrbitSummary(tuple(ref[: e + 1]), "escaped", steps_done=e)
        else:
            assert got == stopped
        for n, pt in enumerate(ref):
            assert iterate_point(phi, x, n, bits) == pt
        if summary.is_preperiodic:
            outcomes.add("preperiodic")
        elif len(ref) <= 24:
            outcomes.add("height")
            assert summary.steps_done == len(ref) - 1
            with pytest.raises(HeightBudgetError) as info:
                iterate_point(phi, x, len(ref), bits)
            assert info.value.last_index == summary.steps_done
        else:
            outcomes.add("steps")
        # budgets at a drawn iterate's own size and one bit below it, where
        # the walk's lower bound on the next height is least able to decide:
        # the walk must still stop exactly where the plain loop does
        n = edge_rng.randrange(1, len(ref)) if len(ref) > 1 else 0
        size = max(abs(ref[n].x1).bit_length(), abs(ref[n].x2).bit_length())
        for edge in (size, size - 1):
            edge_ref = _brute_orbit(phi, x, 24, edge)
            edge_walk = orbit_rational(phi, x, 24, edge)
            assert edge_walk.points == tuple(edge_ref[: len(edge_walk.points)])
            if len(edge_ref) <= 24:
                with pytest.raises(HeightBudgetError) as info:
                    iterate_point(phi, x, len(edge_ref), edge)
                assert info.value.last_index == len(edge_ref) - 1
    assert outcomes == {
        "preperiodic", "height", "steps", "stop at 0", "stop later", "escape",
        "escape above the stop set",
    }
    assert stops == {"closed", "target", "escaped", "budget", "height"}


def _reference_walk(phi, x, steps, bits, stop=(), escape_from=None):
    """orbit_rational's summary, rebuilt from the plain loop _brute_orbit:
    each point is tested against the stop set, then for a repeat, then for
    proven escape above every stop point, in that order."""
    ref = _brute_orbit(phi, x, steps, bits)
    top = max((_height(pt) for pt in stop), default=0)
    for n, pt in enumerate(ref):
        if pt in stop:
            return OrbitSummary(tuple(ref[: n + 1]), "target", steps_done=n)
        if pt in ref[:n]:
            tail = ref.index(pt)
            return OrbitSummary(tuple(ref[: n + 1]), "closed", tail, n - tail, n)
        if (
            escape_from is not None
            and n >= escape_from
            and phi.proves_escape(pt)
            and _height(pt) >= top
        ):
            return OrbitSummary(tuple(ref[: n + 1]), "escaped", steps_done=n)
    stop_reason = "height" if len(ref) <= steps else "budget"
    return OrbitSummary(tuple(ref), stop_reason, steps_done=len(ref) - 1)


def test_orbit_rational_matches_a_reference_walk_at_every_degree():
    # the walk skips the stop-set test when the set is empty and the escape
    # test at degree one; both shortcuts must leave every summary as the
    # plain loop gives it, with and without a stop set
    rng = random.Random(15)
    seen = {1: set(), 2: set()}
    for _ in range(150):
        phi = _random_map(rng)
        x = rng.choice([(1, 0), (rng.randint(-4, 4), rng.randint(1, 3))])
        bits = rng.choice((16, 64, 300))
        steps = rng.choice((3, 20))
        ref = _brute_orbit(phi, x, steps, bits)
        stops = [(), {normalize(rng.randint(-9, 9))}]
        stops.append({ref[rng.randrange(len(ref))], INFINITY})
        for stop in stops:
            for escape_from in (None, 0, 3):
                got = orbit_rational(phi, x, steps, bits, stop, escape_from)
                want = _reference_walk(phi, x, steps, bits, stop, escape_from)
                assert got == want, (str(phi), x, bits, stop, escape_from)
                seen[min(phi.degree, 2)].add(got.stop)
    # degree one never proves escape
    assert seen[1] == {"closed", "target", "budget", "height"}
    assert seen[2] == {"closed", "target", "escaped", "budget", "height"}


def test_orbit_mod_known_values():
    # the sequence holds int codes: c for (c : 1), p^k + c2 for (1 : c2)
    phi = parse_map("z^2-1")
    m5 = PrimePowerModulus(5, 1)
    orb = orbit_mod(phi, 3, m5)
    assert (orb.tail, orb.cycle) == (0, 1)
    assert orb.sequence == (3,)
    assert orbit_mod(phi, INFINITY, m5).sequence == (5,)

    m7 = PrimePowerModulus(7, 1)
    orb = orbit_mod(phi, 3, m7)
    assert (orb.tail, orb.cycle) == (2, 2)
    assert orb.sequence == (3, 1, 0, 6)

    m3 = PrimePowerModulus(3, 1)
    orb = orbit_mod(phi, 0, m3)
    assert (orb.tail, orb.cycle) == (0, 2)
    assert orb.sequence == (0, 2)


def test_orbit_mod_rejects_bad_primes():
    from orbitsieve.ratmap import BadPrimeError

    with pytest.raises(BadPrimeError):
        orbit_mod(parse_map("(z^2+1)/(2z)"), 1, PrimePowerModulus(2, 1))


@pytest.mark.parametrize(
    "text, start, p, k, tail, cycle",
    [
        ("z+1", 0, 7, 1, 0, 7),  # the polynomial chart, through every point
        ("z^2", 2, 2, 3, 2, 1),  # the polynomial chart, 2, 4, 0, 0, ...
        ("(z^2+1)/(2z)", 2, 5, 1, 2, 1),  # the general loop, 2, 0, inf, inf, ...
        ("(z+5)/(3z-1)", "inf", 3, 2, 0, 2),  # the general loop from inf
    ],
)
def test_orbit_mod_step_limit_is_exact(monkeypatch, text, start, p, k, tail, cycle):
    # the first repeat comes at step tail + cycle: a limit of that many
    # steps returns the orbit, and one step fewer raises, in both loops
    phi, m = parse_map(text), PrimePowerModulus(p, k)
    orb = orbit_mod(phi, start, m)
    assert (orb.tail, orb.cycle) == (tail, cycle)
    monkeypatch.setattr(orbit_module, "_MAX_MOD_STEPS", tail + cycle)
    assert orbit_mod(phi, start, m) == orb
    limit = tail + cycle - 1
    monkeypatch.setattr(orbit_module, "_MAX_MOD_STEPS", limit)
    message = f"the orbit mod {m} passes {limit} steps without repeating"
    with pytest.raises(ValueError, match=re.escape(message)):
        orbit_mod(phi, start, m)


def test_evaluate_mod_takes_one_step_of_the_walk():
    # one step of the loop that walks orbits: the image of a fixed point is
    # the repeat that ends the loop, that of any other point the code it
    # appends; a bad prime raises, as orbit_mod does
    phi, m = parse_map("z^2"), PrimePowerModulus(5, 1)
    assert phi.evaluate_mod((1, 1), m) == (1, 1)
    assert phi.evaluate_mod((1, 0), m) == (1, 0)
    assert phi.evaluate_mod((2, 1), m) == (4, 1)
    rational = parse_map("(z^2+1)/(2z)")
    assert rational.evaluate_mod((0, 1), m) == (1, 0)
    with pytest.raises(BadPrimeError):
        rational.evaluate_mod((1, 1), PrimePowerModulus(2, 1))


def test_mod_orbit_sequence_extends_periodically():
    # phi^n(start) mod p^k is sequence[n] inside the sequence and
    # sequence[tail + (n - tail) % cycle] past it, checked against steps of
    # evaluate_mod on pairs: 3, 1, 0, 6 mod 7, then 0, 6, 0, ...
    phi = parse_map("z^2-1")
    m = PrimePowerModulus(7, 1)
    orb = orbit_mod(phi, 3, m)
    assert (orb.tail, orb.cycle, len(orb.sequence)) == (2, 2, 4)
    pair = reduce_mod(3, m)
    for n in range(101):
        i = n if n < len(orb.sequence) else orb.tail + (n - orb.tail) % orb.cycle
        assert _residue_pair(orb.sequence[i], m.modulus) == pair, n
        pair = phi.evaluate_mod(pair, m)


def _naive_mod_orbit(phi, start, m):
    """Independent recomputation with plain integer pairs.

    Residues are canonicalized by hand: scale the second coordinate to 1
    when it is a unit, otherwise scale the first to 1.
    """
    mod = m.modulus

    def canon(a, b):
        a %= mod
        b %= mod
        if b % m.p != 0:
            inv = pow(b, -1, mod)
            return (a * inv) % mod, 1
        inv = pow(a, -1, mod)
        return 1, (b * inv) % mod

    d = phi.degree
    pt = normalize(start)
    cur = canon(pt.x1, pt.x2)
    seq = [cur]
    seen = {cur: 0}
    while True:
        a, b = cur
        fa = sum(c * a**i * b ** (d - i) for i, c in enumerate(phi.F))
        ga = sum(c * a**i * b ** (d - i) for i, c in enumerate(phi.G))
        cur = canon(fa, ga)
        if cur in seen:
            return seen[cur], len(seq) - seen[cur], seq
        seen[cur] = len(seq)
        seq.append(cur)


def test_orbit_mod_matches_naive_recomputation_up_to_125():
    maps = [parse_map(t) for t in ("z^2-1", "(z^2+1)/(2z)", "z^3-2", "z+1")]
    moduli = []
    for p in good_primes():
        if p > 125:
            break
        k = 1
        while p ** k <= 125:
            moduli.append(PrimePowerModulus(p, k))
            k += 1
    starts = [normalize(3), normalize(0), INFINITY]
    for phi in maps:
        for m in moduli:
            if not phi.is_good_prime(m.p):
                continue
            for start in starts:
                orb = orbit_mod(phi, start, m)
                tail, cycle, seq = _naive_mod_orbit(phi, start, m)
                assert (orb.tail, orb.cycle) == (tail, cycle), (str(phi), str(m))
                assert [_residue_pair(c, m.modulus) for c in orb.sequence] == seq
                assert orb.tail + orb.cycle <= m.point_count()


def _pair_step(phi, pair, m):
    """One step of the reduced map on pairs: F and G summed term by term at
    (c1, c2), then canonical_residue. Also says whether G(c1, c2) was 1 mod p
    but not mod p^k."""
    c1, c2 = pair
    d = phi.degree
    a = sum(c * c1**i * c2 ** (d - i) for i, c in enumerate(phi.F))
    b = sum(c * c1**i * c2 ** (d - i) for i, c in enumerate(phi.G))
    near_one = b % m.p == 1 % m.p and b % m.modulus != 1
    return canonical_residue(a, b, m), near_one


def _pair_orbit(phi, start, m):
    """Tail, cycle and distinct points of the orbit mod m, by a dict search
    over pairs, and the number of steps where G was 1 mod p but not mod p^k."""
    cur = reduce_mod(start, m)
    index = {}
    seq = []
    near_ones = 0
    while cur not in index:
        index[cur] = len(seq)
        seq.append(cur)
        cur, near_one = _pair_step(phi, cur, m)
        near_ones += near_one
    return index[cur], len(seq) - index[cur], tuple(seq), near_ones


def _random_kernel_maps(rng, count):
    maps = []
    while len(maps) < count:
        d = rng.randint(1, 4)
        f = [rng.randint(-9, 9) for _ in range(d + 1)]
        polynomial = rng.random() < 0.3
        g = [1] + [0] * d if polynomial else [rng.randint(-9, 9) for _ in range(d + 1)]
        try:
            maps.append(RationalMap.make(f, g))
        except DegenerateMapError:
            continue
    return maps


def test_mod_kernel_matches_a_pair_based_reference():
    # orbit_mod and evaluate_mod step int codes through one kernel; here
    # they are checked against plain pairs. (z^2+1)/(2z) mod 3^k and
    # (z+5)/(3z-1) have orbits through (1 : c2) with p | c2, c2 != 0; the
    # starts include inf and points whose denominator p divides
    rng = random.Random(20260)
    maps = [parse_map("(z^2+1)/(2z)"), parse_map("(z+5)/(3z-1)")]
    # polynomials with a denominator, G = c Y^d with c != 1, take the general loop
    maps += [parse_map("z^2+1/30"), parse_map("(2z^3-1)/7"), parse_map("z/3+1/2")]
    maps += _random_kernel_maps(rng, 36)
    assert any(phi.G[1:] == (0,) * phi.degree for phi in maps)
    assert {phi.degree for phi in maps} == {1, 2, 3, 4}
    moduli = [PrimePowerModulus(p, k) for p in (2, 3, 5, 7) for k in range(1, 5)]
    bad = chart_points = near_ones = 0
    for phi in maps:
        for m in moduli:
            p = m.p
            starts = [INFINITY, normalize(0), Fraction(1, p), Fraction(rng.randint(1, 99) * p + 1, p * p)]
            starts.append(normalize(rng.randint(-50, 50)))
            if not phi.is_good_prime(p):
                bad += 1
                with pytest.raises(BadPrimeError):
                    orbit_mod(phi, starts[0], m)
                with pytest.raises(BadPrimeError):
                    phi.evaluate_mod((1, 0), m)
                continue
            if p == 7 and m.k > 2:
                continue
            for start in starts:
                orb = orbit_mod(phi, start, m)
                tail, cycle, seq, near = _pair_orbit(phi, start, m)
                pairs = tuple(_residue_pair(c, m.modulus) for c in orb.sequence)
                assert (orb.tail, orb.cycle, pairs) == (tail, cycle, seq), (str(phi), str(m), start)
                near_ones += near
                chart_points += sum(1 for c1, c2 in seq if c1 == 1 and c2 % p == 0 and c2)
            if m.modulus <= 81:
                # every point of P^1(Z/p^k), also given as a non-canonical
                # pair (u c1, u c2) for a unit u
                points = [(c, 1) for c in range(m.modulus)]
                points += [(1, c) for c in range(0, m.modulus, p)]
                for pair in points:
                    want, _ = _pair_step(phi, pair, m)
                    assert phi.evaluate_mod(pair, m) == want, (str(phi), str(m), pair)
                    u = rng.choice([v for v in range(1, m.modulus) if v % p])
                    assert phi.evaluate_mod((u * pair[0], u * pair[1]), m) == want
    # the reference met each case that the kernel treats apart
    assert bad > 0 and chart_points > 0 and near_ones > 0


def test_orbit_mod_cycle_divides_rational_cycle():
    # 0 is periodic of period 2 under z^2 - 1; its reduction must be
    # periodic with a cycle dividing 2 at every good prime power
    phi = parse_map("z^2-1")
    for m in (
        PrimePowerModulus(2, 1),
        PrimePowerModulus(3, 2),
        PrimePowerModulus(5, 1),
        PrimePowerModulus(7, 1),
        PrimePowerModulus(11, 1),
    ):
        orb = orbit_mod(phi, 0, m)
        assert orb.tail == 0
        assert 2 % orb.cycle == 0


def test_hit_set_known_values():
    phi = parse_map("z^2-1")
    orb5 = orbit_mod(phi, 3, PrimePowerModulus(5, 1))
    hs = hit_set(orb5, [normalize(0)])
    assert hs.is_empty()

    hs = hit_set(orb5, [normalize(63)])
    assert (hs.threshold, hs.cycle_length) == (0, 1)
    assert hs.residues == (0,)
    assert all(hs.contains(n) for n in range(10))

    orb7 = orbit_mod(phi, 3, PrimePowerModulus(7, 1))
    hs = hit_set(orb7, [normalize(0)])
    assert hs.threshold == 2
    assert hs.exceptional == ()
    assert hs.cycle_length == 2
    assert hs.residues == (0,)
    assert [n for n in range(10) if hs.contains(n)] == [2, 4, 6, 8]


def test_hit_set_membership_matches_direct_scan():
    phi = parse_map("z^2-1")
    targets = [normalize(0), normalize(63), INFINITY]
    for m in (
        PrimePowerModulus(2, 2),
        PrimePowerModulus(3, 1),
        PrimePowerModulus(5, 1),
        PrimePowerModulus(7, 1),
        PrimePowerModulus(11, 1),
        PrimePowerModulus(13, 1),
    ):
        orb = orbit_mod(phi, 3, m)
        reduced = {reduce_mod(t, m) for t in targets}
        hs = hit_set(orb, targets)
        horizon = 3 * (orb.tail + orb.cycle)
        for n in range(horizon + 1):
            i = n if n < len(orb.sequence) else orb.tail + (n - orb.tail) % orb.cycle
            at_n = _residue_pair(orb.sequence[i], m.modulus)
            assert hs.contains(n) == (at_n in reduced), (str(m), n)


def _cross_hit_set(pairs, tail, cycle, targets, m):
    """The hit set of an orbit given as canonical pairs, with membership by
    cross-multiplication: (c1 : c2) and a target (a : b) agree mod p^k
    exactly when c1 * b - c2 * a is 0 mod p^k."""
    n = m.modulus
    hits = [
        i for i, (c1, c2) in enumerate(pairs)
        if any((c1 * t.x2 - c2 * t.x1) % n == 0 for t in map(normalize, targets))
    ]
    return HitSet(
        tail,
        tuple(i for i in hits if i < tail),
        cycle,
        tuple(sorted(i % cycle for i in hits if i >= tail)),
    )


def test_hit_set_matches_a_pair_based_reference():
    # hit_set codes targets inline and finds each one's index in the
    # sequence; here every hit set is rebuilt from the orbit's pairs. The
    # targets include inf, points whose denominator p divides, two distinct
    # rationals that agree mod p^k, and iterates of the start (so that hits
    # occur both in the tail and in the cycle); hit_set takes them as
    # points in normal form, the reference as ints and Fractions too
    rng = random.Random(1515)
    moduli = [PrimePowerModulus(p, k) for p in (2, 3, 5, 7, 11, 13) for k in (1, 2, 3)]
    seen = set()
    for _ in range(24):
        phi = _random_map(rng)
        start = normalize((rng.randint(-6, 6), rng.randint(1, 4)))
        iterates = _brute_orbit(phi, start, 6, 64)
        for m in moduli:
            if not phi.is_good_prime(m.p):
                continue
            p, n = m.p, m.modulus
            c = rng.randint(-20, 20)
            targets = [
                INFINITY,
                Fraction(1, p),
                Fraction(rng.randint(1, 40) * p + 1, p * p),
                c,
                normalize(c + n),
                rng.choice(iterates),
                rng.choice(iterates),
            ]
            orb = orbit_mod(phi, start, m)
            tail, cycle, pairs, _ = _pair_orbit(phi, start, m)
            want = _cross_hit_set(pairs, tail, cycle, targets, m)
            points = [normalize(t) for t in targets]
            assert hit_set(orb, points) == want, (str(phi), start, str(m))
            # c and c + p^k reduce to one residue
            same = _cross_hit_set(pairs, tail, cycle, [c], m)
            assert hit_set(orb, points[3:5]) == same
            seen.add(phi.degree)
            if want.exceptional:
                seen.add("tail hit")
            if want.residues:
                seen.add("cycle hit")
            if any(reduce_mod(t, m) in pairs for t in targets[:3]):
                seen.add("inf or p in the denominator hit")
    assert {1, 2, 3, "tail hit", "cycle hit", "inf or p in the denominator hit"} <= seen


def test_hit_set_validation():
    with pytest.raises(ValueError, match="below 1"):
        HitSet(1, (2,), 2, ())  # exceptional index past the threshold
    assert not HitSet(1, (0,), 4, ()).is_empty()
    with pytest.raises(ValueError):
        HitSet(0, (), 6, (1, 3)).contains(-1)
    # both index lists in the one form the engine builds: tuples
    for exceptional, residues in ((frozenset(), (1, 3)), ((), [1, 3]), ([], ())):
        with pytest.raises(TypeError):
            HitSet(0, exceptional, 6, residues)
