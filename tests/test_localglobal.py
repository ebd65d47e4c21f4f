"""Tests for the decision engine: hit set intersection, the day/night
search, certificates and their verification, serialization, the degree
one demonstration, and the Newton place reports."""

import collections
import copy
import functools
import hashlib
import json
import math
import pickle
import random
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from itertools import islice

import pytest

from orbitsieve import localglobal
from orbitsieve import orbit as orbit_module
from orbitsieve import projective as projective_module
from orbitsieve import ratmap as ratmap_module
from orbitsieve.localglobal import (
    Budgets,
    Certificate,
    CycleBlowupError,
    DecisionProblem,
    ModulusEvidence,
    _minimize_family,
    certificate_from_dict,
    certificate_to_dict,
    decide,
    intersect_hit_sets,
    problem_from_dict,
    problem_to_dict,
    verify_certificate,
)
from orbitsieve.numtheory import degree_one_demo, factorial_valuation
from orbitsieve.orbit import HitSet, ModOrbit, hit_set, orbit_mod, orbit_rational
from orbitsieve.projective import (
    INFINITY,
    PrimePowerModulus,
    ProjectivePoint,
    normalize,
    parse_point,
)
from orbitsieve.ratmap import (
    DegenerateMapError,
    RationalMap,
    newton_place_report,
    orbit_points,
    parse_map,
)


def _hs(threshold, exceptional, cycle, residues):
    return HitSet(threshold, tuple(sorted(exceptional)), cycle, tuple(sorted(residues)))


ALL_INDICES = _hs(0, (), 1, (0,))
NO_INDICES = _hs(0, (), 1, ())


def test_intersect_identity_and_absorbing():
    evens = _hs(2, (), 2, (0,))
    got = intersect_hit_sets([ALL_INDICES, evens])
    assert [n for n in range(12) if got.contains(n)] == [2, 4, 6, 8, 10]
    assert intersect_hit_sets([NO_INDICES, evens]).is_empty()
    assert intersect_hit_sets([evens]) == evens


def test_intersect_by_crt():
    odd = _hs(0, (), 2, (1,))
    mult3 = _hs(0, (), 3, (0,))
    got = intersect_hit_sets([odd, mult3])
    assert got.cycle_length == 6
    assert got.residues == (3,)
    disjoint = intersect_hit_sets([_hs(0, (), 2, (1,)), _hs(0, (), 2, (0,))])
    assert disjoint.is_empty()


def test_intersect_respects_exceptional_region():
    # hits {0, 1} then odd indices, against hits at even indices only:
    # the intersection keeps 0 as an exceptional hit and nothing periodic
    a = _hs(2, (0, 1), 2, (1,))
    b = _hs(0, (), 2, (0,))
    got = intersect_hit_sets([a, b])
    assert [n for n in range(10) if got.contains(n)] == [0]


def test_intersect_matches_direct_scan_on_random_inputs():
    rng = random.Random(31415)
    for _ in range(200):
        sets = []
        for _ in range(rng.randrange(2, 4)):
            t = rng.randrange(0, 5)
            c = rng.randrange(1, 13)
            residues = [r for r in range(c) if rng.random() < 0.4]
            exceptional = [n for n in range(t) if rng.random() < 0.4]
            sets.append(_hs(t, exceptional, c, residues))
        got = intersect_hit_sets(sets)
        horizon = 3 * math.lcm(*(s.cycle_length for s in sets)) + max(
            s.threshold for s in sets
        )
        for n in range(horizon + 1):
            want = all(s.contains(n) for s in sets)
            assert got.contains(n) == want, (sets, n)
            # adding a condition never enlarges the hit set
            assert not (got.contains(n) and not sets[0].contains(n))

    # one residue on each side, at every pair of cycle lengths 1..12 and
    # at sampled pairs up to 100: the result is the residue mod the lcm
    # that a scan of one period finds, or none when gcd(ca, cb) does not
    # divide rb - ra
    pairs = [
        (ca, ra, cb, rb)
        for ca in range(1, 13) for cb in range(1, 13)
        for ra in range(ca) for rb in range(cb)
    ]
    for _ in range(300):
        ca, cb = rng.randrange(1, 101), rng.randrange(1, 101)
        pairs.append((ca, rng.randrange(ca), cb, rng.randrange(cb)))
    disjoint = 0
    for ca, ra, cb, rb in pairs:
        got = intersect_hit_sets([_hs(0, (), ca, (ra,)), _hs(0, (), cb, (rb,))])
        c = math.lcm(ca, cb)
        want = [n for n in range(c) if n % ca == ra and n % cb == rb]
        assert got == _hs(0, (), c, want), (ca, ra, cb, rb)
        disjoint += not want
    assert disjoint > 1000


def test_intersect_cycle_cap():
    with pytest.raises(CycleBlowupError):
        intersect_hit_sets([_hs(0, (), 4, (0,)), _hs(0, (), 6, (0,))], cycle_lcm_cap=10)


def _quadratic_minimize(family, cap):
    """The former _minimize_family: fold the rest anew for every member."""
    current = list(family)
    for entry in list(current):
        if len(current) == 1:
            break
        rest = [e for e in current if e is not entry]
        try:
            if intersect_hit_sets([hits for _, hits in rest], cap).is_empty():
                current = rest
        except CycleBlowupError:
            continue
    return current


def _random_nonempty_hit_set(rng):
    while True:
        t = rng.randrange(0, 4)
        c = rng.randrange(1, 9)
        hs = _hs(
            t,
            [n for n in range(t) if rng.random() < 0.5],
            c,
            [r for r in range(c) if rng.random() < 0.5],
        )
        if not hs.is_empty():
            return hs


def test_minimize_family_matches_the_quadratic_greedy_loop():
    # families as decide's fold builds them: nonempty hit sets folded in
    # order, a member that would push the cycle lcm past the cap skipped,
    # until the fold is empty
    rng = random.Random(4711)
    seen = {"skipped": 0, "dropped": 0, "kept 3+": 0}
    families = 0
    while families < 300:
        cap = rng.choice((12, 60, 10 ** 7))
        used, folded = [], ALL_INDICES
        for i in range(rng.randrange(2, 9)):
            hits = _random_nonempty_hit_set(rng)
            try:
                folded = intersect_hit_sets([folded, hits], cap)
            except CycleBlowupError:
                seen["skipped"] += 1
                continue
            used.append((PrimePowerModulus(2, i + 1), hits))
            if folded.is_empty():
                break
        if not folded.is_empty():
            continue
        families += 1
        got = _minimize_family(used, cap)
        assert got == _quadratic_minimize(used, cap), used
        assert intersect_hit_sets([hits for _, hits in got], cap).is_empty()
        seen["dropped"] += len(got) < len(used)
        seen["kept 3+"] += len(got) >= 3
    assert all(seen.values()), seen


def _cost(p, k):
    """The schedule's key, computed here independently of the package."""
    return (p ** k + p ** (k - 1)) * k ** 3


def _flat_schedule(phi, excluded, stages):
    """The moduli of the first `stages` night stages, in order."""
    gen = localglobal._stages(phi, frozenset(excluded), [], stages)
    return [m for stage in gen for m in stage]


def test_night_schedule_orders_by_cost_then_prime():
    # primes cost p + 1 at k = 1, so the primes up to 43 come before 2^2
    # (cost 48, ahead of 47 by the tie-break on p)
    phi = parse_map("z^2-1")
    got = _flat_schedule(phi, (), 4)
    want = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert [(m.p, m.k) for m in got] == [(p, 1) for p in want]

    # default budgets: 12 stages, 78 moduli, the primes up to 373 and four
    # prime powers at these positions
    got = _flat_schedule(parse_map("z+1"), (), 12)
    assert len(got) == 78
    assert [(i, m.p, m.k) for i, m in enumerate(got) if m.k > 1] == [
        (14, 2, 2), (25, 3, 2), (53, 5, 2), (69, 2, 3)
    ]
    assert [m.p for m in got if m.k == 1][-3:] == [359, 367, 373]

    # 2 is a bad prime for the Newton map of z^2 - 1, so the schedule
    # starts at 3; an exclusion shifts it further
    newton = parse_map("(z^2+1)/(2z)")
    assert [(m.p, m.k) for m in _flat_schedule(newton, (), 2)] == [(3, 1), (5, 1), (7, 1)]
    assert [(m.p, m.k) for m in _flat_schedule(newton, {3}, 2)] == [(5, 1), (7, 1), (11, 1)]
    # at 7 stages 3^2 (cost 96) falls between 89 and 97; with 3 excluded
    # the next power, 5^2, costs 240 and is not reached
    primes = [
        5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
        73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
    ]
    want = [(3, 1)] + [(p, 1) for p in primes[:22]] + [(3, 2)]
    want += [(p, 1) for p in primes[22:26]]
    assert [(m.p, m.k) for m in _flat_schedule(newton, (), 7)] == want
    want = [(p, 1) for p in primes]
    assert [(m.p, m.k) for m in _flat_schedule(newton, {3}, 7)] == want


def test_night_schedule_properties():
    # z^2 + 1/30: bad reduction at 2, 3 and 5; 7 and 13 excluded
    phi = parse_map("z^2+1/30")
    bad = {p for p in (2, 3, 5, 7, 11, 13) if not phi.is_good_prime(p)}
    assert bad == {2, 3, 5}
    excluded = {7, 13}
    stages = 20
    flat = _flat_schedule(phi, excluded, stages)
    # stage s has s moduli
    sizes = [len(_flat_schedule(phi, excluded, s)) for s in range(stages + 1)]
    assert [b - a for a, b in zip(sizes, sizes[1:])] == list(range(1, stages + 1))
    pairs = [(m.p, m.k) for m in flat]
    assert len(set(pairs)) == len(pairs)
    keys = [(_cost(p, k), p) for p, k in pairs]
    assert keys == sorted(keys)
    assert not {p for p, _ in pairs} & (bad | excluded)
    # exactly the cheapest allowed prime powers, by brute force
    last = keys[-1]
    allowed = [
        p for p in range(2, last[0])
        if all(p % d for d in range(2, math.isqrt(p) + 1))
        and p not in bad | excluded
    ]
    want = sorted(
        (_cost(p, k), p, k)
        for p in allowed
        for k in range(1, 8)
        if (_cost(p, k), p) <= last
    )
    assert [(p, k) for _, p, k in want] == pairs

    # every small prime power is reached: k <= 2 within 20 stages; 7^3
    # costs 10,584, so about 1,300 primes come first and it needs 51
    plain = parse_map("z+1")
    reached = {(m.p, m.k) for m in _flat_schedule(plain, (), 20)}
    assert {(p, k) for p in (2, 3, 5, 7) for k in (1, 2)} <= reached
    reached = {(m.p, m.k) for m in _flat_schedule(plain, (), 51)}
    assert {(p, k) for p in (2, 3, 5, 7) for k in (1, 2, 3)} <= reached
    assert (7, 3) not in {(m.p, m.k) for m in _flat_schedule(plain, (), 50)}


_BRUTE_LIMIT = 20_000


@functools.cache
def _brute_primes():
    """The primes below _BRUTE_LIMIT, by a sieve."""
    flags = [True] * _BRUTE_LIMIT
    for i in range(2, math.isqrt(_BRUTE_LIMIT) + 1):
        if flags[i]:
            flags[i * i :: i] = [False] * len(flags[i * i :: i])
    return [p for p in range(2, _BRUTE_LIMIT) if flags[p]]


def _brute_schedule(phi, excluded, stages):
    """The moduli of `stages` stages, by brute force: the first
    stages * (stages + 1) / 2 prime powers p^k of cost below _BRUTE_LIMIT,
    p of good reduction and not excluded, sorted by (cost, p)."""
    allowed = [p for p in _brute_primes() if p not in excluded and phi.res % p]
    keys = []
    for p in allowed:
        k = 1
        while _cost(p, k) < _BRUTE_LIMIT:
            keys.append((_cost(p, k), p, k))
            k += 1
    keys.sort()
    count = stages * (stages + 1) // 2
    # every prime power left out costs at least _BRUTE_LIMIT
    assert len(keys) >= count
    return [PrimePowerModulus(p, k) for _, p, k in keys[:count]]


def _brute_skips(phi, excluded, schedule):
    """The (q, 0, reason) entries of the stages that end with `schedule`:
    every bad or excluded prime q whose key (q + 1, q) comes before the
    last modulus of the schedule, in increasing order."""
    last = (_cost(schedule[-1].p, schedule[-1].k), schedule[-1].p)
    return [
        (q, 0, "excluded" if q in excluded else "bad reduction")
        for q in _brute_primes()
        if (q + 1, q) < last and (q in excluded or phi.res % q == 0)
    ]


def test_night_schedule_does_not_depend_on_call_history():
    # calls with different bad primes, exclusions and stage counts (a long
    # one, then a short one, then a longer one) each get the brute-force
    # prefix, in either order
    calls = [
        (parse_map("z^2+1/30"), {7, 13}, 60),  # bad at 2, 3, 5
        (parse_map("z+1"), set(), 3),
        (parse_map("(z^2+1)/(2z)"), {3}, 7),  # bad at 2
        (parse_map("z^2+1/30"), set(), 1),
        (parse_map("z^3+1/77"), {2}, 25),  # bad at 7, 11
        (parse_map("z+1"), {2, 3, 5}, 62),
        (parse_map("z^2-1"), set(), 4),
    ]
    for order in (calls, calls[::-1]):
        for phi, excluded, stages in order:
            want = _brute_schedule(phi, excluded, stages)
            assert _flat_schedule(phi, excluded, stages) == want, (str(phi), stages)
            # each bad or excluded prime passed over is recorded once, at
            # k = 1, however many of its powers come later
            skips = []
            list(localglobal._stages(phi, frozenset(excluded), skips, stages))
            assert skips == _brute_skips(phi, excluded, want)


@pytest.fixture
def fresh_cost_order(monkeypatch):
    """An empty shared cost order, so that the test's own calls grow it."""
    monkeypatch.setattr(localglobal, "_COST_ORDER", ())


def _seeded_schedule_cases(rng):
    """(map text, excluded primes) pairs whose resultants have small prime
    factors: z + 1/n never settles (a translation mod every good p runs
    through all residues), so decide runs every stage; z^2 + a/n may settle."""
    small = [2, 3, 5, 7, 11, 13, 17]
    cases = []
    for i in range(8):
        n = math.prod(rng.sample(small, rng.randint(1, 3)))
        text = f"z+1/{n}" if i % 2 else f"z^2{rng.choice([-3, -1, 1, 2]):+d}/{n}"
        cases.append((text, frozenset(rng.sample(small + [19, 23, 29], 2))))
    return cases


def test_shared_schedule_matches_a_plain_reference(fresh_cost_order):
    # stage counts out of order, so the shared prefix grows between calls
    rng = random.Random(24)
    lengths = set()
    kinds = set()
    skipped = 0
    for text, excluded in _seeded_schedule_cases(rng):
        phi = parse_map(text)
        for stages in (2, 14, 5, 40, 9):
            want = _brute_schedule(phi, excluded, stages)
            assert _flat_schedule(phi, excluded, stages) == want, (text, stages)
            lengths.add(len(localglobal._COST_ORDER))
        for stages in (2, 14, 5):
            problem = _problem(
                text, 0, [-1], excluded, day_steps=8, night_stages=stages
            )
            cert = decide(problem)
            assert cert.night_stages_done >= 1
            sched = _brute_schedule(phi, excluded, cert.night_stages_done)
            pairs = [(m.p, m.k) for m in sched]
            assert [(p, k) for p, k, _ in cert.examined] == pairs[: len(cert.examined)]
            kinds.add(cert.kind)
            if cert.kind == "exhausted":
                assert len(cert.examined) == len(pairs)
            want = _brute_skips(phi, excluded, sched)
            assert [s for s in cert.skipped if s[1] == 0] == want, (text, stages)
            skipped += len(want)
    assert skipped > 50
    assert kinds == {"empty", "exhausted"}
    assert len(lengths) >= 2


def test_a_large_stage_budget_computes_only_what_the_walk_reads(
    fresh_cost_order, monkeypatch
):
    # z^2 - 1 from 3 against 0 is settled mod 5, in stage 2: a budget of a
    # million stages must not compute the order of all its moduli first
    requested = []
    build = localglobal._cost_order

    def recording(n):
        requested.append(n)
        assert n <= 10 ** 5, n
        return build(n)

    monkeypatch.setattr(localglobal, "_cost_order", recording)
    cert = decide(_problem("z^2-1", 3, [0], night_stages=10 ** 6))
    assert (cert.kind, cert.night_stages_done) == ("empty", 2)
    assert requested == [localglobal._FIRST_ENTRIES]
    # the stage budget bounds the first request, not the walk
    got = _flat_schedule(parse_map("z+1"), (), 60)
    assert got == _brute_schedule(parse_map("z+1"), (), 60)
    assert requested[1:] == [localglobal._FIRST_ENTRIES, 2 * localglobal._FIRST_ENTRIES]


def test_night_schedule_from_several_threads(fresh_cost_order):
    # threads that start together on an empty shared order grow it in
    # turns and read it while it grows; each gets the single-thread list
    cases = [
        (parse_map("z^2+1/30"), {7, 13}, 40),
        (parse_map("z+1"), set(), 3),
        (parse_map("(z^2+1)/(2z)"), {3}, 25),
        (parse_map("z^3+1/77"), {2}, 60),
        (parse_map("z+1"), {2, 3, 5}, 12),
        (parse_map("z^2-1"), set(), 50),
    ]
    want = [_flat_schedule(*case) for case in cases]
    assert want == [_brute_schedule(*case) for case in cases]
    localglobal._COST_ORDER = ()
    got = [None] * len(cases)
    barrier = threading.Barrier(len(cases))

    def run(i):
        barrier.wait(timeout=60)
        got[i] = [_flat_schedule(*cases[i]) for _ in range(3)]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * 3 for w in want]


def test_parity_clash_gives_an_empty_pair_intersection():
    # the orbit of 3 under z^2 - 1 hits 0 at odd indices mod 2 but at even
    # indices mod 3, so the two-modulus family {2, 3} already proves the
    # orbit never lands on 0
    phi = parse_map("z^2-1")
    target = [normalize(0)]
    hs2 = hit_set(orbit_mod(phi, 3, PrimePowerModulus(2, 1)), target)
    hs3 = hit_set(orbit_mod(phi, 3, PrimePowerModulus(3, 1)), target)
    assert not hs2.is_empty() and not hs3.is_empty()
    assert intersect_hit_sets([hs2, hs3]).is_empty()


def _problem(map_text, start, targets, excluded=(), **budget_kw):
    return DecisionProblem.make(
        parse_map(map_text),
        normalize(start),
        [normalize(t) for t in targets],
        excluded,
        Budgets(**budget_kw),
    )


def test_decide_empty_by_single_modulus():
    problem = _problem("z^2-1", 3, [0])
    cert = decide(problem)
    assert cert.kind == "empty"
    assert cert.finite_orbit is None
    assert [str(ev.modulus) for ev in cert.evidence] == ["5"]
    assert cert.evidence[0].hits.is_empty()
    assert verify_certificate(problem, cert)


def test_decide_witness():
    problem = _problem("z^2-1", 3, [63])
    cert = decide(problem)
    assert cert.kind == "witness"
    assert cert.witness_index == 2
    assert verify_certificate(problem, cert)


def test_decide_empty_by_finite_orbit():
    problem = _problem("z^2-1", 0, [5])
    cert = decide(problem)
    assert cert.kind == "empty"
    assert cert.finite_orbit is not None
    assert cert.evidence == ()
    assert {p.as_fraction() for p in cert.finite_orbit.distinct_points()} == {0, -1}
    assert verify_certificate(problem, cert)


def test_decide_witness_at_index_zero():
    # the start is a target: the exact walk stops at index 0 like at any
    # later index, and the orbit did not close, so the day side reads
    # "running"
    problem = _problem("z^2-1", 0, [0, 7])
    cert = decide(problem)
    assert cert.kind == "witness"
    assert cert.witness_index == 0
    assert (cert.day_status, cert.day_steps_done) == ("running", 0)
    assert (cert.night_stages_done, cert.examined) == (0, ())
    assert verify_certificate(problem, cert)
    problem2, cert2 = certificate_from_dict(certificate_to_dict(problem, cert))
    assert verify_certificate(problem2, cert2)


def test_decide_walks_the_whole_exact_orbit_before_the_night():
    # 1, 3, 5, ... never closes and never meets 0; the exact walk runs to
    # its step budget, then the first modulus (2, where the orbit is fixed
    # at 1) settles the problem
    problem = _problem("z+2", 1, [0])
    cert = decide(problem)
    assert cert.kind == "empty"
    assert [str(ev.modulus) for ev in cert.evidence] == ["2"]
    assert (cert.day_status, cert.day_steps_done) == ("budget", 256)
    assert cert.night_stages_done == 1
    assert verify_certificate(problem, cert)
    # a witness deep in a slow orbit is found before any night stage
    cert = decide(_problem("z+1", 1, [50]))
    assert (cert.kind, cert.witness_index) == ("witness", 49)
    assert (cert.night_stages_done, cert.examined) == (0, ())


def test_decide_walk_stops_at_escape_above_every_target():
    # under z^2 (L = 5) 256 is the first iterate of 2 that proves escape
    phi = parse_map("z^2")
    assert phi.height_loss_bits == 5
    assert [phi.proves_escape(normalize(2 ** 2 ** n)) for n in range(5)] == [
        False, False, False, True, True
    ]
    cert = decide(_problem("z^2", 2, [0]))
    assert (cert.day_status, cert.day_steps_done) == ("escaped", 3)
    # 256 is lower than these targets, so the walk goes on and meets them
    for target, index in ((65536, 4), (2 ** 32, 5)):
        problem = _problem("z^2", 2, [target, 3])
        cert = decide(problem)
        assert (cert.kind, cert.witness_index) == ("witness", index)
        assert (cert.day_status, cert.day_steps_done) == ("running", index)
        assert verify_certificate(problem, cert)


def test_decide_escapes_only_where_the_plain_walk_settles_nothing():
    # random degree-2 and degree-3 problems in the ranges of the benchmark's
    # survey: wherever decide's walk stops at escape, the walk without that
    # stop, to the same budgets, neither meets a target nor closes
    rng = random.Random(1993)
    statuses = set()
    for _ in range(200):
        while True:
            d = rng.choice((2, 3))
            try:
                phi = RationalMap.make(
                    [rng.randint(-3, 3) for _ in range(d + 1)],
                    [rng.randint(-3, 3) for _ in range(d + 1)],
                )
            except DegenerateMapError:
                continue
            if phi.degree >= 2:
                break
        start = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        targets = [
            Fraction(rng.randint(-20, 20), rng.randint(1, 5))
            for _ in range(rng.randint(1, 12))
        ]
        budgets = Budgets(height_bits=4096, night_stages=1)
        problem = DecisionProblem.make(phi, start, targets, (), budgets)
        cert = decide(problem)
        statuses.add(cert.day_status)
        if cert.day_status != "escaped":
            continue
        plain = orbit_rational(
            phi, start, budgets.day_steps, budgets.height_bits,
            stop_at=frozenset(problem.targets),
        )
        assert not plain.is_preperiodic
        assert plain.points[-1] not in problem.targets
    assert statuses == {"escaped", "closed", "running"}


def test_decide_records_skipped_primes_of_the_stages_run_only():
    # 2 is bad for the Newton map of z^2 - 1 and 5 is excluded; one stage
    # needs only p_1 = 3, so 5 is not passed over until stage 2
    def run(stages):
        problem = _problem(
            "(z^2+1)/(2z)", 2, [-1], excluded=(5,), day_steps=5, night_stages=stages
        )
        return decide(problem)

    one, two = run(1), run(2)
    assert one.kind == "exhausted"
    assert one.skipped == ((2, 0, "bad reduction"),)
    assert one.examined == ((3, 1, False),)
    assert two.kind == "empty"
    assert two.skipped == ((2, 0, "bad reduction"), (5, 0, "excluded"))
    assert two.examined == ((3, 1, False), (7, 1, True))


def test_decide_respects_excluded_primes():
    # with 5 excluded, the engine must find a different family; mod 11 the
    # orbit of 3 is fixed at 8, so 11 works alone
    problem = _problem("z^2-1", 3, [0], excluded=(5,))
    cert = decide(problem)
    assert cert.kind == "empty"
    assert all(ev.modulus.p != 5 for ev in cert.evidence)
    assert (5, 0, "excluded") in cert.skipped
    assert verify_certificate(problem, cert)


def test_verify_rejects_family_with_excluded_prime():
    # a certificate built without exclusions must fail verification under
    # a problem that bans its prime
    plain = _problem("z^2-1", 3, [0])
    cert = decide(plain)
    assert [ev.modulus.p for ev in cert.evidence] == [5]
    banned = _problem("z^2-1", 3, [0], excluded=(5,))
    assert not verify_certificate(banned, cert)


def test_decide_degree_one_exhausts():
    problem = _problem("z+1", 1, [0, "inf"], night_stages=8)
    cert = decide(problem)
    assert cert.kind == "exhausted"
    assert not cert.is_definitive
    assert cert.warnings
    assert not verify_certificate(problem, cert)


def test_degree_one_warning_is_left_off_when_a_modulus_settles():
    # `decide --map z+2 --point 1 --targets 0`: the orbit 1, 3, 5, ... is
    # fixed at 1 mod 2, so its empty hit set there settles the problem and
    # the warning "only a witness or a closed orbit can settle this
    # problem" would be false
    problem = _problem("z+2", 1, [0])
    cert = decide(problem)
    assert cert.kind == "empty"
    assert [str(ev.modulus) for ev in cert.evidence] == ["2"]
    assert cert.evidence[0].hits.is_empty()
    assert cert.warnings == ()
    assert verify_certificate(problem, cert)
    # an exhausted problem and a closed orbit keep the warning
    warned = [
        decide(_problem("z+1", 1, [0, "inf"], night_stages=2)),
        decide(_problem("(z+5)/(3z-1)", 2, [0])),
    ]
    assert [c.kind for c in warned] == ["exhausted", "empty"]
    assert warned[1].finite_orbit is not None
    assert all(len(c.warnings) == 1 for c in warned)
    assert warned[0].warnings[0].startswith("degree-one map: ")


def _recording_walks(monkeypatch):
    """A list that decide's orbit_mod calls append ("walk", p, k) to and
    its fold's pair intersections append ("fold",) to, in call order."""
    events = []
    walk, intersect = localglobal.orbit_mod, localglobal._intersect_pair

    def recording_orbit_mod(phi, start, m):
        events.append(("walk", m.p, m.k))
        return walk(phi, start, m)

    def recording_intersect(a, b, cap):
        events.append(("fold",))
        return intersect(a, b, cap)

    monkeypatch.setattr(localglobal, "orbit_mod", recording_orbit_mod)
    monkeypatch.setattr(localglobal, "_intersect_pair", recording_intersect)
    return events


def test_decide_walks_each_examined_modulus_once(monkeypatch):
    # each examined modulus is walked at most once, in schedule order. The
    # pinned family problem walks 5, 24, 575, whose crosses with the
    # targets 0 and 3 are 5, 24, 575 and 2, 21, 572: all six moduli
    # examined, 2 to 13, divide one, so none is walked before the fold,
    # which walks 2, 3 and 5, empties at 5 and keeps the family {3, 5}
    events = _recording_walks(monkeypatch)
    problem = _problem(
        "z^2-1", 5, [0, 3], day_steps=4, night_stages=3, height_bits=256
    )
    cert = decide(problem)
    assert [(ev.modulus.p, ev.modulus.k) for ev in cert.evidence] == [(3, 1), (5, 1)]
    assert cert.examined == tuple((p, 1, False) for p in (2, 3, 5, 7, 11, 13))
    walks = [e[1:] for e in events if e[0] == "walk"]
    assert walks == [(2, 1), (3, 1), (5, 1)]


def test_decide_walks_every_modulus_of_an_exhausted_degree_one_run_once_in_the_fold(monkeypatch):
    # z+1 from 1 against {0, inf}: every one of the 45 moduli of nine
    # stages divides a cross of the walk 1, 2, ..., 257 with 0, so each is
    # walked exactly once, in the fold. Each orbit mod p^k is one cycle
    # through all p^k points, so the fold takes in 2, 3, ..., 19, whose
    # cycle lcm 9699690 is below the cap 10^7, and skips the 37 moduli
    # after them: only the 8 folded in have a fold step after their walk
    events = _recording_walks(monkeypatch)
    cert = decide(_problem("z+1", 1, [0, "inf"], night_stages=9))
    assert cert.kind == "exhausted" and len(cert.examined) == 45
    assert not any(empty for _, _, empty in cert.examined)
    capped = [(p, k) for p, k, why in cert.skipped if why == "cycle lcm past the cap"]
    folded = [(p, 1) for p in (2, 3, 5, 7, 11, 13, 17, 19)]
    assert [(p, k) for p, k, _ in cert.examined] == folded + capped
    expected = []
    for p, k, _ in cert.examined:
        expected.append(("walk", p, k))
        if (p, k) in folded:
            expected.append(("fold",))
    assert events == expected


def test_decide_builds_a_hit_set_only_for_moduli_the_fold_takes_in(monkeypatch):
    # the degree-one run above walks 45 orbits, but builds a hit set only
    # for the 8 moduli folded in: a modulus past the cap is skipped on its
    # orbit's cycle, before its hit set would be built
    built = []
    hits = localglobal.hit_set

    def recording_hit_set(orb, targets):
        built.append(orb.modulus)
        return hits(orb, targets)

    monkeypatch.setattr(localglobal, "hit_set", recording_hit_set)
    cert = decide(_problem("z+1", 1, [0, "inf"], night_stages=9))
    assert [str(m) for m in built] == ["2", "3", "5", "7", "11", "13", "17", "19"]
    assert len(cert.skipped) == 37


def test_a_deferred_modulus_past_the_step_limit_is_never_walked(monkeypatch):
    # with the modular step limit at 1, every orbit mod p^k that does not
    # repeat at once raises. The walk 3, 8, 63, 3968 under z^2-1 meets the
    # target 0 mod 2 and mod 3, so both are deferred unwalked, and the
    # orbit mod 5, fixed at 3, settles the problem first. Walked in the
    # stage loop, as before the deferral, the orbit mod 2 raises.
    monkeypatch.setattr(orbit_module, "_MAX_MOD_STEPS", 1)
    problem = _problem("z^2-1", 3, [0])
    cert = decide(problem)
    assert cert.examined == ((2, 1, False), (3, 1, False), (5, 1, True))
    assert [str(ev.modulus) for ev in cert.evidence] == ["5"]
    assert verify_certificate(problem, cert)
    monkeypatch.setattr(localglobal, "_walk_meets", lambda points, targets: lambda m: False)
    with pytest.raises(ValueError, match="the orbit mod 2 passes 1 steps"):
        decide(problem)


def _traced_peak(fn):
    """fn() and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_decide_at_default_budgets_ends_in_bounded_time_and_memory(time_limit):
    # z+1 from 1 never settles; at default budgets its 12 stages examine the
    # primes up to 373 and 2^2, 3^2, 5^2, 2^3, so no orbit has more than
    # 374 points
    problem = _problem("z+1", 1, [0, "inf"])
    start = time.perf_counter()
    with time_limit():
        cert, peak = _traced_peak(lambda: decide(problem))
    elapsed = time.perf_counter() - start
    assert cert.kind == "exhausted"
    assert cert.night_stages_done == 12 and len(cert.examined) == 78
    assert elapsed < 1.0
    assert peak < 50 * 2 ** 20


def test_decide_rebuilds_a_multi_modulus_family_unchanged():
    # the certificate of `decide --map z^2-1 --point 5 --targets 0,3
    # --day-steps 4 --night-stages 3 --height-bits 256`: no modulus of the
    # six examined settles it alone; mod 3 the orbit hits at odd indices,
    # mod 5 at even ones, and the family {3, 5} is rebuilt from its moduli
    # after the fold
    problem = _problem(
        "z^2-1", 5, [0, 3], day_steps=4, night_stages=3, height_bits=256
    )
    cert = decide(problem)
    assert len(cert.examined) == 6
    assert [(ev.modulus.p, ev.modulus.k) for ev in cert.evidence] == [(3, 1), (5, 1)]
    assert all(not ev.hits.is_empty() for ev in cert.evidence)
    # 5, 24, 575: 575 proves escape above both targets
    assert (cert.day_status, cert.day_steps_done) == ("escaped", 2)
    assert verify_certificate(problem, cert)
    doc = json.dumps(certificate_to_dict(problem, cert), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "5f55d56b7703d5ff09bcd3c4dc19ea00f198eced63f82aa1014fd77077068f68"
    )


def test_the_cap_bounds_the_first_hit_set_of_the_fold():
    # problem 204 of bench survey seed 1 at cycle_lcm_cap=2: the first
    # modulus examined, 5, has a hit set whose cycle passes the cap. The
    # fold starts from the hit set of every index, so 5 is skipped like any
    # later modulus, and the hit sets mod 7 and 11, of cycle 2, empty it.
    targets = [
        "4", "1/2", "17", "2", "3", "-16/3", "7/2", "10/3", "10", "13/2", "-19/3", "-7/2",
    ]
    problem = _problem(
        "(-3*z^2+3)/(-2*z^2-z-1)", 0, targets,
        night_stages=4, height_bits=4096, cycle_lcm_cap=2,
    )
    cert = decide(problem)
    p, k, _ = cert.examined[0]
    assert (p, k) == (5, 1)
    assert (5, 1, "cycle lcm past the cap") in cert.skipped
    assert cert.kind == "empty" and cert.finite_orbit is None
    assert [(ev.modulus.p, ev.modulus.k) for ev in cert.evidence] == [(7, 1), (11, 1)]
    text = json.dumps(certificate_to_dict(problem, cert), sort_keys=True, indent=2)
    assert verify_certificate(*certificate_from_dict(json.loads(text)))
    # a singleton is emitted without a fold: the orbit of 3 under z^2 - 1
    # is 0, 2, 0, ... mod 3, an empty hit set of cycle 2 past the cap 1
    problem = _problem("z^2-1", 3, [1], cycle_lcm_cap=1)
    cert = decide(problem)
    assert [ev.hits.cycle_length for ev in cert.evidence] == [2]
    assert verify_certificate(problem, cert)


def _oracle_step(f, g, pt):
    """phi(pt) by plain evaluation of the forms and a full gcd."""
    x, y = pt
    d = len(f) - 1
    a = sum(c * x ** i * y ** (d - i) for i, c in enumerate(f))
    b = sum(c * x ** i * y ** (d - i) for i, c in enumerate(g))
    k = math.gcd(a, b)
    a, b = a // k, b // k
    return (-a, -b) if (b if b else a) < 0 else (a, b)


def _oracle_first_meeting(f, g, start, targets):
    """The first n with phi^n(start) in targets, or None for an orbit that
    repeats or escapes above every target first.

    Escape by Hadamard's inequality: the cofactors of the Sylvester
    identities A*F + B*G = R*Y^(2d-1) and A'*F + B'*G = R*X^(2d-1) have 2d
    coefficients, each a (2d-1)-minor of the Sylvester matrix, so at most
    s^((2d-1)/2) with s the larger squared norm of f and g. For coprime
    (x, y) of height h this gives H(phi(x : y)) >= h^d / C, C = 2d *
    s^((2d-1)/2), so from a point with h^(d-1) > C and h at least every
    target's height the heights rise strictly past every target.
    """
    d = len(f) - 1
    s = max(sum(c * c for c in f), sum(c * c for c in g))
    c_squared = (2 * d) ** 2 * s ** (2 * d - 1)
    top = max(max(map(abs, t)) for t in targets)
    seen = set()
    pt = start
    for n in range(10_000):
        if pt in targets:
            return n
        if pt in seen:
            return None
        seen.add(pt)
        h = max(map(abs, pt))
        if h >= top and h ** (2 * (d - 1)) > c_squared:
            return None
        pt = _oracle_step(f, g, pt)
    raise AssertionError("the oracle walk did not settle")


def test_decide_agrees_with_a_brute_force_oracle():
    # random maps of degree 2 and 3 with coefficients in [-3, 3], a third
    # of them polynomial, at the survey's budgets; some targets are taken
    # from the start's first iterates so that witnesses occur
    rng = random.Random(2027)
    budgets = dict(height_bits=4096, night_stages=4)
    day_steps = Budgets().day_steps
    seen = set()
    for _ in range(2000):
        d = rng.choice((2, 3))
        while True:
            f = [rng.randint(-3, 3) for _ in range(d + 1)]
            if rng.random() < 1 / 3:
                g = [1] + [0] * d
            else:
                g = [rng.randint(-3, 3) for _ in range(d + 1)]
            try:
                phi = RationalMap.make(f, g)
                break
            except DegenerateMapError:
                pass

        def point():
            if rng.random() < 0.1:
                return (1, 0)
            pt = normalize(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            return (pt.x1, pt.x2)

        start = point()
        orbit = [start]
        for _ in range(3):
            orbit.append(_oracle_step(f, g, orbit[-1]))
        targets = set()
        for _ in range(rng.randint(1, 6)):
            targets.add(rng.choice(orbit) if rng.random() < 0.1 else point())
        problem = DecisionProblem.make(phi, start, targets, budgets=Budgets(**budgets))
        want = _oracle_first_meeting(f, g, start, targets)
        cert = decide(problem)
        if cert.kind == "witness":
            assert cert.witness_index == want, (f, g, start, targets)
        if cert.kind == "empty":
            assert want is None, (f, g, start, targets)
        if want is not None and want <= day_steps:
            assert (cert.kind, cert.witness_index) == ("witness", want)
        if cert.is_definitive:
            assert verify_certificate(problem, cert), (f, g, start, targets)
        if cert.finite_orbit is not None:
            seen.add("closed")
        elif cert.kind == "empty":
            seen.add("single modulus" if len(cert.evidence) == 1 else "family")
        else:
            seen.add(cert.kind)
    assert seen >= {"witness", "closed", "single modulus", "family"}, seen


def test_decide_is_deterministic_and_jobs_independent():
    certs = [decide(_problem("z^2-1", 3, [0])) for _ in range(2)]
    assert certs[0] == certs[1]
    docs = [
        json.dumps(certificate_to_dict(_problem("z^2-1", 3, [0]), c), sort_keys=True)
        for c in certs
    ]
    assert docs[0] == docs[1]


def test_problem_serialization_round_trip():
    problem = _problem("z^2+1/3", Fraction(5, 3), [0, "inf"], excluded=(7,), day_steps=17)
    assert problem_from_dict(problem_to_dict(problem)) == problem


def test_certificate_serialization_round_trip():
    for start, targets in ((3, [0]), (3, [63]), (0, [5])):
        problem = _problem("z^2-1", start, targets)
        cert = decide(problem)
        doc = certificate_to_dict(problem, cert)
        # the document survives a JSON round trip byte for byte
        text = json.dumps(doc, sort_keys=True, indent=2)
        assert json.dumps(json.loads(text), sort_keys=True, indent=2) == text
        problem2, cert2 = certificate_from_dict(json.loads(text))
        assert problem2 == problem
        assert cert2 == cert
        assert verify_certificate(problem2, cert2)


def test_schema_1_certificates_still_decode_and_verify():
    for start, targets in ((3, [0]), (3, [63]), (0, [5])):
        problem = _problem("z^2-1", start, targets)
        cert = decide(problem)
        doc = certificate_to_dict(problem, cert)
        assert doc["schema_version"] == "2"
        # version 1 carried two more budgets, which verification never read
        old = json.loads(json.dumps(doc))
        old["schema_version"] = "1"
        old["problem"]["budgets"].update(day_batch="32", factor_steps="500000")
        problem1, cert1 = certificate_from_dict(old)
        assert problem1 == problem
        assert cert1 == cert
        assert verify_certificate(problem1, cert1)
    doc["schema_version"] = "3"
    with pytest.raises(ValueError):
        certificate_from_dict(doc)


def test_verify_rejects_shifted_witness_index():
    problem = _problem("z^2-1", 3, [63])
    cert = decide(problem)
    doc = certificate_to_dict(problem, cert)
    doc["witness_index"] = "3"
    problem2, tampered = certificate_from_dict(doc)
    assert not verify_certificate(problem2, tampered)


def test_verify_accepts_a_witness_only_at_the_first_meeting_within_day_steps(time_limit):
    # z+1 never meets 0, and 10^9 lies past day_steps: refused before any
    # walk, which would take hours
    problem = _problem("z+1", 1, [0])
    t0 = time.perf_counter()
    with time_limit():
        assert not verify_certificate(problem, Certificate("witness", witness_index=10**9))
    assert time.perf_counter() - t0 < 1.0
    # 0, -1, 0, -1, ... under z^2-1: -1 is met at 1, again at 3
    problem = _problem("z^2-1", 0, [-1])
    assert decide(problem).witness_index == 1
    assert verify_certificate(problem, Certificate("witness", witness_index=1))
    assert not verify_certificate(problem, Certificate("witness", witness_index=3))
    # a true first meeting past day_steps is refused as well
    late = _problem("z+1", 1, [30], day_steps=28)
    assert not verify_certificate(late, Certificate("witness", witness_index=29))
    assert verify_certificate(_problem("z+1", 1, [30], day_steps=29),
                              Certificate("witness", witness_index=29))


def test_verify_accepts_a_family_that_names_each_modulus_once_in_any_order():
    problem = _problem(
        "z^2-3", 5, [-2, 0], day_steps=4, night_stages=3, height_bits=256
    )
    cert = decide(problem)
    assert len(cert.evidence) == 3
    # documents of the former triangle schedule list families in the order
    # examined, so the order is not part of the claim
    reordered = cert._replace(evidence=cert.evidence[::-1])
    assert verify_certificate(problem, reordered)
    repeated = cert._replace(evidence=cert.evidence + cert.evidence[-1:])
    assert not verify_certificate(problem, repeated)
    doc = certificate_to_dict(problem, cert)
    doc["moduli"].append(doc["moduli"][-1])
    assert not verify_certificate(*certificate_from_dict(doc))


def test_verify_rejects_a_family_past_the_modular_step_limit_quickly(time_limit):
    # 1000003^2 has about 10^12 points, and z+1 walks through all of them
    problem = _problem("z+1", 1, [0])
    forged = ModulusEvidence(
        ModOrbit(PrimePowerModulus(1000003, 2), 0, 1, (0,)), NO_INDICES
    )
    t0 = time.perf_counter()
    with time_limit():
        assert not verify_certificate(problem, Certificate("empty", evidence=(forged,)))
    assert time.perf_counter() - t0 < 1.0


def test_decoder_refuses_a_repeated_or_reordered_exceptional_list():
    # z^2-1 from 3 mod 7 runs 3, 1, then cycles 0, 6: the targets 10 and 8
    # reduce to the two tail points, so the exceptional list is [0, 1]
    problem = _problem("z^2-1", 3, [8, 10])
    orb = orbit_mod(problem.phi, problem.start, PrimePowerModulus(7, 1))
    ev = ModulusEvidence(orb, hit_set(orb, problem.targets))
    assert ev.hits.exceptional == (0, 1)
    doc = certificate_to_dict(problem, Certificate("empty", evidence=(ev,)))
    assert certificate_from_dict(doc)[1].evidence == (ev,)
    for edit in (["0", "1", "1"], ["1", "0"], ["0", "0", "1"]):
        bad = json.loads(json.dumps(doc))
        bad["moduli"][0]["hit_set"]["exceptional"] = edit
        with pytest.raises(ValueError):
            certificate_from_dict(bad)


def _edits(node):
    """Every value one edit away from node: a decimal leaf plus 1, minus 1,
    times 2 or negated; a list without its first or its last entry, with
    its last entry repeated, or reversed; or one such edit below."""
    if isinstance(node, str):
        if node.lstrip("-").isdigit():
            v = int(node)
            yield from dict.fromkeys(str(w) for w in (v + 1, v - 1, 2 * v, -v) if w != v)
    elif isinstance(node, list):
        if node:
            yield from (node[1:], node[:-1], node + node[-1:])
        if node[::-1] != node:
            yield node[::-1]
        for i, child in enumerate(node):
            for edit in _edits(child):
                yield node[:i] + [edit] + node[i + 1:]
    elif isinstance(node, dict):
        for key, child in node.items():
            for edit in _edits(child):
                yield {**node, key: edit}


def _claim(cert):
    """What a certificate asserts, its family taken in modulus order."""
    family = sorted(cert.evidence, key=lambda ev: (ev.modulus.p, ev.modulus.k))
    return cert.kind, cert.witness_index, cert.finite_orbit, family


def _oracle_family_misses(problem, moduli):
    """True when no index n has phi^n(start) congruent to a target modulo
    every p^k of `moduli`, by plain arithmetic: each orbit is walked as
    canonical pairs, (x / y : 1) or (1 : y / x) when p | y, with the forms
    evaluated term by term, until a pair repeats; every index below the
    largest tail plus the lcm of the cycles is then compared with the
    targets by cross-multiplication."""
    f, g = problem.phi.F, problem.phi.G
    d = len(f) - 1
    orbits = []
    for p, k in moduli:
        n = p ** k
        x, y = problem.start.x1, problem.start.x2
        index, seq = {}, []
        while True:
            pt = (x * pow(y, -1, n) % n, 1) if y % p else (1, y * pow(x, -1, n) % n)
            if pt in index:
                break
            index[pt] = len(seq)
            seq.append(pt)
            x = sum(c * pt[0] ** i * pt[1] ** (d - i) for i, c in enumerate(f))
            y = sum(c * pt[0] ** i * pt[1] ** (d - i) for i, c in enumerate(g))
        tail = index[pt]
        orbits.append((n, seq, tail, len(seq) - tail))
    horizon = max(o[2] for o in orbits) + math.lcm(*(o[3] for o in orbits))

    def meets(orbit, i):
        n, seq, tail, cycle = orbit
        a, b = seq[i] if i < len(seq) else seq[tail + (i - tail) % cycle]
        return any((a * t.x2 - b * t.x1) % n == 0 for t in problem.targets)

    return not any(all(meets(o, i) for o in orbits) for i in range(horizon))


def test_tamper_fuzzer_finds_no_second_form_of_a_claim():
    # Each certificate is edited one field at a time, everywhere outside
    # engine, problem, schema_version and kind (the problem block has its
    # own tests above). An edit that both decodes and verifies must decode
    # to the claim of the original, up to the order of the family, or to a
    # family of other moduli that a plain checker confirms: an orbit fixed
    # at one point mod 2 and mod 2^2 alike makes k = 1 edited to k = 2
    # another true claim, not another form of the same one (8 under
    # (2z^2-5z-4)/(-z^2+2z-3) stays at 0, -3 under (5z^2-4z-2)/(-4z^2-2z+1)
    # at 1). Edits
    # of spelling ("+0", " 1", "0_5", non-ASCII digits) are left out:
    # int() reads them as the same value, and refusing them costs a
    # canonical check per decoded value that is not yet paid.
    problems = [
        _problem("z^2-1", 3, [0]),
        _problem("z^2-1", 3, [63]),
        _problem("z^2-1", 0, [5]),
        _problem("z^2-1", 0, [-1]),
        _problem("z^2-3", 5, [-2, 0], day_steps=4, night_stages=3, height_bits=256),
        _problem("z^2-2", -2, [5]),
    ]
    rng = random.Random(2121)
    while len(problems) < 100:
        problem = _random_problem(rng)
        if decide(problem).is_definitive:
            problems.append(problem)
    edits = accepted = reordered = other = 0
    for problem in problems:
        cert = decide(problem)
        doc = certificate_to_dict(problem, cert)
        for key in doc.keys() - {"engine", "problem", "schema_version", "kind"}:
            for edit in _edits(doc[key]):
                edits += 1
                try:
                    problem2, cert2 = certificate_from_dict({**doc, key: edit})
                except ValueError:
                    continue
                if not verify_certificate(problem2, cert2):
                    continue
                accepted += 1
                if _claim(cert2) == _claim(cert):
                    reordered += cert2.evidence != cert.evidence
                    continue
                moduli = {(ev.modulus.p, ev.modulus.k) for ev in cert2.evidence}
                assert cert2.kind == "empty" and cert2.finite_orbit is None, edit
                assert len(moduli) == len(cert2.evidence), edit
                assert moduli != {(ev.modulus.p, ev.modulus.k) for ev in cert.evidence}
                assert _oracle_family_misses(problem2, moduli), (key, edit)
                other += 1
    assert edits > 5000 and reordered > 0, (edits, accepted, reordered, other)


def _int_leaf_paths(node, path):
    """Paths to every decimal-string leaf at or below node."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _int_leaf_paths(child, path + (key,))
    elif isinstance(node, str) and node.lstrip("-").isdigit():
        yield path


def test_verify_rejects_every_plus_one_edit_of_the_evidence():
    # Add 1 to one integer leaf of the evidence at a time. Every edit must
    # fail to decode (a stored rational point no longer in lowest terms, or
    # a modular orbit pair no longer canonical, for two) or fail to verify:
    # decoding does not check stored residues, or whether a canonical pair
    # is the right point, so recomputing and comparing in
    # verify_certificate has to catch those edits.
    cases = [
        _problem("z^2-3", 5, [-2, 0], day_steps=4, night_stages=3, height_bits=256),
        _problem("z^2-1", 3, [0]),
        _problem("z^2-1", 3, [63]),
        _problem("z^2-1", 0, [5]),
        _problem("z^2-2", -2, [5]),
    ]
    outcomes = {"decode error": 0, "verify fails": 0}
    for problem in cases:
        cert = decide(problem)
        doc = certificate_to_dict(problem, cert)
        for field in ("moduli", "finite_orbit", "witness_index"):
            for path in _int_leaf_paths(doc.get(field), (field,)):
                bad = json.loads(json.dumps(doc))
                node = bad
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = str(int(node[path[-1]]) + 1)
                try:
                    problem2, cert2 = certificate_from_dict(bad)
                except ValueError:
                    outcomes["decode error"] += 1
                    continue
                assert not verify_certificate(problem2, cert2), path
                outcomes["verify fails"] += 1
    assert [len(decide(p).evidence) for p in cases[:2]] == [3, 1]
    assert outcomes["decode error"] > 0 and outcomes["verify fails"] > 40, outcomes


def test_problem_block_must_be_stored_in_normal_form():
    # a map stored times 2 or times -1, a wrong degree or resultant, and
    # targets or excluded primes out of order or repeated each describe the
    # problem in a form that problem_to_dict never writes
    problem = _problem("z^2-1", 3, [0, 5], excluded=(7, 11))
    doc = certificate_to_dict(problem, decide(problem))
    assert certificate_from_dict(json.loads(json.dumps(doc)))[0] == problem

    def scaled(k):
        def edit(block):
            for key in ("f", "g"):
                block["map"][key] = [str(k * int(c)) for c in block["map"][key]]
        return edit

    def plus_one(key):
        def edit(block):
            block["map"][key] = str(int(block["map"][key]) + 1)
        return edit

    def reordered(key):
        def edit(block):
            block[key].reverse()
        return edit

    def repeated(key):
        def edit(block):
            block[key].append(block[key][0])
        return edit

    edits = [
        scaled(2), scaled(-1), plus_one("resultant"), plus_one("degree"),
        reordered("targets"), repeated("targets"),
        reordered("excluded_primes"), repeated("excluded_primes"),
    ]
    for edit in edits:
        bad = json.loads(json.dumps(doc))
        edit(bad["problem"])
        assert bad["problem"] != doc["problem"]
        with pytest.raises(ValueError):
            certificate_from_dict(bad)


def _put(*path_and_value):
    """An edit of a certificate block that sets the entry at the path, the
    arguments before the last, to the last argument."""
    *path, value = path_and_value

    def edit(block):
        node = block
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


def test_problem_decoder_rejects_each_malformed_entry():
    # one entry of the problem block at a time: a stored point out of normal
    # form, an empty target set, a repeat kept in sorted order, a budget
    # that is not positive, an excluded entry that is not prime, or a
    # string that is not a decimal integer
    problem = _problem("z^2-1", 3, [0, 5], excluded=(7, 11))
    doc = certificate_to_dict(problem, decide(problem))
    edits = [
        _put("targets", 0, ["2", "4"]),
        _put("targets", 0, ["0", "0"]),
        _put("targets", 0, ["1", "-2"]),
        _put("start", ["0", "2"]),
        _put("targets", []),
        _put("targets", [["0", "1"], ["0", "1"], ["5", "1"]]),
        _put("excluded_primes", ["7", "7", "11"]),
        _put("budgets", "day_steps", "0"),
        _put("excluded_primes", ["4", "7", "11"]),
        _put("map", "f", 0, "-1.0"),
        _put("targets", 1, ["5", "0x1"]),
        _put("budgets", "night_stages", "twelve"),
        _put("excluded_primes", 0, "7e0"),
        _put("map", "resultant", ""),
    ]
    for edit in edits:
        bad = json.loads(json.dumps(doc))
        edit(bad["problem"])
        assert bad["problem"] != doc["problem"]
        with pytest.raises(ValueError):
            certificate_from_dict(bad)


def test_engine_decoder_rejects_each_value_of_the_wrong_json_type():
    # the engine block is not verified, but it must decode to what the
    # document holds: no string read as a bool and no string split into
    # warnings, so that decoding and encoding give the same bytes
    plain = _problem("z^2-1", 3, [0])
    skipping = _problem("z^2-1", 3, [0], excluded=(2,))
    edits = [
        (plain, _put("examined", 0, "hit_set_empty", "false")),
        (plain, _put("examined", 0, "hit_set_empty", 0)),
        (plain, _put("examined", 2, "hit_set_empty", None)),
        (plain, _put("warnings", "abc")),
        (plain, _put("warnings", ["a warning", 1])),
        (plain, _put("warnings", {"a": "b"})),
        (plain, _put("day_status", 0)),
        (plain, _put("day_status", ["escaped"])),
        (skipping, _put("skipped", 0, "reason", 7)),
        (skipping, _put("skipped", 0, "reason", ["excluded"])),
    ]
    for problem, edit in edits:
        doc = json.loads(json.dumps(certificate_to_dict(problem, decide(problem))))
        assert certificate_to_dict(*certificate_from_dict(doc)) == doc
        edit(doc["engine"])
        with pytest.raises(ValueError, match="malformed certificate"):
            certificate_from_dict(doc)


def _random_problem(rng):
    """A problem of degree 1 to 4 with targets that may include inf, some
    excluded primes and budgets away from the defaults."""
    d = rng.randint(1, 4)
    while True:
        f = [rng.randint(-6, 6) for _ in range(d + 1)]
        g = [rng.randint(-6, 6) for _ in range(d + 1)]
        try:
            phi = RationalMap.make(f, g)
            break
        except DegenerateMapError:
            pass

    def point():
        if rng.random() < 0.1:
            return INFINITY
        return normalize(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))

    targets = [point() for _ in range(rng.randint(1, 6))]
    excluded = rng.sample((2, 3, 5, 7, 11, 13), rng.randint(0, 3))
    budgets = Budgets(
        day_steps=rng.randint(1, 24),
        night_stages=rng.randint(1, 4),
        height_bits=rng.randint(64, 512),
        cycle_lcm_cap=rng.randint(10, 10**5),
    )
    return DecisionProblem.make(phi, point(), targets, excluded, budgets)


def _survey_problem(rng):
    """A problem shaped like the benchmark's survey: a map of degree 2 or 3
    with coefficients in [-3, 3], a start of height at most 5, 12 targets
    of height at most 20, and the survey's budgets."""
    d = rng.choice((2, 3))
    while True:
        f = [rng.randint(-3, 3) for _ in range(d + 1)]
        g = [rng.randint(-3, 3) for _ in range(d + 1)]
        try:
            phi = RationalMap.make(f, g)
            break
        except DegenerateMapError:
            pass
    start = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    targets = [Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(12)]
    budgets = Budgets(height_bits=4096, night_stages=4)
    return DecisionProblem.make(phi, start, targets, budgets=budgets)


def test_unchecked_builders_change_no_certificate_or_verdict(monkeypatch):
    # normalize (of ints, Fractions and coordinate pairs),
    # RationalMap.evaluate, hit_set and the hit-set fold build their points
    # and hit sets without the constructors' checks, by tuple.__new__; with
    # each of their results rebuilt by the checking constructor instead,
    # every problem, certificate and verdict is the same, and no check
    # refuses one
    def pair(pt):
        # coordinates times -2, which _from_pair divides out
        return (-2 * pt.x1, -2 * pt.x2)

    def run():
        rng = random.Random(2525)
        problems = [_random_problem(rng) for _ in range(300)]
        for _ in range(200):
            p = _survey_problem(rng)
            targets = map(pair, p.targets)
            problems.append(DecisionProblem.make(p.phi, pair(p.start), targets, budgets=p.budgets))
        out = []
        for problem in problems:
            cert = decide(problem)
            out.append((problem, cert, verify_certificate(problem, cert)))
        return out

    unchecked = run()
    calls = collections.Counter()

    def checked(name, builder):
        def rebuilt(*args):
            calls[name] += 1
            out = builder(*args)
            return type(out)(*out)
        return rebuilt

    builders = [
        (module, "normalize") for name, module in sys.modules.items()
        if name.startswith("orbitsieve")
        and getattr(module, "normalize", None) is projective_module.normalize
    ]
    assert {projective_module, ratmap_module, orbit_module, localglobal} <= {
        module for module, _ in builders
    }
    builders += [
        (projective_module, "_from_pair"),
        (ratmap_module.RationalMap, "evaluate"),
        (localglobal, "hit_set"),
        (localglobal, "_intersect_pair"),
    ]
    for owner, name in builders:
        monkeypatch.setattr(owner, name, checked(name, getattr(owner, name)))
    assert run() == unchecked
    assert set(calls) == {"normalize", "_from_pair", "evaluate", "hit_set", "_intersect_pair"}
    families = [ok for _, cert, ok in unchecked if len(cert.evidence) > 1]
    assert len(families) > 20 and all(families)
    assert {cert.kind for _, cert, _ in unchecked} == {"witness", "empty", "exhausted"}


def test_moduli_the_exact_walk_meets_change_no_certificate(monkeypatch):
    # decide defers, unwalked, each modulus at which a walked point meets a
    # target (localglobal._walk_meets); with no modulus deferred, every
    # modulus is walked as it is examined, and every certificate document,
    # engine block included, is the same. Every examined flag is the
    # emptiness of the modulus's own hit set. The first problem has the
    # primes 3 to 43 excluded, so 2^2 is examined second: its walk 9, 81
    # meets the target 3 mod 2 (crosses 6 and 78) but not mod 2^2, where
    # the hit set is empty.
    odd_primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)

    def run():
        rng = random.Random(2727)
        problems = [_problem("z^2", 9, [3], excluded=odd_primes)]
        problems += [_random_problem(rng) for _ in range(300)]
        problems += [_survey_problem(rng) for _ in range(200)]
        return [(p, certificate_to_dict(p, decide(p))) for p in problems]

    deferred = run()
    for problem, doc in deferred:
        for e in doc["engine"]["examined"]:
            m = PrimePowerModulus(int(e["p"]), int(e["k"]))
            assert e["hit_set_empty"] == localglobal._evidence(problem, m).hits.is_empty()
    monkeypatch.setattr(localglobal, "_walk_meets", lambda points, targets: lambda m: False)
    assert run() == deferred
    kinds = {doc["kind"] for _, doc in deferred}
    assert kinds == {"witness", "empty", "exhausted"}
    assert sum(len(doc.get("moduli", ())) > 1 for _, doc in deferred) > 20


def _engine_values(obj, out):
    """out, with every point, modulus, modular orbit, hit set and modulus
    evidence inside obj appended: tuples, the named ones included, lists
    and frozensets are walked."""
    if isinstance(obj, (ProjectivePoint, PrimePowerModulus, ModOrbit, HitSet, ModulusEvidence)):
        out.append(obj)
    if isinstance(obj, (tuple, list, frozenset)):
        for item in obj:
            _engine_values(item, out)
    return out


def test_engine_values_are_slotted_without_an_instance_dict(monkeypatch):
    # the values of decide, of verify's recomputation and of the decoder
    recomputed = []
    evidence = localglobal._evidence

    def recording(problem, m):
        ev = evidence(problem, m)
        recomputed.append(ev)
        return ev

    monkeypatch.setattr(localglobal, "_evidence", recording)
    rng = random.Random(26)
    problems = [_problem("z^2-1", 3, [0]), _problem("z^2-1", 0, [5])]
    problems += [_survey_problem(rng) for _ in range(20)]
    values = []
    for problem in problems:
        cert = decide(problem)
        assert verify_certificate(problem, cert) == cert.is_definitive
        decoded = certificate_from_dict(certificate_to_dict(problem, cert))
        _engine_values([problem, cert, decoded], values)
    _engine_values(recomputed, values)
    kinds = {type(v) for v in values}
    assert kinds == {ProjectivePoint, PrimePowerModulus, ModOrbit, HitSet, ModulusEvidence}
    for cls in kinds:
        assert "__slots__" in vars(cls)
    assert not [v for v in values if hasattr(v, "__dict__")]


def _normal_pairs(rng, n):
    """n normalized coordinate pairs: 0, inf, 1 and -1, then random ones of
    up to 300 bits, negative ones included."""
    pairs = [(0, 1), (1, 0), (1, 1), (-1, 1)]
    while len(pairs) < n:
        a = rng.choice((1, -1)) * rng.getrandbits(rng.choice((3, 20, 300)))
        b = rng.getrandbits(rng.choice((3, 20, 300)))
        g = math.gcd(a, b) if b else a  # b == 0: the pair (1, 0)
        if g:
            pairs.append((a // g, b // g))
    return pairs


def test_points_and_hit_sets_behave_as_checked_tuples():
    rng = random.Random(28)
    pairs = _normal_pairs(rng, 2000)
    pts = [ProjectivePoint(*pair) for pair in pairs]
    # points hash, compare and sort as their coordinate pairs, so sets of
    # them iterate, and lists of them sort, in the order of the pairs
    assert [hash(pt) for pt in pts] == [hash(pair) for pair in pairs]
    for i, (pt, pair) in enumerate(zip(pts, pairs)):
        qt, qair = pts[i - 1], pairs[i - 1]
        assert (pt == qt, pt < qt, pt > qt) == (pair == qair, pair < qair, pair > qair)
    assert list(map(tuple, sorted(pts))) == sorted(pairs)
    assert list(map(tuple, set(pts))) == list(set(pairs))

    # every builder returns exactly a ProjectivePoint or a HitSet
    built = [parse_point(str(pt)) for pt in pts[:200]]
    built += [parse_point(f"[{-3 * a}:{-3 * b}]") for a, b in pairs[:200]]
    built += [normalize(pair) for pair in pairs[:200]]
    built += [normalize((-2 * a, -2 * b)) for a, b in pairs[:200]]
    built += [normalize(str(pt)) for pt in pts[:200]]
    built += [normalize(a) for a, _ in pairs[:200]]
    built += [normalize(Fraction(a, b)) for a, b in pairs[:200] if b]
    phi = parse_map("(z^2-3)/(2z+5)")
    built += [phi.evaluate(pt) for pt in pts[:200]]
    built += list(islice(orbit_points(phi, pts[2]), 12))
    assert {type(pt) for pt in built} == {ProjectivePoint}
    problem = _problem("z^2-1", 5, [0, 3], day_steps=4, night_stages=3, height_bits=256)
    orbits = [orbit_mod(problem.phi, problem.start, PrimePowerModulus(p, 1)) for p in (3, 5)]
    hits = [hit_set(orb, problem.targets) for orb in orbits]
    hits.append(localglobal._intersect_pair(*hits, 10 ** 7))
    assert {type(hs) for hs in hits} == {HitSet}
    decoded, cert = certificate_from_dict(certificate_to_dict(problem, decide(problem)))
    assert len(cert.evidence) == 2
    assert {type(ev.hits) for ev in cert.evidence} == {HitSet}
    assert {type(pt) for pt in (decoded.start,) + decoded.targets} == {ProjectivePoint}
    closed = _problem("z^2-1", 0, [5])
    _, cert = certificate_from_dict(certificate_to_dict(closed, decide(closed)))
    assert {type(pt) for pt in cert.finite_orbit.points} == {ProjectivePoint}

    # the constructors still check, and so do pickle and deepcopy, which
    # build through them
    for pair in ((2, 4), (0, 0), (1, -1), (-1, 0)):
        with pytest.raises(ValueError):
            ProjectivePoint(*pair)
    for fields in ((2, (1, 0), 3, ()), (0, (), 0, ()), (0, (), 6, (6,)), (1, (1,), 2, ())):
        with pytest.raises(ValueError):
            HitSet(*fields)
    with pytest.raises(TypeError):
        HitSet(0, (), 6, [1, 3])
    for value in pts[:50] + hits:
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(copied) is type(value) and copied == value
    for unchecked in (
        tuple.__new__(ProjectivePoint, (2, 4)),
        tuple.__new__(HitSet, (0, (), 6, (6,))),
    ):
        with pytest.raises(ValueError):
            pickle.loads(pickle.dumps(unchecked))
        with pytest.raises(ValueError):
            copy.deepcopy(unchecked)


def test_a_bool_start_is_stored_as_the_int_it_stands_for():
    # normalize(True) is the point 1, with the plain int 1 as its first
    # coordinate: the certificate stores "1", decodes and verifies
    problem = DecisionProblem.make(parse_map("z^2-1"), True, [5])
    assert problem.start == ProjectivePoint(1, 1) and type(problem.start.x1) is int
    cert = decide(problem)
    doc = certificate_to_dict(problem, cert)
    assert doc["problem"]["start"] == ["1", "1"]
    assert certificate_from_dict(json.loads(json.dumps(doc))) == (problem, cert)
    assert verify_certificate(problem, cert)


# sha256 of certificate_to_dict's JSON for the 300 survey-shaped problems of
# seed 28 below, pinned while points and hit sets were still dataclasses:
# it changes with any change of set or sort order in decide.
PINNED_SURVEY_CERTIFICATES_SHA256 = (
    "750903cb43e82d8a86f215fc999b6ef6cd34a6b01dab902ac5d4417b2e21c40a"
)


def test_survey_certificate_bytes_match_their_pinned_digest():
    rng = random.Random(28)
    digest = hashlib.sha256()
    kinds = collections.Counter()
    for _ in range(300):
        problem = _survey_problem(rng)
        doc = certificate_to_dict(problem, decide(problem))
        kinds[doc["kind"], "finite_orbit" in doc, len(doc.get("moduli", ())) > 1] += 1
        digest.update(json.dumps(doc).encode())
    assert digest.hexdigest() == PINNED_SURVEY_CERTIFICATES_SHA256
    # the problems reach every kind of certificate, families included
    assert set(kinds) >= {
        ("witness", False, False),
        ("empty", True, False),
        ("empty", False, False),
        ("empty", False, True),
        ("exhausted", False, False),
    }, kinds


def test_random_certificates_survive_the_json_round_trip():
    rng = random.Random(67)
    kinds = set()
    for _ in range(300):
        problem = _random_problem(rng)
        cert = decide(problem)
        kinds.add(cert.kind if cert.finite_orbit is None else "closed")
        text = json.dumps(certificate_to_dict(problem, cert), sort_keys=True, indent=2)
        problem2, cert2 = certificate_from_dict(json.loads(text))
        assert problem2 == problem
        assert problem2.phi.res == problem.phi.res
        assert cert2 == cert
    assert kinds == {"witness", "closed", "empty", "exhausted"}, kinds


def test_verify_rejects_a_witness_it_cannot_reach():
    # 2, 4, 16, ..., 2^64 under z^2: index 6 is a true witness, but past a
    # 64-bit height budget; index -1 names no iterate
    problem = _problem("z^2", 2, [2 ** 64])
    assert verify_certificate(problem, Certificate("witness", witness_index=6))
    assert not verify_certificate(problem, Certificate("witness", witness_index=-1))
    tight = _problem("z^2", 2, [2 ** 64], height_bits=64)
    assert not verify_certificate(tight, Certificate("witness", witness_index=6))


def test_verify_rejects_an_empty_certificate_without_evidence():
    problem = _problem("z^2-1", 3, [0])
    assert not verify_certificate(problem, Certificate("empty"))


def test_verify_rejects_a_modulus_of_bad_reduction():
    # 2 divides the resultant of (z^2+1)/(2z); an empty hit set stored for
    # it must not settle the problem
    problem = _problem("(z^2+1)/(2z)", 2, [-1])
    assert not problem.phi.is_good_prime(2)
    bad = ModulusEvidence(ModOrbit(PrimePowerModulus(2, 1), 0, 1, (0,)), NO_INDICES)
    assert not verify_certificate(problem, Certificate("empty", evidence=(bad,)))


def test_verify_rejects_a_family_past_an_edited_cycle_lcm_cap():
    # the pinned family {3, 5}: both hit sets have cycle length 2
    problem = _problem(
        "z^2-1", 5, [0, 3], day_steps=4, night_stages=3, height_bits=256
    )
    cert = decide(problem)
    assert [ev.hits.cycle_length for ev in cert.evidence] == [2, 2]
    assert verify_certificate(problem, cert)
    capped = problem._replace(budgets=problem.budgets._replace(cycle_lcm_cap=1))
    assert not verify_certificate(capped, cert)


def test_verify_rejects_finite_orbit_cert_for_other_targets():
    problem = _problem("z^2-1", 0, [5])
    cert = decide(problem)
    overlapping = _problem("z^2-1", 0, [5, -1])
    assert not verify_certificate(overlapping, cert)


def test_budgets_validate():
    with pytest.raises(ValueError):
        Budgets(day_steps=0)
    with pytest.raises(ValueError):
        Budgets(night_stages=-1)


def test_budgets_store_a_bool_as_the_int_it_stands_for():
    budgets = Budgets(day_steps=True)
    assert budgets == Budgets(day_steps=1)
    assert [type(v) for v in budgets] == [int] * 4
    with pytest.raises(ValueError):
        Budgets(night_stages=False)
    # decide writes "1", and the certificate decodes and verifies
    problem = _problem("z+1", 0, [1], day_steps=True)
    doc = json.loads(json.dumps(certificate_to_dict(problem, decide(problem))))
    assert doc["problem"]["budgets"]["day_steps"] == "1"
    assert doc["kind"] == "witness"
    assert verify_certificate(*certificate_from_dict(doc))


def test_budgets_refuse_a_value_that_is_not_an_int():
    for value in (2.5, 256.0, "256", None, Fraction(256)):
        with pytest.raises(TypeError, match="day_steps"):
            Budgets(day_steps=value)
    with pytest.raises(TypeError, match="cycle_lcm_cap"):
        Budgets(cycle_lcm_cap=1e7)


def test_decision_problem_validates():
    phi = parse_map("z^2-1")
    with pytest.raises(ValueError):
        DecisionProblem.make(phi, normalize(1), [])
    with pytest.raises(ValueError):
        DecisionProblem.make(phi, normalize(1), [normalize(0)], excluded_primes=(4,))


def test_degree_one_demo_rows():
    rows = {(r.p, r.k): r.minimal_n for r in degree_one_demo(5, 3)}
    assert rows[(2, 3)] == 4
    assert rows[(3, 2)] == 6
    assert rows[(5, 1)] == 5
    assert rows[(2, 1)] == 2
    assert rows[(3, 3)] == 9
    for (p, k), n in rows.items():
        assert factorial_valuation(n, p) >= k
        assert factorial_valuation(n - 1, p) < k


def test_newton_reports_known_verdicts():
    real, p5, p7 = newton_place_report("z^3-2", 3, [5, 7])
    assert real.place == "real" and real.verdict == "converges"
    assert p5.place == 5 and p5.verdict == "converges"
    vals = p5.detail["valuations"]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert p7.place == 7 and p7.verdict == "diverges"


def test_padic_report_verdicts():
    # from -1/2, z^3 - z has f = 3/8 (3-adic valuation 1), and one Newton
    # step lands exactly on the root 1
    _, p3 = newton_place_report("z^3-z", Fraction(-1, 2), [3])
    assert p3.verdict == "converges"
    assert p3.detail["valuations"] == [1]
    assert p3.detail["note"] == "landed exactly on a rational root"
    # from 1/2, z^2 + 1 escapes 2-adically: the valuations fall strictly
    _, p2 = newton_place_report("z^2+1", Fraction(1, 2), [2])
    assert p2.verdict == "diverges"
    assert p2.detail["valuations"] == list(range(-2, -23, -2))
    assert "note" not in p2.detail
    # from 1, z^3 - 2 cycles 2-adically through 0, 1, -9, -6, -3: the
    # window neither rises, nor stays flat, nor falls
    _, p2 = newton_place_report("z^3-2", 1, [2])
    assert p2.verdict == "undecided"
    assert p2.detail["valuations"][:6] == [0, 1, -9, -6, -3, 0]
    assert "note" not in p2.detail


def test_newton_report_validation():
    with pytest.raises(ValueError):
        newton_place_report("z^2-2", 0, [4])  # composite place
    with pytest.raises(ValueError):
        newton_place_report("z^2", 1, [5])  # not squarefree
    with pytest.raises(ValueError):
        newton_place_report("z-1", 2, [5])  # degree too small
    with pytest.raises(ValueError):
        newton_place_report("z^2-1", 1, [5])  # alpha already a root
    with pytest.raises(ValueError):
        newton_place_report("z^2-2", 1, [5], real_iters=-1)
    with pytest.raises(ValueError):
        newton_place_report("z^2-2", 1, [5], p_iters=-1)


def test_newton_report_vanishing_derivative_stays_undecided():
    # f = z^2 - z from 1/2: the derivative vanishes at the start point
    real, p3 = newton_place_report("z^2-z", Fraction(1, 2), [3])
    assert real.verdict != "converges"
    assert p3.verdict == "undecided"
    assert "derivative" in p3.detail.get("note", "")


def test_newton_report_stops_when_iterates_outgrow_the_height_budget():
    # exact Newton for z^5 + z + 3 grows about 5-fold in bits per step, so
    # from an iterate of more than 2^20 / 5 bits the walk stops before
    # evaluating f there; from 2 it would pass 2.8M bits by iterate 9
    _, p5 = newton_place_report("z^5+z+3", Fraction(1, 2 ** 210000), [5])
    assert p5.verdict == "undecided"
    assert p5.detail == {
        "valuations": [],
        "difference_valuations": [],
        "note": "iterates outgrew the height budget",
    }


def test_newton_root_check_is_cheap_at_an_alpha_of_large_height():
    # (2^210000 + 1) / 2^210000 is no root of z^5 + z + 3: the rational root
    # theorem needs 2^210000 to divide the leading coefficient 1, so f is
    # not evaluated exactly there (which took about 1 s); the reports are
    # those of the exact check
    start = time.perf_counter()
    real, p5 = newton_place_report(
        "z^5+z+3", Fraction(2 ** 210000 + 1, 2 ** 210000), [5]
    )
    assert time.perf_counter() - start < 0.1
    assert (real.verdict, real.detail) == (
        "converges",
        {"iterations": 11, "final_residual": 0.0, "final_x": -1.1329975658850653},
    )
    assert (p5.verdict, p5.detail) == (
        "undecided",
        {
            "valuations": [],
            "difference_valuations": [],
            "note": "iterates outgrew the height budget",
        },
    )


def test_newton_report_rejects_exactly_the_rational_roots():
    # f = (b z - a) (z^2 + c) (e z + 1) / s: each rational root raises, and
    # every other start, some of which pass the divisibility pretest, runs
    rng = random.Random(151)
    raised = ran = 0
    for _ in range(60):
        a, b = rng.randint(-9, 9), rng.randint(1, 6)
        c, e, s = rng.randint(1, 5), rng.randint(-4, 4), rng.randint(1, 7)
        f = f"({b}z - ({a}))(z^2 + {c})({e}z + 1)/{s}"
        roots = {Fraction(a, b)} | ({Fraction(-1, e)} if e else set())
        if e and len(roots) == 1:
            continue  # a double root: f is not squarefree
        for alpha in roots | {Fraction(rng.randint(-9, 9), rng.randint(1, 6))}:
            if alpha in roots:
                with pytest.raises(ValueError, match="already a root"):
                    newton_place_report(f, alpha, [], real_iters=0)
                raised += 1
            else:
                newton_place_report(f, alpha, [], real_iters=0)
                ran += 1
    assert raised > 60 and ran > 30


def test_newton_real_report_never_claims_divergence():
    # z^2 + 1 has no real root; the real verdict may stay undecided but
    # must never be a divergence claim (double precision evidence only)
    reports = newton_place_report("z^2+1", 2, [])
    assert reports[0].verdict in ("undecided", "converges")
    assert reports[0].verdict != "diverges"
