"""Release acceptance checklist, one test per criterion.

conftest.py matches these tests by name and prints a criterion-by-criterion
PASS/FAIL summary at the end of the run. Wherever a criterion asks for an
independent check, the expected answer is recomputed here with plain integer
and Fraction arithmetic instead of calling back into the library.
"""

import json
import math
import random
import time
from fractions import Fraction

from orbitsieve.localglobal import (
    Budgets,
    DecisionProblem,
    certificate_from_dict,
    certificate_to_dict,
    decide,
    verify_certificate,
)
from orbitsieve.numtheory import degree_one_demo
from orbitsieve.orbit import orbit_rational
from orbitsieve.projective import (
    INFINITY,
    PrimePowerModulus,
    chordal,
    congruent_mod,
    normalize,
    reduce_mod,
)
from orbitsieve.ratmap import (
    dynatomic,
    is_polynomial_type,
    iterate_point,
    newton_place_report,
    parse_map,
    rational_periodic_points,
)
from orbitsieve.zsigmondy import primitive_divisors


def _mobius(n: int) -> int:
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


def _small_primes(bound: int) -> list[int]:
    return [p for p in range(2, bound + 1) if all(p % q for q in range(2, p))]


def test_criterion_1_golden_decisions(time_limit):
    # (a) z^2-1 from 3, target 0: settled by a family of empty modular hit
    # sets, and the family must contain a modulus that is empty on its own.
    t0 = time.perf_counter()
    with time_limit():
        problem = DecisionProblem.make(parse_map("z^2-1"), 3, [0])
        cert = decide(problem)
    assert time.perf_counter() - t0 < 1.0
    assert cert.kind == "empty" and cert.finite_orbit is None
    assert cert.evidence
    assert any(ev.hits.is_empty() for ev in cert.evidence)
    assert verify_certificate(problem, cert)

    # Independent scan. The orbit of 3 under x -> x^2 - 1 stays integral,
    # so its reduction mod p^k is ordinary modular arithmetic; check that up
    # to the index bound implied by the evidence, some family member keeps
    # the orbit away from 0.
    cycles = math.lcm(*(ev.hits.cycle_length for ev in cert.evidence))
    bound = 3 * cycles + max(ev.hits.threshold for ev in cert.evidence)
    tracks = []
    for ev in cert.evidence:
        m = ev.modulus.modulus
        x, track = 3 % m, []
        for _ in range(bound + 1):
            track.append(x)
            x = (x * x - 1) % m
        tracks.append((m, track))
    for n in range(bound + 1):
        assert any(track[n] != 0 for _, track in tracks), f"index {n} uncovered"

    # (b) same map and start, target 63: a witness at index 2.
    t0 = time.perf_counter()
    with time_limit():
        problem = DecisionProblem.make(parse_map("z^2-1"), 3, [63])
        cert = decide(problem)
    assert time.perf_counter() - t0 < 1.0
    assert cert.kind == "witness"
    assert verify_certificate(problem, cert)
    x, first_hit = Fraction(3), None
    for n in range(8):
        if x == 63:
            first_hit = n
            break
        x = x * x - 1
    assert first_hit == 2
    assert cert.witness_index == first_hit

    # (c) start 0, target 5: the orbit closes (0 -> -1 -> 0) without ever
    # reaching 5, so the decision rests on the finite orbit itself.
    t0 = time.perf_counter()
    with time_limit():
        problem = DecisionProblem.make(parse_map("z^2-1"), 0, [5])
        cert = decide(problem)
    assert time.perf_counter() - t0 < 1.0
    assert cert.kind == "empty" and cert.finite_orbit is not None
    assert verify_certificate(problem, cert)
    summ = cert.finite_orbit
    x, seen = Fraction(0), []
    for _ in range(3 * summ.cycle + summ.tail + 1):
        assert x != 5
        seen.append(x)
        x = x * x - 1
    assert seen[summ.tail] == seen[summ.tail + summ.cycle]


def test_criterion_2_degree_one_exhaustion_and_factorial_depths():
    # z + 1 from 1 can only exhaust: the orbit 1, 2, 3, ... never closes and
    # never meets {0, inf}, yet sweeps every residue at every modulus.
    problem = DecisionProblem.make(
        parse_map("z+1"), 1, [0, INFINITY], budgets=Budgets(night_stages=8)
    )
    cert = decide(problem)
    assert cert.kind == "exhausted"
    assert cert.night_stages_done == 8
    assert len(cert.examined) == 36  # stage s contributes s moduli
    assert all(not empty for _, _, empty in cert.examined)
    assert cert.warnings

    # The factorial-depth table behind the same phenomenon: least n with
    # p^k | n!, checked against a running tally of v_p(n!).
    rows = {(r.p, r.k): r.minimal_n for r in degree_one_demo(50, 5)}
    primes = _small_primes(50)
    assert len(rows) == 5 * len(primes)
    for p in primes:
        v, n, firsts = 0, 0, {}
        while len(firsts) < 5:
            n += 1
            m = n
            while m % p == 0:
                v += 1
                m //= p
            for k in range(1, 6):
                if v >= k and k not in firsts:
                    firsts[k] = n
        for k in range(1, 6):
            assert rows[(p, k)] == firsts[k]


def test_criterion_3_fermat_primitive_divisors():
    phi = parse_map("z^2")
    run = primitive_divisors(phi, 2, 1, 5)
    assert [sorted(r.primitive) for r in run.reports] == [
        [3], [5], [17], [257], [65537]
    ]
    assert run.warnings == ()

    # Soundness: each reported prime divides its own term and no earlier one
    # (division checked through congruence of projective points mod q).
    for rep in run.reports:
        for q in rep.primitive:
            mod = PrimePowerModulus(q, 1)
            assert congruent_mod(iterate_point(phi, 2, rep.m), 1, mod)
            for earlier in range(1, rep.m):
                assert not congruent_mod(iterate_point(phi, 2, earlier), 1, mod)


def test_criterion_4_dynatomic_forms_and_periodic_points():
    phi = parse_map("z^2-1")
    assert dynatomic(phi, 2) == (0, 1, 1)  # z^2 + z

    pts = rational_periodic_points(phi, 2)
    assert pts == {normalize(0), normalize(-1)}
    for pt in pts:
        assert iterate_point(phi, pt, 2) == pt
        assert iterate_point(phi, pt, 1) != pt
    assert rational_periodic_points(phi, 1) == {INFINITY}

    for text in ("z+1", "z^2-1", "z^2-2", "1/z^2", "z^3-1", "(z^3+1)/(3z)"):
        psi = parse_map(text)
        d = psi.degree
        for n in range(1, 7):
            if n == 1:
                expected = d + 1
            else:
                expected = sum(
                    _mobius(n // e) * d**e
                    for e in range(1, n + 1)
                    if n % e == 0
                )
            assert len(dynatomic(psi, n, max_degree=1 << 14)) - 1 == expected


def test_criterion_5_reduction_is_compatible_with_evaluation():
    rng = random.Random(1729)
    maps = [
        parse_map(t)
        for t in (
            "z^2-1", "z^2-2", "z^2", "1/z^2", "(z^2+1)/(2z)", "z^3-1", "z^2+1/3"
        )
    ]
    primes = (2, 3, 5, 7, 11, 13)

    def random_point():
        if rng.random() < 0.1:
            return INFINITY
        return Fraction(rng.randint(-40, 40), rng.randint(1, 24))

    def random_good_setting():
        while True:
            phi = rng.choice(maps)
            p = rng.choice(primes)
            if phi.res % p:
                return phi, PrimePowerModulus(p, rng.randint(1, 3))

    # reduce(phi(x)) == phi_mod(reduce(x)) at good prime powers
    for _ in range(1000):
        phi, m = random_good_setting()
        x = random_point()
        assert reduce_mod(phi.evaluate(x), m) == phi.evaluate_mod(reduce_mod(x, m), m)

    # x == y mod p^k forces phi(x) == phi(y) mod p^k
    for _ in range(1000):
        phi, m = random_good_setting()
        x = normalize(random_point())
        y = normalize(
            (
                x.x1 + m.modulus * rng.randint(-5, 5),
                x.x2 + m.modulus * rng.randint(-5, 5),
            )
        )
        assert congruent_mod(x, y, m)
        assert congruent_mod(phi.evaluate(x), phi.evaluate(y), m)


def test_criterion_6_chordal_metric_axioms():
    rng = random.Random(628)

    def random_point():
        if rng.random() < 0.08:
            return INFINITY
        return Fraction(rng.randint(-60, 60), rng.randint(1, 30))

    for _ in range(1000):
        x, y, z = random_point(), random_point(), random_point()
        for p in (2, 3, 5, 7, 11):
            dxy = chordal(x, y, p).distance()
            dxz = chordal(x, z, p).distance()
            dyz = chordal(y, z, p).distance()
            assert dxy == chordal(y, x, p).distance()
            assert dxz <= max(dxy, dyz)
            assert (dxy == 0) == (normalize(x) == normalize(y))
            # representative independence: rescaling coordinates (even by a
            # multiple of p) cannot move the distance
            q = rng.choice((-1, 1)) * rng.randint(1, 60)
            xs = normalize(x)
            assert chordal((xs.x1 * q, xs.x2 * q), y, p).distance() == dxy


def test_criterion_7_polynomial_type_detection():
    assert is_polynomial_type(parse_map("z^2"), INFINITY) == 1
    assert is_polynomial_type(parse_map("1/z^2"), INFINITY) == 2
    assert is_polynomial_type(parse_map("z^2"), 1) is None

    maps = [parse_map(t) for t in ("z^2", "1/z^2", "z^2-1", "(z^2+1)/(2z)")]
    points = [0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2), INFINITY]
    for phi in maps:
        for pt in points:
            k = is_polynomial_type(phi, pt)
            if k is None:
                continue
            summ = orbit_rational(phi, pt, 16)
            assert summ.is_preperiodic
            assert len(summ.distinct_points()) <= 2


def test_criterion_8_newton_iteration_places():
    reports = {
        r.place: r
        for r in newton_place_report("z^3-2", 3, [5], p_iters=10)
    }
    assert reports[5].verdict == "converges"
    vals = reports[5].detail["valuations"]
    assert len(vals) >= 10
    assert all(a < b for a, b in zip(vals, vals[1:]))

    reports = {
        r.place: r
        for r in newton_place_report("z^3-2", 1, [7], p_iters=10)
    }
    assert reports["real"].verdict == "converges"
    assert reports["real"].detail["final_residual"] < 1e-12
    assert reports[7].verdict != "converges"


def test_criterion_9_determinism_and_tamper_rejection():
    cases = [("z^2-1", 3, (0,)), ("z^2-1", 3, (63,)), ("z^2-1", 0, (5,))]
    docs = []
    for text, start, targets in cases:
        problem = DecisionProblem.make(parse_map(text), start, targets)
        first = decide(problem)
        second = decide(problem)
        blob = json.dumps(
            certificate_to_dict(problem, first), sort_keys=True, indent=2
        )
        assert blob == json.dumps(
            certificate_to_dict(problem, second), sort_keys=True, indent=2
        )
        assert verify_certificate(problem, first)
        docs.append(blob)

    def rejects(doc):
        problem, cert = certificate_from_dict(doc)
        return not verify_certificate(problem, cert)

    swapped = json.loads(docs[0])
    swapped["moduli"][0]["p"] = "7"  # a modulus the engine never certified
    assert rejects(swapped)

    edited = json.loads(docs[0])
    edited["moduli"][0]["hit_set"]["residues"] = ["0"]
    assert rejects(edited)

    shifted = json.loads(docs[1])
    shifted["witness_index"] = str(int(shifted["witness_index"]) + 1)
    assert rejects(shifted)
