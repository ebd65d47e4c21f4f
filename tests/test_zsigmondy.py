"""Tests for support factorization and primitive prime divisors of the
terms phi^m(beta) - gamma."""

import math
import random

import pytest

from orbitsieve import zsigmondy
from orbitsieve.numtheory import FactorizationBudgetError, is_prime
from orbitsieve.orbit import orbit_rational
from orbitsieve.projective import PrimePowerModulus, congruent_mod, normalize
from orbitsieve.ratmap import (
    DegenerateMapError,
    HeightBudgetError,
    RationalMap,
    is_polynomial_type,
    iterate_point,
    parse_map,
)
from orbitsieve.zsigmondy import primitive_divisors


def test_primitive_divisors_known_supports():
    # the terms of z^2 from 2 against 1 are 2^(2^m) - 1: 3, 15 and 255
    run = primitive_divisors(parse_map("z^2"), 2, 1, 3)
    assert [(r.term_bits, r.term_valuations) for r in run.reports] == [
        (2, ((3, 1),)),
        (4, ((3, 1), (5, 1))),
        (8, ((3, 1), (5, 1), (17, 1))),
    ]
    # z^2 - 1 sends 3 to 8, against 0
    run = primitive_divisors(parse_map("z^2-1"), 3, 0, 1)
    assert [(r.term_bits, r.term_valuations) for r in run.reports] == [
        (4, ((2, 3),))
    ]


def test_primitive_divisors_rejects_exact_hits():
    # z^2 - 1 sends 0 to -1, so the first term vanishes
    with pytest.raises(ValueError, match="equals gamma exactly"):
        primitive_divisors(parse_map("z^2-1"), 0, -1, 1)


def test_fermat_primitive_divisors():
    run = primitive_divisors(parse_map("z^2"), 2, 1, 5)
    assert run.warnings == ()
    assert [sorted(r.primitive) for r in run.reports] == [
        [3],
        [5],
        [17],
        [257],
        [65537],
    ]
    assert [r.term_bits for r in run.reports] == [2, 4, 8, 16, 32]
    # classical cross check: the multiplicative order of 2 modulo the
    # primitive prime found at index m is exactly 2^m
    for report in run.reports:
        (q,) = report.primitive
        order = 1
        acc = 2 % q
        while acc != 1:
            acc = acc * acc % q  # order is a power of two here
            order *= 2
        assert order == 2 ** report.m, (report.m, q)


def test_a_term_whose_new_part_is_prime_is_reported():
    # 9^64 - 1 is 2^9 * 5 * 17 * 41 * 193 * 21523361 * 926510094425921 times
    # a 101-bit prime. Its primes but the last divide earlier terms, so only
    # that prime is left to factor; factored whole, the term runs out of rho
    # budget on its 151-bit cofactor.
    run = primitive_divisors(parse_map("z^2"), 9, 1, 6)
    assert [r.m for r in run.reports] == [1, 2, 3, 4, 5, 6]
    seen = set()
    for report in run.reports:
        term = 9 ** (2 ** report.m) - 1
        assert math.prod(p**e for p, e in report.term_valuations) == term
        assert all(is_prime(p) for p, _ in report.term_valuations)
        support = {p for p, _ in report.term_valuations}
        assert report.primitive == support - seen
        seen |= support
    assert run.reports[-1].primitive == {1716841910146256242328924544641}


def test_a_budget_error_lists_every_prime_found_in_the_term(monkeypatch):
    # The m-th term of z^2 from 4 against 1 is 2^(2^(m+1)) - 1, the product
    # of the Fermat numbers F_0, ..., F_m. At m = 6 the earlier terms give
    # F_0, ..., F_4 and F_5 = 641 * 6700417, and what is left is
    # F_6 = 274177 * 67280421310721, which one rho step does not split.
    factorize = zsigmondy.factorize
    monkeypatch.setattr(zsigmondy, "factorize", lambda n: factorize(n, 1000, 1))
    with pytest.raises(FactorizationBudgetError) as info:
        primitive_divisors(parse_map("z^2"), 4, 1, 6)
    assert info.value.cofactor == 2**64 + 1
    assert info.value.partial == (
        (3, 1), (5, 1), (17, 1), (257, 1), (641, 1), (65537, 1), (6700417, 1),
    )


def test_excluded_primes_cannot_be_primitive():
    run = primitive_divisors(parse_map("z^2"), 2, 1, 2, excluded={5})
    assert sorted(run.reports[0].primitive) == [3]
    assert run.reports[1].primitive == frozenset()
    assert all(p != 5 for p, _ in run.reports[1].term_valuations)


def test_excluded_entries_must_be_prime():
    with pytest.raises(ValueError, match="excluded entry 4 is not prime"):
        primitive_divisors(parse_map("z^2"), 2, 1, 5, excluded=[4])


def test_scans_stop_once_the_height_bound_proves_escape(monkeypatch):
    # the gamma scan closes 0 -> -1 -> 0 in 2 steps, is_polynomial_type
    # walks phi(0) and phi^2(0) once in 2 more, and the beta scan of 3
    # proves escape at index m_max; a beta scan to the 2^20-bit height
    # budget makes 24 calls in all
    calls = 0
    evaluate = RationalMap.evaluate

    def counting(self, x):
        nonlocal calls
        calls += 1
        return evaluate(self, x)

    monkeypatch.setattr(RationalMap, "evaluate", counting)
    run = primitive_divisors(parse_map("z^2-1"), 3, 0, 6)
    assert len(run.reports) == 6
    assert calls <= 6 + 4


def test_polynomial_type_target_warns_and_still_runs():
    # gamma = 0 is a totally ramified fixed point of z^2: the guarantee is
    # void, and indeed the support is stuck at {2} with nothing primitive
    # after the first index
    run = primitive_divisors(parse_map("z^2"), 2, 0, 4)
    assert any("polynomial type" in w for w in run.warnings)
    for report in run.reports:
        assert {p for p, _ in report.term_valuations} == {2}
        if report.m > 1:
            assert report.primitive == frozenset()


def test_non_preperiodic_gamma_warns():
    run = primitive_divisors(parse_map("z^2-1"), 3, 2, 2)
    assert any("preperiodic" in w for w in run.warnings)


def test_preperiodic_beta_warns():
    run = primitive_divisors(parse_map("z^2-1"), 0, 2, 2)
    assert any("beta is preperiodic" in w for w in run.warnings)


def test_primitive_divisor_soundness_recheck():
    # a primitive prime at index m must divide the m-th term and no earlier
    # one, where divisibility is the depth 1 congruence on P^1
    phi = parse_map("z^2-1")
    beta = normalize(3)
    gamma = normalize(0)
    run = primitive_divisors(phi, beta, gamma, 6)
    for report in run.reports:
        for q in report.primitive:
            m1 = PrimePowerModulus(q, 1)
            assert congruent_mod(iterate_point(phi, beta, report.m), gamma, m1)
            for earlier in range(1, report.m):
                assert not congruent_mod(
                    iterate_point(phi, beta, earlier), gamma, m1
                ), (q, report.m, earlier)


def test_support_agrees_with_modular_orbit_hits():
    # q is in the support of term m exactly when the orbit mod q hits the
    # reduced target at index m
    from orbitsieve.orbit import hit_set, orbit_mod

    phi = parse_map("z^2-1")
    run = primitive_divisors(phi, 3, 0, 5)
    support_by_m = {
        r.m: {p for p, _ in r.term_valuations} for r in run.reports
    }
    seen_primes = sorted(set().union(*support_by_m.values()))
    for q in seen_primes:
        if not phi.is_good_prime(q):
            continue
        hs = hit_set(orbit_mod(phi, 3, PrimePowerModulus(q, 1)), [normalize(0)])
        for m in range(1, 6):
            assert hs.contains(m) == (q in support_by_m[m]), (q, m)


def _reference_rows(phi, beta, gamma, m_max, bits):
    """Per-m path: re-iterate from beta for every m and factor its whole
    term with zsigmondy.factorize, so under any budget a test sets there."""
    seen, rows = set(), []
    for m in range(1, m_max + 1):
        term = _term(phi, beta, gamma, m, bits)
        if term == 0:
            raise ValueError(
                f"phi^{m}(beta) equals gamma exactly; the difference term vanishes"
            )
        factors = zsigmondy.factorize(term).factors
        support = {p for p, _ in factors}
        rows.append((m, term.bit_length(), factors, frozenset(support - seen)))
        seen |= support
    return rows


def _reference_warnings(phi, beta, gamma, m_max, bits):
    """The warnings read off full-length scans, which end only at closure, at
    the step cap or at the height budget."""
    warnings = []
    if not orbit_rational(phi, gamma, 64, bits).is_preperiodic:
        warnings.append(
            "gamma was not seen to be preperiodic within 64 steps; the "
            "primitive-divisor guarantee does not apply"
        )
    if is_polynomial_type(phi, normalize(gamma)) is not None:
        warnings.append(
            "the map is of polynomial type at gamma; primitive divisors may "
            "fail to appear for all large m"
        )
    if orbit_rational(phi, beta, max(2 * m_max, 64), bits).is_preperiodic:
        warnings.append("beta is preperiodic, so the terms cycle instead of growing")
    return tuple(warnings)


def _term(phi, beta, gamma, m, bits):
    """The m-th cross term, computed from a fresh walk."""
    x = iterate_point(phi, beta, m, bits)
    g = normalize(gamma)
    return abs(x.x1 * g.x2 - x.x2 * g.x1)


def test_primitive_divisors_match_the_per_m_reference(monkeypatch):
    # The reference factors each full term; primitive_divisors divides out
    # the primes of earlier terms and factors only the rest. By unique
    # factorization the two agree wherever both finish. Under the small
    # budget below the reference can run out where the rest factors; the
    # rows must then still be full factorizations of the terms.
    factored = []
    factorize = zsigmondy.factorize

    def small_factorize(n):
        factored.append(n)
        return factorize(n, 1000, 2000)

    monkeypatch.setattr(zsigmondy, "factorize", small_factorize)

    def outcome(fn):
        factored.clear()
        try:
            rows = fn()
            error = None
        except (HeightBudgetError, FactorizationBudgetError, ValueError) as exc:
            rows, error = None, (type(exc), str(exc))
        return rows, error

    rng = random.Random(2580)
    cases = [
        (parse_map("z^2-1"), 0, 1, 6, 64),  # preperiodic beta, m past its cycle
        (parse_map("z^2-1"), 1, 2, 7, 64),  # preperiodic beta with a tail
        (parse_map("z^2"), 2, 1, 8, 16),  # height budget at m = 4
        (parse_map("z^2-1"), 3, 63, 3, 64),  # phi^2(beta) == gamma
        (parse_map("z^2"), 9, 1, 6, 300),  # only the reference runs out
    ]
    while len(cases) < 40:
        d = rng.randint(1, 3)
        try:
            phi = RationalMap.make(
                [rng.randint(-3, 3) for _ in range(d + 1)],
                [rng.randint(-3, 3) for _ in range(d + 1)],
            )
        except DegenerateMapError:
            continue
        beta, gamma = ((rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
        cases.append((phi, beta, gamma, rng.randint(1, 6), rng.choice((16, 64, 300))))
    errors, warned, recovered = set(), set(), 0
    for phi, beta, gamma, m_max, bits in cases:
        def rows_and_warnings():
            run = primitive_divisors(phi, beta, gamma, m_max, (), bits)
            rows = [
                (r.m, r.term_bits, r.term_valuations, r.primitive)
                for r in run.reports
            ]
            warned.update(w.split()[0] for w in run.warnings)
            return rows, run.warnings

        case = (str(phi), beta, gamma, m_max, bits)
        got = outcome(rows_and_warnings)
        # each number factored is the new part of its term: it divides the
        # term and shares no prime with any earlier term
        terms = [_term(phi, beta, gamma, m, bits) for m in range(1, len(factored) + 1)]
        for i, n in enumerate(factored):
            assert terms[i] % n == 0, case
            assert all(math.gcd(n, t) == 1 for t in terms[:i]), case
        want = outcome(
            lambda: (
                _reference_rows(phi, beta, gamma, m_max, bits),
                _reference_warnings(phi, beta, gamma, m_max, bits),
            )
        )
        if want[1] is not None:
            errors.add(want[1][0])
        if want[1] is None or want[1][0] is not FactorizationBudgetError:
            assert got == want, case
        elif got[1] is not None:
            assert got[1][0] is FactorizationBudgetError, case
        else:
            rows, warnings = got[0]
            assert len(terms) == m_max, case
            assert warnings == _reference_warnings(phi, beta, gamma, m_max, bits)
            assert [r[0] for r in rows] == list(range(1, m_max + 1)), case
            seen = set()
            for (m, term_bits, valuations, primitive), term in zip(rows, terms):
                assert term_bits == term.bit_length(), case
                assert math.prod(p**e for p, e in valuations) == term, case
                assert all(is_prime(p) for p, _ in valuations), case
                support = {p for p, _ in valuations}
                assert primitive == support - seen, case
                seen |= support
            recovered += 1
    assert errors == {HeightBudgetError, FactorizationBudgetError, ValueError}
    assert recovered > 0
    assert warned == {"gamma", "the", "beta"}  # first words of the 3 warnings
    with pytest.raises(HeightBudgetError) as info:
        primitive_divisors(parse_map("z^2"), 2, 1, 8, height_bits=16)
    assert info.value.last_index == 3
