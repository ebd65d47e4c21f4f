"""Tests for rational map models: parsing, resultants, evaluation,
iteration, Newton maps, dynatomic forms, and periodic points."""

import hashlib
import math
import random
import time
from fractions import Fraction
from math import gcd

import pytest

from orbitsieve.projective import (
    INFINITY,
    PrimePowerModulus,
    ProjectivePoint,
    normalize,
    reduce_mod,
)
from orbitsieve import ratmap
from orbitsieve.ratmap import (
    BadPrimeError,
    DegenerateMapError,
    DynatomicDivisionError,
    HeightBudgetError,
    RationalMap,
    dynatomic,
    dynatomic_degree,
    is_polynomial_type,
    iterate_point,
    newton_map,
    newton_place_report,
    orbit_points,
    parse_map,
    parse_polynomial,
    rational_periodic_points,
    resultant,
)

# coefficient order throughout: index i holds the coefficient of X^i Y^(d-i)


def test_binary_form_basics():
    f = (-1, 0, 1)  # X^2 - Y^2
    assert ratmap._horner(f, 3, 1) == 8
    assert ratmap._primitive((2, 4, 6)) == (1, 2, 3)
    assert ratmap._primitive((1, 0, -2)) == (-1, 0, 2)
    with pytest.raises(ValueError):
        ratmap._primitive(())


def test_binary_form_evaluate_matches_the_monomial_sum():
    rng = random.Random(31)

    def draw():
        kind = rng.randrange(4)
        if kind == 0:
            return rng.choice((0, 1, -1))
        if kind == 1:
            return rng.randint(-50, 50)
        return rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, 4096))

    for _ in range(400):
        d = rng.randint(0, 6)
        coeffs = [rng.randint(-9, 9) for _ in range(d + 1)]
        # zero leading and trailing coefficients, half the time each
        if rng.random() < 0.5:
            coeffs[-1] = 0
        if rng.random() < 0.5:
            coeffs[0] = 0
        a, b = draw(), draw()
        expected = sum(c * a**i * b ** (d - i) for i, c in enumerate(coeffs))
        assert ratmap._horner(coeffs, a, b) == expected, (coeffs, a, b)


def test_resultant_known_values():
    x2_minus_y2 = (-1, 0, 1)
    y2 = (1, 0, 0)
    assert resultant(x2_minus_y2, y2) == 1
    x2_plus_y2 = (1, 0, 1)
    two_xy = (0, 2, 0)
    assert abs(resultant(x2_plus_y2, two_xy)) == 4
    assert resultant(x2_plus_y2, x2_plus_y2) == 0
    with pytest.raises(ValueError):
        resultant(x2_plus_y2, (1, 1))



def _sylvester_det(f, g):
    """Determinant of the 2d x 2d Sylvester matrix of two ascending
    coefficient vectors, each row highest power first, by elimination over
    Fractions."""
    d = len(f) - 1
    size = 2 * d
    rows = [
        [Fraction(0)] * j + [Fraction(c) for c in v[::-1]] + [Fraction(0)] * (d - 1 - j)
        for v in (f, g)
        for j in range(d)
    ]
    det = Fraction(1)
    for k in range(size):
        pivot = next((i for i in range(k, size) if rows[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, size):
            factor = rows[i][k] / rows[k][k]
            if factor:
                for j in range(k, size):
                    rows[i][j] -= factor * rows[k][j]
    assert det.denominator == 1
    return int(det)


def test_resultant_matches_a_sylvester_determinant():
    # random pairs of degree 1 to 6, with zero first or last coefficients,
    # and pairs (a X + b Y) * u, (a X + b Y) * w with a common linear
    # factor, whose resultant is 0
    rng = random.Random(53)

    def times_linear(a, b, u):
        # ascending coefficients of (a X + b Y) * u
        padded = [0, *u, 0]
        return [b * padded[i + 1] + a * padded[i] for i in range(len(u) + 1)]

    zeros = 0
    for _ in range(2000):
        d = rng.randint(1, 6)
        if rng.random() < 0.15:
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            f, g = (times_linear(a, b, [rng.randint(-9, 9) for _ in range(d)])
                    for _ in range(2))
        else:
            f = [rng.randint(-9, 9) for _ in range(d + 1)]
            g = [rng.randint(-9, 9) for _ in range(d + 1)]
            for v in (f, g):
                if rng.random() < 0.25:
                    v[0] = 0
                if rng.random() < 0.25:
                    v[-1] = 0
        expected = _sylvester_det(f, g)
        zeros += expected == 0
        assert resultant(f, g) == expected, (f, g)
    assert zeros > 200, zeros

def test_parse_map_known_values():
    phi = parse_map("z^2 - 1")
    assert phi.F == (-1, 0, 1)
    assert phi.G == (1, 0, 0)
    assert phi.degree == 2
    assert phi.res == 1

    phi = parse_map("(z^2+1)/(2z)")
    assert phi.F == (1, 0, 1)
    assert phi.G == (0, 2, 0)
    assert abs(phi.res) == 4

    phi = parse_map("z^2 + 1/3")
    assert phi.F == (1, 0, 3)
    assert phi.G == (3, 0, 0)
    assert phi.res == 81

    phi = parse_map("-z^2+1")
    assert phi.evaluate(2) == normalize(-3)


def test_parse_map_rejects_degenerate_input():
    with pytest.raises(DegenerateMapError):
        parse_map("(z^2-1)/(z-1)")
    with pytest.raises(ValueError):
        parse_map("5")  # constant
    with pytest.raises(ValueError):
        parse_map("z^")
    with pytest.raises(ValueError):
        parse_map("w^2")


def _reference_pmul(a, b):
    """_pmul without its unit-factor shortcut."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _random_map_text(rng):
    """Map text in the styles parse_map meets: quotients of polynomials with
    small coefficients, fractions, powers and juxtaposition."""

    def poly(d):
        terms = []
        for i in range(d, -1, -1):
            c = rng.randint(-3, 3)
            if c:
                mono = "" if i == 0 else ("z" if i == 1 else f"z^{i}")
                body = str(abs(c)) + ("*" + mono if mono else "")
                if mono and abs(c) == 1:
                    body = mono
                terms.append(("-" if c < 0 else "+") + body)
        return "".join(terms).lstrip("+") or "1"

    d = rng.randint(1, 3)
    style = rng.randrange(4)
    if style == 0:
        return f"({poly(d)})/({poly(d)})"
    if style == 1:
        return f"{poly(d)}+{rng.randint(-5, 5)}/{rng.randint(1, 7)}"
    if style == 2:
        return f"({poly(1)})^{d}/({rng.randint(1, 4)}z)"
    return f"{rng.randint(2, 5)}(z{rng.choice('+-')}{rng.randint(1, 4)})z^{d}-1"


def test_parse_map_unit_factor_shortcut_changes_no_output(monkeypatch):
    def parse_all(texts):
        out = []
        for text in texts:
            try:
                phi = parse_map(text)
                out.append((phi.F, phi.G, phi.res))
            except ValueError as exc:
                out.append((type(exc), str(exc)))
        return out

    rng = random.Random(6400)
    texts = [_random_map_text(rng) for _ in range(500)] + PARSE_EDGE_CASES
    # refused past the degree or the bit limit, in a power, product or sum
    texts += ["z^200*z^100", "z^300-z^300+z", "1/z^200+1/z^100",
              "(9^200000)(9^200000)z+z^2", "9^200000+1/(9^200000z)"]
    fast = parse_all(texts)
    monkeypatch.setattr(ratmap, "_pmul", _reference_pmul)
    assert parse_all(texts) == fast
    assert sum(len(entry) == 3 for entry in fast) > 400


# Inputs at the corners of the map grammar: a second exponent, a
# parenthesized exponent, juxtaposed integers, stacked signs, division by a
# polynomial that cancels to zero, a dangling operator, empty input.
PARSE_EDGE_CASES = [
    "z^2^3", "z^(2)", "2 3", "z(z-2)", "--z", "1/(z-z)", "z^", "", " ",
    "(", ")", "()", "(z+1", "z+1)", "z^-1", "z^z", "z^ 2", "0^0z", "z^0",
    "0", "z", "+z", "z+", "z*", "*z", "z//z", "z/0", "z/(0z)", "z/(z^0-1)",
    "2z^2/3z", "-z^2", "z^2z", "z^2 3", "((z))", "(z)(z)", "Z^2-1",
    "z^10/z^9", "3(z+1)z^2-1",
]

# sha256 of the outcomes below as the earlier class-based parser produced
# them: values, exception types and messages.
PINNED_PARSE_OUTCOMES_SHA256 = (
    "8267a68f9b032784f7232bc83a985274be276ed4afd0bc112f9cac1b0fb463a4"
)


def _parse_outcome(text):
    """(F, G, resultant) of parse_map and the coefficients of
    parse_polynomial, or the exception type and message of each."""
    out = []
    try:
        phi = parse_map(text)
        out.append((phi.F, phi.G, phi.res))
    except ValueError as exc:
        out.append((type(exc).__name__, str(exc)))
    try:
        out.append(tuple(parse_polynomial(text)))
    except ValueError as exc:
        out.append((type(exc).__name__, str(exc)))
    return out


def test_parse_outcomes_match_their_pinned_digest():
    rng = random.Random(18)
    texts = [_random_map_text(rng) for _ in range(2000)]
    texts += [
        "".join(rng.choice("z123+-*/^() ") for _ in range(rng.randint(1, 10)))
        for _ in range(20000)
    ]
    texts += PARSE_EDGE_CASES
    outcomes = [_parse_outcome(text) for text in texts]
    digest = hashlib.sha256(repr(list(zip(texts, outcomes))).encode())
    assert digest.hexdigest() == PINNED_PARSE_OUTCOMES_SHA256
    # the corpus reaches every error message of the grammar
    messages = {o[0][1] for o in outcomes if isinstance(o[0][0], str)}
    for message in (
        "unexpected end of input",
        "missing closing parenthesis",
        "exponent must be a nonnegative integer",
        "division by the zero polynomial",
        "trailing input at token 3",
        "unexpected token ')'",
    ):
        assert message in messages
    assert sum(isinstance(o[0][0], tuple) for o in outcomes) > 2500


@pytest.mark.parametrize(
    "text, degree",
    [("z^257+1", 257), ("(z+1)^300", 300), ("z^200*z^100", 300),
     ("z^300-z^300+z", 300), ("1/z^200+1/z^100", 300), ("z^9999+1", 9999)],
)
def test_parse_rejects_text_past_the_degree_limit(text, degree):
    # each is refused before the power or product is built; the bound on
    # the time is far above the microseconds that takes
    for parse in (parse_map, parse_polynomial):
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            parse(text)
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == f"degree {degree} exceeds the limit 256"


def test_a_grammar_error_is_reported_before_the_degree_limit():
    # z^312 is not built, and the parse reads on to the stray parenthesis
    with pytest.raises(ValueError, match="^trailing input at token 6$"):
        parse_map("(1)z^312)")
    with pytest.raises(ValueError, match="^division by the zero polynomial$"):
        parse_map("z^300/(z-z)")


@pytest.mark.parametrize(
    "text, bits",
    [("9^99999999*z", 399999996), ("9^4000000*z+z^2", 16000000),
     ("(9^300000)(9^300000)z+z^2", 1200000),
     ("(9^200000)(9^200000)z+z^2", 1267973),
     ("9^200000+1/(9^200000z)", 1267973)],
)
def test_parse_rejects_coefficients_past_the_bit_limit(text, bits):
    # a power is refused at k times the bits of its base's largest
    # coefficient, a product (the fourth) and a cross product of a sum (the
    # fifth) at the sum of their operands' largest bits plus the bits of
    # the shorter length (9^200000 has 633,986 bits), before anything is
    # multiplied
    for parse in (parse_map, parse_polynomial):
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            parse(text)
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == (
            f"coefficient of {bits} bits exceeds the limit 1048576"
        )


def test_a_grammar_error_is_reported_before_the_bit_limit():
    with pytest.raises(ValueError, match="^trailing input at token 3$"):
        parse_map("9^99999999)")
    with pytest.raises(ValueError, match="^missing closing parenthesis$"):
        parse_polynomial("(9^4000000*z+z^2")


def test_parse_accepts_coefficients_under_the_bit_limit():
    assert parse_map("9^100000*z+z^2").F == (0, 9 ** 100000, 1)
    assert parse_polynomial("9^100000*z+z^2") == [0, 9 ** 100000, 1]


def test_parse_accepts_text_at_the_degree_limit():
    phi = parse_map("z^256+1")
    assert phi.degree == 256
    assert phi.F == (1,) + (0,) * 255 + (1,)
    assert parse_polynomial("(z+1)^128(z-1)^128")[-1] == 1


def test_make_clears_joint_content_and_fixes_sign():
    phi = RationalMap.make([2, 0, 2], [0, 4, 0])
    assert phi.F == (1, 0, 1)
    assert phi.G == (0, 2, 0)
    phi = RationalMap.make([1, 0, -1], [-1, 0, 0])
    assert phi.F[-1] > 0


def test_primitive_known_values():
    # content above 1, zero end entries, a negative last nonzero entry
    assert ratmap._primitive((0, 6, -4, 0)) == (0, -3, 2, 0)
    assert ratmap._primitive((0, -4, 6, 0)) == (0, -2, 3, 0)
    assert ratmap._primitive((-3, 0, 0)) == (1, 0, 0)
    assert ratmap._primitive((5, -7)) == (-5, 7)
    assert ratmap._primitive([1, 2]) == (1, 2)
    for zero in ((), (0,), (0, 0, 0)):
        with pytest.raises(ValueError, match="zero form"):
            ratmap._primitive(zero)


def _small_maps(rng, count, degrees, bound):
    maps = []
    while len(maps) < count:
        d = degrees[len(maps) % len(degrees)]
        f = [rng.randint(-bound, bound) for _ in range(d + 1)]
        g = [rng.randint(-bound, bound) for _ in range(d + 1)]
        try:
            maps.append(RationalMap.make(f, g))
        except DegenerateMapError:
            continue
    return maps


def test_make_returns_forms_in_its_normal_form_unchanged():
    rng = random.Random(2207)
    for phi in _small_maps(rng, 200, (1, 2, 3, 4), 20):
        assert type(phi.F) is tuple and type(phi.G) is tuple
        again = RationalMap.make(phi.F, phi.G)
        assert (again.F, again.G, again.res) == (phi.F, phi.G, phi.res)
        # a scaled copy, of either sign, comes back to the same forms
        k = rng.choice((-3, -1, 2, 5))
        scaled = RationalMap.make([k * c for c in phi.F], [k * c for c in phi.G])
        assert (scaled.F, scaled.G) == (phi.F, phi.G)


def test_iterate_forms_are_in_the_normal_form_of_make():
    # composing (z^2-3z+1)/(2z^2-3z-2) once gives an F_2 whose highest
    # coefficient is negative before normalization
    phi = parse_map("(z^2-3z+1)/(2z^2-3z-2)")
    assert phi.iterate_forms(2) == ((-11, 3, 15, -9, 1), (0, 45, 7, -39, 12))
    rng = random.Random(3000)
    for phi in [phi] + _small_maps(rng, 60, (1, 2, 3), 3):
        assert phi.iterate_forms(1) == (phi.F, phi.G)
        for n in (2, 3):
            fn, gn = phi.iterate_forms(n)
            again = RationalMap.make(fn, gn)
            assert (again.F, again.G) == (fn, gn), (str(phi), n)


def test_bad_primes():
    assert parse_map("z^2-1").bad_primes().primes == frozenset()
    assert parse_map("(z^2+1)/(2z)").bad_primes().primes == frozenset({2})
    report = parse_map("z^2+1/3").bad_primes()
    assert report.primes == frozenset({3})
    assert report.complete
    assert report.cofactor is None
    assert parse_map("z^2-1").is_good_prime(2)
    assert not parse_map("(z^2+1)/(2z)").is_good_prime(2)


def test_bad_primes_with_blown_factor_budget():
    # resultant is the square of a 129 bit semiprime, far out of reach for
    # a tiny rho budget: the report must degrade gracefully
    from orbitsieve.numtheory import next_prime

    n = next_prime(1 << 64) * next_prime(1 << 65)
    phi = RationalMap.make([1, 0, 1], [0, n, 0])
    report = phi.bad_primes(trial_bound=10 ** 4, rho_steps=8)
    assert not report.complete
    assert report.cofactor is not None
    assert report.cofactor > 1


def test_evaluate_known_values():
    phi = parse_map("z^2-1")
    assert phi.evaluate(3) == normalize(8)
    assert phi.evaluate(INFINITY) == INFINITY
    newton = parse_map("(z^2+1)/(2z)")
    assert newton.evaluate((1, 1)) == ProjectivePoint(1, 1)
    assert newton.evaluate(0) == INFINITY


def test_evaluate_matches_a_full_gcd_reduction():
    # evaluate divides by gcd(res, G(x), F(x)); the reference divides by
    # gcd(F(x), G(x)) itself and fixes the sign by hand.
    rng = random.Random(53)

    def form_value(coeffs, a, b):
        d = len(coeffs) - 1
        return sum(c * a**i * b ** (d - i) for i, c in enumerate(coeffs))

    def coprime_pair(a, b):
        g = gcd(a, b)
        a, b = a // g, b // g
        return (-a, -b) if (b if b != 0 else a) < 0 else (a, b)

    def draw_point():
        kind = rng.randrange(5)
        if kind == 0:
            return rng.choice(((0, 1), (1, 0), (1, 1), (-1, 1)))
        if kind == 1:
            return coprime_pair(rng.randint(-30, 30), rng.randint(1, 30))
        sign = rng.choice((1, -1))
        a = sign * rng.getrandbits(rng.randint(1, 4096))
        b = rng.getrandbits(rng.randint(1, 4096))
        return coprime_pair(a, b) if (a, b) != (0, 0) else (1, 0)

    maps = [
        parse_map("(z^2+1)/(2z)"),
        parse_map("(z+5)/(3z-1)"),  # R = -16
        parse_map("(2z^3+z-3)/(z^3-4z^2+6)"),  # R = 3681
    ]
    while len(maps) < 40:
        d = rng.randint(1, 4)
        f = [rng.randint(-10**6, 10**6) * (rng.random() < 0.8) for _ in range(d + 1)]
        g = [rng.randint(-10**6, 10**6) * (rng.random() < 0.8) for _ in range(d + 1)]
        try:
            maps.append(RationalMap.make(f, g))
        except DegenerateMapError:
            continue

    divided = 0
    for phi in maps:
        for _ in range(40):
            x1, x2 = draw_point()
            a = form_value(phi.F, x1, x2)
            b = form_value(phi.G, x1, x2)
            common = gcd(a, b)
            assert phi.res % common == 0, (phi, x1, x2)
            divided += common > 1
            expected = ProjectivePoint(*coprime_pair(a, b))
            assert phi.evaluate(ProjectivePoint(x1, x2)) == expected, (phi, x1, x2)
    assert divided >= 100


def test_evaluate_matches_the_single_form_values():
    # evaluate sums F and G in one Horner pass; _horner sums each form
    # alone. Maps of degree 1-6 with zero end coefficients and
    # with G of lower degree than F (G's top coefficient zero).
    rng = random.Random(1906)

    def draw(d):
        v = [rng.randint(-50, 50) for _ in range(d + 1)]
        if rng.random() < 0.3:
            v[0] = 0
        if rng.random() < 0.3:
            v[-1] = 0
        return v

    maps = []
    while len(maps) < 60:
        d = 1 + len(maps) % 6
        f, g = draw(d), draw(d)
        if len(maps) % 4 == 0:
            g[d] = 0
        try:
            maps.append(RationalMap.make(f, g))
        except DegenerateMapError:
            continue
    assert any(phi.F[0] == 0 for phi in maps)
    assert any(phi.G[-1] == 0 for phi in maps)
    points = [(0, 1), (1, 0), (1, 1), (-1, 1)]
    while len(points) < 40:
        bits = rng.randint(1, 256)
        a = rng.choice((1, -1)) * rng.getrandbits(bits)
        b = rng.getrandbits(rng.randint(1, 256))
        if b and gcd(a, b) == 1:
            points.append((a, b))
    for phi in maps:
        for x1, x2 in points:
            a, b = ratmap._horner(phi.F, x1, x2), ratmap._horner(phi.G, x1, x2)
            expected = normalize((a, b))
            assert phi.evaluate(ProjectivePoint(x1, x2)) == expected, (phi, x1, x2)


def test_height_loss_bits_bounds_the_image_height():
    # H(phi(x)) * 2^L > H(x)^d for coprime x, L = phi.height_loss_bits
    rng = random.Random(97)

    def height(pt):
        return max(abs(pt.x1), abs(pt.x2))

    def draw_big():
        while True:
            a = rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, 4096))
            b = rng.getrandbits(rng.randint(1, 4096))
            if gcd(a, b) == 1:
                return ProjectivePoint(a, b) if b else INFINITY

    maps = [
        parse_map("z^2"),
        parse_map("(z^2+1)/(2z)"),
        parse_map("(2z^3+z-3)/(z^3-4z^2+6)"),
    ]
    while len(maps) < 203:
        d = rng.randint(1, 4)
        f = [rng.randint(-10**6, 10**6) * (rng.random() < 0.8) for _ in range(d + 1)]
        g = [rng.randint(-10**6, 10**6) * (rng.random() < 0.8) for _ in range(d + 1)]
        try:
            maps.append(RationalMap.make(f, g))
        except DegenerateMapError:
            continue

    escapes = 0
    for i, phi in enumerate(maps):
        L, d = phi.height_loss_bits, phi.degree
        points = [normalize(0), INFINITY, normalize(1), normalize(-1)]
        points += [normalize((rng.randint(-30, 30), rng.randint(1, 30))) for _ in range(3)]
        points += [draw_big() for _ in range(3)]
        for x in points:
            assert height(phi.evaluate(x)) << L > height(x) ** d, (phi, x)
        if d == 1:
            assert not any(map(phi.proves_escape, points))
        if d == 1 or i % 6:
            continue
        # proves_escape: from the first iterate where it holds, the next 6
        # heights rise strictly and no iterate repeats an earlier one; six
        # steps of degree 4 multiply the bits by 4096, so a sixth of the
        # maps suffice
        small = normalize((rng.randint(-30, 30), rng.randint(1, 30)))
        large = normalize((rng.getrandbits(64) | 1, rng.getrandbits(64) | 1))
        for x in (small, large):
            orbit = [x]
            while not phi.proves_escape(orbit[-1]) and len(orbit) < 30:
                orbit.append(phi.evaluate(orbit[-1]))
            if not phi.proves_escape(orbit[-1]):
                continue
            escapes += 1
            for _ in range(6):
                orbit.append(phi.evaluate(orbit[-1]))
            tail = [height(pt) for pt in orbit[-7:]]
            assert tail == sorted(set(tail)), (phi, x)
            assert len(set(orbit)) == len(orbit), (phi, x)
    assert escapes > 40, escapes


def test_orbit_points_does_not_evaluate_the_discarded_iterate(monkeypatch):
    # the walk raises before computing the iterate that the height budget
    # rejects, at the index a plain evaluate-then-check loop reports
    def plain_last_index(phi, x, height_bits):
        pt, last = normalize(x), 0
        while True:
            pt = phi.evaluate(pt)
            if max(abs(pt.x1).bit_length(), abs(pt.x2).bit_length()) > height_bits:
                return last
            last += 1

    calls = 0
    evaluate = RationalMap.evaluate

    def counting(self, x):
        nonlocal calls
        calls += 1
        return evaluate(self, x)

    for text, x in (("z^2-1", 3), ("(2z^3+z-3)/(z^3-4z^2+6)", 3)):
        phi = parse_map(text)
        expected = plain_last_index(phi, x, 4096)
        monkeypatch.setattr(RationalMap, "evaluate", counting)
        calls = 0
        with pytest.raises(HeightBudgetError) as info:
            for _ in orbit_points(phi, x, 4096):
                pass
        monkeypatch.undo()
        assert info.value.last_index == expected
        assert calls == expected, text


def test_orbit_points_stops_early_only_where_the_bound_proves_it():
    # r z (z - r) / (z^2 - r z + 1) sends inf to r and r to 0: the height
    # falls from 20 bits to 1, so a 20-bit walk must go on past r although
    # d * (bits(r) - 1) exceeds the budget; only L rules the stop out
    r = 10**6
    phi = RationalMap.make([0, -r * r, r], [1, -r, 1])
    walk = orbit_points(phi, INFINITY, 20)
    assert [next(walk) for _ in range(4)] == [INFINITY, normalize(r), normalize(0), normalize(0)]


def test_evaluate_mod():
    phi = parse_map("z^2-1")
    m5 = PrimePowerModulus(5, 1)
    assert phi.evaluate_mod(reduce_mod(3, m5), m5) == (3, 1)
    m7 = PrimePowerModulus(7, 1)
    assert phi.evaluate_mod(reduce_mod(INFINITY, m7), m7) == (1, 0)
    m2 = PrimePowerModulus(2, 1)
    newton = parse_map("(z^2+1)/(2z)")
    with pytest.raises(BadPrimeError):
        newton.evaluate_mod(reduce_mod(1, m2), m2)


def test_iterate_point_known_values():
    phi = parse_map("z^2-1")
    assert iterate_point(phi, normalize(3), 2) == normalize(63)
    assert iterate_point(phi, normalize(3), 0) == normalize(3)
    with pytest.raises(ValueError):
        iterate_point(phi, normalize(3), -3)
    sq = parse_map("z^2")
    assert iterate_point(sq, normalize(2), 3) == normalize(256)


def test_iterate_point_height_budget():
    sq = parse_map("z^2")
    with pytest.raises(HeightBudgetError) as info:
        iterate_point(sq, normalize(2), 50, height_bits=64)
    assert 0 < info.value.last_index < 10


def test_iterate_forms_agree_with_pointwise_iteration():
    rng = random.Random(23)
    for text in ("z^2-1", "(z^2+1)/(2z)", "z^3-2"):
        phi = parse_map(text)
        for n in range(1, 5):
            fn, gn = phi.iterate_forms(n)
            d = len(fn) - 1
            for _ in range(5):
                a = rng.randrange(-9, 10)
                b = rng.randrange(-9, 10)
                if (a, b) == (0, 0):
                    continue
                pt = normalize((a, b))
                want = iterate_point(phi, pt, n)
                a = sum(c * pt.x1**i * pt.x2 ** (d - i) for i, c in enumerate(fn))
                b = sum(c * pt.x1**i * pt.x2 ** (d - i) for i, c in enumerate(gn))
                got = normalize((a, b))
                assert got == want, (text, n, pt)


def test_newton_map_known_values():
    phi = newton_map("z^3-2")
    assert phi.F == (2, 0, 0, 2)  # 2z^3 + 2 over
    assert phi.G == (0, 0, 3, 0)  # 3z^2
    assert newton_map("z^2-1").F == (1, 0, 1)
    assert newton_map("z^2-1").G == (0, 2, 0)
    with pytest.raises(ValueError):
        newton_map("5")


def test_newton_map_cancels_repeated_roots():
    # z^3 - z^2 = z^2 (z - 1) is not squarefree; the common factor z must
    # cancel, leaving a degree 2 map that still fixes both roots
    phi = newton_map("z^3-z^2")
    assert phi.degree == 2  # below deg f = 3
    assert phi.evaluate(0) == normalize(0)
    assert phi.evaluate(1) == normalize(1)
    assert phi.evaluate(2) == normalize(Fraction(3, 2))


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_at(coeffs, x):
    return sum(c * x ** i for i, c in enumerate(coeffs))


def test_newton_map_is_z_minus_f_over_f_prime():
    # one path for every input: squarefree or not, any denominators, the map
    # must be x - f(x)/f'(x) wherever f'(x) != 0, on one joint integer scale
    rng = random.Random(20261018)
    xs = [Fraction(a, b) for a in range(-4, 5) for b in (1, 2, 3, 7)]
    for trial in range(200):
        den = rng.choice([1, 2, 6, 35])
        f = [Fraction(rng.randint(-9, 9), den) for _ in range(rng.randint(3, 5))]
        f[-1] = f[-1] or Fraction(1, den)
        squared = trial % 3 == 0
        if squared:
            s, r = rng.randint(1, 3), rng.randint(-4, 4)
            f = _poly_mul(f, _poly_mul([-r, s], [-r, s]))
        text = " + ".join(
            f"({c.numerator}/{c.denominator})z^{i}" for i, c in enumerate(f)
        )
        fp = [i * c for i, c in enumerate(f)][1:]
        phi = newton_map(text)
        # cancelling a repeated factor lowers the degree below deg f
        assert phi.degree < len(f) - 1 or not squared, text
        assert gcd(*phi.F, *phi.G) == 1
        assert next(c for c in reversed(phi.F) if c) > 0
        for x in xs:
            dfx = _poly_at(fp, x)
            if dfx:
                want = normalize(x - _poly_at(f, x) / dfx)
                assert phi.evaluate(x) == want, (text, x)


def _float_newton(f, x, iters):
    """The real Newton report as a plain loop: iters steps in doubles, then
    one more evaluation of f at the iterate they reached. Every overflow of
    f is noted and keeps the residual before it."""
    fp = [float(i * c) for i, c in enumerate(f)][1:]
    f = [float(c) for c in f]

    def at(v, x):
        acc = v[-1]
        for c in reversed(v[:-1]):
            acc = acc * x + c
        return acc

    x = float(x)
    residual = note = None
    verdict = "undecided"
    done = 0
    for _ in range(iters):
        fx = at(f, x)
        if not math.isfinite(fx):
            note = "iterates overflowed double precision"
            break
        residual = abs(fx)
        if residual < 1e-12:
            verdict = "converges"
            break
        dfx = at(fp, x)
        if not math.isfinite(dfx) or dfx == 0.0:
            note = "derivative vanished or overflowed"
            break
        x = x - fx / dfx
        done += 1
    else:
        fx = at(f, x)
        if not math.isfinite(fx):
            note = "iterates overflowed double precision"
        else:
            residual = abs(fx)
            if residual < 1e-12:
                verdict = "converges"
    return verdict, done, residual, x if math.isfinite(x) else None, note


def test_real_newton_report_matches_a_float_loop():
    cases = [
        ("z^3-2", [-2, 0, 0, 1], Fraction(1), 64),  # converges
        ("z^3-2", [-2, 0, 0, 1], Fraction(1), 3),  # runs out of steps
        ("z^2+1", [1, 0, 1], Fraction(2), 64),  # no real root
        ("z^2-z", [0, -1, 1], Fraction(1, 2), 64),  # f'(1/2) = 0
        ("z^3-2", [-2, 0, 0, 1], Fraction(10 ** 200), 64),  # overflows
        # the step overflows x, and f at the last iterate is not finite
        ("z^2+1", [1, 0, 1], Fraction(1, 10 ** 200), 1),
    ]
    rng = random.Random(7)
    for _ in range(60):
        f = [rng.randint(-9, 9) for _ in range(rng.randint(3, 5))]
        f[-1] = f[-1] or 1
        alpha = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        text = " + ".join(f"({c})z^{i}" for i, c in enumerate(f))
        if _poly_at(f, alpha) and gcd(*f) == 1:
            cases.append((text, f, alpha, rng.randint(0, 8)))
    seen = set()
    for text, f, alpha, iters in cases:
        try:
            real = newton_place_report(text, alpha, [], real_iters=iters)[0]
        except ValueError:  # not squarefree
            continue
        verdict, done, residual, x, note = _float_newton(f, alpha, iters)
        assert real.verdict == verdict, (text, alpha, iters)
        assert real.detail["iterations"] == done, (text, alpha, iters)
        assert real.detail["final_residual"] == residual, (text, alpha, iters)
        assert real.detail["final_x"] == x, (text, alpha, iters)
        assert real.detail.get("note") == note, (text, alpha, iters)
        seen.add((verdict, note, done == iters))
    assert ("converges", None, False) in seen
    assert ("undecided", None, True) in seen
    assert ("undecided", "derivative vanished or overflowed", False) in seen
    assert ("undecided", "iterates overflowed double precision", False) in seen
    assert ("undecided", "iterates overflowed double precision", True) in seen


def test_is_polynomial_type():
    assert is_polynomial_type(parse_map("z^2"), INFINITY) == 1
    assert is_polynomial_type(parse_map("1/z^2"), INFINITY) == 2
    assert is_polynomial_type(parse_map("1/z^2"), normalize(0)) == 2
    assert is_polynomial_type(parse_map("z^2"), normalize(1)) is None
    assert is_polynomial_type(parse_map("z^2-1"), normalize(0)) is None
    assert is_polynomial_type(parse_map("z^2-1"), INFINITY) == 1


def test_dynatomic_known_forms():
    phi = parse_map("z^2-1")
    # period 1: the full fixed point form Y*F - X*G of degree 3
    assert dynatomic(phi, 1) == (-1, -1, 1, 0)
    assert len(dynatomic(phi, 1)) - 1 == 3
    # period 2: z^2 + z, as the form X^2 + X Y
    assert dynatomic(phi, 2) == (0, 1, 1)
    assert dynatomic(parse_map("z^2-2"), 2) == (-1, 1, 1)
    # the double root case: z^2 - 3/4 has period 2 form (2z + 1)^2
    assert dynatomic(parse_map("z^2-3/4"), 2) == (1, 4, 4)


def test_dynatomic_degree_identity():
    for text in ("z+1", "z^2-1", "z^2-2", "1/z^2", "z^3-1", "(z^3+1)/(3z)"):
        phi = parse_map(text)
        for n in range(1, 7):
            form = dynatomic(phi, n, max_degree=1 << 14)
            assert len(form) - 1 == dynatomic_degree(phi.degree, n), (text, n)


def test_rational_periodic_points_known_values():
    phi = parse_map("z^2-1")
    assert rational_periodic_points(phi, 1) == {INFINITY}
    assert rational_periodic_points(phi, 2) == {normalize(0), normalize(-1)}
    cheb = parse_map("z^2-2")
    assert rational_periodic_points(cheb, 1) == {
        normalize(2),
        normalize(-1),
        INFINITY,
    }
    assert rational_periodic_points(cheb, 2) == set()
    # the period 2 form of z^2 - 3/4 has only the fixed point -1/2 as a
    # double root; exact period filtering must reject it
    assert rational_periodic_points(parse_map("z^2-3/4"), 2) == set()


def test_rational_periodic_points_exhaustive_small_heights():
    # every claimed point has the claimed exact period, and no point with
    # coordinates up to 100 is missed, for n <= 3
    candidates = []
    for a in range(-100, 101):
        for b in range(101):
            if (a, b) == (0, 0) or gcd(a, b) != 1:
                continue
            if b == 0 and a != 1:
                continue
            candidates.append(ProjectivePoint(a, b))
    for text in ("z^2-1", "z^2-2", "z^2"):
        phi = parse_map(text)
        found = {1: set(), 2: set(), 3: set()}
        for pt in candidates:
            cur = pt
            for step in range(1, 4):
                cur = phi.evaluate(cur)
                if cur == pt:
                    found[step].add(pt)
                    break
        for n in (1, 2, 3):
            assert rational_periodic_points(phi, n) == found[n], (text, n)


def test_parse_polynomial():
    assert parse_polynomial("z^3-2") == [
        Fraction(-2),
        Fraction(0),
        Fraction(0),
        Fraction(1),
    ]
    assert parse_polynomial("z/2 + 1/3") == [Fraction(1, 3), Fraction(1, 2)]
    with pytest.raises(ValueError):
        parse_polynomial("1/z")


def test_map_str_round_trips_through_parse():
    for text in ("z^2-1", "(z^2+1)/(2z)", "z^3-2", "(2z^3+2)/(3z^2)"):
        phi = parse_map(text)
        assert parse_map(str(phi)) == phi
