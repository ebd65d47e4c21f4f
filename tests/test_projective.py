"""Tests for projective points, reduction, and the chordal metric."""

import hashlib
import random
import time
from fractions import Fraction
from math import gcd

import pytest

from orbitsieve.projective import (
    INFINITY,
    ZERO,
    ChordalValue,
    PrimePowerModulus,
    ProjectivePoint,
    _residue_code,
    chordal,
    congruent_mod,
    format_point,
    normalize,
    parse_modulus,
    parse_point,
    reduce_mod,
)


def test_point_construction_enforces_normal_form():
    assert ProjectivePoint(3, 1).x1 == 3
    assert INFINITY.is_infinity and not ZERO.is_infinity
    with pytest.raises(ValueError):
        ProjectivePoint(0, 0)
    with pytest.raises(ValueError):
        ProjectivePoint(2, 4)  # not coprime
    with pytest.raises(ValueError):
        ProjectivePoint(1, -2)  # last nonzero coordinate must be positive
    with pytest.raises(ValueError):
        ProjectivePoint(-1, 0)


def test_normalize_known_values():
    assert normalize(Fraction(3, 6)) == ProjectivePoint(1, 2)
    assert normalize("inf") == INFINITY
    assert normalize((-4, -6)) == ProjectivePoint(2, 3)
    assert normalize((4, -6)) == ProjectivePoint(-2, 3)
    assert normalize(5) == ProjectivePoint(5, 1)
    assert normalize(0) == ZERO
    assert normalize(INFINITY) is INFINITY
    assert normalize((7, 0)) == INFINITY
    assert normalize((-7, 0)) == INFINITY
    with pytest.raises(ValueError):
        normalize((0, 0))


def test_normalize_idempotent():
    rng = random.Random(7)
    for _ in range(200):
        a = rng.randrange(-50, 51)
        b = rng.randrange(-50, 51)
        if (a, b) == (0, 0):
            continue
        pt = normalize((a, b))
        assert normalize(pt) == pt
        # normalize builds its result without the constructor's checks
        assert gcd(pt.x1, pt.x2) == 1
        assert (pt.x2 if pt.x2 != 0 else pt.x1) > 0


def test_normalize_of_ints_and_fractions_matches_the_constructor():
    # normalize builds these points without the constructor's checks
    rng = random.Random(1907)
    ints = [0, 1, -1, 2 ** 521 - 1, -(2 ** 607)]
    for _ in range(200):
        ints.append(rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, 300)))
    for v in ints:
        pt = normalize(v)
        assert type(pt) is ProjectivePoint
        assert pt == ProjectivePoint(v, 1)
    for _ in range(200):
        den = rng.getrandbits(rng.randint(1, 300)) or 1
        f = Fraction(rng.choice((1, -1)) * rng.getrandbits(rng.randint(0, 300)), den)
        pt = normalize(f)
        assert type(pt) is ProjectivePoint
        assert pt == ProjectivePoint(f.numerator, f.denominator)
    # a bool is stored as the plain int it stands for, not printed as one
    for v in (True, False):
        pt = normalize(v)
        assert type(pt.x1) is int and pt == (int(v), 1)
        assert format_point(pt) == str(int(v))


def test_parse_and_format_round_trip():
    assert parse_point("inf") == INFINITY
    assert parse_point("3/5") == ProjectivePoint(3, 5)
    assert parse_point("[6:10]") == ProjectivePoint(3, 5)
    assert parse_point("-2") == ProjectivePoint(-2, 1)
    for text in ("inf", "3/5", "-2", "0"):
        assert format_point(parse_point(text)) == text
    with pytest.raises(ValueError):
        parse_point("[0:0]")


def test_number_text_takes_ascii_digits_without_underscores():
    # int() alone reads "1_0" as 10 and "\u0665" (Arabic-Indic five) as 5
    for text in ("1_0", "\u0665", "[1:\u0662]", "1/2_0", "\uff17"):
        with pytest.raises(ValueError, match="ASCII digits without underscores"):
            parse_point(text)
    for text in ("7^\u0661", "1_1", "\u0667"):
        with pytest.raises(ValueError, match="ASCII digits without underscores"):
            parse_modulus(text)
    assert parse_point(" -3/4 ") == ProjectivePoint(-3, 4)
    assert parse_point("[1:-2]") == ProjectivePoint(-1, 2)
    assert parse_point("+5") == ProjectivePoint(5, 1)
    assert parse_modulus(" 7 ^ 2 ") == PrimePowerModulus(7, 2)


def _point_text(rng):
    """Point text in the forms parse_point reads, with stray signs, spaces,
    separators and the characters _number_text refuses mixed in."""
    if rng.random() < 0.5:
        parts = ("0", "1", "7", "12", "-", "+", "/", "[", "]", ":", " ",
                 "inf", "oo", "_", "\u0665", "INF", "Infinity")
        return "".join(rng.choice(parts) for _ in range(rng.randint(0, 8)))

    def number():
        sign = rng.choice(("", "", "-", "+", " -", "- "))
        return sign + str(rng.randint(0, 10 ** rng.randint(0, 25)))

    def pad(s):
        return rng.choice(("", " ", "  ")) + s + rng.choice(("", " "))

    style = rng.randrange(4)
    if style == 0:
        return pad(number())
    if style == 1:
        return pad(pad(number()) + "/" + pad(number()))
    if style == 2:
        return pad("[" + pad(number()) + ":" + pad(number()) + "]")
    return pad(rng.choice(("inf", "oo", "infinity", "INF", "Oo", "InFiNiTy")))


POINT_EDGE_CASES = [
    "", " ", "inf", " oo ", "INFINITY", "infinite", "0", "-0", "+0", "0/5",
    "5/0", "-5/0", "0/0", "[0:0]", "[1:0]", "[-1:0]", "[0:-3]", "[6:10]",
    "[-6:-10]", "[1:2:3]", "[1]", "[]", "[:]", "[1:2", "1:2]", "1/2/3",
    "x", "1/", "/2", "- 3", "--3", "+-3", "[inf:1]", "[1:inf]", "1/-2",
    "-1/-2", " 3 / 4 ", "[ 3 : 4 ]", "007", "1_0", "\u0665", "1e3", "1.5",
    "0x10", "\t4\n", "12345678901234567890123456789/98765432109876543210",
]

# sha256 of parse_point's outcome on the corpus below: the point's
# coordinates, or the type of the exception raised. Messages are left out.
PINNED_POINT_OUTCOMES_SHA256 = (
    "450acbaf07ecfaad1118ebab53ffeaf061660aa065d57b505f79217afd4afad6"
)


def _point_outcome(text):
    try:
        pt = parse_point(text)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc).__name__
    return (pt.x1, pt.x2)


def test_parse_point_outcomes_match_their_pinned_digest():
    rng = random.Random(25)
    texts = [_point_text(rng) for _ in range(20000)] + POINT_EDGE_CASES
    outcomes = [_point_outcome(text) for text in texts]
    digest = hashlib.sha256(repr(list(zip(texts, outcomes))).encode())
    assert digest.hexdigest() == PINNED_POINT_OUTCOMES_SHA256
    # the corpus reaches every form and both kinds of refusal
    values = [o for o in outcomes if isinstance(o, tuple)]
    assert set(outcomes) - set(values) == {"ValueError"}
    assert len(values) > 8000
    assert (1, 0) in values and (0, 1) in values


def test_chordal_known_values():
    assert chordal((3, 1), (1, 1), 2) == ChordalValue(2, 1)
    assert chordal((3, 1), (1, 1), 2).distance() == Fraction(1, 2)
    assert chordal((3, 1), (1, 1), 5) == ChordalValue(5, 0)
    assert chordal(7, 7, 3) == ChordalValue(3, None)
    assert chordal(7, 7, 3).distance() == 0
    with pytest.raises(ValueError):
        chordal(1, 2, 4)


def test_congruent_mod_known_values():
    assert congruent_mod((3, 1), (1, 1), PrimePowerModulus(2, 1))
    assert not congruent_mod((3, 1), (1, 1), PrimePowerModulus(2, 2))
    assert not congruent_mod(INFINITY, 5, PrimePowerModulus(5, 1))
    assert congruent_mod(INFINITY, Fraction(1, 5), PrimePowerModulus(5, 1))


def test_congruent_mod_agrees_with_chordal_sampled():
    # congruent_mod(x, y, p^k) says that chordal(x, y, p) is at most p^-k
    # without the valuation loop; pairs that agree to a high power of p come
    # from y = x + p^j * t, and equal points from j = None
    rng = random.Random(17)
    seen = set()
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7))
        x = normalize((rng.randrange(-99, 100), rng.randrange(1, 50)))
        j = rng.choice((None, 0, 1, 2, 3, 4))
        y = x if j is None else normalize(Fraction(*x) + p ** j * rng.randrange(1, 30))
        exponent = chordal(x, y, p).exponent
        for k in range(1, 7):
            got = exponent is None or exponent >= k
            assert got == congruent_mod(x, y, PrimePowerModulus(p, k)), (x, y, p, k)
            seen.add(got)
    assert seen == {True, False}


def test_chordal_metric_axioms_sampled():
    rng = random.Random(11)
    primes = (2, 3, 5, 7, 11)
    for _ in range(200):
        pts = []
        while len(pts) < 3:
            a = rng.randrange(-99, 100)
            b = rng.randrange(-99, 100)
            if (a, b) != (0, 0):
                pts.append(normalize((a, b)))
        x, y, z = pts
        for p in primes:
            dxy = chordal(x, y, p).distance()
            dyx = chordal(y, x, p).distance()
            dxz = chordal(x, z, p).distance()
            dyz = chordal(y, z, p).distance()
            assert dxy == dyx
            assert dxz <= max(dxy, dyz)
            assert (dxy == 0) == (x == y)
            # scaling a representative must not change the distance
            lam = rng.choice([-7, -3, -1, 2, 5, 9])
            assert chordal((lam * x.x1, lam * x.x2), y, p).distance() == dxy


def test_prime_power_modulus():
    m = PrimePowerModulus(5, 2)
    assert m.modulus == 25
    assert str(m) == "5^2"
    assert str(PrimePowerModulus(7, 1)) == "7"
    assert PrimePowerModulus(2, 3).modulus == 8
    with pytest.raises(ValueError):
        PrimePowerModulus(4, 1)
    with pytest.raises(ValueError):
        PrimePowerModulus(5, 0)


def test_prime_power_modulus_past_the_bit_limit_is_refused_before_it_is_built(time_limit):
    # p^k counts k times the bits of p, as a power in map text does: 2^k
    # passes 2^20 bits so counted from k = 2^19 + 1 on, and 4^(10^11) is
    # refused for its size before its base is found composite
    assert PrimePowerModulus(2, 2 ** 19).modulus.bit_length() == 2 ** 19 + 1
    refused = [
        (2, 2 ** 19 + 1, 2 ** 20 + 2),
        (2, 10 ** 11, 2 * 10 ** 11),
        (4, 10 ** 11, 3 * 10 ** 11),
        (2 ** 127 - 1, 8257, 127 * 8257),
    ]
    t0 = time.perf_counter()
    with time_limit():
        for p, k, bits in refused:
            with pytest.raises(ValueError) as info:
                PrimePowerModulus(p, k)
            assert str(info.value) == f"modulus {p}^{k} of {bits} bits exceeds the limit 1048576"
    assert time.perf_counter() - t0 < 1.0


def test_parse_modulus():
    assert parse_modulus("7") == PrimePowerModulus(7, 1)
    assert parse_modulus("2^3") == PrimePowerModulus(2, 3)
    with pytest.raises(ValueError):
        parse_modulus("4")
    # int() alone would report "invalid literal for int() with base 10"
    for text in ("2^", "2^3^4", "^3", "", "x", "2^x", "2/3"):
        with pytest.raises(ValueError) as info:
            parse_modulus(text)
        assert str(info.value) == f"bad modulus text: {text!r}"


def test_prime_power_modulus_stores_its_power_outside_eq_hash_order_and_repr():
    m = PrimePowerModulus(5, 2)
    assert m.modulus == 25
    assert repr(m) == "PrimePowerModulus(p=5, k=2)"
    # modulus is p^k, so equality, hashing and order are those of (p, k)
    other = PrimePowerModulus(5, 2)
    assert tuple(other) == (5, 2, 25)
    assert other == m and hash(other) == hash(m) and other != PrimePowerModulus(5, 3)
    assert other <= m <= other and not other < m
    moduli = [PrimePowerModulus(3, 1), PrimePowerModulus(2, 3), PrimePowerModulus(2, 1)]
    assert [(q.p, q.k) for q in sorted(moduli)] == [(2, 1), (2, 3), (3, 1)]
    with pytest.raises(TypeError):
        PrimePowerModulus(5, 2, 25)


def test_canonical_residue():
    m = PrimePowerModulus(5, 1)
    assert reduce_mod((6, 2), m) == (3, 1)
    assert reduce_mod((2, 5), m) == (1, 0)
    assert reduce_mod((3, 1), m) == (3, 1)
    assert reduce_mod((-1, 10), m) == (1, 0)
    m25 = PrimePowerModulus(5, 2)
    assert reduce_mod((3, 10), m25) == (1, 20)  # 10 * 3^-1 = 10 * 17 mod 25
    # a pair that normalize would first divide by p is no point mod p
    with pytest.raises(ValueError):
        _residue_code(5, 10, 5, 5)
    with pytest.raises(ValueError):
        _residue_code(0, 0, 5, 5)


def test_reduce_mod_known_values():
    assert reduce_mod(3, PrimePowerModulus(5, 1)) == (3, 1)
    assert reduce_mod(INFINITY, PrimePowerModulus(7, 1)) == (1, 0)
    # scale (5, 3) by the inverse of 3 mod 25, which is 17: 5 * 17 = 85 = 10
    m25 = PrimePowerModulus(5, 2)
    assert reduce_mod(Fraction(5, 3), m25) == (10, 1)


def test_reduce_mod_is_the_congruence_quotient():
    # exhaustive over all normalized points with coordinates in [-10, 10]:
    # two points are congruent mod p^k exactly when they reduce to the same
    # canonical pair
    points = set()
    for a in range(-10, 11):
        for b in range(-10, 11):
            if (a, b) != (0, 0) and gcd(a, b) == 1:
                points.add(normalize((a, b)))
    points = sorted(points)
    for m in (
        PrimePowerModulus(2, 1),
        PrimePowerModulus(3, 1),
        PrimePowerModulus(2, 2),
        PrimePowerModulus(5, 1),
        PrimePowerModulus(3, 2),
        PrimePowerModulus(5, 2),
    ):
        reduced = [reduce_mod(pt, m) for pt in points]
        count = len(set(reduced))
        assert count <= m.modulus + m.modulus // m.p
        for i, x in enumerate(points):
            for j in range(i, len(points)):
                same = reduced[i] == reduced[j]
                assert congruent_mod(x, points[j], m) == same, (x, points[j], m)
