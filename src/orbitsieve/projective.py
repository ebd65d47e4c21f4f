"""Points of the projective line over Q and over prime-power residue rings.

Rational points are named tuples of normalized integer coordinates
[x1 : x2] with gcd(x1, x2) = 1 and the last nonzero coordinate positive,
so equality is plain tuple equality. Like the engine's other values (hit
sets, modular orbits), a point the engine computes is built by one
unchecked rule, tuple.__new__(cls, fields), and one read from outside by
the checking constructor. A point of P^1(Z/p^k) is its canonical (c1, c2)
int pair (see canonical_residue), or inside the night-side loops one int
that codes the pair (see _residue_code); the modulus travels separately.
Distances at a finite prime are kept exact as valuation exponents rather
than floats.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Union

from .numtheory import is_prime, valuation

__all__ = [
    "ProjectivePoint",
    "INFINITY",
    "ZERO",
    "normalize",
    "parse_point",
    "format_point",
    "ChordalValue",
    "chordal",
    "congruent_mod",
    "PrimePowerModulus",
    "parse_modulus",
    "canonical_residue",
    "reduce_mod",
]

PointLike = Union["ProjectivePoint", int, Fraction, str, tuple]


class ProjectivePoint(namedtuple("ProjectivePoint", "x1 x2")):
    """A point of P^1(Q) in normalized coprime integer coordinates.

    A named tuple, so it hashes, compares and sorts as its pair (x1, x2).
    The constructor raises ValueError for a pair out of normal form: it
    builds the points read from outside the program, such as the stored
    points of a certificate, which are rejected rather than normalized.
    Points the engine computes are in normal form by construction and are
    built without the checks, by tuple.__new__(ProjectivePoint, (x1, x2)).
    """

    __slots__ = ()

    def __new__(cls, x1: int, x2: int) -> "ProjectivePoint":
        # gcd 1 rules out (0, 0), whose gcd is 0
        if math.gcd(x1, x2) != 1:
            if x1 == 0 and x2 == 0:
                raise ValueError("(0, 0) is not a projective point")
            raise ValueError("coordinates must be coprime")
        if (x2 or x1) < 0:
            raise ValueError("last nonzero coordinate must be positive")
        return tuple.__new__(cls, (x1, x2))

    @property
    def is_infinity(self) -> bool:
        return self.x2 == 0

    def as_fraction(self) -> Fraction:
        if self.is_infinity:
            raise ValueError("the point at infinity is not a fraction")
        return Fraction(self.x1, self.x2)

    def __str__(self) -> str:
        return format_point(self)


INFINITY = ProjectivePoint(1, 0)
ZERO = ProjectivePoint(0, 1)


def normalize(value: PointLike) -> ProjectivePoint:
    """Coerce ints, Fractions, strings, or raw coordinate pairs to a point.

    An int v is (v : 1) and a Fraction is (numerator : denominator), both
    in normal form already (a Fraction is kept in lowest terms with a
    positive denominator), so both are built without the constructor's
    checks. int(v) stores a bool as the plain int it stands for.
    """
    if isinstance(value, ProjectivePoint):
        return value
    if isinstance(value, int):
        return tuple.__new__(ProjectivePoint, (int(value), 1))
    if isinstance(value, Fraction):
        return tuple.__new__(ProjectivePoint, (value.numerator, value.denominator))
    if isinstance(value, str):
        return parse_point(value)
    if isinstance(value, tuple) and len(value) == 2:
        return _from_pair(*value)
    raise TypeError(f"cannot interpret {value!r} as a projective point")


def _from_pair(a: int, b: int) -> ProjectivePoint:
    """The point (a : b): both divided by their gcd, and negated when the
    last nonzero one is negative. ValueError for (0, 0), whose gcd is 0."""
    g = math.gcd(a, b)
    if not g:
        raise ValueError("(0, 0) is not a projective point")
    if (b or a) < 0:
        g = -g
    return tuple.__new__(ProjectivePoint, (a // g, b // g))


def _number_text(text: str) -> str:
    """text itself, if it is ASCII without underscores; ValueError otherwise.
    int() alone would read '1_0' as 10 and digits of other scripts, such as
    the Arabic-Indic five, as ASCII ones. Map text admits ASCII digits only."""
    if not text.isascii() or "_" in text:
        raise ValueError(
            f"numbers are written in ASCII digits without underscores: {text!r}"
        )
    return text


def parse_point(text: str) -> ProjectivePoint:
    """Parse 'inf', 'infinity' or 'oo' in any case, a signed integer, 'a/b',
    or bracket form '[a:b]', with spaces around any part, straight to a
    normalized point. ValueError naming the text for anything else."""
    s = _number_text(text).strip()
    if s.lower() in ("inf", "infinity", "oo"):
        return INFINITY
    bracket = s.startswith("[") and s.endswith("]")
    parts = s[1:-1].split(":") if bracket else s.split("/")
    try:
        # two parts, or one integer: a bracket needs its colon
        num, den = parts if len(parts) != 1 else (s, 1)
        a, b = int(num), int(den)
    except ValueError:
        raise ValueError(f"bad point text: {text!r}") from None
    return _from_pair(a, b)


def format_point(pt: ProjectivePoint) -> str:
    if pt.is_infinity:
        return "inf"
    if pt.x2 == 1:
        return str(pt.x1)
    return f"{pt.x1}/{pt.x2}"


class ChordalValue(namedtuple("ChordalValue", "p exponent")):
    """Exact chordal distance at a prime, as p^(-exponent).

    exponent None encodes distance zero (equal points); exponent 0 encodes
    distance 1, the maximum. Smaller distance = larger exponent.
    """

    __slots__ = ()

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    def distance(self) -> Fraction:
        if self.exponent is None:
            return Fraction(0)
        return Fraction(1, self.p ** self.exponent)

    def at_most(self, k: int) -> bool:
        """True when the distance is <= p^-k."""
        return self.exponent is None or self.exponent >= k


def _cross(x: ProjectivePoint, y: ProjectivePoint) -> int:
    return x.x1 * y.x2 - x.x2 * y.x1


def chordal(x: PointLike, y: PointLike, p: int) -> ChordalValue:
    """Nonarchimedean chordal distance between two points at the prime p.

    On normalized coordinates this is p^(-v_p(x1*y2 - x2*y1)); the max terms
    in the usual denominator are both 1.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    a = normalize(x)
    b = normalize(y)
    c = _cross(a, b)
    if c == 0:
        return ChordalValue(p, None)
    return ChordalValue(p, valuation(c, p))


def congruent_mod(x: PointLike, y: PointLike, m: "PrimePowerModulus") -> bool:
    """Whether two rational points agree modulo p^k.

    Equivalent to chordal(x, y, p).at_most(k) but avoids the valuation loop.
    """
    a = normalize(x)
    b = normalize(y)
    return _cross(a, b) % m.modulus == 0


class PrimePowerModulus(namedtuple("PrimePowerModulus", "p k modulus")):
    """A prime power p^k used as a reduction modulus.

    A named tuple (p, k, modulus) built from p and k alone: the constructor
    checks them and computes modulus = p^k once, so loops unpack all three
    (p, k, n = m). modulus follows from p and k, so equality and order are
    those of (p, k). repr shows p and k alone, and pickling and
    copying pass only p and k, so they rebuild through the checks.
    """

    __slots__ = ()

    def __new__(cls, p: int, k: int) -> "PrimePowerModulus":
        if k < 1:
            raise ValueError("exponent must be >= 1")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return tuple.__new__(cls, (p, k, p ** k))

    def __getnewargs__(self) -> tuple[int, int]:
        return self[:2]

    def __repr__(self) -> str:
        return f"PrimePowerModulus(p={self[0]}, k={self[1]})"

    def point_count(self) -> int:
        """|P^1(Z/p^k)| = p^k + p^(k-1)."""
        p, _, n = self
        return n + n // p

    def __str__(self) -> str:
        return f"{self.p}^{self.k}" if self.k > 1 else str(self.p)


def parse_modulus(text: str) -> PrimePowerModulus:
    """Parse 'p' or 'p^k', with spaces around either part. ValueError
    naming the text for anything else, and from PrimePowerModulus when p is
    not prime or k < 1."""
    s = _number_text(text).strip()
    parts = s.split("^")
    try:
        base, exp = parts if len(parts) != 1 else (s, 1)
        p, k = int(base), int(exp)
    except ValueError:
        raise ValueError(f"bad modulus text: {text!r}") from None
    return PrimePowerModulus(p, k)


def canonical_residue(a: int, b: int, m: PrimePowerModulus) -> tuple[int, int]:
    """Canonical coordinates (c1, c2) of the point (a : b) of P^1(Z/p^k).

    c2 == 1 when b is a unit mod p, otherwise c1 == 1 and p divides c2.
    Every point of P^1(Z/p^k) has exactly one such pair, so points are
    equal exactly when their pairs are. Raises ValueError when p divides
    both a and b.
    """
    p, _, n = m
    return _residue_pair(_residue_code(a, b, p, n), n)


def _residue_code(a: int, b: int, p: int, n: int) -> int:
    """The point (a : b) of P^1(Z/p^k), n = p^k, coded as one int in [0, 2n).

    The canonical pair (c, 1) is coded as c, and (1, c2) with p | c2 as
    n + c2, so codes are equal exactly when points are; _residue_pair
    decodes. Loops over P^1(Z/p^k) such as orbit_mod step and store these
    ints instead of pairs. Raises ValueError when p divides both a and b.
    """
    a %= n
    b %= n
    # a unit coordinate of 1, as in an integer point or in inf, needs no inverse
    if b % p != 0:
        return a if b == 1 else a * pow(b, -1, n) % n
    if a % p != 0:
        return n + (b if a == 1 else b * pow(a, -1, n) % n)
    raise ValueError("both coordinates divisible by p: not a point mod p^k")


def _residue_pair(code: int, n: int) -> tuple[int, int]:
    """The canonical pair of the point with int code `code` mod n = p^k."""
    return (code, 1) if code < n else (1, code - n)


def _pair_code(a: int, b: int, p: int, n: int) -> int:
    """The int code of the canonical pair (a, b) mod n = p^k, the inverse
    of _residue_pair: (c, 1) with 0 <= c < n, or (1, c2) with p | c2 and
    0 <= c2 < n. Unlike _residue_code it never canonicalizes: any other
    pair raises ValueError, so a certificate that stores one is malformed.
    """
    if b == 1 and 0 <= a < n:
        return a
    if a == 1 and 0 <= b < n and b % p == 0:
        return n + b
    raise ValueError(f"({a}, {b}) is not a canonical pair mod {n}")


def reduce_mod(x: PointLike, m: PrimePowerModulus) -> tuple[int, int]:
    """Reduce a rational point modulo p^k to its canonical pair.

    Well-defined for every rational point: normalized coordinates are coprime,
    so at least one survives as a unit mod p.
    """
    return canonical_residue(*normalize(x), m)
