"""Rational self-maps of the projective line in exact integer arithmetic.

A degree-d map is stored as a pair of degree-d homogeneous integer forms
(F, G) with nonzero resultant, jointly primitive, the highest nonzero
coefficient of F positive. A form is a plain tuple of its integer
coefficients, ascending in the first variable: index i holds the
coefficient of X^i Y^(d-i).

Newton's iteration for a polynomial f lives here too, both as the map
z - f/f' (newton_map) and as per-place convergence reports
(newton_place_report); the two read and check f through one front end.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import islice, repeat
from typing import Iterable, Iterator, Optional, Sequence, Union

from .numtheory import (
    FactorizationBudgetError,
    factorize,
    is_prime,
    mobius,
    valuation,
    DEFAULT_RHO_STEPS,
    DEFAULT_TRIAL_BOUND,
)
from .projective import (
    INFINITY,
    PointLike,
    PrimePowerModulus,
    ProjectivePoint,
    ZERO,
    _MAX_TEXT_BITS,
    _residue_code,
    _residue_pair,
    normalize,
)

__all__ = [
    "DegenerateMapError",
    "BadPrimeError",
    "HeightBudgetError",
    "DynatomicDivisionError",
    "BadPrimeReport",
    "RationalMap",
    "resultant",
    "parse_map",
    "parse_polynomial",
    "newton_map",
    "PlaceReport",
    "newton_place_report",
    "orbit_points",
    "iterate_point",
    "is_polynomial_type",
    "dynatomic",
    "dynatomic_degree",
    "rational_periodic_points",
    "DEFAULT_HEIGHT_BITS",
    "DEFAULT_COMPOSE_DEGREE",
]

DEFAULT_HEIGHT_BITS = 1 << 20
DEFAULT_COMPOSE_DEGREE = 8192

# Map and polynomial text may build no power or product of degree above
# this: the resultant of a degree-d map is a d x d determinant and _ppow
# multiplies schoolbook, so a short text such as z^9999+1 would otherwise
# keep the parser busy for hours. Nor may it build a coefficient of more
# bits than _MAX_TEXT_BITS: 9^99999999 names a 317-million-bit integer.
_MAX_TEXT_DEGREE = 256
# The decimal digits of a _MAX_TEXT_BITS-bit integer (315,653): no literal
# may have more, and the CLI raises the interpreter's int-to-str limit
# (4,300 digits by default) to this for the duration of a command.
_MAX_TEXT_DIGITS = int(_MAX_TEXT_BITS * math.log10(2)) + 1


class DegenerateMapError(ValueError):
    """The form pair has resultant zero (a common factor was not cancelled)."""


class BadPrimeError(ValueError):
    """Reduction was requested at a prime dividing the resultant."""

    def __init__(self, p: int):
        self.p = p
        super().__init__(f"{p} is a prime of bad reduction for this map")


class HeightBudgetError(RuntimeError):
    """Orbit coordinates outgrew the bit budget; carries the last safe index."""

    def __init__(self, last_index: int, bits: int):
        self.last_index = last_index
        self.bits = bits
        super().__init__(
            f"coordinate size exceeded {bits} bits after iterate {last_index}"
        )


class DynatomicDivisionError(ArithmeticError):
    """The Moebius-product division left a nonzero remainder."""


# ---------------------------------------------------------------------------
# small dense polynomial helpers (ascending coefficient lists)

def _ptrim(v: list) -> list:
    while v and v[-1] == 0:
        v.pop()
    return v


def _padd(a: Sequence, b: Sequence) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _ptrim(out)


def _pneg(a: Sequence) -> list:
    return [-c for c in a]


def _pmul(a: Sequence, b: Sequence) -> list:
    """Full-length product, not trimmed: forms must keep their degree."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return out


def _ppow(a: Sequence, k: int) -> list:
    out = [1]
    base = list(a)
    while k:
        if k & 1:
            out = _pmul(out, base)
        k >>= 1
        if k:
            base = _pmul(base, base)
    return out


def _pderiv(a: Sequence) -> list:
    return _ptrim([i * a[i] for i in range(1, len(a))])


def _poly_divmod(num: Sequence, den: Sequence) -> tuple[list[Fraction], list[Fraction]]:
    """Exact-rational division of ascending coefficient lists."""
    den = _ptrim([Fraction(c) for c in den])
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in num]
    _ptrim(rem)
    dn = len(den) - 1
    lead = den[-1]
    q: list[Fraction] = [Fraction(0)] * max(len(rem) - dn, 0)
    while len(rem) - 1 >= dn and rem:
        shift = len(rem) - 1 - dn
        coeff = rem[-1] / lead
        q[shift] = coeff
        for i, c in enumerate(den):
            rem[shift + i] -= coeff * c
        _ptrim(rem)
    return q, rem


def _fpoly_gcd(a: Sequence, b: Sequence) -> list[Fraction]:
    """Monic gcd over Q, by the Euclidean algorithm."""
    x = _ptrim([Fraction(c) for c in a])
    y = _ptrim([Fraction(c) for c in b])
    while y:
        _, r = _poly_divmod(x, y)
        x, y = y, r
    if x:
        lead = x[-1]
        x = [c / lead for c in x]
    return x


def _clear_denominators(v: Sequence[Fraction]) -> list[int]:
    lcm = math.lcm(*(c.denominator for c in v))
    return [int(c * lcm) for c in v]


def _horner(coeffs: Sequence, a, b):
    """Sum of coeffs[i] * a^i * b^(d-i), d = len(coeffs) - 1: Horner's rule in
    a with one running power of b. Exact on ints and Fractions; with b = 1 it
    is the ascending polynomial coeffs evaluated at a."""
    rest = reversed(coeffs)
    total = next(rest)
    b_pow = 1
    for c in rest:
        b_pow *= b
        total = total * a + c * b_pow
    return total


# ---------------------------------------------------------------------------
# binary forms: ascending coefficient tuples


def _primitive(v: Sequence[int]) -> tuple[int, ...]:
    """The normal form of an integer form, or of a form pair written as one
    vector: v divided by its content, and negated when its last nonzero
    entry is negative. ValueError on the zero vector."""
    c = math.gcd(*v)
    if c == 0:
        raise ValueError("the zero form has no primitive part")
    for top in reversed(v):
        if top:
            break
    if top < 0:
        c = -c
    return tuple(v) if c == 1 else tuple([x // c for x in v])


def resultant(fc: Sequence[int], gc: Sequence[int]) -> int:
    """Homogeneous resultant of two forms of equal degree d, given as their
    ascending coefficient sequences.

    The Sylvester determinant (rows: d shifts of F, then d of G, each
    highest power of X first), computed as (-1)^(d(d-1)/2) * det B for the
    d x d Bezout-Cayley matrix B of (f, g), ascending coefficient vectors:
    (f(x) g(y) - f(y) g(x)) / (x - y) = sum of B[i][j] x^i y^j, so
        B[i][j] = sum over max(0, i+j+1-d) <= k <= min(i, j) of
                  f[i+j+1-k] * g[k] - f[k] * g[i+j+1-k].
    Both sides are polynomials in the coefficients, so the identity holds
    with zero end coefficients too. Along an antidiagonal the sums share all
    but their last term, B[i][j] = B[i-1][j+1] + f[j+1] g[i] - f[i] g[j+1]
    for i <= j, which is how B is filled. B is symmetric and half the size
    of the Sylvester matrix; its determinant is computed fraction-free
    (Bareiss), so the result is exact for any coefficient size.
    """
    d = len(fc) - 1
    if len(gc) != d + 1:
        raise ValueError("resultant expects forms of equal degree")
    if d == 0:
        raise ValueError("degree must be at least 1")
    # one more zero row and column than B: rows[-1] stands for row -1 and
    # column d for the entries past the edge, so the recurrence reads 0 there
    rows = [[0] * (d + 1) for _ in range(d + 1)]
    for i in range(d):
        above, row = rows[i - 1], rows[i]
        fi, gi = fc[i], gc[i]
        for j in range(i, d):
            row[j] = rows[j][i] = above[j + 1] + fc[j + 1] * gi - fi * gc[j + 1]
    det = _bareiss_det(rows[:d])
    # d(d-1)/2 is odd exactly when d = 2 or 3 mod 4
    return -det if d & 2 else det


def _bareiss_det(m: list[list[int]]) -> int:
    """Determinant of the n x n integer matrix held in the first n columns
    of the n rows of m, by fraction-free elimination (Bareiss): every
    division is exact. Overwrites the rows. n >= 1: resultant refuses
    degree 0."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        row_k = m[k]
        if row_k[k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    row_k, m[i] = m[i], row_k
                    m[k] = row_k
                    sign = -sign
                    break
            else:
                return 0
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = m[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


# ---------------------------------------------------------------------------
# the map itself


class BadPrimeReport(namedtuple("BadPrimeReport", "primes cofactor", defaults=(None,))):
    """Primes of bad reduction (a frozenset); cofactor is a leftover
    composite, if any."""

    __slots__ = ()

    @property
    def complete(self) -> bool:
        return self.cofactor is None


class RationalMap(namedtuple("RationalMap", "F G res pairs charts height_loss_bits")):
    """A self-map of P^1(Q) given by a jointly primitive form pair.

    A named tuple built from (F, G) and their resultant res: the constructor
    derives, once per map, the Horner inputs of evaluate (pairs) and of
    _mod_walk (charts) and height_loss_bits, which the walks read. Every
    field follows from (F, G), so two maps are equal, and hash alike,
    exactly when their (F, G) are. make is the checking entry; pickling and
    copying pass F and G alone to it, so a loaded map is rebuilt through the
    checks, with its resultant recomputed, not read.
    """

    __slots__ = ()

    def __new__(cls, F: tuple[int, ...], G: tuple[int, ...], res: int) -> "RationalMap":
        # pairs: (F_d, G_d) and the pairs (F_i, G_i) for i = d-1, ..., 0, so
        # that one pass of evaluate computes F and G together.
        pairs = F[-1], G[-1], tuple(zip(F[-2::-1], G[-2::-1]))
        # charts: for the affine chart (F(x, 1), G(x, 1)) and the chart at
        # infinity (F(1, y), G(1, y)), each polynomial, highest power first
        # with leading zeros dropped (no form is zero), as its leading
        # coefficient and the rest, so G(x, 1) of a polynomial map is (1, ()).
        charts = []
        for forms in ((F[::-1], G[::-1]), (F, G)):
            chart: tuple = ()
            for v in forms:
                while not v[0]:
                    v = v[1:]
                chart += (v[0], v[1:])
            charts.append(chart)
        # height_loss_bits: L with H(phi(x)) > H(x)^d / 2^L for every
        # rational point x. The Sylvester identities A1*F + B1*G = R*Y^(2d-1)
        # and A2*F + B2*G = R*X^(2d-1) have cofactors A_i, B_i of degree d-1
        # whose 2d coefficients are (2d-1)-minors of the Sylvester matrix.
        # Each row of such a minor is part of a shifted coefficient vector of
        # F or G, so its Euclidean norm is at most sqrt(s),
        # s = max(sum F_i^2, sum G_i^2). By Hadamard's inequality each
        # coefficient is then at most s^((2d-1)/2) in absolute value, so
        # C = 2d * s^((2d-1)/2) bounds the coefficient sums of A_i and B_i.
        # For coprime (a, b) of height h, the identity for the larger
        # coordinate gives |R| * h^(2d-1) <= C * h^(d-1) * max(|F|, |G|); the
        # common factor of F(a, b) and G(a, b) divides R (see evaluate), so
        # H(phi(a : b)) >= h^d / C > h^d / 2^L, as C < 2^L for
        # L = bits(2d) + ceil(bits(s) * (2d-1) / 2) (Call-Silverman,
        # Compositio Math. 89 (1993); Silverman, The Arithmetic of Dynamical
        # Systems, section 3.4).
        d = len(F) - 1
        s = max(sum([c * c for c in F]), sum([c * c for c in G]))
        loss = (2 * d).bit_length() + (s.bit_length() * (2 * d - 1) + 1) // 2
        return tuple.__new__(cls, (F, G, res, pairs, tuple(charts), loss))

    def __reduce__(self) -> tuple:
        return self.make, (self.F, self.G)

    @classmethod
    def make(cls, f_coeffs: Sequence[int], g_coeffs: Sequence[int]) -> "RationalMap":
        """Build a map from raw coefficient vectors of equal length.

        Clears the joint content, fixes the sign so the highest nonzero
        coefficient of F is positive, and computes the resultant eagerly.
        Raises DegenerateMapError when a form is zero or the resultant
        vanishes.
        """
        n = len(g_coeffs)
        if len(f_coeffs) != n:
            raise ValueError("form vectors must have equal length")
        if n < 2:
            raise ValueError("maps must have degree at least 1")
        if not any(f_coeffs) or not any(g_coeffs):
            raise DegenerateMapError(
                "one of the forms is identically zero; the pair does not "
                "define a self-map"
            )
        # F is nonzero, so the last nonzero entry of G + F is F's top one
        v = _primitive((*g_coeffs, *f_coeffs))
        F, G = v[n:], v[:n]
        r = resultant(F, G)
        if r == 0:
            raise DegenerateMapError(
                "resultant is zero: numerator and denominator share a root "
                "(cancel the common factor and retry)"
            )
        return cls(F, G, r)

    @property
    def degree(self) -> int:
        return len(self.F) - 1

    def is_good_prime(self, p: int) -> bool:
        """Good reduction at p: p does not divide the resultant."""
        return self.res % p != 0

    def proves_escape(self, pt: ProjectivePoint) -> bool:
        """True when the height bound shows that the orbit of pt wanders.

        For d >= 2, let the larger coordinate of the normalized pt have
        `bits` bits, so h = H(pt) >= 2^(bits-1). If (d-1) * (bits-1) >= L,
        L = height_loss_bits, then H(phi(pt)) > h^d / 2^L
        = h * h^(d-1) / 2^L >= h, so phi(pt) is higher still and passes the
        same test. Heights therefore rise strictly from pt on, and no later
        iterate equals pt or any earlier one: a repeat x_(n+k) = x_j would
        make x_n recur. An orbit walked without closing up to an iterate for
        which this holds never closes. Degree-one maps never pass: the test
        reads 0 >= L there, and L >= 2.
        """
        d = self.degree
        x1, x2 = pt
        bits = max(abs(x1).bit_length(), abs(x2).bit_length())
        return (d - 1) * (bits - 1) >= self.height_loss_bits

    def bad_primes(
        self,
        trial_bound: int = DEFAULT_TRIAL_BOUND,
        rho_steps: int = DEFAULT_RHO_STEPS,
    ) -> BadPrimeReport:
        """Primes dividing the resultant.

        When the factoring budget runs out, the primes found so far are
        returned along with the remaining composite cofactor, so callers can
        still trust every listed prime.
        """
        try:
            fac = factorize(abs(self.res), trial_bound, rho_steps)
        except FactorizationBudgetError as exc:
            return BadPrimeReport(
                frozenset(p for p, _ in exc.partial), exc.cofactor
            )
        return BadPrimeReport(frozenset(fac.primes()))

    def evaluate(self, x: PointLike) -> ProjectivePoint:
        """Apply the map to a rational point, renormalizing the output.

        For coprime (x1, x2) the Sylvester identities A1*F + B1*G = R*Y^(2d-1)
        and A2*F + B2*G = R*X^(2d-1), R = self.res (which make computes
        from F and G), show that
        gcd(F(x1, x2), G(x1, x2)) divides R*x2^(2d-1) and R*x1^(2d-1), hence
        divides R. So the common factor of the image coordinates is exactly
        gcd(R, G(x), F(x)), a gcd against the small resultant rather than
        between the two big coordinates, and dividing by it leaves them
        coprime. R != 0 (make rejects it), so the image is never (0, 0),
        and it is built without ProjectivePoint's checks.

        F(x) and G(x) are summed in one Horner pass in x1 over the
        coefficient pairs in self.pairs, sharing one running power of x2.
        """
        pt = x if type(x) is ProjectivePoint else normalize(x)
        x1, x2 = pt
        a, b, rest = self.pairs
        x2_pow = 1
        for cf, cg in rest:
            x2_pow *= x2
            a = a * x1 + cf * x2_pow
            b = b * x1 + cg * x2_pow
        # b first: for a polynomial map at an integer point b = 1.
        g = math.gcd(self.res, b)
        if g != 1:
            g = math.gcd(g, a)
            a //= g
            b //= g
        if (b if b != 0 else a) < 0:
            a, b = -a, -b
        return tuple.__new__(ProjectivePoint, (a, b))

    def evaluate_mod(
        self, r: tuple[int, int], m: PrimePowerModulus
    ) -> tuple[int, int]:
        """Apply the reduced map to the pair r of a point mod p^k, returning
        the image's canonical pair.

        r is coded as one int (projective._residue_code), stepped once by
        the loop that walks orbit_mod's orbits (_mod_walk), and decoded.
        Raises BadPrimeError when p divides the resultant.
        """
        p, _, n = m
        x = self._mod_walk(m, [_residue_code(r[0], r[1], p, n)], 1)
        return _residue_pair(x, n)

    def _mod_walk(self, m: PrimePowerModulus, seq: list[int], steps: int) -> int:
        """Walk the int codes mod p^k on from seq[-1], at most `steps` steps,
        appending each code to seq up to the first that repeats one of seq.

        Returns the last code computed: the repeat, or, after `steps` steps
        without one, the last code appended, so that seq then holds `steps`
        more codes. A set of seq's codes is the repeat test and is dropped
        on return. orbit_mod walks a whole orbit in this one loop, and
        evaluate_mod takes a single step.

        A code x < n = p^k is the point (x : 1), whose image is
        (F(x, 1) : G(x, 1)); a code n + y is (1 : y) with p | y, whose image
        is (F(1, y) : G(1, y)). Each value is one Horner pass in x or y,
        started at the leading coefficient, with no running power of the
        other coordinate. projective._residue_code reduces both values mod n
        and takes the one inverse. The Horner coefficients are split once
        per map (charts); good reduction is checked, p^k computed and the
        chart chosen once per walk, so that each step pays only for its
        arithmetic and the repeat test. Raises BadPrimeError when p divides
        the resultant; at a good prime the two image coordinates are never
        both divisible by p.

        When G(x, 1) == 1, the polynomial chart, an affine point (x : 1) maps
        to the affine point (F(x, 1) : 1). From an affine start such a walk
        never leaves the chart, and each step is one Horner pass of F(x, 1)
        with no pass over G. Every other walk takes the general loop, where
        G == 1 mod n holds only by chance, so its steps do not test for it.
        """
        p, _, n = m
        if not self.is_good_prime(p):
            raise BadPrimeError(p)
        seen = set(seq)
        add, append = seen.add, seq.append
        x = seq[-1]
        affine, at_infinity = self.charts
        f_top, f_rest, g_top, g_rest = affine
        if not g_rest and g_top == 1 and x < n:
            for _ in repeat(None, steps):
                a = f_top
                for c in f_rest:
                    a = a * x + c
                x = a % n
                if x in seen:
                    return x
                add(x)
                append(x)
            return x
        for _ in repeat(None, steps):
            if x < n:
                a, f, b, g = affine
            else:
                x -= n
                a, f, b, g = at_infinity
            for c in f:
                a = a * x + c
            for c in g:
                b = b * x + c
            x = _residue_code(a, b, p, n)
            if x in seen:
                return x
            add(x)
            append(x)
        return x

    def iterate_forms(
        self, n: int, max_degree: int = DEFAULT_COMPOSE_DEGREE
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The coefficient tuples (F_n, G_n) of the n-th iterate, in the
        normal form of make: jointly primitive, the highest nonzero
        coefficient of F_n positive. iterate_forms(1) is (F, G).

        Degree grows like d^n, so this refuses to compose past `max_degree`.
        Each call composes from (F, G) anew and keeps nothing.
        """
        if n < 1:
            raise ValueError("iterate index must be >= 1")
        d = self.degree
        if d ** n > max_degree:
            raise ValueError(
                f"iterate degree {d}^{n} exceeds the limit {max_degree}"
            )
        fk, gk = self.F, self.G
        for _ in range(n - 1):
            fpow, gpow = [[1]], [[1]]
            for _ in range(d):
                fpow.append(_pmul(fpow[-1], fk))
                gpow.append(_pmul(gpow[-1], gk))
            size = d * (len(fk) - 1) + 1
            fv, gv = [0] * size, [0] * size
            for i, (cf, cg) in enumerate(zip(self.F, self.G)):
                if cf == 0 and cg == 0:
                    continue
                mono = _pmul(fpow[i], gpow[d - i])
                for j, c in enumerate(mono):
                    if c:
                        fv[j] += cf * c
                        gv[j] += cg * c
            v = _primitive(gv + fv)
            fk, gk = v[size:], v[:size]
        return fk, gk

    def __str__(self) -> str:
        num, den = _poly_text(self.F), _poly_text(self.G)
        if den == "1":
            return num
        return f"({num})/({den})"


def orbit_points(
    phi: RationalMap,
    x: PointLike,
    height_bits: int = DEFAULT_HEIGHT_BITS,
) -> Iterator[ProjectivePoint]:
    """Yield x, phi(x), phi^2(x), ... in normalized form.

    Instead of yielding an iterate whose coordinates exceed `height_bits`
    bits, raises HeightBudgetError carrying the index of the last iterate
    yielded.

    That iterate is usually the costliest of the walk, so it is not computed
    when a lower bound already puts it over budget: if an iterate pt after
    the start, whose larger coordinate has `bits` bits, has
    d * (bits - 1) - L >= height_bits, L = phi.height_loss_bits, then
    H(phi(pt)) > H(pt)^d / 2^L >= 2^(d * (bits - 1) - L) >= 2^height_bits,
    so the check on phi(pt) would fail; the error is raised with the same
    index, without evaluating phi(pt).
    """
    pt = normalize(x)
    d = phi.degree
    last = 0
    yield pt
    while True:
        pt = phi.evaluate(pt)
        x1, x2 = pt
        bits = max(abs(x1).bit_length(), abs(x2).bit_length())
        if bits > height_bits:
            raise HeightBudgetError(last, height_bits)
        last += 1
        yield pt
        # L >= 0, so the prediction needs d * (bits - 1) > height_bits first:
        # short walks and degree-one walks never read L.
        excess = d * (bits - 1) - height_bits
        if excess > 0 and excess >= phi.height_loss_bits:
            raise HeightBudgetError(last, height_bits)


def iterate_point(
    phi: RationalMap,
    x: PointLike,
    n: int,
    height_bits: int = DEFAULT_HEIGHT_BITS,
) -> ProjectivePoint:
    """phi^n(x) by pointwise iteration; HeightBudgetError as in orbit_points."""
    if n < 0:
        raise ValueError("orbit indices are nonnegative")
    for j, pt in enumerate(orbit_points(phi, x, height_bits)):
        if j >= n:
            return pt


# ---------------------------------------------------------------------------
# parsing


def _tokenize(text: str) -> list[tuple[str, Optional[int]]]:
    toks: list[tuple[str, Optional[int]]] = []
    start = -1  # where the digit run being read began
    # one pass, with a space after the text to end a last digit run
    for i, ch in enumerate(text + " "):
        if "0" <= ch <= "9":
            if start < 0:
                start = i
            continue
        if start >= 0:
            if i - start > _MAX_TEXT_DIGITS:
                raise ValueError(
                    f"integer literal of {i - start} digits exceeds the limit "
                    f"{_MAX_TEXT_DIGITS}"
                )
            toks.append(("int", int(text[start:i])))
            start = -1
        if ch in "+-*/^()":
            toks.append((ch, None))
        elif ch in "zZ":
            toks.append(("z", None))
        elif not ch.isspace():
            raise ValueError(f"unexpected character {ch!r} at position {i}")
    return toks


def _parse_rational(text: str) -> tuple[list[int], list[int]]:
    """Parse map text (the grammar of parse_map) into an uncancelled
    (num, den) pair of integer coefficient lists, both trimmed.

    Recursive descent with one nested function per precedence level: each
    takes a token index and returns (num, den, next index), and a
    (None, None) sentinel ends the token list. The denominator of a
    polynomial operand is None, so a sum or product of polynomials adds or
    multiplies the numerators alone; None counts as the unit [1] wherever a
    limit is measured. A denominator is never zero, since a zero divisor is
    rejected. Division builds a rational function without cancelling, so a
    degenerate input like (z^2-1)/(z-1) stays degenerate and is reported
    via the resultant.

    A power or product whose degree would pass _MAX_TEXT_DEGREE, or whose
    coefficients could pass _MAX_TEXT_BITS bits, is never built: the descent
    reads on with its operands as they are, so that a grammar error later in
    the text is still the one reported, and then raises ValueError naming
    the first limit passed. The bits of a power u^k are taken as k times
    the bits of u's largest coefficient, and those of a product u * v as
    the sum of the operands' largest bits plus the bits of the shorter
    length (_product_bits); both are read before anything is multiplied.
    """
    toks = _tokenize(text) + [(None, None)]
    refused: list[str] = []

    def within_limits(degree, bits):
        if degree > _MAX_TEXT_DEGREE:
            refused.append(f"degree {degree} exceeds the limit {_MAX_TEXT_DEGREE}")
        elif bits > _MAX_TEXT_BITS:
            refused.append(
                f"coefficient of {bits} bits exceeds the limit {_MAX_TEXT_BITS}"
            )
        else:
            return True
        return False

    def sum_(i):
        a, b, i = product(i)
        while toks[i][0] in ("+", "-"):
            op = toks[i][0]
            c, d, i = product(i + 1)
            if op == "-":
                c = _pneg(c)
            if b is d is None:
                # nothing is multiplied, and the degree of the sum is at most
                # its operands', which are within the limit
                a = _padd(a, c)
                continue
            b, d = b or [1], d or [1]
            # lists of lengths m and n have a product of degree m + n - 2
            if within_limits(
                max(len(a) + len(d), len(c) + len(b), len(b) + len(d)) - 2,
                max(_product_bits(a, d), _product_bits(c, b), _product_bits(b, d)),
            ):
                a, b = _padd(_pmul(a, d), _pmul(c, b)), _pmul(b, d)
        return a, b, i

    def product(i):
        a, b, i = signed_power(i)
        # juxtaposition means multiplication: 2z, 3(z+1), z(z-2)
        while toks[i][0] in ("*", "/", "z", "int", "("):
            op = toks[i][0]
            c, d, i = signed_power(i + (op in ("*", "/")))
            if op == "/":
                if not any(c):
                    raise ValueError("division by the zero polynomial")
                c, d = d or [1], c
            if b is d is None:
                if within_limits(len(a) + len(c) - 2, _product_bits(a, c)):
                    a = _pmul(a, c)
                continue
            b, d = b or [1], d or [1]
            if within_limits(
                max(len(a) + len(c), len(b) + len(d)) - 2,
                max(_product_bits(a, c), _product_bits(b, d)),
            ):
                a, b = _pmul(a, c), _pmul(b, d)
        return a, b, i

    def signed_power(i):
        neg = False
        while toks[i][0] in ("+", "-"):
            neg ^= toks[i][0] == "-"
            i += 1
        kind, val = toks[i]
        if kind == "int":
            num, den = ([val] if val else []), None
        elif kind == "z":
            num, den = [0, 1], None
        elif kind == "(":
            num, den, i = sum_(i + 1)
            if toks[i][0] != ")":
                raise ValueError("missing closing parenthesis")
        elif kind is None:
            raise ValueError("unexpected end of input")
        else:
            raise ValueError(f"unexpected token {kind!r}")
        i += 1
        if toks[i][0] == "^":
            kind, k = toks[i + 1]
            if kind != "int":
                raise ValueError("exponent must be a nonnegative integer")
            if within_limits(
                k * (max(len(num), len(den or [1])) - 1),
                k * max(_top_bits(num), _top_bits(den or [1])),
            ):
                # z^k is built as a monomial, and a polynomial keeps None
                num = [0] * k + [1] if num == [0, 1] else _ppow(num, k)
                den = den and _ppow(den, k)
            i += 2
        return (_pneg(num) if neg else num), den, i

    num, den, i = sum_(0)
    if toks[i][0] is not None:
        raise ValueError(f"trailing input at token {i}")
    if refused:
        raise ValueError(refused[0])
    return _ptrim(num), _ptrim(den or [1])


def _top_bits(v: Sequence[int]) -> int:
    """The bits of the largest coefficient of v, 0 for the empty list."""
    return max(map(abs, v)).bit_length() if v else 0


def _product_bits(u: Sequence[int], v: Sequence[int]) -> int:
    """A bound on the bits of the coefficients that _pmul(u, v) computes:
    each is a sum of at most min(len(u), len(v)) products of one coefficient
    each. 0 when u or v is the unit [1], as a polynomial's denominator is
    counted: the product then equals the other list, which is already
    within the limits.
    """
    if u == [1] or v == [1]:
        return 0
    return _top_bits(u) + _top_bits(v) + min(len(u), len(v)).bit_length()


def parse_map(text: str) -> RationalMap:
    """Parse an affine rational function in z into a map on P^1.

    The grammar: ASCII integer literals, z (or Z), + - * / and parentheses,
    with juxtaposition as a product (2z, 3(z+1), z(z-2)). A base takes at
    most one ^, followed by a nonnegative integer literal, so z^2^3 and
    z^(2) are errors. Unary signs bind looser than ^: -z^2 is -(z^2). The
    numerator/denominator pair is homogenized without cancellation, so
    inputs sharing a root raise DegenerateMapError.
    """
    num, den = _parse_rational(text)
    if not num:
        raise DegenerateMapError("the zero map does not define a self-map of P^1")
    d = max(len(num), len(den)) - 1
    if d < 1:
        raise ValueError("constant maps are not allowed (degree must be >= 1)")
    f = num + [0] * (d + 1 - len(num))
    g = den + [0] * (d + 1 - len(den))
    return RationalMap.make(f, g)


def parse_polynomial(text: str) -> list[Fraction]:
    """Parse polynomial text into ascending Fraction coefficients.

    The same grammar as parse_map, except the result must be a polynomial:
    a denominator other than a nonzero constant is rejected.
    """
    num, den = _parse_rational(text)
    if len(den) != 1:
        raise ValueError("expected a polynomial, not a rational function")
    return [Fraction(c, den[0]) for c in num]


def _poly_text(asc: Sequence[int], var: str = "z") -> str:
    """Render an ascending coefficient list as a human-readable polynomial."""
    terms = []
    for i in range(len(asc) - 1, -1, -1):
        c = asc[i]
        if c == 0:
            continue
        if i == 0:
            body = str(abs(c))
        else:
            head = "" if abs(c) == 1 else str(abs(c))
            body = f"{head}{var}" if i == 1 else f"{head}{var}^{i}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f"+ {body}" if c > 0 else f"- {body}")
    if not terms:
        return "0"
    return " ".join(terms)


# ---------------------------------------------------------------------------
# Newton iteration: the map on P^1, and one report per place of Q


def _newton_polynomial(
    f_text: str, what: str
) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
    """f, f' and the monic gcd(f, f') of the polynomial f_text.

    The one front end of newton_map and newton_place_report: f must parse
    as a polynomial (parse_polynomial) of degree >= 2; `what` names the
    caller in the degree error.
    """
    f = parse_polynomial(f_text)
    if len(f) < 3:
        raise ValueError(f"{what} need a polynomial of degree >= 2")
    fp = _pderiv(f)
    return f, fp, _fpoly_gcd(f, fp)


def newton_map(f_text: str) -> RationalMap:
    """The Newton iteration z - f/f' of a polynomial f, as a map on P^1.

    f must be a polynomial of degree >= 2 (rational coefficients fine). For
    squarefree f the result has degree deg f. A repeated factor is cancelled
    (the reduced rational function is what iteration actually computes),
    which lowers the degree below deg f.
    """
    f, fp, common = _newton_polynomial(f_text, "Newton maps")
    # z*f' - f has coefficient (i-1)*f_i at z^i
    num = _ptrim([(i - 1) * c for i, c in enumerate(f)])
    if len(common) > 1:
        num, rn = _poly_divmod(num, common)
        fp, rd = _poly_divmod(fp, common)
        if rn or rd:
            raise ArithmeticError("gcd cancellation was not exact")
    # keep the pair on a single common scale: clear across both vectors
    cleared = _clear_denominators(num + fp)
    d = max(len(num), len(fp)) - 1
    f_vec = cleared[: len(num)] + [0] * (d + 1 - len(num))
    g_vec = cleared[len(num):] + [0] * (d + 1 - len(fp))
    return RationalMap.make(f_vec, g_vec)


class PlaceReport(namedtuple("PlaceReport", "place verdict detail")):
    """Convergence report for Newton iteration at one place of Q: the place
    (a prime, or "real"), the verdict string and a dict of detail."""

    __slots__ = ()


def _frac_valuation(q: Fraction, p: int) -> int:
    return valuation(q.numerator, p) - valuation(q.denominator, p)


def _real_report(
    coeffs: Sequence[Fraction], deriv: Sequence[Fraction], alpha: Fraction, iters: int
) -> PlaceReport:
    try:
        coeffs = [float(c) for c in coeffs]
        deriv = [float(c) for c in deriv]
        x = float(alpha)
    except OverflowError:
        # no double holds the start or a coefficient; the exact p-adic
        # places need no floats and still report
        return PlaceReport("real", "undecided", {
            "iterations": 0,
            "final_residual": None,
            "final_x": None,
            "note": "start or coefficients beyond double precision",
        })
    verdict = "undecided"
    residual = None
    note = None
    # iters Newton steps and iters + 1 residuals; an overflow of f keeps the
    # residual before it, at the last iterate too
    for j in range(iters + 1):
        fx = _horner(coeffs, x, 1.0)
        if not math.isfinite(fx):
            note = "iterates overflowed double precision"
            break
        residual = abs(fx)
        if residual < 1e-12:
            verdict = "converges"
            break
        if j == iters:
            break
        dfx = _horner(deriv, x, 1.0)
        if not math.isfinite(dfx) or dfx == 0.0:
            note = "derivative vanished or overflowed"
            break
        x = x - fx / dfx
    detail = {
        "iterations": j,
        "final_residual": residual,
        "final_x": x if math.isfinite(x) else None,
    }
    if note:
        detail["note"] = note
    return PlaceReport("real", verdict, detail)


def _padic_report(
    coeffs: Sequence[Fraction],
    deriv: Sequence[Fraction],
    alpha: Fraction,
    p: int,
    iters: int,
) -> PlaceReport:
    x = alpha
    vals: list[int] = []
    diffs: list[int] = []
    note = None
    exact = False
    for j in range(iters + 1):
        # f(x) and the next iterate have about deg f times the bits of x
        size = max(abs(x.numerator).bit_length(), x.denominator.bit_length())
        if (len(coeffs) - 1) * size > DEFAULT_HEIGHT_BITS:
            note = "iterates outgrew the height budget"
            break
        fx = _horner(coeffs, x, 1)
        if fx == 0:
            exact = True
            note = "landed exactly on a rational root"
            break
        vals.append(_frac_valuation(fx, p))
        if j == iters:
            break
        dfx = _horner(deriv, x, 1)
        if dfx == 0:
            note = "derivative vanished at an iterate"
            break
        nxt = x - fx / dfx
        diffs.append(_frac_valuation(nxt - x, p))
        x = nxt
    if exact:
        verdict = "converges"
    elif note is not None:
        verdict = "undecided"
    else:
        w = min(len(vals), max(3, (iters + 1) // 2))
        tail = vals[-w:]
        dtail = diffs[-w:]  # w >= 1 here, so this is never diffs[-0:]
        increasing = all(a < b for a, b in zip(tail, tail[1:])) and all(
            a < b for a, b in zip(dtail, dtail[1:])
        )
        decreasing = all(a > b for a, b in zip(tail, tail[1:]))
        if increasing and len(tail) >= 3:
            verdict = "converges"
        elif max(tail) - min(tail) <= 1:
            verdict = "diverges"
        elif decreasing and len(tail) >= 3:
            verdict = "diverges"
        else:
            verdict = "undecided"
    detail = {
        "valuations": vals,
        "difference_valuations": diffs,
    }
    if note:
        detail["note"] = note
    return PlaceReport(p, verdict, detail)


def _may_be_root(coeffs: Sequence[Fraction], alpha: Fraction) -> bool:
    """False when the rational root theorem rules alpha out as a root of f.

    With f cleared to integer coefficients c_0, ..., c_d and c_v its lowest
    nonzero one, f = z^v * g with g(0) = c_v != 0, so a nonzero root
    a / b in lowest terms has a | c_v and b | c_d. These two divisions cost
    far less than evaluating f exactly at an alpha of large height.
    """
    a, b = alpha.numerator, alpha.denominator
    if a == 0:
        return True
    ints = _clear_denominators(coeffs)
    low = next(c for c in ints if c)
    top = next(c for c in reversed(ints) if c)
    return low % a == 0 and top % b == 0


def newton_place_report(
    f_text: str,
    alpha: Union[int, str, Fraction],
    primes: Iterable[int],
    real_iters: int = 64,
    p_iters: int = 10,
) -> list[PlaceReport]:
    """Run Newton's iteration for f from alpha at the real place and at the
    given primes, reporting per-place convergence evidence.

    The real side iterates in double precision and calls convergence when
    the residual falls below 1e-12. Each p-adic side iterates exactly in Q
    and inspects v_p(f(x_j)): strictly increasing valuations with strictly
    increasing step valuations (the iterates are Cauchy at the observed
    depth) is convergence, a flat valuation window is divergence, strict
    decrease (escape toward infinity) also counts as divergence, and
    anything mixed stays undecided. The exact iterates grow about deg f-fold
    in bits per step, so the p-adic walk stops, undecided, at an iterate x
    with deg f * bits(x) > DEFAULT_HEIGHT_BITS, before evaluating f there.
    A start or a coefficient past the double range leaves the real place
    undecided, with a note, and the p-adic places still report.
    f must be squarefree of degree >= 2,
    alpha must not already be a root (f is evaluated exactly at alpha only
    where the rational root theorem admits one, _may_be_root), and both
    iteration counts must be nonnegative.
    """
    coeffs, deriv, common = _newton_polynomial(f_text, "Newton reports")
    if len(common) > 1:
        raise ValueError("polynomial must be squarefree")
    if real_iters < 0 or p_iters < 0:
        raise ValueError("iteration counts must be nonnegative")
    alpha_f = alpha if isinstance(alpha, Fraction) else Fraction(str(alpha))
    if _may_be_root(coeffs, alpha_f) and _horner(coeffs, alpha_f, 1) == 0:
        raise ValueError("alpha is already a root of f")
    reports = [_real_report(coeffs, deriv, alpha_f, real_iters)]
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        reports.append(_padic_report(coeffs, deriv, alpha_f, p, p_iters))
    return reports


# ---------------------------------------------------------------------------
# polynomial type and dynatomic forms


def is_polynomial_type(
    phi: RationalMap,
    gamma: PointLike,
    k_max: int = 2,
) -> Optional[int]:
    """Smallest k <= k_max making gamma a totally ramified fixed point of phi^k.

    Returns None when no such k exists. "Totally ramified" is checked on the
    form level: with gamma = [g1 : g2], the fiber form g2*F_k - g1*G_k must be
    a constant times (g2*X - g1*Y)^(d^k). The orbit of gamma is walked
    once, one iterate per k, under the default height budget
    (HeightBudgetError as in orbit_points).
    """
    pt = normalize(gamma)
    walk = orbit_points(phi, pt)
    next(walk)
    for k in range(1, k_max + 1):
        if next(walk) != pt:
            continue
        fk, gk = phi.iterate_forms(k)
        fiber = [pt.x2 * cf - pt.x1 * cg for cf, cg in zip(fk, gk)]
        line = (-pt.x1, pt.x2)
        if _primitive(fiber) == _primitive(_ppow(line, phi.degree ** k)):
            return k
    return None


def dynatomic_degree(d: int, n: int) -> int:
    """Expected degree of the period-n form of a degree-d map: the sum over
    e | n of mobius(n / e) * (d^e + 1), the degree of each Y*F_e - X*G_e."""
    total = 0
    for e in range(1, n + 1):
        if n % e == 0:
            total += mobius(n // e) * (d ** e + 1)
    return total


def _period_form(phi: RationalMap, e: int, max_degree: int) -> list[int]:
    """Coefficient vector of Y*F_e - X*G_e (roots: points of period dividing e)."""
    fe, ge = phi.iterate_forms(e, max_degree)
    out = [*fe, 0]
    for i, c in enumerate(ge):
        out[i + 1] -= c
    return out


def dynatomic(
    phi: RationalMap, n: int, max_degree: int = DEFAULT_COMPOSE_DEGREE
) -> tuple[int, ...]:
    """Period-n dynatomic form by the Moebius product over divisors of n.

    Numerator and denominator products are assembled separately and divided
    once, exactly; a nonzero remainder raises DynatomicDivisionError. The
    result is the form's ascending coefficient tuple, of length
    dynatomic_degree(d, n) + 1, primitive with positive highest nonzero
    coefficient. A map
    with an iterate phi^e = id (e dividing n) has Y*F_e - X*G_e = 0 and
    every point periodic, so it has no such form: ValueError.
    """
    if n < 1:
        raise ValueError("period must be >= 1")
    if not any(_period_form(phi, 1, max_degree)):
        raise ValueError(
            "the map is the identity: every point is fixed, so no period "
            "has a dynatomic form"
        )
    num: list[int] = [1]
    den: list[int] = [1]
    for e in range(1, n + 1):
        if n % e:
            continue
        mu = mobius(n // e)
        if mu == 0:
            continue
        pe = _period_form(phi, e, max_degree)
        if not any(pe):
            raise ValueError(
                f"phi^{e} is the identity: every point has a period dividing "
                f"{e}, so period {n} has no dynatomic form"
            )
        if mu == 1:
            num = _pmul(num, pe)
        else:
            den = _pmul(den, pe)
    quotient, rem = _poly_divmod(num, den)
    if rem:
        raise DynatomicDivisionError(
            f"period-{n} product division left a remainder"
        )
    # each pe has degree d^e + 1, so the quotient's is dynatomic_degree
    target_degree = dynatomic_degree(phi.degree, n)
    ints = _clear_denominators(quotient)
    if len(ints) - 1 > target_degree:
        raise DynatomicDivisionError(
            f"period-{n} quotient degree exceeds the homogeneous degree"
        )
    return _primitive(ints + [0] * (target_degree + 1 - len(ints)))


# ---------------------------------------------------------------------------
# rational points of exact period n


def rational_periodic_points(phi: RationalMap, n: int) -> set[ProjectivePoint]:
    """All points of P^1(Q) with exact period n under phi.

    Candidate roots of the period-n dynatomic form are found by rational root
    search (divisor pairs of the extreme coefficients, plus 0 and infinity
    when the corresponding coefficients vanish); every candidate is then
    verified by direct iteration to have exact period n, which quietly drops
    the extraneous roots the Moebius product can pick up at multiplier-one
    cycles. The check walks orbit_points under the default height budget
    (HeightBudgetError as there); the dynatomic form is composed under
    dynatomic's default degree limit.
    """
    v = dynatomic(phi, n)
    deg = len(v) - 1
    candidates: set[ProjectivePoint] = set()
    if v[deg] == 0:
        candidates.add(INFINITY)
    if v[0] == 0:
        candidates.add(ZERO)
    # the form is primitive, hence nonzero, so both ends exist
    lo = next(i for i in range(deg + 1) if v[i] != 0)
    hi = next(i for i in range(deg, -1, -1) if v[i] != 0)
    if lo < hi:
        r_divs = factorize(abs(v[lo])).divisors()
        s_divs = factorize(abs(v[hi])).divisors()
        for r in r_divs:
            for s in s_divs:
                if math.gcd(r, s) != 1:
                    continue
                for signed in (r, -r):
                    if _horner(v, signed, s) == 0:
                        candidates.add(normalize((signed, s)))
    verified: set[ProjectivePoint] = set()
    for pt in candidates:
        orbit = list(islice(orbit_points(phi, pt), n + 1))
        if orbit[n] == pt and pt not in orbit[1:n]:
            verified.add(pt)
    return verified
