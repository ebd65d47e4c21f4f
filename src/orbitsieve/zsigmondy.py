"""Primitive prime divisors along an orbit approaching a target point.

For each index m the quantity factored is the cross term
|x1*g2 - x2*g1| of phi^m(beta) against gamma in normalized coordinates,
which is the numerator of the chordal distances: a prime p divides it
exactly when phi^m(beta) and gamma collide mod p. A prime in the support at
index m is primitive when it divides no earlier term.

Whether gamma and beta are preperiodic is read off exact scans of their
orbits. A scan ends when the orbit closes, when the height bound proves
that it never will (RationalMap.proves_escape), or at a step or height
budget. Only a closed orbit is preperiodic, and an escaping one is not, so
ending a scan at escape gives the answer that a longer scan would.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable

from .numtheory import FactorizationBudgetError, factorize, prime_set
from .orbit import orbit_rational
from .projective import PointLike, ProjectivePoint, normalize
from .ratmap import (
    DEFAULT_HEIGHT_BITS,
    HeightBudgetError,
    RationalMap,
    is_polynomial_type,
    iterate_point,  # unused here; bench/tracing.py wraps this binding
)

__all__ = [
    "SupportReport",
    "PrimitiveDivisorRun",
    "primitive_divisors",
]

_PREPERIODIC_SCAN_STEPS = 64


class SupportReport(namedtuple("SupportReport", "m term_bits term_valuations primitive")):
    """Factored support of the term at one orbit index: its bit length, its
    (p, e) pairs and the frozenset of its primitive primes."""

    __slots__ = ()


class PrimitiveDivisorRun(namedtuple("PrimitiveDivisorRun", "reports warnings")):
    """Reports for m = 1..m_max plus any applicability warnings."""

    __slots__ = ()


def _factored_term(
    x: ProjectivePoint, g: ProjectivePoint, m: int, known: Iterable[int] = ()
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The cross term |x1*g2 - x2*g1| of x = phi^m(beta) against g, with its
    full factorization as ((p, e), ...); ValueError when x equals g.

    The known primes are divided out first, with their exact valuations;
    only what is left goes to factorize. When that runs out of budget, the
    FactorizationBudgetError raised carries the new part's cofactor and
    every prime found in the term, known ones included.
    """
    term = abs(x.x1 * g.x2 - x.x2 * g.x1)
    if term == 0:
        raise ValueError(
            f"phi^{m}(beta) equals gamma exactly; the difference term vanishes"
        )
    rest = term
    found: list[tuple[int, int]] = []
    for p in known:
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        if e:
            found.append((p, e))
    try:
        new = factorize(rest).factors
    except FactorizationBudgetError as exc:
        raise FactorizationBudgetError(
            exc.cofactor, sorted([*found, *exc.partial])
        ) from None
    return term, tuple(sorted([*found, *new]))


def primitive_divisors(
    phi: RationalMap,
    beta: PointLike,
    gamma: PointLike,
    m_max: int,
    excluded: Iterable[int] = (),
    height_bits: int = DEFAULT_HEIGHT_BITS,
) -> PrimitiveDivisorRun:
    """Support and primitive-prime reports for m = 1..m_max.

    Excluded primes are dropped from every support before anything else, so
    they can be neither support nor primitive; an excluded entry that is not
    prime raises ValueError. Warnings flag the situations where the
    eventual-primitivity guarantee does not apply (gamma not preperiodic as
    far as a bounded scan can tell, map of polynomial type at gamma, or beta
    itself preperiodic); reports are still produced.

    The gamma scan ends at closure, at the first iterate that proves escape,
    or after 64 steps; the beta scan at closure, at the first iterate of
    index >= m_max that proves escape, or after max(2 * m_max, 64) steps;
    both also end at the height budget. A scan ended at escape could never
    have closed, so the warnings are those of the full-length scans, and a
    beta scan ended at escape holds every phi^m(beta) with m <= m_max.

    A prime of a term that is not primitive divides an earlier term, so
    each term is first divided by every prime of the earlier terms (excluded
    ones too), and factoring work goes to its new part only.

    phi^m(beta) is read off the scan of beta's orbit. When that scan stopped
    at the height budget before m_max, HeightBudgetError is raised at the
    first m it did not reach, once the earlier terms are factored.
    """
    banned = prime_set(excluded)
    b = normalize(beta)
    g = normalize(gamma)
    warnings: list[str] = []
    gamma_scan = orbit_rational(
        phi, g, _PREPERIODIC_SCAN_STEPS, height_bits, escape_from=0
    )
    if not gamma_scan.is_preperiodic:
        warnings.append(
            "gamma was not seen to be preperiodic within "
            f"{_PREPERIODIC_SCAN_STEPS} steps; the primitive-divisor "
            "guarantee does not apply"
        )
    if is_polynomial_type(phi, g) is not None:
        warnings.append(
            "the map is of polynomial type at gamma; primitive divisors may "
            "fail to appear for all large m"
        )
    beta_scan = orbit_rational(
        phi,
        b,
        max(2 * m_max, _PREPERIODIC_SCAN_STEPS),
        height_bits,
        escape_from=m_max,
    )
    if beta_scan.is_preperiodic:
        warnings.append(
            "beta is preperiodic, so the terms cycle instead of growing"
        )
    pts = beta_scan.points
    seen: set[int] = set()
    reports: list[SupportReport] = []
    for m in range(1, m_max + 1):
        if m < len(pts):
            x = pts[m]
        elif beta_scan.is_preperiodic:
            x = pts[beta_scan.tail + (m - beta_scan.tail) % beta_scan.cycle]
        else:
            # the scan stopped at the height budget, just as iterating would
            raise HeightBudgetError(beta_scan.steps_done, height_bits)
        term, factors = _factored_term(x, g, m, seen)
        kept = tuple((p, e) for p, e in factors if p not in banned)
        primitive = frozenset(p for p, _ in kept) - seen
        seen.update(p for p, _ in factors)
        reports.append(
            SupportReport(m, term.bit_length(), kept, primitive)
        )
    return PrimitiveDivisorRun(tuple(reports), tuple(warnings))
