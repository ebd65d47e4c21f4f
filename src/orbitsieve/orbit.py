"""Forward orbits over Q and over residue rings, and modular hit sets.

A modular orbit is always eventually periodic (the ring is finite), so the
set of indices n with phi^n(start) == target mod p^k decomposes into a
finite exceptional set below the tail length plus a union of residue
classes modulo the cycle length. HitSet captures exactly that. A point mod
p^k is its int code (projective._residue_code) from orbit_mod through
hit_set; pairs are for callers that read or write points. Like points,
the values here are named tuples: HitSet checks its form in its
constructor, and the engine builds the hit sets it computes without the
checks, by tuple.__new__(HitSet, fields).
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice
from typing import Collection, Iterable, Optional

from .projective import (
    PointLike,
    PrimePowerModulus,
    ProjectivePoint,
    _residue_code,
    normalize,
    reduce_mod,  # unused here; bench/tracing.py resolves it from this module
)
from .ratmap import DEFAULT_HEIGHT_BITS, HeightBudgetError, RationalMap, orbit_points

__all__ = [
    "OrbitSummary",
    "ModOrbit",
    "HitSet",
    "orbit_rational",
    "orbit_mod",
    "hit_set",
]


class OrbitSummary(
    namedtuple("OrbitSummary", "points stop tail cycle steps_done", defaults=(None, None, 0))
):
    """Prefix of a rational forward orbit; points[0] is the start.

    stop says how the walk ended, at points[-1], after steps_done
    evaluations: "closed" (a repeat: points has length tail + cycle + 1 and
    points[tail + cycle] == points[tail]), "target" (a stop point),
    "escaped" (proven escape), "budget" (the step budget) or "height" (the
    height budget). tail and cycle are set only for "closed".
    """

    __slots__ = ()

    @property
    def is_preperiodic(self) -> bool:
        return self.stop == "closed"

    def cycle_points(self) -> tuple[ProjectivePoint, ...]:
        if not self.is_preperiodic:
            raise ValueError("orbit was not closed")
        return self.points[self.tail : self.tail + self.cycle]

    def distinct_points(self) -> tuple[ProjectivePoint, ...]:
        if not self.is_preperiodic:
            raise ValueError("orbit was not closed")
        return self.points[: self.tail + self.cycle]


def _height(pt: ProjectivePoint) -> int:
    """H(pt) = max(|x1|, |x2|) of a normalized point."""
    x1, x2 = pt
    return max(abs(x1), abs(x2))


def orbit_rational(
    phi: RationalMap,
    start: PointLike,
    max_steps: int,
    height_bits: int = DEFAULT_HEIGHT_BITS,
    stop_at: Collection[ProjectivePoint] = (),
    escape_from: Optional[int] = None,
) -> OrbitSummary:
    """Iterate until the orbit closes or a budget is hit. Never raises
    on budget exhaustion; the summary's stop says which exit was taken.

    Every point of the walk, phi^0(start) included, goes through the same
    tests in the same order; the first that applies ends the walk, and the
    point is the last one kept:
    - it lies in `stop_at` (normalized points): "target". A start in
      `stop_at` ends the walk at index 0 with steps_done 0. Only decide
      passes `stop_at`, with the targets, so that a walk that meets them
      ends with the witness;
    - it repeats an earlier point: "closed";
    - `escape_from` is set, its index is >= escape_from, phi.proves_escape
      holds for it, and its height is at least that of every point of
      `stop_at`: "escaped". Heights rise strictly from such a point on, so
      no later iterate closes the orbit or lies in `stop_at`, and a longer
      walk could only have ended at a budget. With an empty `stop_at` the
      height condition always holds. decide passes escape_from=0 with its
      targets; verify_certificate and the CLI `orbit` command do not pass
      it, because their outputs record the steps walked.
    Otherwise the walk ends with "budget" after max_steps evaluations, or
    with "height" where the next iterate would pass `height_bits`.

    One dict holds the stop points and the points walked, so each point is
    hashed once for both tests. Escape is not tested for a degree-one map,
    which never proves it.
    """
    points: list[ProjectivePoint] = []
    # -1 for a stop point, else the index of a walked point
    seen = dict.fromkeys(stop_at, -1)
    escape = escape_from is not None and phi.degree >= 2
    top = max(map(_height, stop_at), default=0)
    stop = "budget"
    try:
        for pt in islice(orbit_points(phi, start, height_bits), max_steps + 1):
            n = len(points)
            points.append(pt)
            tail = seen.setdefault(pt, n)
            if tail < 0:
                stop = "target"
                break
            if tail != n:
                return OrbitSummary(tuple(points), "closed", tail, n - tail, n)
            if (
                escape
                and n >= escape_from
                and phi.proves_escape(pt)
                and _height(pt) >= top
            ):
                stop = "escaped"
                break
    except HeightBudgetError:
        stop = "height"
    return OrbitSummary(tuple(points), stop, steps_done=len(points) - 1)


class ModOrbit(namedtuple("ModOrbit", "modulus tail cycle sequence")):
    """The full eventual-period decomposition of an orbit mod p^k.

    sequence lists the int codes (projective._residue_code) of the distinct
    points phi^0, ..., phi^(tail+cycle-1) mod `modulus`; every later iterate
    repeats with period `cycle`. The length is bounded by |P^1(Z/p^k)| =
    p^k + p^(k-1). projective._residue_pair decodes a code into its
    canonical pair.
    """

    __slots__ = ()


# The most steps orbit_mod walks, reached only where P^1(Z/p^k) has more
# points than this: the orbit's set and list hold about 67 B per step, so
# 2^20 steps stay near 70 MB, while 1000003^2 has 10^12 points.
_MAX_MOD_STEPS = 1 << 20


def orbit_mod(phi: RationalMap, start: PointLike, m: PrimePowerModulus) -> ModOrbit:
    """Iterate the start point mod p^k until the first repeat.

    Points are walked as single int codes (projective._residue_code) in one
    plain loop, RationalMap._mod_walk, the kernel of
    RationalMap.evaluate_mod: each code is computed, tested for a repeat
    against a set, and appended to a list that keeps the order; the codes
    walked are the ModOrbit's sequence. Good reduction is checked and p^k
    computed once per orbit, not per step. A dict from code to index would
    find the tail without the list, but holds more memory per step than the
    set and the list together.

    The walk is bounded: an orbit that has not repeated after 2^20 steps
    (_MAX_MOD_STEPS) raises ValueError. Where |P^1(Z/p^k)| is at most 2^20
    the point count bounds the walk first. decide's schedule first reaches
    a larger modulus at night stage 405 (for a map of good reduction at
    every prime).

    Raises BadPrimeError at primes dividing the resultant, where reduction
    and iteration do not commute.
    """
    p, _, n = m
    seq = [_residue_code(*normalize(start), p, n)]
    cur = phi._mod_walk(m, seq, _MAX_MOD_STEPS)
    if len(seq) > _MAX_MOD_STEPS:
        raise ValueError(
            f"the orbit mod {m} passes {_MAX_MOD_STEPS} steps without repeating"
        )
    tail = seq.index(cur)
    return ModOrbit(m, tail, len(seq) - tail, tuple(seq))


class HitSet(namedtuple("HitSet", "threshold exceptional cycle_length residues")):
    """Indices n with phi^n(start) in the reduced target set, mod p^k.

    Exact description: n is a hit iff (n < threshold and n in exceptional)
    or (n >= threshold and n mod cycle_length in residues). Both index lists
    are strictly increasing tuples, exceptional inside [0, threshold) and
    residues inside [0, cycle_length), and cycle_length >= 1; so a hit set
    has one form, and so has the certificate that stores it. The
    constructor checks that form: TypeError for index lists that are not
    tuples, ValueError for the rest.
    """

    __slots__ = ()

    def __new__(
        cls,
        threshold: int,
        exceptional: tuple[int, ...],
        cycle_length: int,
        residues: tuple[int, ...],
    ) -> "HitSet":
        if cycle_length < 1:
            raise ValueError("cycle length must be positive")
        for indices, bound in ((exceptional, threshold), (residues, cycle_length)):
            if type(indices) is not tuple:
                raise TypeError("hit set indices must be a tuple")
            last = -1
            for n in indices:
                if not last < n < bound:
                    raise ValueError(f"indices must increase strictly below {bound}")
                last = n
        return tuple.__new__(cls, (threshold, exceptional, cycle_length, residues))

    def contains(self, n: int) -> bool:
        if n < 0:
            raise ValueError("orbit indices are nonnegative")
        if n < self.threshold:
            return n in self.exceptional
        return n % self.cycle_length in self.residues

    def is_empty(self) -> bool:
        return not self.exceptional and not self.residues


def hit_set(orb: ModOrbit, targets: Iterable[ProjectivePoint]) -> HitSet:
    """Compute the hit set of a modular orbit against a set of targets.

    The targets are points in normal form, such as a DecisionProblem's, and
    each is reduced straight to its int code (projective._residue_code),
    with p and p^k read once per call. The codes of the orbit are
    distinct, so each target code has at most one index in it: one pass
    over the sequence finds the codes that occur, and each of those few is
    then looked up by its index. Both index lists come out strictly
    increasing and within their bounds, so the hit set is built without
    HitSet's checks, by tuple.__new__.
    """
    m, tail, cycle, seq = orb
    p, _, n = m
    codes = {_residue_code(x1, x2, p, n) for x1, x2 in targets}
    hits = sorted(map(seq.index, codes.intersection(seq)))
    exceptional = tuple([i for i in hits if i < tail])
    residues = tuple(sorted([i % cycle for i in hits if i >= tail]))
    return tuple.__new__(HitSet, (tail, exceptional, cycle, residues))
