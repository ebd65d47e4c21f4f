"""Forward orbits over Q and over residue rings, and modular hit sets.

A modular orbit is always eventually periodic (the ring is finite), so the
set of indices n with phi^n(start) == target mod p^k decomposes into a
finite exceptional set below the tail length plus a union of residue
classes modulo the cycle length. HitSet captures exactly that. Points mod
p^k are canonical (c1, c2) int pairs (projective.canonical_residue).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Collection, Iterable, Optional

from .projective import (
    PointLike,
    PrimePowerModulus,
    ProjectivePoint,
    _residue_code,
    _residue_pair,
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


@dataclass(frozen=True)
class OrbitSummary:
    """Prefix of a rational forward orbit; points[0] is the start.

    status is "preperiodic" (a repeat was found: points has length
    tail + cycle + 1 and points[tail + cycle] == points[tail]) or
    "truncated" (no repeat before the walk ended at a step or height budget,
    a stop point or proven escape; steps_done evaluations were performed).
    """

    points: tuple[ProjectivePoint, ...]
    status: str
    tail: Optional[int] = None
    cycle: Optional[int] = None
    steps_done: int = 0

    @property
    def is_preperiodic(self) -> bool:
        return self.status == "preperiodic"

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
    return max(abs(pt.x1), abs(pt.x2))


def orbit_rational(
    phi: RationalMap,
    start: PointLike,
    max_steps: int,
    height_bits: int = DEFAULT_HEIGHT_BITS,
    stop_at: Collection[ProjectivePoint] = (),
    escape_from: Optional[int] = None,
) -> OrbitSummary:
    """Iterate until the orbit closes or a budget is hit. Never raises
    on budget exhaustion; that outcome is the "truncated" status.

    Every point of the walk, phi^0(start) included, goes through the same
    tests in the same order; the first that applies ends the walk, and the
    point is the last one kept:
    - it lies in `stop_at` (normalized points): "truncated". A start in
      `stop_at` ends the walk at index 0 with steps_done 0. Only decide
      passes `stop_at`, with the targets, so that a walk that meets them
      ends with the witness;
    - it repeats an earlier point: "preperiodic";
    - `escape_from` is set, its index is >= escape_from, phi.proves_escape
      holds for it, and its height is at least that of every point of
      `stop_at`: "truncated". Heights rise strictly from such a point on, so
      no later iterate closes the orbit or lies in `stop_at`, and the status
      is the one a longer walk would report, from fewer steps. With an empty
      `stop_at` the height condition always holds. decide passes
      escape_from=0 with its targets; verify_certificate and the CLI `orbit`
      command do not pass it, because their outputs record the steps walked.
    """
    points: list[ProjectivePoint] = []
    seen: dict[ProjectivePoint, int] = {}
    top = max(map(_height, stop_at), default=0)
    try:
        for pt in islice(orbit_points(phi, start, height_bits), max_steps + 1):
            if pt in stop_at:
                points.append(pt)
                break
            if pt in seen:
                tail = seen[pt]
                points.append(pt)
                n = len(points) - 1
                return OrbitSummary(tuple(points), "preperiodic", tail, n - tail, n)
            seen[pt] = len(points)
            points.append(pt)
            if (
                escape_from is not None
                and len(points) > escape_from
                and phi.proves_escape(pt)
                and _height(pt) >= top
            ):
                break
    except HeightBudgetError:
        pass
    return OrbitSummary(tuple(points), "truncated", steps_done=len(points) - 1)


@dataclass(frozen=True)
class ModOrbit:
    """The full eventual-period decomposition of an orbit mod p^k.

    sequence lists the canonical pairs of the distinct points phi^0, ...,
    phi^(tail+cycle-1) mod `modulus`; every later iterate repeats with
    period `cycle`. The length is bounded by |P^1(Z/p^k)| = p^k + p^(k-1).
    orbit_mod walks int codes of the points and decodes them into these
    pairs once, at the end.
    """

    modulus: PrimePowerModulus
    tail: int
    cycle: int
    sequence: tuple[tuple[int, int], ...]

    def point_at(self, n: int) -> tuple[int, int]:
        """The canonical pair of phi^n(start) mod p^k, for any n >= 0."""
        if n < 0:
            raise ValueError("orbit indices are nonnegative")
        if n < len(self.sequence):
            return self.sequence[n]
        return self.sequence[self.tail + (n - self.tail) % self.cycle]


def orbit_mod(phi: RationalMap, start: PointLike, m: PrimePowerModulus) -> ModOrbit:
    """Iterate the start point mod p^k until the first repeat.

    Points are walked as single int codes (projective._residue_code), one
    step of the reduced map (the kernel of RationalMap.evaluate_mod) at a
    time, and kept in a set for the repeat test and a list for the order;
    they become canonical pairs once, when the ModOrbit is built. Good
    reduction is checked and p^k computed once per orbit, not per step.

    Raises BadPrimeError at primes dividing the resultant, where reduction
    and iteration do not commute.
    """
    step = phi._mod_step(m)
    n = m.modulus
    pt = normalize(start)
    cur = _residue_code(pt.x1, pt.x2, m.p, n)
    seq = [cur]
    seen = {cur}
    add, append = seen.add, seq.append
    while True:
        cur = step(cur)
        if cur in seen:
            break
        add(cur)
        append(cur)
    del seen, add  # free the set before the pairs are built
    tail = seq.index(cur)
    pairs = tuple([_residue_pair(c, n) for c in seq])
    return ModOrbit(m, tail, len(seq) - tail, pairs)


@dataclass(frozen=True)
class HitSet:
    """Indices n with phi^n(start) in the reduced target set, mod p^k.

    Exact description: n is a hit iff (n < threshold and n in exceptional)
    or (n >= threshold and n mod cycle_length in residues). residues is
    strictly increasing inside [0, cycle_length), and cycle_length >= 1.
    """

    threshold: int
    exceptional: frozenset[int]
    cycle_length: int
    residues: tuple[int, ...]

    def __post_init__(self):
        if self.cycle_length < 1:
            raise ValueError("cycle length must be positive")
        last = -1
        for r in self.residues:
            if not 0 <= r < self.cycle_length:
                raise ValueError(f"residue {r} out of range mod {self.cycle_length}")
            if r <= last:
                raise ValueError("residues must be strictly increasing")
            last = r
        for n in self.exceptional:
            if not 0 <= n < self.threshold:
                raise ValueError("exceptional indices must lie below the threshold")

    def contains(self, n: int) -> bool:
        if n < 0:
            raise ValueError("orbit indices are nonnegative")
        if n < self.threshold:
            return n in self.exceptional
        return n % self.cycle_length in self.residues

    def is_empty(self) -> bool:
        return not self.exceptional and not self.residues


def hit_set(orb: ModOrbit, targets: Iterable[PointLike]) -> HitSet:
    """Compute the hit set of a modular orbit against a set of targets.

    p and p^k are read once per call, and each target is reduced straight
    to its canonical pair, as reduce_mod would give it.
    """
    p = orb.modulus.p
    n = orb.modulus.modulus
    reduced = set()
    for t in targets:
        pt = normalize(t)
        reduced.add(_residue_pair(_residue_code(pt.x1, pt.x2, p, n), n))
    hits = [n for n, rp in enumerate(orb.sequence) if rp in reduced]
    exceptional = frozenset(n for n in hits if n < orb.tail)
    in_cycle = sorted({n % orb.cycle for n in hits if n >= orb.tail})
    return HitSet(
        threshold=orb.tail,
        exceptional=exceptional,
        cycle_length=orb.cycle,
        residues=tuple(in_cycle),
    )
