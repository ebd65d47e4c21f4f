"""Semidecision engine for "does the orbit of P ever meet Z?".

Two searches run in turn under explicit budgets. The day side walks the
exact orbit and can only answer yes (a witness index) or, when the orbit
closes into a finite set, a definitive no. The night side reduces the
problem modulo prime powers of good reduction: each modulus yields an
eventually periodic hit set of candidate indices, and an empty hit set, or
an empty intersection of several, rules the meeting out. Both kinds of
output are packaged as certificates that can be re-checked from scratch.

Every certificate of kind "empty" relies only on exact finite computations
(a closed orbit disjoint from the targets, or modular orbits whose hit sets
admit no common index), so verification does not trust the engine.
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

from .numtheory import good_primes, prime_set
from .orbit import (
    HitSet,
    ModOrbit,
    OrbitSummary,
    hit_set,
    orbit_mod,
    orbit_rational,
)
from .projective import (
    PointLike,
    PrimePowerModulus,
    ProjectivePoint,
    _pair_code,
    _residue_pair,
    normalize,
)
from .ratmap import (
    DEFAULT_HEIGHT_BITS,
    HeightBudgetError,
    RationalMap,
    iterate_point,  # unused here; bench/tracing.py wraps this binding
    orbit_points,
)

__all__ = [
    "Budgets",
    "DecisionProblem",
    "ModulusEvidence",
    "Certificate",
    "CycleBlowupError",
    "intersect_hit_sets",
    "decide",
    "verify_certificate",
    "certificate_to_dict",
    "certificate_from_dict",
    "problem_to_dict",
    "problem_from_dict",
]


class CycleBlowupError(RuntimeError):
    """Combining hit sets would need a cycle lcm past the configured cap."""

    def __init__(self, value: int, cap: int):
        self.value = value
        self.cap = cap
        super().__init__(f"cycle lcm {value} exceeds the cap {cap}")


class Budgets(namedtuple("Budgets", "day_steps night_stages height_bits cycle_lcm_cap")):
    """Resource limits for one decide() run, all positive ints.

    day_steps caps the evaluations of the exact walk and height_bits the
    size of its coordinates; night_stages is the number of stages of the
    night schedule; cycle_lcm_cap bounds the cycle length of every hit set
    in decide's fold, the first one included, and so of their intersection.
    verify_certificate re-walks the exact orbit under the same day_steps
    and height_bits, and folds under the same cycle_lcm_cap.

    A named tuple whose constructor checks every value: a bool is stored as
    the int it stands for, any other value that is not an int raises
    TypeError, and one below 1 ValueError. Pickling and copying rebuild
    through the same checks.
    """

    __slots__ = ()

    def __new__(
        cls,
        day_steps: int = 256,
        night_stages: int = 12,
        height_bits: int = DEFAULT_HEIGHT_BITS,
        cycle_lcm_cap: int = 10 ** 7,
    ) -> "Budgets":
        values = day_steps, night_stages, height_bits, cycle_lcm_cap
        for name, value in zip(cls._fields, values):
            if not isinstance(value, int):
                raise TypeError(f"budget {name} must be an int, not {value!r}")
            if value < 1:
                raise ValueError(f"budget {name} must be positive")
        return tuple.__new__(cls, map(int, values))


class DecisionProblem(
    namedtuple(
        "DecisionProblem",
        "phi start targets excluded_primes budgets",
        defaults=(frozenset(), Budgets()),
    )
):
    """A map, a start point, a finite target set (a tuple of points), the
    excluded primes (a frozenset) and the budgets."""

    __slots__ = ()

    @classmethod
    def make(
        cls,
        phi: RationalMap,
        start: PointLike,
        targets: Iterable[PointLike],
        excluded_primes: Iterable[int] = (),
        budgets: Budgets = Budgets(),
    ) -> "DecisionProblem":
        """Normalize the start and the targets, and keep each target once,
        in the order of the points, that of their coordinate pairs (x1, x2).
        ValueError for an empty target set or an excluded entry that is not
        prime."""
        tset = tuple(sorted(set(map(normalize, targets))))
        if not tset:
            raise ValueError("the target set must be nonempty")
        banned = prime_set(excluded_primes)
        return cls(phi, normalize(start), tset, banned, budgets)


class ModulusEvidence(namedtuple("ModulusEvidence", "orbit hits")):
    """One modulus worth of night-side computation, self-contained: the
    ModOrbit of the start and its HitSet on the targets."""

    __slots__ = ()

    @property
    def modulus(self) -> PrimePowerModulus:
        return self.orbit.modulus


class Certificate(
    namedtuple(
        "Certificate",
        "kind witness_index finite_orbit evidence day_steps_done "
        "night_stages_done day_status examined skipped warnings",
        defaults=(None, None, (), 0, 0, "running", (), (), ()),
    )
):
    """Outcome of decide(): witness, empty, or exhausted.

    kind "witness": witness_index holds the meeting index.
    kind "empty", finite_orbit set: the exact orbit closed without meeting
    the targets.
    kind "empty", evidence set: the listed moduli have hit sets with empty
    intersection (a single modulus with an empty hit set is the common
    special case).
    kind "exhausted": budgets ran out; carries no claim either way.
    The engine's record: examined holds (p, k, hit set empty) triples,
    skipped (p, k, reason) triples, and warnings strings.
    """

    __slots__ = ()

    @property
    def is_definitive(self) -> bool:
        return self.kind in ("witness", "empty")


def intersect_hit_sets(
    sets: Sequence[HitSet], cycle_lcm_cap: int = Budgets().cycle_lcm_cap
) -> HitSet:
    """Exact intersection of hit sets, as a hit set.

    The combined cycle length is the lcm of the inputs' cycle lengths
    (capped: CycleBlowupError past `cycle_lcm_cap`), the threshold is the
    max, residues are combined pairwise by the Chinese remainder theorem,
    and indices below the threshold are checked directly.
    """
    if not sets:
        raise ValueError("need at least one hit set")
    acc = sets[0]
    for hs in sets[1:]:
        acc = _intersect_pair(acc, hs, cycle_lcm_cap)
    return acc


# The hit set of every index: the identity of intersection, from which
# decide's fold and _minimize_family start, so that the cap is checked on
# the first hit set folded in as on every later one.
_EVERY_INDEX = HitSet(0, (), 1, (0,))


def _cycle_lcm(ca: int, cb: int, cap: int) -> int:
    """lcm(ca, cb) of two cycle lengths; CycleBlowupError past `cap`."""
    c = ca // math.gcd(ca, cb) * cb
    if c > cap:
        raise CycleBlowupError(c, cap)
    return c


def _intersect_pair(a: HitSet, b: HitSet, cap: int) -> HitSet:
    """a and b intersected; CycleBlowupError when the lcm of their cycle
    lengths passes `cap`.

    Residues combine by the Chinese remainder theorem for moduli that need
    not be coprime, with g = gcd(ca, cb) and the inverse of ca / g mod
    cb / g computed once for the pair, not once per pair of residues: ra
    and rb meet exactly when g divides rb - ra, at ra + ca * t with
    t = (rb - ra) / g * inverse mod cb / g, which lies in [0, lcm(ca, cb))
    because ra < ca and t < cb / g. Both index lists of the result are
    strictly increasing and within their bounds, so it is built without
    HitSet's checks, by tuple.__new__.
    """
    ca, cb = a.cycle_length, b.cycle_length
    c = _cycle_lcm(ca, cb, cap)
    t = max(a.threshold, b.threshold)
    mb = c // ca
    g = cb // mb
    # the CRT runs only where both sides have residues, the scan below the
    # threshold only where it is positive
    inverse = pow(ca // g, -1, mb) if a.residues and b.residues else 0
    residues = tuple(sorted({
        ra + ca * ((rb - ra) // g * inverse % mb)
        for ra in a.residues for rb in b.residues if (rb - ra) % g == 0
    }))
    both = [n for n in range(t) if a.contains(n) and b.contains(n)] if t else ()
    return tuple.__new__(HitSet, (t, tuple(both), c, residues))


def _evidence(problem: DecisionProblem, m: PrimePowerModulus) -> ModulusEvidence:
    """The orbit of the start mod m and its hit set on the targets."""
    phi, start, targets, _, _ = problem
    orb = orbit_mod(phi, start, m)
    return ModulusEvidence(orb, hit_set(orb, targets))


def _walk_meets(
    points: Sequence[ProjectivePoint], targets: Sequence[ProjectivePoint]
) -> Callable[[PrimePowerModulus], bool]:
    """A test of a good prime power p^k: whether a point phi^n(start) of
    `points`, an exact walk that met none of `targets`, is congruent mod
    p^k to a target, so that n is in the hit set mod p^k.

    Points of normal form agree mod p^k exactly when p^k divides their
    cross product x1 * t2 - x2 * t1, and at a prime of good reduction the
    orbit mod p^k is the reduction of the exact one. No cross is zero, since
    no walked point is a target, so p divides the product of the crosses
    exactly when it divides one of them: one % per prime. p^k dividing the
    product does not show that it divides one cross, so each is tested.
    """
    crosses = [x1 * t2 - x2 * t1 for x1, x2 in points for t1, t2 in targets]
    product = math.prod(crosses)

    def meets(m: PrimePowerModulus) -> bool:
        p, k, n = m
        return product % p == 0 and (k == 1 or any(c % n == 0 for c in crosses))

    return meets


def _cost(p: int, k: int) -> int:
    """The schedule's key of p^k: its point count (p^k + p^(k-1)) times k^3."""
    return (p ** k + p ** (k - 1)) * k ** 3


# The first prime powers of every prime in increasing (cost, p) order: a
# prefix that depends on nothing problem-specific, shared by every caller
# in the process. _cost_order rebinds it to a longer tuple, never edits it.
_COST_ORDER: tuple[PrimePowerModulus, ...] = ()

# The most entries a walk asks for before it reads them. Past 44 stages
# the order grows by doubling as the walk reads on, so a large stage
# budget on a problem that an early modulus settles computes little.
_FIRST_ENTRIES = 1024


def _cost_order(n: int) -> tuple[PrimePowerModulus, ...]:
    """The shared cost order, recomputed first to n entries if it is shorter.

    A heap of (cost, p, k) holds the next power of every prime reached so
    far, and the prime after the largest reached, at k = 1. Popping the
    cheapest entry pushes p^(k+1), and at k = 1 also the prime after p. The
    cost grows with p at fixed k and with k at fixed p, so every pushed
    entry costs more than the one popped, and the prime powers come out
    each once, in increasing (cost, p) order.

    The order is deterministic, so callers that hold an older, shorter
    tuple, or race to rebind a longer one, all read the same entries
    without a lock.
    """
    global _COST_ORDER
    order = _COST_ORDER
    if len(order) >= n:
        return order
    primes = good_primes()
    q = next(primes)
    heap = [(_cost(q, 1), q, 1)]
    out: list[PrimePowerModulus] = []
    for _ in range(n):
        _, p, k = heapq.heappop(heap)
        if k == 1:
            q = next(primes)
            heapq.heappush(heap, (_cost(q, 1), q, 1))
        heapq.heappush(heap, (_cost(p, k + 1), p, k + 1))
        out.append(PrimePowerModulus(p, k))
    _COST_ORDER = order = tuple(out)
    return order


def _stages(
    phi: RationalMap,
    excluded: frozenset[int],
    skips: list[tuple[int, int, str]],
    stages: int,
) -> Iterator[list[PrimePowerModulus]]:
    """Yield the prime-power moduli of each of the first `stages` stages
    of the night schedule in turn.

    Stage s (1-based) takes the next s prime powers p^k, p of good reduction
    and outside the excluded set, in increasing order of the cost
    (p^k + p^(k-1)) * k^3, ties broken by p: the point count of P^1(Z/p^k),
    which bounds the orbit walked there, weighted against depth. So the
    primes 2, 3, ..., 43 come before 2^2 (cost 48), and every prime power
    is reached eventually.

    Breadth over primes settles problems, depth rarely does: for most
    primes the reduced orbit already misses the reduced targets (R. Jones,
    J. London Math. Soc. 78 (2008), on the density of prime divisors in
    quadratic orbits). Cheap moduli first also bounds a run's time and
    memory by the stage count alone: for a map of good reduction at every
    prime, 12 stages examine 78 moduli, the primes up to 373 and 2^2, 3^2,
    5^2 and 2^3, where the orbits have at most 374 points.

    The stages filter one cost order of all prime powers, computed once per
    process and shared by every caller, concurrent ones too (_cost_order).
    It is first computed to the stages' size when no prime
    is passed over, up to _FIRST_ENTRIES, and doubled when a walk reads
    past its end, so it grows only to about the largest stage count walked.
    A prime that is excluded or of bad reduction is appended to `skips` as
    (p, 0, reason) at its entry p^1, so it is passed over in the stage that
    needed the next good prime, before that stage is yielded, and its
    higher powers are passed over silently.
    """
    order = _cost_order(min(stages * (stages + 1) // 2, _FIRST_ENTRIES))
    passed: set[int] = set()
    i = 0
    for size in range(1, stages + 1):
        stage: list[PrimePowerModulus] = []
        while len(stage) < size:
            if i == len(order):
                order = _cost_order(2 * i)
            m = order[i]
            i += 1
            p, k, _ = m
            if p in passed:
                continue
            if k == 1 and (p in excluded or not phi.is_good_prime(p)):
                passed.add(p)
                reason = "excluded" if p in excluded else "bad reduction"
                skips.append((p, 0, reason))
                continue
            stage.append(m)
        yield stage


_DEGREE_ONE = (
    "degree-one map: modular hit sets can stay nonempty at every "
    "modulus even for orbits that miss the targets, so only a "
    "witness or a closed orbit can settle this problem",
)


def decide(problem: DecisionProblem, jobs: int = 1) -> Certificate:
    """Run the exact walk, then the night stages, under the problem's budgets.

    First the exact orbit is walked once, up to `day_steps` evaluations or
    the height budget, with the targets as orbit_rational's stop set and
    escape_from=0, and the certificate's day_status is the walk's stop.
    Every point of the walk is tested alike, the start included: reaching a
    target at index n, 0 when the start is a target, gives a witness (stop
    "target", written as its historic day_status "running"), and closing
    into a finite orbit that misses the targets ("closed") gives an "empty"
    certificate. A walk that ends "escaped" stopped at an iterate from which
    heights rise strictly, so the longer walk could only have ended at the
    step or height budget ("budget", "height") before the same night stages.
    Otherwise the night stages run in order, one modulus at a time, the
    cheapest moduli first, for the reasons that _stages gives. A modulus at
    which a walked point already meets a target (_walk_meets) has a
    nonempty hit set, so it cannot settle the problem alone: it is recorded
    as examined with a nonempty hit set and kept unwalked. Every
    other modulus goes through _evidence, as in verify_certificate. A
    modulus whose own hit set is empty settles the problem by itself and is
    emitted as a singleton certificate, without a fold, so its cycle is not
    held to `cycle_lcm_cap`. The evidence of every walked modulus is kept,
    so each orbit is walked at most once and the memory held is bounded by
    the orbits of the stages run. Only after the last stage is their
    combined intersection attempted: the fold starts from the hit set of
    every index and takes the moduli in order, walking a kept one when it
    reaches it, and skipping each one whose cycle would push the fold past
    `cycle_lcm_cap`, the first one included. That test reads the orbit's
    cycle alone, by the rule that _intersect_pair applies (_cycle_lcm), so
    a kept modulus gets its hit set only if the fold takes it in: on z+1
    from 1, 8 of the 45 moduli of nine stages. The family that empties the
    fold is minimized in one pass (_minimize_family) and emitted with the
    evidence already held; this keeps single-modulus certificates, the
    strongest and cheapest to verify, in front. Moduli past the one that
    empties the fold are never walked, so a kept modulus whose orbit passes
    orbit_mod's step limit raises only where the fold reaches it.

    A degree-one map carries a warning that only a witness or a closed orbit
    can settle it, unless a modulus settles it.

    Deterministic for fixed budgets: the schedule, the orbit arithmetic, and
    the fold order do not depend on timing. `jobs` is ignored: the former
    thread pool gained nothing for pure-Python work, and the keyword stays
    only so that existing callers (bench/passes.py) keep working.
    """
    phi = problem.phi
    budgets = problem.budgets
    targets = frozenset(problem.targets)
    walk = orbit_rational(
        phi,
        problem.start,
        budgets.day_steps,
        budgets.height_bits,
        stop_at=targets,
        escape_from=0,
    )
    skips: list[tuple[int, int, str]] = []
    examined: list[tuple[int, int, bool]] = []
    stages_done = 0
    day_status = "running" if walk.stop == "target" else walk.stop

    def finish(kind: str, **kw) -> Certificate:
        warnings = () if phi.degree > 1 or "evidence" in kw else _DEGREE_ONE
        return Certificate(
            kind,
            day_steps_done=walk.steps_done,
            night_stages_done=stages_done,
            day_status=day_status,
            examined=tuple(examined),
            skipped=tuple(skips),
            warnings=warnings,
            **kw,
        )

    if walk.stop == "closed":
        return finish("empty", finite_orbit=walk)
    if walk.stop == "target":
        return finish("witness", witness_index=walk.steps_done)
    meets = _walk_meets(walk.points, problem.targets)
    collected: list[ModulusEvidence | PrimePowerModulus] = []
    stages = _stages(phi, problem.excluded_primes, skips, budgets.night_stages)
    for stages_done, moduli in enumerate(stages, 1):
        for m in moduli:
            p, k, _ = m
            if meets(m):
                examined.append((p, k, False))
                collected.append(m)
                continue
            ev = _evidence(problem, m)
            empty = ev.hits.is_empty()
            examined.append((p, k, empty))
            if empty:
                return finish("empty", evidence=(ev,))
            collected.append(ev)
    # last chance: a combined intersection over everything collected
    folded = _EVERY_INDEX
    used: list[tuple[ModulusEvidence, HitSet]] = []
    for ev in collected:
        deferred = type(ev) is PrimePowerModulus
        orb = orbit_mod(phi, problem.start, ev) if deferred else ev.orbit
        try:
            _cycle_lcm(folded.cycle_length, orb.cycle, budgets.cycle_lcm_cap)
        except CycleBlowupError:
            skips.append((orb.modulus.p, orb.modulus.k, "cycle lcm past the cap"))
            continue
        if deferred:
            ev = ModulusEvidence(orb, hit_set(orb, problem.targets))
        folded = _intersect_pair(folded, ev.hits, budgets.cycle_lcm_cap)
        used.append((ev, ev.hits))
        if folded.is_empty():
            family = _minimize_family(used, budgets.cycle_lcm_cap)
            return finish("empty", evidence=tuple(ev for ev, _ in family))
    return finish("exhausted")


def _minimize_family(
    family: Sequence[tuple[object, HitSet]], cap: int
) -> list[tuple[object, HitSet]]:
    """Greedily drop (key, hit set) members whose removal keeps the
    intersection empty; decide's keys are the members' evidence.

    Members are tried in order; member i is dropped exactly when the members
    kept so far (their intersection is acc) and those after it (after[i],
    the intersection of family[i + 1:]) meet in the empty set. Both folds
    start from the hit set of every index, so every member, the first
    included, is intersected under `cap`. Hit-set
    intersection is exact and does not depend on order, so this keeps the
    family that folding the rest anew for each member keeps, at a few pair
    intersections per member instead of a fold of the whole family.

    For a family from decide's fold, which ended empty within `cap`, two
    cases cannot arise:
    - no intersection here passes `cap`: the cycle length of a subset's
      intersection is the lcm of the subset's cycle lengths, which divides
      that of the whole family, the cycle length of the fold;
    - no family shrinks to one member: decide returns on an empty hit set
      before it folds, so every member is nonempty, and an empty
      intersection needs at least two of them.
    """
    after = [_EVERY_INDEX]
    for _, hits in reversed(family[1:]):
        after.append(_intersect_pair(hits, after[-1], cap))
    after.reverse()
    kept: list[tuple[object, HitSet]] = []
    acc = _EVERY_INDEX
    for i, (key, hits) in enumerate(family):
        if _intersect_pair(acc, after[i], cap).is_empty():
            continue
        kept.append((key, hits))
        if i < len(family) - 1:  # the last member's acc is never read
            acc = _intersect_pair(acc, hits, cap)
    return kept


def verify_certificate(problem: DecisionProblem, cert: Certificate) -> bool:
    """Re-check a certificate from scratch; True only for a sound one.

    Each claim is accepted in one form only:
    - Witness: the index lies within the problem's day_steps, as every
      witness that decide writes does, and the exact orbit, walked from the
      start under the height budget, meets the targets first at that index.
      An index past day_steps is refused before any walk, and a later
      meeting once the first is reached. The walk is orbit_points with one
      set lookup per iterate, not decide's orbit_rational.
    - Empty with a finite orbit: re-run the orbit, require it to equal the
      stored closed orbit, and require disjointness from the targets.
    - Empty with moduli: each modulus is named once, in any order (documents
      of the former triangle schedule list them in examination order), and
      is an allowed good prime power; its orbit and hit set are recomputed
      and compared with the stored ones, and the hit sets must intersect in
      the empty set.
    Exhausted certificates assert nothing and never verify.
    """
    phi = problem.phi
    budgets = problem.budgets
    if cert.kind == "witness":
        index = cert.witness_index
        if index is None or not 0 <= index <= budgets.day_steps:
            return False
        targets = frozenset(problem.targets)
        walk = orbit_points(phi, problem.start, budgets.height_bits)
        try:
            for n, pt in enumerate(islice(walk, index + 1)):
                if pt in targets:
                    return n == index
        except HeightBudgetError:
            pass
        return False
    if cert.kind != "empty":
        return False
    if cert.finite_orbit is not None:
        redone = orbit_rational(
            phi, problem.start, budgets.day_steps, budgets.height_bits
        )
        if redone != cert.finite_orbit:
            return False
        return frozenset(problem.targets).isdisjoint(redone.points)
    if not cert.evidence:
        return False
    if len({ev.modulus for ev in cert.evidence}) != len(cert.evidence):
        return False
    for ev in cert.evidence:
        if ev.modulus.p in problem.excluded_primes:
            return False
        try:
            if _evidence(problem, ev.modulus) != ev:
                return False
        except Exception:
            return False
    try:
        combined = intersect_hit_sets(
            [ev.hits for ev in cert.evidence], budgets.cycle_lcm_cap
        )
    except CycleBlowupError:
        return False
    return combined.is_empty()


# ---------------------------------------------------------------------------
# serialization (all integers as decimal strings, layout deterministic)


def _pt(p: ProjectivePoint) -> list[str]:
    x1, x2 = p
    return [str(x1), str(x2)]


def _unpt(v: Sequence[str]) -> ProjectivePoint:
    a, b = v
    return ProjectivePoint(int(a), int(b))


def problem_to_dict(problem: DecisionProblem) -> dict:
    b = problem.budgets
    return {
        "map": {
            "f": [str(c) for c in problem.phi.F],
            "g": [str(c) for c in problem.phi.G],
            "degree": str(problem.phi.degree),
            "resultant": str(problem.phi.res),
        },
        "start": _pt(problem.start),
        "targets": [_pt(t) for t in problem.targets],
        "excluded_primes": [str(q) for q in sorted(problem.excluded_primes)],
        "budgets": {name: str(v) for name, v in zip(b._fields, b)},
    }


def problem_from_dict(doc: dict) -> DecisionProblem:
    """Decode the problem block that problem_to_dict wrote, and nothing else.

    ValueError unless the stored map is already in the normal form of
    RationalMap.make, with its own degree and resultant, every stored point
    is in normal form, the targets are nonempty, sorted by coordinate pair
    and without repeats, the excluded primes are primes in strictly
    increasing order, and every budget is positive. Without these checks a
    certificate whose map is stored times 2, or with a wrong resultant,
    would decode to the normalized map and verify. The parsed values are
    compared, not re-encoded. The resultant is recomputed from the stored
    coefficients on every call, never taken from the document or a cache.
    Each point is decoded once, and the problem is built as decoded rather
    than through DecisionProblem.make, which would normalize and sort again.
    Budget keys outside Budgets (the two of schema version 1) are ignored.
    """
    m = doc["map"]
    fc = list(map(int, m["f"]))
    gc = list(map(int, m["g"]))
    phi = RationalMap.make(fc, gc)
    stored = (tuple(fc), tuple(gc), int(m["degree"]), int(m["resultant"]))
    if stored != (phi.F, phi.G, phi.degree, phi.res):
        raise ValueError("the map is not stored as RationalMap.make gives it")
    b = doc["budgets"]
    budgets = Budgets(*[int(b[name]) for name in Budgets._fields])
    targets = list(map(_unpt, doc["targets"]))
    if not targets:
        raise ValueError("the target set must be nonempty")
    if sorted(set(targets)) != targets:
        raise ValueError("the targets are not sorted and distinct")
    excluded = list(map(int, doc["excluded_primes"]))
    banned = prime_set(excluded)
    if sorted(banned) != excluded:
        raise ValueError("the excluded primes are not sorted and distinct")
    return DecisionProblem(phi, _unpt(doc["start"]), tuple(targets), banned, budgets)


def _orbit_summary_to_dict(o: OrbitSummary) -> dict:
    return {
        "tail": str(o.tail),
        "cycle": str(o.cycle),
        "points": [_pt(p) for p in o.points],
    }


def _orbit_summary_from_dict(doc: dict) -> OrbitSummary:
    pts = tuple(map(_unpt, doc["points"]))
    tail = int(doc["tail"])
    cycle = int(doc["cycle"])
    return OrbitSummary(pts, "closed", tail, cycle, len(pts) - 1)


def _evidence_to_dict(ev: ModulusEvidence) -> dict:
    ((p, k, n), tail, cycle, sequence), (threshold, exceptional, c, residues) = ev
    pairs = (_residue_pair(code, n) for code in sequence)
    return {
        "p": str(p),
        "k": str(k),
        "orbit": {
            "tail": str(tail),
            "cycle": str(cycle),
            "sequence": [[str(a), str(b)] for a, b in pairs],
        },
        "hit_set": {
            "threshold": str(threshold),
            "exceptional": [str(i) for i in exceptional],
            "cycle_length": str(c),
            "residues": [str(r) for r in residues],
        },
    }


def _evidence_from_dict(doc: dict) -> ModulusEvidence:
    mod = PrimePowerModulus(int(doc["p"]), int(doc["k"]))
    p, _, n = mod
    orb_doc, hs_doc = doc["orbit"], doc["hit_set"]
    seq = tuple([_pair_code(int(a), int(b), p, n) for a, b in orb_doc["sequence"]])
    orb = ModOrbit(mod, int(orb_doc["tail"]), int(orb_doc["cycle"]), seq)
    hs = HitSet(
        threshold=int(hs_doc["threshold"]),
        exceptional=tuple(map(int, hs_doc["exceptional"])),
        cycle_length=int(hs_doc["cycle_length"]),
        residues=tuple(map(int, hs_doc["residues"])),
    )
    return ModulusEvidence(orb, hs)


def certificate_to_dict(problem: DecisionProblem, cert: Certificate) -> dict:
    doc: dict = {
        "schema_version": "2",
        "kind": cert.kind,
        "problem": problem_to_dict(problem),
        "engine": {
            "day_steps_done": str(cert.day_steps_done),
            "night_stages_done": str(cert.night_stages_done),
            "day_status": cert.day_status,
            "examined": [
                {"p": str(p), "k": str(k), "hit_set_empty": empty}
                for p, k, empty in cert.examined
            ],
            "skipped": [
                {"p": str(p), "k": str(k), "reason": reason}
                for p, k, reason in cert.skipped
            ],
            "warnings": list(cert.warnings),
        },
    }
    if cert.kind == "witness":
        doc["witness_index"] = str(cert.witness_index)
    elif cert.kind == "empty":
        if cert.finite_orbit is not None:
            doc["finite_orbit"] = _orbit_summary_to_dict(cert.finite_orbit)
        else:
            doc["moduli"] = [_evidence_to_dict(ev) for ev in cert.evidence]
    return doc


def certificate_from_dict(doc: dict) -> tuple[DecisionProblem, Certificate]:
    """Decode a certificate document. Anything malformed (a non-object, a
    missing key, a value of the wrong type) raises ValueError."""
    if not isinstance(doc, dict):
        raise ValueError("malformed certificate: not a JSON object")
    try:
        return _certificate_from_dict(doc)
    except KeyError as exc:
        raise ValueError(f"malformed certificate: missing key {exc}") from exc
    except (TypeError, AttributeError, IndexError, ValueError) as exc:
        raise ValueError(f"malformed certificate: {exc}") from exc


def _certificate_from_dict(doc: dict) -> tuple[DecisionProblem, Certificate]:
    # Version 1 differs only by two budget keys (day_batch, factor_steps)
    # that verification never read; problem_from_dict ignores them.
    if doc.get("schema_version") not in ("1", "2"):
        raise ValueError("unsupported certificate schema version")
    problem = problem_from_dict(doc["problem"])
    kind = doc["kind"]
    witness_index, finite_orbit, evidence = None, None, ()
    if kind == "witness":
        witness_index = int(doc["witness_index"])
    elif kind == "empty":
        if "finite_orbit" in doc:
            finite_orbit = _orbit_summary_from_dict(doc["finite_orbit"])
        else:
            evidence = tuple([_evidence_from_dict(e) for e in doc.get("moduli", [])])
    elif kind != "exhausted":
        raise ValueError(f"unknown certificate kind {kind!r}")
    eng = doc.get("engine", {})
    cert = Certificate(
        kind,
        witness_index=witness_index,
        finite_orbit=finite_orbit,
        evidence=evidence,
        day_steps_done=int(eng.get("day_steps_done", "0")),
        night_stages_done=int(eng.get("night_stages_done", "0")),
        day_status=_typed(eng.get("day_status", "running"), str),
        examined=tuple([
            (int(e["p"]), int(e["k"]), _typed(e["hit_set_empty"], bool))
            for e in eng.get("examined", [])
        ]),
        skipped=tuple([
            (int(e["p"]), int(e["k"]), _typed(e["reason"], str))
            for e in eng.get("skipped", [])
        ]),
        warnings=tuple([_typed(w, str) for w in _typed(eng.get("warnings", []), list)]),
    )
    return problem, cert


def _typed(value: object, kind: type) -> object:
    """value, if its JSON type is `kind`; ValueError otherwise. The engine
    block is not verified, but it decodes as written, with no value coerced
    into one the document did not hold: "false" is no flag, "abc" no list."""
    if type(value) is not kind:
        raise ValueError(f"expected a {kind.__name__}, not {value!r}")
    return value
