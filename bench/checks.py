"""Independent checks of benchmark results.

Plain integer and Fraction arithmetic only: this module never imports
orbitsieve, so a bug in the package cannot hide itself by agreeing with its
own checker. Each check raises CheckError with a reason, or returns None.

Points of P^1(Q) are coprime integer pairs (a, b) with the last nonzero
coordinate positive; (1, 0) is infinity. A form f of degree d is the tuple
of coefficients f[i] of X^i Y^(d-i).
"""

from __future__ import annotations

import math
from fractions import Fraction


class CheckError(Exception):
    """A result contradicts the independent recomputation."""


def point(a: int, b: int) -> tuple[int, int]:
    if a == 0 and b == 0:
        raise ValueError("(0, 0) is not a point")
    g = math.gcd(a, b)
    a, b = a // g, b // g
    if (b if b != 0 else a) < 0:
        a, b = -a, -b
    return a, b


def parse_point(text: str) -> tuple[int, int]:
    if text == "inf":
        return 1, 0
    q = Fraction(text)
    return point(q.numerator, q.denominator)


def form_value(f: tuple[int, ...], a: int, b: int) -> int:
    d = len(f) - 1
    return sum(c * a**i * b ** (d - i) for i, c in enumerate(f) if c)


def apply_map(f, g, pt: tuple[int, int]) -> tuple[int, int]:
    return point(form_value(f, *pt), form_value(g, *pt))


def primitive_pair(f, g) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Divide both forms by their joint content."""
    c = math.gcd(*f, *g)
    return tuple(x // c for x in f), tuple(x // c for x in g)


def resultant(f, g) -> int:
    """Determinant of the Sylvester matrix of two forms of equal degree."""
    d = len(f) - 1
    fd, gd = list(reversed(f)), list(reversed(g))
    rows = [[0] * j + fd + [0] * (d - 1 - j) for j in range(d)]
    rows += [[0] * j + gd + [0] * (d - 1 - j) for j in range(d)]
    m = [[Fraction(x) for x in row] for row in rows]
    n, det = len(m), Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            factor = m[r][c] / m[c][c]
            for k in range(c, n):
                m[r][k] -= factor * m[c][k]
    return int(det)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve prime bases (exact below 3.3e24)."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckError(reason)


# ---------------------------------------------------------------------------
# decisions


def _canonical(a: int, b: int, p: int, m: int) -> tuple[int, int]:
    a, b = a % m, b % m
    if b % p:
        return a * pow(b, -1, m) % m, 1
    _require(a % p != 0, f"both coordinates divisible by {p}")
    return 1, b * pow(a, -1, m) % m


def modular_orbit(f, g, start, p: int, k: int) -> tuple[list[tuple[int, int]], int, int]:
    """Distinct canonical points phi^0 .. phi^(tail+cycle-1) mod p^k."""
    m = p**k
    cur = _canonical(start[0], start[1], p, m)
    seq, seen = [cur], {cur: 0}
    while True:
        a, b = cur
        cur = _canonical(form_value(f, a, b), form_value(g, a, b), p, m)
        if cur in seen:
            tail = seen[cur]
            return seq, tail, len(seq) - tail
        seen[cur] = len(seq)
        seq.append(cur)


def _meets(pt, targets, m: int) -> bool:
    return any((pt[0] * t[1] - pt[1] * t[0]) % m == 0 for t in targets)


def _check_witness(f, g, start, targets, doc) -> None:
    n = int(doc["witness_index"])
    _require(n >= 0, "negative witness index")
    x = start
    for _ in range(n):
        x = apply_map(f, g, x)
    _require(x in targets, f"phi^{n}(start) = {x} is not a target")


def _check_closed_orbit(f, g, start, targets, doc) -> None:
    orb = doc["finite_orbit"]
    tail, cycle = int(orb["tail"]), int(orb["cycle"])
    _require(cycle >= 1 and tail >= 0, "bad tail or cycle")
    pts = [start]
    for _ in range(tail + cycle):
        pts.append(apply_map(f, g, pts[-1]))
    _require(pts[tail + cycle] == pts[tail], "the orbit does not close there")
    _require(len(set(pts[: tail + cycle])) == tail + cycle, "tail or cycle not minimal")
    _require([point(int(a), int(b)) for a, b in orb["points"]] == pts, "stored points differ")
    _require(not set(pts) & targets, "the closed orbit meets a target")


def _check_family(f, g, start, targets, doc) -> None:
    mods = doc["moduli"]
    _require(len(mods) >= 1, "empty modulus family")
    res = resultant(f, g)
    tracks = []
    for ev in mods:
        p, k = int(ev["p"]), int(ev["k"])
        _require(k >= 1 and is_probable_prime(p), f"{p}^{k} is not a prime power")
        _require(res % p != 0, f"{p} is a prime of bad reduction")
        m = p**k
        seq, tail, cycle = modular_orbit(f, g, start, p, k)
        orb = ev["orbit"]
        _require((int(orb["tail"]), int(orb["cycle"])) == (tail, cycle), f"orbit shape mod {m}")
        _require([(int(a), int(b)) for a, b in orb["sequence"]] == seq, f"orbit residues mod {m}")
        meets = [_meets(pt, targets, m) for pt in seq]
        hits = [n for n, hit in enumerate(meets) if hit]
        hs = ev["hit_set"]
        _require(int(hs["threshold"]) == tail and int(hs["cycle_length"]) == cycle, f"hit set shape mod {m}")
        _require(sorted(int(n) for n in hs["exceptional"]) == [n for n in hits if n < tail], f"exceptional hits mod {m}")
        residues = sorted({n % cycle for n in hits if n >= tail})
        _require([int(r) for r in hs["residues"]] == residues, f"hit residues mod {m}")
        tracks.append((meets, tail, cycle))
    bound = max(t[1] for t in tracks) + 2 * math.lcm(*(t[2] for t in tracks))
    for n in range(bound + 1):
        if all(
            meets[n if n < tail else tail + (n - tail) % cycle]
            for meets, tail, cycle in tracks
        ):
            raise CheckError(f"index {n} is a hit at every modulus of the family")


def check_decision(inp, doc: dict) -> None:
    """Check a decoded certificate document against the input it answers."""
    f, g = primitive_pair(inp.f, inp.g)
    start = parse_point(inp.start)
    targets = {parse_point(t) for t in inp.targets}
    prob = doc["problem"]
    _require(point(*map(int, prob["start"])) == start, "certificate names another start")
    _require({point(*map(int, t)) for t in prob["targets"]} == targets, "certificate names other targets")
    kind = doc["kind"]
    if kind == "witness":
        _require(not inp.never_meets, "witness for an orbit that never meets the targets")
        _check_witness(f, g, start, targets, doc)
    elif kind == "empty" and "finite_orbit" in doc:
        _check_closed_orbit(f, g, start, targets, doc)
    elif kind == "empty":
        _check_family(f, g, start, targets, doc)
    else:
        _require(kind == "exhausted", f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# primitive divisors


def difference_terms(inp) -> list[int]:
    """|cross(phi^m(beta), gamma)| for m = 1 .. m_max."""
    f, g = primitive_pair(inp.f, inp.g)
    x, gamma = point(inp.beta, 1), point(inp.gamma, 1)
    terms = []
    for _ in range(inp.m_max):
        x = apply_map(f, g, x)
        terms.append(abs(x[0] * gamma[1] - x[1] * gamma[0]))
    return terms


def check_divisors(inp, reports: list[dict]) -> None:
    """Check primitive-divisor reports: m, term size, support, primitivity.

    reports[i] has keys m, term_bits, valuations ([[p, e], ...]) and
    primitive ([q, ...]).
    """
    terms = difference_terms(inp)
    _require([r["m"] for r in reports] == list(range(1, inp.m_max + 1)), "report indices")
    seen: set[int] = set()
    for rep, term in zip(reports, terms):
        m = rep["m"]
        _require(rep["term_bits"] == term.bit_length(), f"term size at m={m}")
        support = [p for p, _ in rep["valuations"]]
        _require(support == sorted(set(support)), f"support order at m={m}")
        _require(all(is_probable_prime(p) for p in support), f"composite in support at m={m}")
        _require(math.prod(p**e for p, e in rep["valuations"]) == term, f"support does not multiply back at m={m}")
        for q in rep["primitive"]:
            _require(term % q == 0, f"{q} does not divide the term at m={m}")
            _require(all(t % q for t in terms[: m - 1]), f"{q} divides an earlier term than m={m}")
        _require(set(rep["primitive"]) == set(support) - seen, f"primitive set at m={m}")
        seen.update(support)
