"""Seeded benchmark inputs.

Standard library only: this module never imports orbitsieve, so the inputs
of a seed stay the same whatever the engine does with them. A decision
input carries the map twice, as the text the command line would receive and
as homogeneous integer coefficient lists for the independent checks.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from fractions import Fraction

from checks import apply_map, parse_point

WORKLOADS = ("wandering", "degree-one", "survey", "divisors")

# Budgets that differ from the package defaults, per workload. The notes file
# gives the reason for each.
WANDERING_BUDGETS = {"height_bits": 1 << 15, "night_stages": 5}
DEGREE_ONE_BUDGETS = {"night_stages": 9}
SURVEY_BUDGETS = {"height_bits": 4096, "night_stages": 4}
DIVISORS_M_MAX = 6
DIVISORS_BETAS = range(3, 10)

WANDERING_SEEDED = 400
SURVEY_PROBLEMS = 6000
SURVEY_TARGETS = 12

# A wandering problem's orbit must neither close nor meet a target before
# its coordinates pass this many bits, so that every seeded problem makes
# the day side grind up to the height budget.
WANDERING_CLEAR_BITS = 64

# (map, its ascending coefficients, gamma) of the divisors workload; gamma is
# preperiodic under each map.
DIVISOR_PAIRS = (
    ("z^2", (0, 0, 1), 1),
    ("z^2", (0, 0, 1), -1),
    ("z^2-1", (-1, 0, 1), 0),
    ("z^2-1", (-1, 0, 1), -1),
    ("z^2-2", (-2, 0, 1), 2),
    ("z^2-2", (-2, 0, 1), -2),
)


@dataclass(frozen=True)
class DecisionInput:
    """One `orbitsieve decide` call.

    f[i] and g[i] multiply X^i Y^(d-i); budgets maps Budgets field names to
    values that replace the defaults.
    """

    map_text: str
    f: tuple[int, ...]
    g: tuple[int, ...]
    start: str
    targets: tuple[str, ...]
    budgets: dict = field(default_factory=dict)
    never_meets: bool = False


@dataclass(frozen=True)
class DivisorInput:
    """One `orbitsieve zsigmondy` call with integer beta and gamma."""

    map_text: str
    f: tuple[int, ...]
    g: tuple[int, ...]
    beta: int
    gamma: int
    m_max: int


def _poly_text(asc: list[int]) -> str:
    terms = []
    for i in range(len(asc) - 1, -1, -1):
        c = asc[i]
        if c == 0:
            continue
        mono = "" if i == 0 else ("z" if i == 1 else f"z^{i}")
        if mono and abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}" if mono else str(abs(c))
        terms.append(("-" if c < 0 else "+") + body)
    text = "".join(terms)
    return text[1:] if text.startswith("+") else text


def _trim(v: list) -> list:
    v = list(v)
    while v and v[-1] == 0:
        v.pop()
    return v


def _poly_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = _trim(a)
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        a = _trim(a)
    return a


def coprime_polys(num: list[int], den: list[int]) -> bool:
    """Whether num and den share no root over the algebraic closure."""
    a = [Fraction(c) for c in _trim(num)]
    b = [Fraction(c) for c in _trim(den)]
    while b:
        a, b = b, _poly_rem(a, b)
    return len(a) == 1


def random_map(rng: random.Random, d: int) -> tuple[str, tuple[int, ...], tuple[int, ...]]:
    """(text, f, g) of a non-polynomial map of degree d, coefficients in [-3, 3]."""
    while True:
        num = [rng.randint(-3, 3) for _ in range(d + 1)]
        den = [rng.randint(-3, 3) for _ in range(d + 1)]
        if num[d] == 0 and den[d] == 0:
            continue
        if not any(num) or not any(den[1:]):
            continue
        if coprime_polys(num, den):
            return f"({_poly_text(num)})/({_poly_text(den)})", tuple(num), tuple(den)


def random_problem(
    rng: random.Random, d: int, n_targets: int, budgets: dict
) -> DecisionInput:
    text, f, g = random_map(rng, d)
    start = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    targets = tuple(
        str(Fraction(rng.randint(-20, 20), rng.randint(1, 5)))
        for _ in range(n_targets)
    )
    return DecisionInput(text, f, g, str(start), targets, budgets)


def wanders(inp: DecisionInput) -> bool:
    """The orbit neither closes nor meets a target while it is still small."""
    x = parse_point(inp.start)
    targets = {parse_point(t) for t in inp.targets}
    seen = set()
    while max(abs(x[0]), abs(x[1])).bit_length() <= WANDERING_CLEAR_BITS:
        if x in seen or x in targets:
            return False
        seen.add(x)
        x = apply_map(inp.f, inp.g, x)
    return True


def wandering_problem(rng: random.Random, d: int) -> DecisionInput:
    budgets = dict(WANDERING_BUDGETS)
    while True:
        inp = random_problem(rng, d, rng.randint(1, 6), budgets)
        if wanders(inp):
            return inp


def _polynomial_input(asc: list[int], start: str, targets: tuple[str, ...], budgets: dict) -> DecisionInput:
    g = (1,) + (0,) * (len(asc) - 1)
    return DecisionInput(_poly_text(asc), tuple(asc), g, start, targets, budgets)


def golden_problems() -> list[DecisionInput]:
    """The criterion-1 problems at default budgets."""
    z2m1 = [-1, 0, 1]
    return [
        _polynomial_input(z2m1, "3", ("0",), {}),
        _polynomial_input(z2m1, "3", ("63",), {}),
        _polynomial_input(z2m1, "0", ("5",), {}),
    ]


def degree_one_problem() -> DecisionInput:
    """z+1 from 1 against {0, inf}: the orbit 1, 2, 3, ... meets neither."""
    inp = _polynomial_input([1, 1], "1", ("0", "inf"), dict(DEGREE_ONE_BUDGETS))
    return dataclasses.replace(inp, never_meets=True)


def divisor_inputs(rng: random.Random) -> list[DivisorInput]:
    """Every (map, gamma) pair with every |beta| once, signs and order seeded.

    Whether factoring runs out of budget depends on the pair and on |beta|,
    and such a run costs several times an ordinary one; covering the whole
    grid keeps that mix, and so the cost of a pass, the same for every seed.
    """
    out = []
    for text, asc, gamma in DIVISOR_PAIRS:
        for b in DIVISORS_BETAS:
            beta = rng.choice((-1, 1)) * b
            out.append(DivisorInput(text, asc, (1, 0, 0), beta, gamma, DIVISORS_M_MAX))
    rng.shuffle(out)
    return out


def budgets(workload: str) -> dict:
    """The budgets and sizes a workload's seeded inputs use."""
    return {
        "wandering": {**WANDERING_BUDGETS, "golden": "default budgets", "seeded": WANDERING_SEEDED},
        "degree-one": DEGREE_ONE_BUDGETS,
        "survey": {**SURVEY_BUDGETS, "problems": SURVEY_PROBLEMS, "targets": SURVEY_TARGETS},
        "divisors": {"m_max": DIVISORS_M_MAX, "runs": len(DIVISOR_PAIRS) * len(DIVISORS_BETAS)},
    }[workload]


def generate(workload: str, seed: int) -> list:
    """The inputs of one pass; the same (workload, seed) gives equal lists."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "wandering":
        seeded = [wandering_problem(rng, 2 + i % 2) for i in range(WANDERING_SEEDED)]
        return golden_problems() + seeded
    if workload == "degree-one":
        return [degree_one_problem()]
    if workload == "survey":
        return [
            random_problem(rng, rng.choice((2, 3)), SURVEY_TARGETS, dict(SURVEY_BUDGETS))
            for _ in range(SURVEY_PROBLEMS)
        ]
    if workload == "divisors":
        return divisor_inputs(rng)
    raise ValueError(f"unknown workload {workload!r}")
