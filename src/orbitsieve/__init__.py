"""Exact arithmetic dynamics on the projective line over Q.

Rational self-maps as integer form pairs, orbits over Q and modulo prime
powers, dynatomic forms and rational periodic points, primitive prime
divisors along orbits, and a certified day/night semidecision procedure for
"does this orbit ever meet that finite set of points?".
"""

from .numtheory import (
    FactorialDepthRow,
    Factorization,
    FactorizationBudgetError,
    degree_one_demo,
    factorial_valuation,
    factorize,
    good_primes,
    is_prime,
    mobius,
    primality_confidence,
    valuation,
)
from .projective import (
    INFINITY,
    ZERO,
    ChordalValue,
    PrimePowerModulus,
    ProjectivePoint,
    canonical_residue,
    chordal,
    congruent_mod,
    format_point,
    normalize,
    parse_modulus,
    parse_point,
    reduce_mod,
)
from .ratmap import (
    BadPrimeError,
    BadPrimeReport,
    DegenerateMapError,
    DynatomicDivisionError,
    HeightBudgetError,
    PlaceReport,
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
from .orbit import HitSet, ModOrbit, OrbitSummary, hit_set, orbit_mod, orbit_rational
from .zsigmondy import (
    PrimitiveDivisorRun,
    SupportReport,
    primitive_divisors,
)
from .localglobal import (
    Budgets,
    Certificate,
    CycleBlowupError,
    DecisionProblem,
    ModulusEvidence,
    certificate_from_dict,
    certificate_to_dict,
    decide,
    intersect_hit_sets,
    problem_from_dict,
    problem_to_dict,
    verify_certificate,
)

__version__ = "0.1.0"
