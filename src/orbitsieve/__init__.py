"""Exact arithmetic dynamics on the projective line over Q.

Rational self-maps as integer form pairs, orbits over Q and modulo prime
powers, dynatomic forms and rational periodic points, primitive prime
divisors along orbits, and a certified day/night semidecision procedure for
"does this orbit ever meet that finite set of points?". The package
re-exports each module's __all__, the one list of what it makes public.
"""

from .numtheory import *
from .projective import *
from .ratmap import *
from .orbit import *
from .zsigmondy import *
from .localglobal import *

__version__ = "0.1.0"
