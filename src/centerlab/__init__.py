"""centerlab: exact center-vs-focus analysis for planar polynomial systems."""

from .mpoly import ExactScalar, MPoly, Rat, merge_tables, poly_gcd, poly_lcm
from .ratfunc import LaurentSeries, RatFunc, laurent_expand_eps
from .parser import ParseError, parse_expression, parse_polynomial
from .systems import (
    DEGENERATE,
    LINEAR_TYPE,
    NILPOTENT,
    PERTURBED_DEGENERATE,
    PERTURBED_NILPOTENT,
    ClassificationError,
    PlaneSystem,
    lie_derivative,
    parse_system,
    substitute,
)

__version__ = "0.1.0"
