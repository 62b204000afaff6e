"""Test-only reference for :meth:`centerlab.mpoly.MPoly.remainder`: the
term-by-term loop over ``MPoly`` arithmetic that the center-condition
pipeline ran before the packed-key kernel.  It is kept verbatim as a
differential oracle; the package does not import it."""

from typing import Sequence

from centerlab.mpoly import MPoly


def reduce_modulo(poly: MPoly, conditions: Sequence[MPoly]) -> MPoly:
    """Remainder of ``poly`` on division by the conditions (graded lex): the
    leading term of what is left is cancelled by the first condition whose
    leading monomial divides it, or else moved to the remainder.  Each step
    removes the leading term and adds only smaller ones, and graded-lex
    order is a well-order, so the loop ends."""
    divisors = [(c.leading_monomial(), c.leading_coefficient(), c)
                for c in conditions if not c.is_zero]
    if not divisors:
        return poly
    vars = poly.vars
    rem = MPoly.zero(vars)
    while poly:
        lm, lc = poly.leading_monomial(), poly.leading_coefficient()
        for dm, dc, c in divisors:
            q = tuple(i - j for i, j in zip(lm, dm))
            if min(q) >= 0:
                poly = poly - c * MPoly.monomial(vars, q, lc / dc)
                break
        else:
            lead = MPoly.monomial(vars, lm, lc)
            rem, poly = rem + lead, poly - lead
    return rem
