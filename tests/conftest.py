import random

import pytest

from centerlab.mpoly import MPoly, Rat
from centerlab.parser import parse_expression, parse_polynomial
from centerlab.qhomog import pq_circle
from centerlab.systems import parse_system

# benchmark families used across the suite
NIL_CUBIC_K = "xdot = y + x^2 + k2*x*y; ydot = k1*x^2 - x^3"
NIL_CUBIC_AB = "xdot = y + A*x*y + B*y^2; ydot = -x^3 + K*x*y^2 + L*y^3"
NIL_CUBIC_AB_EPS = "xdot = y + A*x*y + B*y^2; ydot = -eps*x - x^3 + K*x*y^2 + L*y^3"
NIL_SEXTIC = "xdot = -y; ydot = x^5 + a*x^6 + y*(b*x^3 + c*x^4)"
NIL_SEXTIC_EPS = "xdot = -y; ydot = eps*x + x^5 + a*x^6 + y*(b*x^3 + c*x^4)"
NIL_REVERSIBLE = "xdot = y + x^2; ydot = -x^3"
NIL_REVERSIBLE_EPS = "xdot = y + x^2; ydot = -eps*x - x^3"
NIL_DARBOUX = ("xdot = y + x*y + (1-a)*y^2 + (1-a)*x*y^2 - a*x^4 - a*x^5; "
               "ydot = c*y^2 - 2*x^3 + c*y^3 - 2*x^3*y + (c-2)*x^4*(1+y)")
NIL_DARBOUX_EPS = ("xdot = y + x*y + (1-a)*y^2 + (1-a)*x*y^2 - a*x^4 - a*x^5; "
                   "ydot = -eps*x + c*y^2 - 2*x^3 + c*y^3 - 2*x^3*y + (c-2)*x^4*(1+y)")
DEG_FACTORED = "xdot = (-y + y^2)*(x^2 + y^2); ydot = (x + 2*x^2)*(x^2 + y^2)"
DEG_FACTORED_EPS = "xdot = (-y + y^2)*(x^2 + y^2 - eps); ydot = (x + 2*x^2)*(x^2 + y^2 - eps)"
HOMOG_CUBIC = ("xdot = 12*lambda*x^3 - 9*x^2*y - 20*lambda*x*y^2 - 25*y^3 + 9*mu*y^3; "
               "ydot = 9*x^3 + 12*lambda*x^2*y + 25*x*y^2 - 20*lambda*y^3")
HOMOG_CUBIC_EPS = ("xdot = -eps*y + 12*lambda*x^3 - 9*x^2*y - 20*lambda*x*y^2 - 25*y^3 + 9*mu*y^3; "
                   "ydot = eps*x + 9*x^3 + 12*lambda*x^2*y + 25*x*y^2 - 20*lambda*y^3")
HAM_QH = "xdot = -a*y^3; ydot = b*x^5"
HAM_QH_EPS = "xdot = -a*y^3; ydot = eps*x^3 + b*x^5"
DEG_QUINTIC = ("assume: a*mu > 0\n"
               "xdot = -a*(1 + x)*(x^4 - 4*y^3 - 3*y^4) + mu*y^3; "
               "ydot = -a*(1 + y)*(4*x^3 + 3*x^4 - y^4) + lambda*x^5")
DEG_QUINTIC_EPS = ("xdot = eps*y - a*(1 + x)*(x^4 - 4*y^3 - 3*y^4) + mu*y^3; "
                   "ydot = -eps*x - a*(1 + y)*(4*x^3 + 3*x^4 - y^4) + lambda*x^5")
CUBIC_FAMILY_A = ("xdot = -y + a11*x*y + a02*y^2 + a30*x^3 + a21*x^2*y + a12*x*y^2 + a03*y^3; "
                  "ydot = x^3")
CUBIC_FAMILY_B = ("xdot = -y; "
                  "ydot = a11*x*y + a02*y^2 + a30*x^3 + a21*x^2*y + a12*x*y^2 + a03*y^3")
# linear parts (sigma*y, -mu*x) for the homological solve, which divides by
# sigma and mu: unit, negative, scaled and eps-carrying values of each
HOMOLOGICAL_LINEAR_PARTS = (
    "xdot = y; ydot = -eps*x",
    "xdot = -y; ydot = x",
    "xdot = eps*y; ydot = -eps*x",
    "xdot = 2*y; ydot = -2*eps*x",
    "xdot = -3/2*y; ydot = 3/10*x",  # specialised eps_factor 1/5
    "xdot = -eps*y; ydot = eps*x",
    "xdot = 5*y; ydot = -5*x",
)


def measured_period(p, q, rel_tol=1e-12):
    """Return time of (Cs, Sn) to the initial point, measured by adaptive
    integration (the oracle for the Gamma-function period formula)."""
    return pq_circle(p, q, rel_tol=rel_tol).tau


def sysfrom(text):
    return parse_system(text)


def poly(text, table):
    return parse_polynomial(text, table)


def rf(text, table):
    return parse_expression(text, table)


@pytest.fixture
def rng():
    return random.Random(20240817)


def random_poly(rnd, table, vars_use, max_degree=3, n_terms=4, lo=-6, hi=6, homogeneous=None):
    terms = {}
    idx = [table.index(v) for v in vars_use]
    for _ in range(n_terms):
        e = [0] * len(table)
        if homogeneous is None:
            budget = rnd.randint(0, max_degree)
        else:
            budget = homogeneous
        picks = [rnd.randint(0, budget) for _ in idx]
        while sum(picks) > budget or (homogeneous is not None and sum(picks) != budget):
            picks = [rnd.randint(0, budget) for _ in idx]
        for i, p in zip(idx, picks):
            e[i] = p
        c = 0
        while c == 0:
            c = rnd.randint(lo, hi)
        terms[tuple(e)] = terms.get(tuple(e), 0) + Rat(c, rnd.randint(1, 4))
    return MPoly(table, terms)


def to_sympy(p):
    """``p`` as a sympy expression in symbols named after its table (the
    caller has already skipped when sympy is missing)."""
    import sympy

    gens = sympy.symbols(p.vars)
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*[g ** k for g, k in zip(gens, e)])
                for e, c in p.terms.items()), sympy.Integer(0))


def from_sympy(expr, table):
    """A sympy polynomial expression as an MPoly over ``table``."""
    import sympy

    terms = sympy.Poly(expr, *sympy.symbols(table)).terms()
    return MPoly(table, {e: Rat(int(c.p), int(c.q)) for e, c in terms})
