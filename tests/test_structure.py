import math
import random

import pytest

from centerlab.mpoly import MPoly, Rat
from centerlab.parser import DarbouxExpr, parse_first_integral
from centerlab.ratfunc import RatFunc
from centerlab.realroots import root_multiplicity, trim
from centerlab.structure import (
    _solve_on_circle,
    characteristic_directions,
    is_hamiltonian,
    monodromy_weights,
    reversibility_conditions,
    verify_darboux_integral,
    weighted_form_sign,
)
from centerlab.systems import PlaneSystem, parse_system, substitute

from conftest import (
    DEG_FACTORED,
    HAM_QH,
    HAM_QH_EPS,
    NIL_CUBIC_AB,
    NIL_DARBOUX,
    NIL_REVERSIBLE_EPS,
    poly,
    random_poly,
    rf,
    to_sympy,
)


def rotate_system(s, c, sn):
    """Rotate coordinates by the angle with cosine c and sine sn (exact
    rationals on the unit circle, e.g. (3/5, 4/5))."""
    if Rat(c) ** 2 + Rat(sn) ** 2 != 1:
        raise ValueError("(c, sn) must lie on the unit circle")
    table = s.vars
    x = MPoly.variable("x", table)
    y = MPoly.variable("y", table)
    X = x * c + y * sn
    Y = x * (-Rat(sn)) + y * c
    P = s.P.subs({"x": X, "y": Y}, table)
    Q = s.Q.subs({"x": X, "y": Y}, table)
    return PlaneSystem(P * c - Q * sn, P * sn + Q * c, s.params, s.assumptions)


# -- Hamiltonian test ----------------------------------------------------------


def test_is_hamiltonian():
    assert is_hamiltonian(parse_system(HAM_QH))
    assert not is_hamiltonian(parse_system(DEG_FACTORED))
    assert is_hamiltonian(parse_system("xdot = 0; ydot = 0"))


# -- time-reversibility ---------------------------------------------------------


def test_factored_family_not_reversible_with_printed_conditions():
    r = reversibility_conditions(parse_system(DEG_FACTORED))
    assert r.verdict == "not_reversible"
    got = {str(c) for c in r.conditions}
    cs = ("c", "s")
    assert got == {str(poly("2*c^2*s - c*s^2", cs)), str(poly("c^3 - 2*s^3", cs))}


def test_reversible_nilpotent_about_y_axis():
    s = parse_system("xdot = y + x^2; ydot = -x^3")
    r = reversibility_conditions(s)
    assert r.verdict == "reversible"
    assert (Rat(0), Rat(1)) in r.exact_witnesses or (Rat(0), Rat(-1)) in r.exact_witnesses


def test_rotation_reversible_for_every_angle():
    r = reversibility_conditions(parse_system("xdot = -y; ydot = x"))
    assert r.verdict == "reversible"
    assert r.all_angles


def test_symbolic_parameters_yield_conditions():
    r = reversibility_conditions(parse_system(NIL_CUBIC_AB))
    assert r.verdict == "undetermined"
    assert r.conditions


def test_reversibility_witness_satisfies_invariance_numerically():
    s = parse_system("xdot = y + x^2; ydot = -x^3")
    r = reversibility_conditions(s)
    c, sn = r.witnesses[0]
    # rotated field must satisfy P(u,v) = -P(u,-v), Q(u,v) = Q(u,-v)
    rnd = random.Random(7)
    fP = lambda x, y: y + x * x
    fQ = lambda x, y: -x ** 3
    for _ in range(50):
        u = rnd.uniform(-0.4, 0.4)
        v = rnd.uniform(-0.4, 0.4)

        def rot(u_, v_):
            x = c * u_ + sn * v_
            y = -sn * u_ + c * v_
            p, q = fP(x, y), fQ(x, y)
            return c * p - sn * q, sn * p + c * q

        P1, Q1 = rot(u, v)
        P2, Q2 = rot(u, -v)
        assert abs(P1 + P2) <= 1e-12
        assert abs(Q1 - Q2) <= 1e-12


def _ref_mul(a, b):
    a, b = trim(a), trim(b)
    if not a or not b:
        return []
    out = [Rat(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


CS = ("c", "s")
# lines through points of the unit circle: rational points, and the
# irrational points where s = c and s = 2c
CIRCLE_LINES = (
    "c - 3/5", "s - 4/5", "5*c + 12*s - 13", "c + 3/5", "s + 12/13", "8*c - 15*s",
    "s - c", "s - 2*c", "c", "s", "c - 1", "s + 1",
)
# the witness order: the axis points in this order, then ascending c with
# positive s first
AXIS_ORDER = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _witness_rank(w):
    return (AXIS_ORDER.index(w) if w in AXIS_ORDER else len(AXIS_ORDER), w[0], -w[1])


def _sympy_circle_points(sympy, conditions):
    """The real common zeros of ``conditions`` and c^2 + s^2 - 1 as (c, s)
    sympy numbers, or None when they fill the circle.  The candidate c and s
    are the real roots of the eliminants that lex Groebner bases in both
    variable orders give; a rational pair is tested by exact substitution,
    any other pair at 60 digits."""
    c, s = sympy.symbols(CS)
    eqs = [to_sympy(g) for g in conditions] + [c ** 2 + s ** 2 - 1]
    roots = []
    for var, other in ((c, s), (s, c)):
        basis = sympy.groebner(eqs, other, var, order="lex").exprs
        if basis == [1]:
            return []
        eliminants = [h for h in basis if not h.has(other)]
        if not eliminants:
            return None
        roots.append(set(sympy.Poly(eliminants[0], var).real_roots()))
    points = []
    for c0 in roots[0]:
        for s0 in roots[1]:
            if c0.is_Rational and s0.is_Rational:
                on = all(h.subs({c: c0, s: s0}) == 0 for h in eqs)
            else:
                at = {c: c0.evalf(60), s: s0.evalf(60)}
                on = all(abs(h.subs(at)) < 1e-40 for h in eqs)
            if on:
                points.append((c0, s0))
    return points


def test_solve_on_circle_matches_sympy_groebner_solutions():
    # planted lines times random factors, sometimes plus a multiple of the
    # circle: the verdict, the exact witnesses as a set and the float
    # witnesses within 1e-12 against sympy's real solutions
    sympy = pytest.importorskip("sympy")
    rng = random.Random(31)
    lines = [poly(t, CS) for t in CIRCLE_LINES]
    circle = poly("c^2 + s^2 - 1", CS)
    seen = set()
    for _ in range(120):
        planted = rng.sample(lines, rng.randint(0, 2))
        conditions = []
        for _ in range(rng.randint(1, 3)):
            g = MPoly.const(CS, 1)
            for line in planted:
                g = g * line
            g = g * random_poly(rng, CS, CS, max_degree=2, n_terms=rng.randint(1, 3))
            if rng.random() < 0.3:
                g = g + circle * random_poly(rng, CS, CS, max_degree=2, n_terms=2)
            if not g.is_zero:
                conditions.append(g)
        if not conditions:
            continue
        points = _sympy_circle_points(sympy, conditions)
        got = _solve_on_circle(conditions, "c", "s")
        assert points is not None and not got.all_angles
        assert got.verdict == ("reversible" if points else "not_reversible")
        exact = {(Rat(int(c0.p), int(c0.q)), Rat(int(s0.p), int(s0.q)))
                 for c0, s0 in points if c0.is_Rational and s0.is_Rational}
        assert set(got.exact_witnesses) == exact
        assert len(got.exact_witnesses) == len(exact)
        want = sorted((float(c0), float(s0)) for c0, s0 in points)
        assert len(got.witnesses) == len(want)
        for (gc, gs), (wc, ws) in zip(sorted(got.witnesses), want):
            assert abs(gc - wc) <= 1e-12 and abs(gs - ws) <= 1e-12
        assert got.witnesses == sorted(got.witnesses, key=_witness_rank)
        assert [(float(c0), float(s0)) for c0, s0 in got.exact_witnesses] == \
            [w for w in got.witnesses if w in {(float(a), float(b)) for a, b in exact}]
        if not points:
            seen.add("none")
        if (Rat(-1), Rat(0)) in exact:
            seen.add("(-1, 0)")
        for c0, s0 in points:
            seen.add("rational point" if c0.is_Rational and s0.is_Rational
                     else "rational c" if c0.is_Rational
                     else "irrational point" if not s0.is_Rational else "rational s")
    assert {"none", "rational point", "rational c", "irrational point", "(-1, 0)"} <= seen


def test_solve_on_circle_conditions_vanishing_on_the_circle_give_all_angles():
    # no condition, or only multiples of c^2 + s^2 - 1: every angle is an axis
    circle = poly("c^2 + s^2 - 1", CS)
    for conditions in ([], [circle], [circle * poly("c - 2*s", CS), circle * circle]):
        r = _solve_on_circle(conditions, "c", "s")
        assert (r.verdict, r.all_angles) == ("reversible", True)
        assert (r.witnesses, r.exact_witnesses) == ([(1.0, 0.0)], [(Rat(1), Rat(0))])
    # one condition that does not vanish on the circle decides
    r = _solve_on_circle([circle, poly("s - c", CS)], "c", "s")
    assert not r.all_angles and r.exact_witnesses == []
    h = math.sqrt(0.5)
    assert [v for w in r.witnesses for v in w] == pytest.approx([-h, -h, h, h], abs=1e-15)


def test_multiplicity_of_rational_root():
    b = [Rat(c) for c in (-8, 12, -6, 1)]  # (t - 2)^3
    assert root_multiplicity(b, Rat(2)) == 3
    assert root_multiplicity(_ref_mul(b, [Rat(1), Rat(1)]), Rat(-1)) == 1
    assert root_multiplicity(b, Rat(1)) == 0
    # a negative leading coefficient and a root with a denominator
    assert root_multiplicity(_ref_mul(b, [Rat(3), Rat(-2), Rat(0), Rat(0)]), Rat(3, 2)) == 1


# -- Darboux first integrals -----------------------------------------------------


def test_factored_family_polynomial_integral():
    s = parse_system(DEG_FACTORED)
    H = DarbouxExpr(power_factors=[(poly("(x^2 + y^2)/2 + 2*x^3/3 - y^3/3", s.vars), 1)])
    assert verify_darboux_integral(s, H).is_zero


def test_quartic_family_symbolic_exponents():
    s = parse_system(NIL_DARBOUX)
    table = s.vars
    H = DarbouxExpr(power_factors=[
        (poly("1 + x", table), poly("-2*c", table)),
        (poly("1 + y", table), poly("-2*a", table)),
        (poly("x^4 + y^2", table), 1),
    ])
    assert verify_darboux_integral(s, H).is_zero


def test_quartic_family_eps_deformed_integral():
    s = parse_system(
        "xdot = -eps*x*(a*x + a*x^2) + y + x*y + (1-a)*y^2 + (1-a)*x*y^2 - a*x^4 - a*x^5; "
        "ydot = -eps*x*(1 + (1-c)*x + y + (1-c)*x*y) + c*y^2 - 2*x^3 + c*y^3 - 2*x^3*y + (c-2)*x^4*(1+y)")
    table = s.vars
    H = DarbouxExpr(power_factors=[
        (poly("1 + x", table), poly("-2*c", table)),
        (poly("1 + y", table), poly("-2*a", table)),
        (poly("x^4 + y^2 + eps*x^2", table), 1),
    ])
    assert verify_darboux_integral(s, H).is_zero


def test_argument_factor_integral():
    s = parse_system(NIL_REVERSIBLE_EPS)
    table = s.vars
    H = DarbouxExpr(
        power_factors=[(poly("eps^2 + x^4 - 2*eps*y + 2*x^2*y + 2*y^2", table), 1)],
        arg_factor=(Rat(2), poly("eps + x^2", table), poly("x^2 + 2*y - eps", table)),
    )
    assert verify_darboux_integral(s, H).is_zero


def test_exponential_factor_integral():
    s = substitute(parse_system(NIL_CUBIC_AB),
                   {"L": rf("A*B/3", ("x", "y", "eps", "A", "B", "K", "L")).as_poly(),
                    "K": rf("A^2/2", ("x", "y", "eps", "A", "B", "K", "L")).as_poly()})
    table = s.vars
    # the quotient base carries the 1/A powers; its denominator is constant
    # along the flow, so the logarithmic derivative ignores it
    base = RatFunc(
        poly("3*A^4*y^2 - 36 - 36*A*x - 18*A^2*x^2 - 6*A^3*x^3 + 3*A^5*x*y^2 + 2*A^4*B*y^3", table),
        poly("3*A^4", table))
    H = DarbouxExpr(power_factors=[(base, 1)],
                    exp_factor=(poly("-A*x", table), MPoly.const(table, 1)))
    assert verify_darboux_integral(s, H).is_zero


def test_wrong_integral_has_nonzero_residual():
    s = parse_system(DEG_FACTORED)
    H = DarbouxExpr(power_factors=[(poly("(x^2 + y^2)/2 + 2*x^3/3 - y^3/2", s.vars), 1)])
    residual = verify_darboux_integral(s, H)
    assert not residual.is_zero


def test_residual_classification_matches_finite_differences():
    # numeric cross-check: d/dt log H along a short flow step agrees in
    # zero/nonzero classification with the exact residual
    import random

    s = parse_system(DEG_FACTORED)
    good = poly("(x^2 + y^2)/2 + 2*x^3/3 - y^3/3", s.vars)
    bad = poly("(x^2 + y^2)/2 + 2*x^3/3 - y^3/2", s.vars)
    fP = lambda x, y: (-y + y * y) * (x * x + y * y)
    fQ = lambda x, y: (x + 2 * x * x) * (x * x + y * y)
    rnd = random.Random(3)

    def fd_drift(h_poly):
        drift = 0.0
        for _ in range(100):
            x = rnd.uniform(-0.3, 0.3)
            y = rnd.uniform(-0.3, 0.3)
            dt = 1e-6
            # one RK4 step
            k1 = (fP(x, y), fQ(x, y))
            k2 = (fP(x + dt / 2 * k1[0], y + dt / 2 * k1[1]),
                  fQ(x + dt / 2 * k1[0], y + dt / 2 * k1[1]))
            k3 = (fP(x + dt / 2 * k2[0], y + dt / 2 * k2[1]),
                  fQ(x + dt / 2 * k2[0], y + dt / 2 * k2[1]))
            k4 = (fP(x + dt * k3[0], y + dt * k3[1]), fQ(x + dt * k3[0], y + dt * k3[1]))
            x2 = x + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            y2 = y + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            h0 = h_poly.eval_float({"x": x, "y": y})
            h1 = h_poly.eval_float({"x": x2, "y": y2})
            drift = max(drift, abs(h1 - h0) / dt)
        return drift

    assert fd_drift(good) < 1e-8
    assert fd_drift(bad) > 1e-4


# -- characteristic directions ----------------------------------------------------


def test_characteristic_directions_hamiltonian_family():
    s = substitute(parse_system(HAM_QH), {"a": 1, "b": 1})
    cd = characteristic_directions(s)
    assert cd.lowest_degree == 4
    assert len(cd.directions) == 1
    d = cd.directions[0]
    assert str(d.form) == "y"
    assert d.multiplicity == 4


def test_characteristic_directions_perturbed_none():
    s = substitute(parse_system(HAM_QH_EPS), {"a": 1, "b": 1, "eps": 1})
    cd = characteristic_directions(s)
    assert not cd.directions and not cd.every_direction
    assert cd.lowest_form == poly("x^4 + y^4", s.vars)


def test_characteristic_directions_rotation_none():
    cd = characteristic_directions(parse_system("xdot = -y; ydot = x"))
    assert not cd.directions and not cd.every_direction
    assert cd.lowest_form == poly("x^2 + y^2", ("x", "y", "eps"))


def test_characteristic_directions_every_direction():
    s = parse_system("xdot = x^2; ydot = x*y")
    cd = characteristic_directions(s)
    assert cd.every_direction


def test_characteristic_directions_rotate_covariantly():
    # rotating by a rational-tangent rotation rotates the directions
    s = substitute(parse_system(HAM_QH), {"a": 1, "b": 1})
    c, sn = Rat(3, 5), Rat(4, 5)
    rotated = rotate_system(s, c, sn)
    cd0 = characteristic_directions(s)
    cd1 = characteristic_directions(rotated)
    assert len(cd1.directions) == len(cd0.directions) == 1
    expected = (cd0.directions[0].angle + math.atan2(4, 3)) % math.pi
    assert abs(cd1.directions[0].angle - expected) < 1e-9
    assert cd1.directions[0].multiplicity == cd0.directions[0].multiplicity


def test_direction_parse_of_integral_text():
    parsed = parse_first_integral("(1+x)^(-2*c) * (1+y)^(-2*a) * (x^4+y^2)",
                                  ("x", "y", "eps", "a", "c"))
    assert len(parsed.power_factors) == 3
    assert str(parsed.power_factors[0][1]) == "-2*c"
    parsed2 = parse_first_integral("(x^2+y^2)/2 + 2*x^3/3 - y^3/3", ("x", "y", "eps"))
    assert len(parsed2.power_factors) == 1
    parsed3 = parse_first_integral(
        "argexp(2; eps + x^2; x^2 + 2*y - eps) * (eps^2 + x^4 - 2*eps*y + 2*x^2*y + 2*y^2)",
        ("x", "y", "eps"))
    assert parsed3.arg_factor is not None
    assert parsed3.arg_factor[0] == 2


# -- monodromy weights -----------------------------------------------------------

MONODROMY_CASES = [
    # the return-map systems: two (1,2) nilpotent centers and five (1,1) points
    ("xdot = y + x^2; ydot = -x^3", (1, 2, -1)),
    ("xdot = -y + x*y + y^2 + x^3; ydot = x^3", (1, 2, 1)),
    ("xdot = (-y + y^2)*(x^2 + y^2); ydot = (x + 2*x^2)*(x^2 + y^2)", (1, 1, 1)),
    ("xdot = y + y^2; ydot = -x - x^3 + x*y^2", (1, 1, -1)),
    ("xdot = -y^3; ydot = x^3 + x^5", (1, 1, 1)),
    ("xdot = -y - x*(x^2 + y^2); ydot = x - y*(x^2 + y^2)", (1, 1, 1)),
    ("xdot = -y - x/10; ydot = x", (1, 1, 1)),
    ("xdot = -100000000000000000039*y^3; ydot = 7*x^3", (1, 1, 1)),
    # quasi-homogeneous centers: HAM_QH and the sextic at a = b = c = 1
    ("xdot = -y^3; ydot = x^5", (2, 3, 1)),
    ("xdot = -y; ydot = x^5 + x^6 + y*(x^3 + x^4)", (1, 3, 1)),
    # nodes, a saddle, a cusp and a line of equilibria: no weights
    ("xdot = -x; ydot = x - y", None),
    ("xdot = -x^3; ydot = x^3", None),
    ("xdot = -x; ydot = -y", None),
    ("xdot = y; ydot = x^3", None),
    ("xdot = y; ydot = x^2", None),
    ("xdot = 0; ydot = x + x^2", None),
    # Andreev's nilpotent family y' = -x^3 + b*x*y: monodromic iff b^2 < 8
    ("xdot = y; ydot = -x^3 + 14/5*x*y", (1, 2, -1)),
    ("xdot = y; ydot = -x^3 + 3*x*y", None),
]


@pytest.mark.parametrize("text,want", MONODROMY_CASES, ids=[t for t, _ in MONODROMY_CASES])
def test_monodromy_weights(text, want):
    assert monodromy_weights(parse_system(text)) == want


@pytest.mark.parametrize("b", ["0", "2", "-14/5", "141/50", "283/100", "-3", "4"])
def test_monodromy_weights_follow_andreev_on_the_nilpotent_family(b):
    # x' = y, y' = -x^3 + b*x*y has the monodromic nilpotent origin exactly
    # when b^2 < 8 (Andreev's theorem); the weights are (1, 2)
    s = substitute(parse_system("xdot = y; ydot = -x^3 + b*x*y"), {"b": Rat(b)})
    want = (1, 2, -1) if Rat(b) ** 2 < 8 else None
    assert monodromy_weights(s) == want


def _edge_walk_weights(s):
    """The weights by walking the lower-left Newton polygon of the rows from
    the y-axis side, first edge whose lowest part of p*x*Q - q*y*P is
    definite first: the oracle for monodromy_weights."""
    terms = [(c, i, j, coeff) for c, poly in enumerate((s.P, s.Q))
             for (i, j), coeff in poly.coefficients_in_vars(("x", "y")).items()]
    rows = sorted({(i - 1 + c, j - c) for c, i, j, _ in terms})
    hull = []
    for b in rows:
        while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (b[1] - hull[-2][1])
                                 - (hull[-1][1] - hull[-2][1]) * (b[0] - hull[-2][0])) <= 0:
            hull.pop()
        hull.append(b)
    x, y = MPoly.variable("x", s.vars), MPoly.variable("y", s.vars)
    for (u, v), (u2, v2) in zip(hull, hull[1:]):
        if v2 >= v:
            break
        g = math.gcd(v - v2, u2 - u)
        p, q = (v - v2) // g, (u2 - u) // g
        low = min(p * a + q * b for a, b in rows)
        W = MPoly.zero(s.vars)
        for c, i, j, coeff in terms:
            if p * (i - 1 + c) + q * (j - c) == low:
                W = W + coeff * x ** i * y ** j * (x * p if c else y * -q)
        sign, _ = weighted_form_sign(W)
        if sign:
            return p, q, sign
    return None


def test_monodromy_weights_match_the_edge_walk():
    rnd = random.Random(29)
    found = 0
    for _ in range(300):
        # a pure power of y in P and one of x in Q most of the time, and a
        # few other terms of degree up to 6
        def term():
            i, j = rnd.choice([(i, j) for i in range(5) for j in range(5) if i + j])
            return f"{rnd.randint(-3, 3)}*x^{i}*y^{j}"

        P = [term() for _ in range(rnd.randint(0, 3))]
        Q = [term() for _ in range(rnd.randint(0, 3))]
        if rnd.random() < 0.8:
            P.append(f"{rnd.choice([-2, -1, 1, 3])}*y^{rnd.randint(1, 5)}")
            Q.append(f"{rnd.choice([-2, -1, 1, 3])}*x^{rnd.randint(1, 5)}")
        s = parse_system(f"xdot = 0 + {' + '.join(P) or '0'}; ydot = 0 + {' + '.join(Q) or '0'}")
        if s.P.is_zero and s.Q.is_zero:
            continue
        want = _edge_walk_weights(s)
        assert monodromy_weights(s) == want, str(s)
        found += want is not None
    assert found > 30
