import math
import random

import pytest

from centerlab.mpoly import MPoly, Rat
from centerlab.parser import DarbouxExpr, parse_first_integral
from centerlab.ratfunc import RatFunc
from centerlab.realroots import isolate_real_roots, root_multiplicity, trim
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


# reference: the circle solve on dense coefficient lists in c, kept to check
# the MPoly version against

def _ref_reduce_circle(g, cname, sname):
    # g = A(c) + B(c) s modulo s^2 -> 1 - c^2, as dense lists
    A, B = {}, {}
    ic, isn = g.vars.index(cname), g.vars.index(sname)
    for e, coeff in g.terms.items():
        k, m = e[isn], e[ic]
        target = B if k % 2 else A
        for j in range(k // 2 + 1):
            target[m + 2 * j] = target.get(m + 2 * j, Rat(0)) \
                + coeff * math.comb(k // 2, j) * (-1) ** j
    return (trim([A.get(i, Rat(0)) for i in range(max(A) + 1 if A else 0)]),
            trim([B.get(i, Rat(0)) for i in range(max(B) + 1 if B else 0)]))


def _ref_mul(a, b):
    a, b = trim(a), trim(b)
    if not a or not b:
        return []
    out = [Rat(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _ref_sub(a, b):
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else Rat(0)) - (b[i] if i < len(b) else Rat(0))
                 for i in range(n)])


def _ref_gcd(a, b):
    # Euclid's algorithm in exact fractions, made monic
    while b:
        r = list(a)
        while len(r) >= len(b):
            f = r[-1] / b[-1]
            for i, c in enumerate(b):
                r[i + len(r) - len(b)] -= f * c
            r = trim(r)
        a, b = b, r
    return [c / a[-1] for c in a]


def _ref_rat_sqrt(v):
    if v < 0:
        return None
    pn, pd = math.isqrt(v.numerator), math.isqrt(v.denominator)
    return Rat(pn, pd) if pn * pn == v.numerator and pd * pd == v.denominator else None


def _ref_solve_on_circle(conditions, cname, sname):
    exact = []
    for cv, sv in ((Rat(1), Rat(0)), (Rat(0), Rat(1)), (Rat(-1), Rat(0)), (Rat(0), Rat(-1))):
        if all(g.subs({cname: cv, sname: sv}, ()).is_zero for g in conditions):
            exact.append((cv, sv))
    reduced = [_ref_reduce_circle(g, cname, sname) for g in conditions]
    unielims = []
    for A, B in reduced:
        if not trim(B):
            unielims.append(A)
        else:
            unielims.append(_ref_sub(_ref_mul(A, A),
                                     _ref_mul([Rat(1), Rat(0), Rat(-1)], _ref_mul(B, B))))
    for i in range(len(reduced)):
        for j in range(i + 1, len(reduced)):
            cross = _ref_sub(_ref_mul(reduced[i][0], reduced[j][1]),
                             _ref_mul(reduced[j][0], reduced[i][1]))
            if cross:
                unielims.append(cross)
    g = None
    for u in map(trim, unielims):
        if u:
            g = u if g is None else _ref_gcd(g, u)
    witnesses = [(float(c), float(s)) for c, s in exact]
    if g is not None and len(trim(g)) > 1:
        for ex, cf in isolate_real_roots(g):
            if ex is not None:
                if abs(ex) > 1:
                    continue
                rs = _ref_rat_sqrt(1 - ex * ex)
                if rs is not None:
                    for sv in ([rs, -rs] if rs else [Rat(0)]):
                        if all(gq.subs({cname: ex, sname: sv}, ()).is_zero for gq in conditions):
                            if (ex, sv) not in exact:
                                exact.append((ex, sv))
                                witnesses.append((float(ex), float(sv)))
                    continue
            if abs(cf) > 1:
                continue
            sf = math.sqrt(max(0.0, 1 - cf * cf))
            for sv in (sf, -sf):
                if all(abs(gq.eval_float({cname: cf, sname: sv})) < 1e-9 for gq in conditions):
                    if not any(abs(w[0] - cf) < 1e-9 and abs(w[1] - sv) < 1e-9
                               for w in witnesses):
                        witnesses.append((cf, sv))
    return ("reversible" if witnesses else "not_reversible"), witnesses, exact


CS = ("c", "s")
# lines through points of the unit circle: rational points, and the
# irrational points where s = c and s = 2c
CIRCLE_LINES = (
    "c - 3/5", "s - 4/5", "5*c + 12*s - 13", "c + 3/5", "s + 12/13", "8*c - 15*s",
    "s - c", "s - 2*c", "c", "s", "c - 1", "s + 1",
)


def test_solve_on_circle_matches_dense_reference():
    rng = random.Random(31)
    lines = [poly(t, CS) for t in CIRCLE_LINES]
    circle = poly("c^2 + s^2 - 1", CS)
    verdicts = set()
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
        got = _solve_on_circle(conditions, "c", "s")
        verdict, witnesses, exact = _ref_solve_on_circle(conditions, "c", "s")
        assert (got.verdict, got.witnesses, got.exact_witnesses) == (verdict, witnesses, exact)
        verdicts.add((verdict, bool(exact), len(witnesses) > len(exact)))
    # both verdicts, exact witnesses and float-only witnesses were exercised
    assert {v for v, _, _ in verdicts} == {"reversible", "not_reversible"}
    assert any(e for _, e, _ in verdicts) and any(f for _, _, f in verdicts)


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
