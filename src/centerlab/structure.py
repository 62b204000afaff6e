"""Structural center mechanisms: Hamiltonian test, time-reversibility about a
rotated axis, Darboux-type first-integral verification, candidate
characteristic directions, and the weights that show a point monodromic.

The symmetry axes of a parameter-free system are solved on the rational
parametrization of the circle, (c, s) = ((1 - t^2)/(1 + t^2), 2t/(1 + t^2)):
the axes are the real roots of one integer gcd in t, plus (-1, 0), checked
exactly, and a rational t is an exact rational axis point."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .mpoly import MPoly, Rat, merge_tables
from .parser import DarbouxExpr
from .ratfunc import RatFunc
from .realroots import (isolate_real_roots, real_root_count, root_multiplicity, trim,
                        univariate_gcd)
from .systems import PlaneSystem, lie_derivative


def is_hamiltonian(s: PlaneSystem) -> bool:
    """True iff the divergence P_x + Q_y vanishes identically."""
    return (s.P.diff("x") + s.Q.diff("y")).is_zero


# -- time-reversibility -------------------------------------------------------


@dataclass
class ReversibilityResult:
    """Axis conditions and verdict of the rotated-reflection symmetry test.

    ``conditions`` are polynomials in the rotation's cosine and sine (symbol
    names in ``axis_symbols``) plus any system parameters; together with
    c^2 + s^2 = 1 their real solutions are the admissible symmetry axes.
    """

    conditions: List[MPoly]
    axis_symbols: Tuple[str, str]
    verdict: str  # reversible | not_reversible | undetermined
    witnesses: List[Tuple[float, float]] = field(default_factory=list)
    exact_witnesses: List[Tuple[Rat, Rat]] = field(default_factory=list)
    all_angles: bool = False

    def witness_angles(self) -> List[float]:
        return [math.atan2(s, c) for c, s in self.witnesses]


def _fresh(name: str, taken) -> str:
    while name in taken:
        name = name + "_"
    return name


def reversibility_conditions(s: PlaneSystem) -> ReversibilityResult:
    """Impose invariance under reflection of the rotated frame combined with
    time reversal, coefficient-wise; solve on the unit circle when the system
    is parameter-free."""
    cname = _fresh("c", s.params)
    sname = _fresh("s", s.params)
    table = merge_tables(s.vars, (cname, sname))
    x = MPoly.variable("x", table)
    y = MPoly.variable("y", table)
    c = MPoly.variable(cname, table)
    sn = MPoly.variable(sname, table)
    P = s.P.embed(table)
    Q = s.Q.embed(table)
    X = x * c + y * sn
    Y = -(x * sn) + y * c
    Pr = P.subs({"x": X, "y": Y}, table)
    Qr = Q.subs({"x": X, "y": Y}, table)
    Pt = Pr * c - Qr * sn
    Qt = Pr * sn + Qr * c
    even = Pt + Pt.subs({"y": -y}, table)
    odd = Qt - Qt.subs({"y": -y}, table)

    cs_table = tuple(v for v in table if v not in ("x", "y"))
    circle = (MPoly.variable(cname, cs_table) ** 2
              + MPoly.variable(sname, cs_table) ** 2)
    conditions: List[MPoly] = []
    rows: List[MPoly] = []  # echelon basis for redundancy detection
    for g in (even, odd):
        # corner coefficients (pure powers of u or v) first: they give the
        # cleanest generators
        for t, coeff in sorted(g.coefficients_in_vars(("x", "y")).items(),
                               key=lambda kv: (min(kv[0]), kv[0])):
            poly = coeff.embed(cs_table).primitive()
            if poly.is_zero:
                continue
            # powers of c^2 + s^2 equal 1 on the circle: strip them
            while True:
                q = poly.try_div(circle)
                if q is None:
                    break
                poly = q
            poly = poly.primitive()
            # dependence is tested modulo the circle relation s^2 -> 1 - c^2
            red = _linear_reduce(_circle_reduce_poly(poly, cname, sname), rows)
            if red.is_zero:
                continue
            rows.append(red.primitive())
            conditions.append(poly)

    params_present = any(
        set(p.variables_present()) - {cname, sname} for p in conditions
    )
    if params_present:
        return ReversibilityResult(conditions, (cname, sname), "undetermined")
    return _solve_on_circle(conditions, cname, sname)


def _circle_reduce_poly(poly: MPoly, cname: str, sname: str) -> MPoly:
    """Canonical representative modulo c^2 + s^2 - 1: degree in s at most 1."""
    c2m1 = MPoly.const(poly.vars, 1) - MPoly.variable(cname, poly.vars) ** 2
    out = MPoly.zero(poly.vars)
    for k, coeff in poly.coefficients_in(sname).items():
        base = coeff.shift(sname, k % 2)
        if k >= 2:
            base = base * (c2m1 ** (k // 2))
        out = out + base
    return out


def _linear_reduce(poly: MPoly, rows: Sequence[MPoly]) -> MPoly:
    for r in rows:
        lm = r.leading_monomial()
        c = poly.coefficient(lm)
        if c:
            poly = poly - r * (c / r.leading_coefficient())
    return poly


# the points on the axes come first among the witnesses, in this order
_AXES = ((Rat(1), Rat(0)), (Rat(0), Rat(1)), (Rat(-1), Rat(0)), (Rat(0), Rat(-1)))


def _solve_on_circle(conditions: List[MPoly], cname: str, sname: str) -> ReversibilityResult:
    """The symmetry axes: the common zeros of the parameter-free
    ``conditions`` on c^2 + s^2 = 1.

    A condition with parts of degrees k <= d in (c, s), each part taken at
    (1 - t^2, 2t) times (1 + t^2)^(d - k), is a polynomial in t whose real
    roots are its zeros on the circle but (-1, 0); 1 + t^2 has no real root.
    The axes are the real roots of the gcd of these polynomials, plus
    (-1, 0) when every condition vanishes there.  A rational root t gives an
    exact witness, an irrational one the point at t's refined float,
    rounded.  The witnesses are the points of ``_AXES`` in that order, then
    the others by ascending c, positive s first.  When every condition
    vanishes on the whole circle, or there is none, the gcd is zero and
    every angle is an axis: the result reads ``all_angles``, witness (1, 0)."""
    t = _fresh("t", {v for g in conditions for v in g.vars})
    T = MPoly.variable(t, (t,))
    at_t = {cname: 1 - T * T, sname: T * 2}
    gcd: Tuple[int, ...] = ()
    for g in conditions:
        parts = g.homogeneous_parts(state=(cname, sname))
        d = max(parts, default=0)
        on_t = sum((part.subs(at_t, (t,)) * (1 + T * T) ** (d - k)
                    for k, part in parts.items()), MPoly.zero((t,)))
        gcd = univariate_gcd(gcd, on_t.coefficient_list(t))
    if not gcd:
        return ReversibilityResult(conditions, (cname, sname), "reversible", all_angles=True,
                                   witnesses=[(1.0, 0.0)], exact_witnesses=[(Rat(1), Rat(0))])
    points = []  # (c, s, exact)
    for tr, tf in isolate_real_roots(gcd):
        tq = Rat(tf) if tr is None else tr
        points.append(((1 - tq * tq) / (1 + tq * tq), 2 * tq / (1 + tq * tq), tr is not None))
    if all(g.subs({cname: -1, sname: 0}, ()).is_zero for g in conditions):
        points.append((Rat(-1), Rat(0), True))
    points.sort(key=lambda p: (_AXES.index(p[:2]) if p[:2] in _AXES else len(_AXES),
                               p[0], -p[1]))
    verdict = "reversible" if points else "not_reversible"
    return ReversibilityResult(conditions, (cname, sname), verdict,
                               witnesses=[(float(c), float(s)) for c, s, _ in points],
                               exact_witnesses=[(c, s) for c, s, exact in points if exact])


# -- Darboux first integrals ---------------------------------------------------


def verify_darboux_integral(s: PlaneSystem, H: DarbouxExpr) -> MPoly:
    """Residual numerator of dH/dt along the flow; identically zero iff H is
    a first integral wherever its factors are defined (u^2 + v^2 > 0 for the
    argument factor)."""
    table = s.vars
    factors: List[Tuple[MPoly, MPoly]] = []  # (f, lambda-as-poly)

    def lam_poly(l) -> MPoly:
        if isinstance(l, MPoly):
            return l.embed(table)
        return MPoly.const(table, l)

    for f, lam in H.power_factors:
        lp = lam_poly(lam)
        if isinstance(f, RatFunc):
            factors.append((f.num.embed(table), lp))
            if not f.den.is_constant:
                factors.append((f.den.embed(table), -lp))
            continue
        factors.append((f.embed(table), lp))

    F = MPoly.const(table, 1)
    for f, _ in factors:
        F = F * f
    h = H.exp_factor[1].embed(table) if H.exp_factor else MPoly.const(table, 1)
    if H.arg_factor:
        _, u, v = H.arg_factor
        u = u.embed(table)
        v = v.embed(table)
        W = u * u + v * v
    else:
        W = MPoly.const(table, 1)

    residual = MPoly.zero(table)
    for i, (f, lam) in enumerate(factors):
        fdot = lie_derivative(f, s)
        if fdot.is_zero:
            continue
        prod = lam * fdot
        for j, (fj, _) in enumerate(factors):
            if j != i:
                prod = prod * fj
        residual = residual + prod * (h * h) * W
    if H.exp_factor:
        g = H.exp_factor[0].embed(table)
        gdot = lie_derivative(g, s)
        hdot = lie_derivative(h, s)
        residual = residual + (gdot * h - g * hdot) * F * W
    if H.arg_factor:
        kappa, _, _ = H.arg_factor
        udot = lie_derivative(u, s)
        vdot = lie_derivative(v, s)
        residual = residual + (u * vdot - v * udot) * kappa * F * (h * h)
    return residual


# -- characteristic directions --------------------------------------------------


@dataclass
class Direction:
    """A candidate characteristic direction: the real linear factor
    beta*y - alpha*x of the lowest-degree part of x*Q - y*P."""

    form: Optional[MPoly]  # exact linear form when rational, else None
    angle: float           # direction angle in [0, pi)
    multiplicity: int
    exact: bool

    def __str__(self) -> str:
        if self.form is not None:
            return f"{self.form} = 0"
        return f"direction at angle {self.angle:.6f} (isolated numerically)"


@dataclass
class CharacteristicDirections:
    lowest_degree: int
    lowest_form: MPoly
    directions: List[Direction]
    every_direction: bool = False  # x*Q - y*P identically zero


def characteristic_directions(s: PlaneSystem) -> CharacteristicDirections:
    """Real linear factors of the lowest-degree homogeneous part of
    x*Q - y*P (a necessary condition for an orbit to reach the origin with a
    definite tangent).  Parameters must be specialized."""
    if s.P.is_zero and s.Q.is_zero:
        raise ValueError("zero vector field")
    table = s.vars
    x = MPoly.variable("x", table)
    y = MPoly.variable("y", table)
    M = x * s.Q - y * s.P
    if M.is_zero:
        return CharacteristicDirections(-1, M, [], every_direction=True)
    parts = M.homogeneous_parts()
    d = min(parts)
    B = parts[d]
    used = set(B.variables_present()) - {"x", "y"}
    if used:
        raise ValueError(f"specialize parameters first: {sorted(used)}")
    b = B.coefficient_list("y", {"x": 1})
    directions: List[Direction] = []
    x_mult = d - (len(b) - 1)
    if x_mult > 0:
        directions.append(Direction(x, math.pi / 2, x_mult, True))
    if len(b) > 1:
        for r, rf in isolate_real_roots(b):
            angle = math.atan2(rf, 1.0) % math.pi
            if r is None:
                directions.append(Direction(None, angle, 1, False))
            else:
                form = (y * Rat(r.denominator) - x * Rat(r.numerator)).primitive()
                directions.append(Direction(form, angle, root_multiplicity(b, r), True))
    directions.sort(key=lambda dd: dd.angle)
    return CharacteristicDirections(d, B, directions)



# -- monodromy -------------------------------------------------------------------


def weighted_form_sign(W: MPoly) -> Tuple[int, str]:
    """The sign (1 or -1) that a (p,q)-quasi-homogeneous form W in x and y
    keeps off the origin, or 0 when it vanishes somewhere there, with a
    detail that says which.

    Weighted homogeneity, W(l^p*x, l^q*y) = l^d*W(x, y) for l > 0, moves
    every point off the origin onto the line x = 1, the line x = -1 or the
    point (0, +-1).  So W keeps one strict sign off the origin exactly when
    W(0, 1), its pure y-power coefficient, is nonzero and neither W(1, t)
    nor W(-1, t) has a real root (two Sturm counts each); the sign is that
    of W(0, 1) (:func:`weighted_sign_on_lines`)."""
    return weighted_sign_on_lines(sum(W.coefficient_list("y", {"x": 0})),
                                  *(W.coefficient_list("y", {"x": x0}) for x0 in (1, -1)))


def weighted_sign_on_lines(at_0_1, on_x1: Sequence, on_xm1: Sequence) -> Tuple[int, str]:
    """:func:`weighted_form_sign` from the values it reads: W(0, 1) and the
    coefficients of W(1, t) and W(-1, t) (index = power of t), all scaled
    by one positive number or not at all.  A quasi-homogeneous W has at
    most one term per power of y, so it is zero exactly when W(1, t) is.
    When W(-1, t) = +-W(1, -t), as W(-x, -y) = +-W(x, y) makes it whenever
    p and q are both odd, the two have the same real roots up to sign, and
    only W(1, t) is counted."""
    if not any(on_x1):
        return 0, "weighted form is identically zero"
    if not at_0_1:
        return 0, "x divides the weighted form"
    if real_root_count(on_x1):
        return 0, "W(1, t) has a real root"
    plus = trim(on_x1)
    mirror = [-c if k % 2 else c for k, c in enumerate(plus)]
    if trim(on_xm1) not in (mirror, [-c for c in mirror]) and real_root_count(on_xm1):
        return 0, "W(-1, t) has a real root"
    return (1 if at_0_1 > 0 else -1), "W(1, t) and W(-1, t) have no real root (Sturm counts)"


class MonodromyWeights(NamedTuple):
    """Weights whose polar angle turns monotonically near the origin, the
    way of ``sign``, the sign of p*x*Q - q*y*P there."""

    p: int
    q: int
    sign: int


def monodromy_weights(s: PlaneSystem) -> Optional[MonodromyWeights]:
    """The weights that show the origin monodromic, or None.

    A monomial x^i y^j of P (c = 0) or Q (c = 1) has the row
    (i - 1 + c, j - c).  An edge of the lower-left Newton polygon of the rows
    fixes weights (p, q) > 0 and the lowest parts P_low, Q_low on it; when
    W = p*x*Q_low - q*y*P_low keeps a strict sign off the origin
    (:func:`weighted_form_sign`), so does p*x*Q - q*y*P near the origin.
    Such a W is nonzero at (0, 1) and (1, 0), so its edge holds the row
    (-1, j) of a pure power y^j of P and the row (i, -1) of a pure power x^i
    of Q.  Rows lie in u, v >= -1, so only a polygon whose one edge joins
    the lowest such (-1, j) to the leftmost such (i, -1) can qualify, with
    p:q = (j + 1):(i + 1).  Parameters must be specialized."""
    if not s.is_numeric():
        raise ValueError("specialize parameters first")
    parts = [poly.coefficients_in_vars(("x", "y")) for poly in (s.P, s.Q)]
    j = min((j for i, j in parts[0] if i == 0), default=None)
    i = min((i for i, j in parts[1] if j == 0), default=None)
    if i is None or j is None:
        return None
    g = math.gcd(i + 1, j + 1)
    p, q = (j + 1) // g, (i + 1) // g
    low = q * j - p  # the weight of the rows (-1, j) and (i, -1)
    weight = {(c, e): p * (e[0] - 1 + c) + q * (e[1] - c)
              for c, terms in enumerate(parts) for e in terms}
    if min(weight.values()) < low:
        return None  # a row below the edge: the polygon has other edges
    # p*x*Q_low - q*y*P_low, term by term
    W = [MPoly.from_coefficients(s.vars, ("x", "y"),
                                 {(a + c, b + 1 - c): coeff * (p if c else -q)
                                  for (a, b), coeff in terms.items()
                                  if weight[c, (a, b)] == low})
         for c, terms in enumerate(parts)]
    sign, _ = weighted_form_sign(W[0] + W[1])
    return MonodromyWeights(p, q, sign) if sign else None
