"""Structural center mechanisms: Hamiltonian test, time-reversibility about a
rotated axis, Darboux-type first-integral verification, and candidate
characteristic directions."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .mpoly import MPoly, Rat, merge_tables, poly_gcd
from .parser import DarbouxExpr
from .ratfunc import RatFunc
from .realroots import isolate_real_roots, root_multiplicity
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
    if not conditions:
        return ReversibilityResult([], (cname, sname), "reversible", all_angles=True,
                                   witnesses=[(1.0, 0.0)], exact_witnesses=[(Rat(1), Rat(0))])
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


def _solve_on_circle(conditions: List[MPoly], cname: str, sname: str) -> ReversibilityResult:
    exact: List[Tuple[Rat, Rat]] = []
    # axis cases first, checked exactly
    for cv, sv in ((Rat(1), Rat(0)), (Rat(0), Rat(1)), (Rat(-1), Rat(0)), (Rat(0), Rat(-1))):
        if all(g.subs({cname: cv, sname: sv}, ()).is_zero for g in conditions):
            exact.append((cv, sv))

    # each condition is A(c) + B(c)*s modulo s^2 = 1 - c^2
    zero = MPoly.zero(conditions[0].vars)
    reduced = []
    for g in conditions:
        by_s = _circle_reduce_poly(g, cname, sname).coefficients_in(sname)
        reduced.append((by_s.get(0, zero), by_s.get(1, zero)))
    one_minus_c2 = 1 - MPoly.variable(cname, zero.vars) ** 2
    # s = -A/B on solutions, so s^2 = 1 - c^2 gives A^2 - (1-c^2) B^2 = 0, and
    # two conditions agree on s only where A_i B_j - A_j B_i = 0
    unielims = [A if B.is_zero else A * A - one_minus_c2 * (B * B) for A, B in reduced]
    unielims += [Ai * Bj - Aj * Bi for i, (Ai, Bi) in enumerate(reduced)
                 for Aj, Bj in reduced[i + 1:]]
    g = zero
    for u in filter(None, unielims):
        g = poly_gcd(g, u)
    witnesses: List[Tuple[float, float]] = [(float(c), float(s)) for c, s in exact]
    if not g.is_constant:
        for ex, cf in isolate_real_roots(g.coefficient_list(cname)):
            if ex is not None:
                if abs(ex) > 1:
                    continue
                rs = _rat_sqrt(1 - ex * ex)
                if rs is not None:
                    for sv in ([rs, -rs] if rs else [Rat(0)]):
                        if all(gq.subs({cname: ex, sname: sv}, ()).is_zero for gq in conditions):
                            if (ex, sv) not in exact:
                                exact.append((ex, sv))
                                witnesses.append((cf, float(sv)))
                    continue
            elif abs(cf) > 1:
                continue
            sf = math.sqrt(max(0.0, 1 - cf * cf))
            for sv in (sf, -sf):
                if all(abs(gq.eval_float({cname: cf, sname: sv})) < 1e-9 for gq in conditions):
                    if not any(abs(w[0] - cf) < 1e-9 and abs(w[1] - sv) < 1e-9 for w in witnesses):
                        witnesses.append((cf, sv))
    verdict = "reversible" if witnesses else "not_reversible"
    return ReversibilityResult(conditions, (cname, sname), verdict,
                               witnesses=witnesses, exact_witnesses=exact)


def _rat_sqrt(v) -> Optional[Rat]:
    if v < 0:
        return None
    pn = math.isqrt(v.numerator)
    pd = math.isqrt(v.denominator)
    if pn * pn == v.numerator and pd * pd == v.denominator:
        return Rat(pn, pd)
    return None


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

