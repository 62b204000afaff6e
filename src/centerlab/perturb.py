"""The eps-family of a nilpotent or degenerate system, and the center
conditions read from it.

:func:`build_perturbation` embeds a nilpotent system (y + F1, F2) in the
family (y + F1 + eps*x*G1, -eps*x + F2 + eps*x*G2), a degenerate system in
(eps*y + F1 + eps*G1, -eps*x + F2 + eps*G2) and a Hamiltonian degenerate one
in (-eps*y + F1, eps*x + F2), with G1 = G2 = 0 (minimal) or a fresh parameter
on every monomial of G1 and G2 (general).  For eps > 0 (nilpotent) or eps != 0
small (degenerate) the family is of linear type, and the eps-orders of its
obstruction constants give the center conditions of the original system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .liapunov import ConventionRecord, DegreePass
from .mpoly import MPoly, Rat, merge_tables, poly_gcd, resultant
from .ratfunc import RatFunc, laurent_expand_eps
from .realroots import isolate_real_roots
from .systems import (
    DEGENERATE,
    NILPOTENT,
    ClassificationError,
    PlaneSystem,
    require_numeric,
    substitute,
)

ALL_ORDERS = "all_orders"
FIRST_ORDER = "first_order"

# the general template names the coefficient of x^i*y^j "a" or "b" followed
# by the digits of i and j: distinct while i + j <= 10, but x^11 and x*y^10
# would both give a110
MAX_TEMPLATE_DEGREE = 10


def build_perturbation(system: PlaneSystem, kind: str,
                       degree: Optional[int] = None) -> PlaneSystem:
    """Embed the system in its eps-family of ``kind``: ``nilpotent``,
    ``degenerate`` or ``hamiltonian``.

    With ``degree=None`` the family is the minimal one.  With a degree (1 to
    :data:`MAX_TEMPLATE_DEGREE`) it is the general template: G1 gets one
    fresh parameter ``a_ij`` per monomial x^i*y^j and G2 one ``b_ij``, of
    total degree from 1 (nilpotent) or 2 (degenerate) up to ``degree``.
    Substituting eps = 0 in the result returns the original system exactly.
    """
    lo = 1 if kind == "nilpotent" else 2
    names = []
    if degree is not None:
        if not 1 <= degree <= MAX_TEMPLATE_DEGREE:
            raise ValueError(f"general template degree must be 1 to {MAX_TEMPLATE_DEGREE}, "
                             f"got {degree}")
        names = [f"{prefix}{i}{d - i}" for prefix in "ab"
                 for d in range(lo, degree + 1) for i in range(d + 1)]
        clash = set(names) & set(system.params)
        if clash:
            raise ValueError(
                f"perturbation parameter names collide with system parameters: {sorted(clash)}")
    if kind not in ("nilpotent", "degenerate", "hamiltonian"):
        raise ValueError(f"unknown perturbation kind {kind!r}")
    if kind == "hamiltonian" and degree is not None:
        raise ValueError("hamiltonian perturbation takes no G terms")
    cls, needs = system.linear_class, NILPOTENT if kind == "nilpotent" else DEGENERATE
    if cls != needs:
        raise ClassificationError(f"{kind} perturbation needs a {needs} system, got {cls}")

    table = merge_tables(system.vars, names)
    P, Q = system.P.embed(table), system.Q.embed(table)
    x, y, eps = (MPoly.variable(v, table) for v in ("x", "y", "eps"))
    if kind == "nilpotent":
        # respect the overall scaling of the (y, 0) linear part so the
        # perturbed part stays elliptic
        sigma = system.linear_part()[0].coefficients_in("y")[1].constant_value()
        Q = Q - (eps * x) * sigma
        scale = eps * x
    elif kind == "degenerate":
        P, Q, scale = P + eps * y, Q - eps * x, eps
    else:
        P, Q = P - eps * y, Q + eps * x
    if names:
        # the coefficient of x^i*y^j in G1 is the parameter a_ij, in G2 b_ij
        G1, G2 = (MPoly.from_coefficients(table, ("x", "y"), {
            (i, d - i): MPoly.variable(f"{prefix}{i}{d - i}", table)
            for d in range(lo, degree + 1) for i in range(d + 1)}) for prefix in "ab")
        P, Q = P + scale * G1, Q + scale * G2
    params = tuple(v for v in table if v not in ("x", "y", "eps"))
    return PlaneSystem(P, Q, params, system.assumptions)


@dataclass
class Condition:
    """A single polynomial condition arising at one eps order of a constant."""

    poly: MPoly                      # in parameters only, primitive
    eps_order: int
    constant_index: int              # which V (1-based) produced it
    kind: str                        # base | perturbation | mixed
    solved: Optional[Tuple[str, MPoly]] = None  # parameter eliminated, value

    def __str__(self) -> str:
        return f"{self.poly} = 0"


def _linear_solve_for(poly: MPoly, names: Sequence[str]) -> Optional[Tuple[str, MPoly]]:
    """Solve poly = 0 for the first listed parameter that appears linearly
    with a constant coefficient."""
    present = set(poly.variables_present())
    for p in names:
        if p not in present or poly.degree_in(p) != 1:
            continue
        by_p = poly.coefficients_in(p)
        lead = by_p.get(1)
        if lead is None or not lead.is_constant:
            continue
        rest = by_p.get(0, MPoly.zero(poly.vars))
        value = rest * (Rat(-1) / lead.constant_value())
        if p in value.variables_present():
            continue
        return p, value
    return None


def _order_bound(v: RatFunc) -> int:
    return max(v.num.degree_in("eps") - v.den.lowest_degree_in("eps"), 0)


@dataclass
class SingularitySample:
    eps: object                     # the sampled eps value (rational)
    distance: Optional[float]       # closest non-origin singularity, None if none found
    witness: Optional[Tuple[float, float]] = None


@dataclass
class VanishingSingularityCheck:
    """Numeric evidence for/against singular points collapsing into the
    origin as eps -> 0.  Not a proof."""

    passed: bool
    samples: List[SingularitySample]
    note: str = "numeric sampling evidence, not a proof"


def check_no_vanishing_singularities(family: PlaneSystem, eps_samples: Sequence,
                                     radius=Rat(1)) -> VanishingSingularityCheck:
    """Locate non-origin singular points of each eps-specialization inside the
    disk and test whether their minimal distance shrinks toward zero.

    Fails (with witnesses) when the distances decrease monotonically by a
    ratio of at most 3/4 between consecutive samples; passes otherwise.
    """
    if family.linear_class not in ("perturbed_nilpotent", "perturbed_degenerate"):
        raise ValueError("family must be a perturbed class with symbolic eps")
    eps_list = sorted((Rat(e) for e in eps_samples), reverse=True)
    if any(e <= 0 for e in eps_list):
        raise ValueError("eps samples must be positive")
    samples = []
    for e in eps_list:
        spec = substitute(family, {"eps": e})
        pts = _singular_points_numeric(spec, float(radius))
        if pts:
            d, w = min(((float((px ** 2 + py ** 2) ** 0.5), (px, py)) for px, py in pts),
                       key=lambda t: t[0])
            samples.append(SingularitySample(e, d, w))
        else:
            samples.append(SingularitySample(e, None))
    dists = [s.distance for s in samples]
    if all(d is None for d in dists):
        return VanishingSingularityCheck(True, samples)
    if any(d is None for d in dists):
        # singularities appear only for some eps: no collapsing sequence
        return VanishingSingularityCheck(True, samples)
    shrinking = all(b <= 0.75 * a for a, b in zip(dists, dists[1:]))
    return VanishingSingularityCheck(not (shrinking and len(dists) >= 2), samples)


def _singular_points_numeric(s: PlaneSystem, radius: float) -> List[Tuple[float, float]]:
    """Non-origin real solutions of P = Q = 0 inside the disk (numeric): the
    real roots of a resultant, and of each float polynomial on a ray or a
    line, are isolated exactly by :mod:`realroots` and refined to floats,
    and the points are then polished by Newton's method."""
    require_numeric(s)
    pts: List[Tuple[float, float]] = []
    g = poly_gcd(s.P, s.Q)

    def newton_polish(x0, y0):
        Px, Py = s.P.diff("x"), s.P.diff("y")
        Qx, Qy = s.Q.diff("x"), s.Q.diff("y")
        ev = lambda p, x, y: p.eval_float({"x": x, "y": y})
        x, y = x0, y0
        for _ in range(40):
            p, q = ev(s.P, x, y), ev(s.Q, x, y)
            a, b, c, d = ev(Px, x, y), ev(Py, x, y), ev(Qx, x, y), ev(Qy, x, y)
            det = a * d - b * c
            if abs(det) < 1e-300:
                return None
            dx = (p * d - q * b) / det
            dy = (a * q - c * p) / det
            x, y = x - dx, y - dy
            if abs(dx) + abs(dy) < 1e-14 * (1 + abs(x) + abs(y)):
                break
        p, q = ev(s.P, x, y), ev(s.Q, x, y)
        if abs(p) + abs(q) < 1e-9:
            return (x, y)
        return None

    if not g.is_constant:
        # a whole curve of singular points: minimize the distance along rays;
        # on the ray (r*cs, r*sn) the coefficient of r^d is g_d(cs, sn)
        split = g.homogeneous_parts()
        parts = [split.get(d, MPoly.zero(g.vars)) for d in range(max(split) + 1)]
        for k in range(720):
            th = 2 * math.pi * k / 720
            cs, sn = math.cos(th), math.sin(th)
            for _, r in isolate_real_roots([gd.eval_float({"x": cs, "y": sn}) for gd in parts]):
                if 1e-9 < r <= radius:
                    pts.append((r * cs, r * sn))
        P1 = s.P.try_div(g)
        Q1 = s.Q.try_div(g)
    else:
        P1, Q1 = s.P, s.Q

    if not P1.is_zero and not Q1.is_zero and P1.degree_in("y") + Q1.degree_in("y") > 0:
        res = resultant(P1, Q1, "y")
        if not res.is_zero:
            coeffs = res.coefficient_list("x")
            for _, xr in isolate_real_roots(coeffs):
                if abs(xr) > radius:
                    continue
                for yr in _y_candidates(P1, Q1, xr, radius):
                    pol = newton_polish(xr, yr)
                    if pol is None:
                        continue
                    x2, y2 = pol
                    if x2 * x2 + y2 * y2 <= radius * radius and x2 * x2 + y2 * y2 > 1e-16:
                        if not any(abs(x2 - a) + abs(y2 - b) < 1e-7 for a, b in pts):
                            pts.append((x2, y2))
    return pts


def _y_candidates(P1: MPoly, Q1: MPoly, xr: float, radius: float) -> List[float]:
    out = []
    for poly in (P1, Q1):
        by_y = poly.coefficients_in("y")
        dense = [by_y[k].eval_float({"x": xr}) if k in by_y else 0.0
                 for k in range(max(by_y, default=0) + 1)]
        for _, r in isolate_real_roots(dense):
            if abs(r) <= radius * 1.5:
                out.append(r)
        if out:
            break
    return out


@dataclass
class PipelineResult:
    """Center conditions accumulated over the staged computation, where each
    solved condition is substituted before the next constant is computed.

    ``constants`` holds one (index, degree, V) entry per stage: each nonzero
    constant of the pass, computed on the family that the earlier stages'
    solved conditions reduced.  Every condition is a primitive polynomial in
    the parameters, read from one Laurent coefficient of a constant: its
    denominator is in eps alone, so no side condition on the parameters
    arises.
    """

    mode: str
    convention: ConventionRecord
    base_conditions: List[Condition] = field(default_factory=list)
    perturbation_conditions: List[Condition] = field(default_factory=list)
    mixed_conditions: List[Condition] = field(default_factory=list)
    constants: List[Tuple[int, int, RatFunc]] = field(default_factory=list)


def center_conditions_pipeline(perturbed: PlaneSystem, max_even_degree: int,
                               mode: str = ALL_ORDERS,
                               perturbation_params: Sequence[str] = ()) -> PipelineResult:
    """Stage-wise center-condition extraction in one degree-by-degree pass.

    Each nonzero constant starts a stage: its eps-order conditions are
    classified (base / perturbation / mixed), linearly solvable ones are
    substituted into the family, and the pass carries on at the next degree
    on the reduced family (see :class:`DegreePass`).  Base conditions are
    reported reduced modulo the earlier ones.  ``all_orders``: every Laurent
    coefficient of the constant must vanish; ``first_order``: only the two
    lowest orders present are used.
    """
    run = DegreePass(perturbed, max_even_degree)
    result = PipelineResult(mode=mode, convention=run.convention)
    full_table = perturbed.vars
    pset = set(perturbation_params)
    for degree, V in run:
        if V.is_zero:
            continue
        current = run.system
        index = len(result.constants) + 1
        result.constants.append((index, degree, V))
        items = list(laurent_expand_eps(V, _order_bound(V)).items())
        if mode == FIRST_ORDER:
            items = items[:2]

        new_subs: Dict[str, MPoly] = {}
        # reduce only by conditions that were not eliminated by substitution;
        # the solved ones are already out of the family, and rewriting by
        # their leading terms would reintroduce eliminated parameters
        reducers = [c.poly for c in result.base_conditions if c.solved is None]
        for k, coeff in items:
            poly = coeff.primitive().embed(current.vars)
            if new_subs:
                poly = poly.subs(new_subs, current.vars)
            poly = poly.embed(full_table).remainder(reducers).primitive()
            if poly.is_zero:
                continue
            present = set(poly.variables_present())
            if present & pset:
                sol = _linear_solve_for(poly, [p for p in current.params if p in pset])
                if sol is not None:
                    cond = Condition(poly, k, index,
                                     "perturbation" if present <= pset else "mixed",
                                     solved=sol)
                    result.perturbation_conditions.append(cond)
                    new_subs[sol[0]] = sol[1].embed(current.vars)
                else:
                    result.mixed_conditions.append(Condition(poly, k, index, "mixed"))
            else:
                cond = Condition(poly, k, index, "base")
                result.base_conditions.append(cond)
                sol = _linear_solve_for(poly, [p for p in current.params if p not in pset])
                if sol is not None:
                    cond.solved = sol
                    new_subs[sol[0]] = sol[1].embed(current.vars)
                else:
                    reducers.append(poly)
        if new_subs:
            run.specialise(new_subs)
    return result
