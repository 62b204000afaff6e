"""Poincare return maps over one turn of a weighted polar angle.

:func:`structure.monodromy_weights` shows a point monodromic: W =
p*x*Q - q*y*P keeps one sign near it.  In the coordinates x = r^p*cos(psi),
y = r^q*sin(psi) the flow has W = r^(p+q)*(p*cos^2 psi + q*sin^2 psi)*psi',
so psi turns one way while W keeps its sign, and an orbit is the graph of

    dr/dpsi = r*(r^q*cos(psi)*P + r^p*sin(psi)*Q)/W,
    dt/dpsi = r^(p+q)*(p*cos^2 psi + q*sin^2 psi)/W.

A return integrates (r, t) from psi0 to the fixed end psi0 +- 2*pi, with no
crossing to detect and no time horizon.  A stage where W has lost its sign
is rejected like one that overflows; the run stops when an accepted point
leaves the guard radius ("escaped"), when the steps shrink to nothing after
such a stage ("stalled": psi' vanishes on the orbit, which so does not turn
around the origin at that size), or at ``max_steps``.

The integrator is the embedded Dormand-Prince 5(4) pair (Dormand & Prince,
J. Comput. Appl. Math. 6, 1980) with an I step-size controller, on plain
Python floats.  Its stepping loop is Python source generated from the
tableau's nonzero entries and compiled on first use, one per monomial
structure of P and Q, weights and sign of W, to which a system passes its
float coefficients: both components are scalar locals, every stage sum and
the error sum are written out term by term, and P and Q are written into
each stage, so a stage calls only cos and sin, builds no tuple and computes
each power of x and y once.  Stage 7 reuses stage 6's cos, sin and
p*cos^2 + q*sin^2 (both sit at the step's end), stage 2's t-slope, which
nothing reads, is left out, and the sign of W is written into each stage's
test.  The order of the float operations is fixed, so a run repeats bit for
bit.  Every power stays ``**``: with CPython 3.11 on glibc, ``x**2`` and
``x*x`` differ in the last bit for about 1 in 1,200 uniform random floats,
so a product in place of a power would change the floats.  The loop keeps
nothing per step.

The condition (ii) quadrature of :mod:`centerlab.qhomog` runs in a second
generated function, :func:`trapezoid_kernel`: one per monomial structure
of P and Q and weights (p, q), so the points of a parameter sweep whose
monomials stay the same share one compiled kernel.  Both write P and Q
through one emitter, :func:`_poly_source`, each term c*x**i*y**j from the
left and the terms in the order of :func:`float_terms`, so their floats are
those of that sum.  Verdicts produced here are evidence only; they never
override an exact result.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

from .structure import MonodromyWeights, monodromy_weights
from .systems import PlaneSystem, require_numeric

class IntegrationError(RuntimeError):
    def __init__(self, message: str, closest_approach: float):
        super().__init__(message)
        self.closest_approach = closest_approach


class _Turned(Exception):
    """Raised in a stage where W is finite and lacks the sign that it keeps
    near the origin; the stepping loop rejects that step."""


def float_terms(s: PlaneSystem) -> Tuple[Tuple[Tuple[float, int, int], ...], ...]:
    """The float terms of a parameter-free system: per component, the
    (coefficient, i, j) of each c*x**i*y**j in descending graded-lex order,
    as MPoly.integer_terms lists them.  A system with parameters, or a
    coefficient too large for a float, raises ValueError."""
    require_numeric(s)
    return _float_terms(s.P, "xdot"), _float_terms(s.Q, "ydot")


def _float_terms(p, name: str) -> Tuple[Tuple[float, int, int], ...]:
    return tuple((coefficient_float(num, den, name, i, j), i, j)
                 for (i, j), num, den in p.integer_terms_in(("x", "y")))


def coefficient_float(num: int, den: int, name: str, i: int, j: int) -> float:
    """The float of the coefficient ``num/den`` (``den > 0``) of x^i*y^j in
    the component ``name``.  Division of ints rounds correctly, so the float
    depends on the rational alone, not on its terms; a value too large for
    a float raises ValueError naming the term."""
    try:
        return num / den
    except OverflowError:
        monomial = "*".join(v + (f"^{e}" if e > 1 else "")
                            for v, e in (("x", i), ("y", j)) if e) or "1"
        raise ValueError(f"{name}: the coefficient of {monomial} "
                         "is too large for a float") from None


@dataclass
class Trajectory:
    """How an integration over psi ended: psi and the state (r, t) at its
    start and at its end, its counts and the least Euclidean radius of its
    accepted points.  ``status`` is "finished" (reached the end of the
    span), "max_steps", "escaped" (left the guard radius) or "stalled" (W
    lacks its sign at the start, or the steps shrank to nothing where it
    lost it)."""

    psi: List[float]
    y: List[Tuple[float, float]]
    status: str
    nfev: int
    steps: int
    closest_approach: float
    # no step is stored: a tracer that counts the stored segments
    # (bench/spans.py) reads this
    segments = ()


def check_tolerance(name: str, value: float) -> None:
    """Refuse an integration tolerance outside (0, 1e-4]."""
    if not (0 < value <= 1e-4):
        raise ValueError(f"{name} must be in (0, 1e-4]")


def integrate_adaptive(terms, weights: MonodromyWeights, r0: float,
                       psi_span: Tuple[float, float], guard_radius: float = math.inf,
                       rel_tol: float = 1e-10, abs_tol: float = 1e-12,
                       max_steps: int = 1_000_000) -> Trajectory:
    """Integrate (r, t) over ``psi_span`` for the system whose
    :func:`float_terms` are ``terms``, in the weighted polar coordinates of
    ``weights`` = (p, q, sign), from r = ``r0`` and t = 0, in the loop that
    :func:`_dopri_loop` generates for their monomials and unit coefficients.

    ``sign`` (1 or -1) is the sign that W = p*x*Q - q*y*P must keep: where
    W lacks it at the start, or the steps shrink to nothing on stages where
    it does, the run is "stalled".  psi may run either way; t increases
    along the flow when psi runs the way of ``sign``.  The error of t is
    measured against ``abs_tol + rel_tol*|t|`` and that of r against
    ``(abs_tol/r0 + rel_tol)*r``, which follows r down as an orbit (a flat
    one, say) comes close to the origin.  A step with non-finite stages (or
    whose right-hand side overflows) is rejected and shrunk; if that never
    ends, the step size underflows and ``IntegrationError`` is raised.  The
    last step ends exactly on the end of the span.
    """
    check_tolerance("rel_tol", rel_tol)
    check_tolerance("abs_tol", abs_tol)
    if not r0 > 0:
        raise ValueError(f"r0 must be positive, got {r0!r}")
    p, q, sign = weights
    if sign not in (1, -1):
        raise ValueError(f"the sign of W must be 1 or -1, got {sign!r}")
    exponents = tuple(tuple((i, j) for _, i, j in comp) for comp in terms)
    units = tuple(tuple(1 if c == 1.0 else -1 if c == -1.0 else 0 for c, _, _ in comp)
                  for comp in terms)
    loop = _dopri_loop(exponents, units, p, q, sign > 0)
    cP, cQ = (tuple(c for c, _, _ in comp) for comp in terms)
    psi0, psi1 = psi_span
    return loop(cP, cQ, float(psi0), float(psi1), float(r0), guard_radius, rel_tol, abs_tol,
                max_steps)


# Dormand-Prince RK5(4) tableau as (j, numerator, denominator) of its nonzero
# weights a_sj: stage s + 2 is evaluated at y + h * sum_j a_sj k_j, and the
# last row is the 5th-order solution, which is also the stage-7 argument.
_STAGES = (
    ((1, 1, 5),),
    ((1, 3, 40), (2, 9, 40)),
    ((1, 44, 45), (2, -56, 15), (3, 32, 9)),
    ((1, 19372, 6561), (2, -25360, 2187), (3, 64448, 6561), (4, -212, 729)),
    ((1, 9017, 3168), (2, -355, 33), (3, 46732, 5247), (4, 49, 176), (5, -5103, 18656)),
    ((1, 35, 384), (3, 500, 1113), (4, 125, 192), (5, -2187, 6784), (6, 11, 84)),
)
# the nodes c_s of stages 2 to 5; stages 6 and 7 sit at the step's end
_NODES = ((1, 5), (3, 10), (4, 5), (8, 9))
# weights of the embedded error estimate (5th- minus 4th-order solution)
_ERROR = ((1, 71, 57600), (3, -71, 16695), (4, 71, 1920), (5, -17253, 339200),
          (6, 22, 525), (7, -1, 40))

# The stepping loop.  {unpack} binds the coefficients of P and Q.  y_0 is r
# and y_1 is t; the right-hand side does not read t, so only the 5th-order
# solution sums its stages.  pn is the end of the step: psi + h, or psi1
# itself on the last step, so that the run ends exactly there.  Each stage
# leaves the point (rx, ry) of its node, so after stage 7 it is the step's
# end, which the guard radius is tested on.
_LOOP = """\
def dopri_loop(cP, cQ, psi, psi1, r0, guard_radius, rel_tol, abs_tol, max_steps):
{unpack}
    direction = 1.0 if psi1 >= psi else -1.0
    psi_start = psi
    y_0 = r0
    y_1 = 0.0
    ps = psi
    rr = r0
{point}
    closest = hypot(rx, ry)
    try:
{field}
    except OverflowError:
        W = nan
    if not -inf < W < inf:
        raise IntegrationError(f"right-hand side not finite at psi={{psi:.6g}}",
                               closest_approach=closest)
    if {stalled}:
        return Trajectory([psi, psi], [(r0, 0.0), (r0, 0.0)], "stalled", 1, 0, closest)
{slope}
    # r's error is measured relative to r: abs_tol at r0, shrinking with r
    tol_r = abs_tol / r0 + rel_tol
    # initial step heuristic, on r alone: t starts at 0, where its scale
    # would be abs_tol, which return_map sizes for r
    u = tol_r * abs(y_0)
    d0 = abs(y_0) / u
    d1 = abs(k1_0) / u
    h = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6
    v = abs(psi1 - psi)
    h = direction * (v if v < h else h)
    nfev = 1
    steps = 0
    status = "finished"
    turned = False
    while (psi - psi1) * direction < 0:
        if steps >= max_steps:
            status = "max_steps"
            break
        ap = abs(psi)
        if abs(h) < 1e-15 * (ap if ap > 1.0 else 1.0):
            if turned:
                # the steps shrank onto a point where psi' vanishes
                status = "stalled"
                break
            raise IntegrationError(
                f"step size underflow at psi={{psi:.6g}}", closest_approach=closest)
        if (psi + h - psi1) * direction >= 0:
            h = psi1 - psi
            pn = psi1
        else:
            pn = psi + h
        nfev += 6
        try:
{stages}
        except (OverflowError, ZeroDivisionError):
            # float ** and / raise where a non-finite value would result:
            # reject the step like one with a non-finite error
            err = inf
            turned = False
        except Turned:
            # W lacks its sign at a stage: reject the step likewise
            err = inf
            turned = True
        else:
            # RMS norm of the embedded error estimate, scaled per component
            u = abs(y_0)
            v = abs(yn_0)
            r_0 = h * ({error_0}) / (tol_r * (v if v > u else u))
            u = abs(y_1)
            v = abs(yn_1)
            r_1 = h * ({error_1}) / (abs_tol + rel_tol * (v if v > u else u))
            err = sqrt((r_0 * r_0 + r_1 * r_1) / 2)
        if not err <= 1.0:  # also rejects a NaN error
            factor = 0.9 * err ** (-0.2)
            h *= factor if factor > 0.2 else 0.2
            continue
        steps += 1
        turned = False
        psi = pn
        y_0, y_1 = yn_0, yn_1
        d = hypot(rx, ry)
        closest = d if d < closest else closest
        if d > guard_radius:
            status = "escaped"
            break
        k1_0, k1_1 = k7_0, k7_1
        factor = 0.9 * err ** (-0.2) if err > 1e-10 else 10.0
        factor = factor if factor > 0.2 else 0.2
        h *= factor if factor < 10.0 else 10.0
    return Trajectory([psi_start, psi], [(r0, 0.0), (y_0, y_1)], status, nfev, steps, closest)
"""


def _weighted_sum(row, i: int) -> str:
    """Source of sum_j a_j * k_j[i] over one tableau row, term by term from
    the left, each weight the float nearest num/den and a negative one
    written as a subtraction."""
    out = ""
    for j, num, den in row:
        if not out:
            out = f"{num / den!r} * k{j}_{i}"
        else:
            out += f" {'-' if num < 0 else '+'} {abs(num) / den!r} * k{j}_{i}"
    return out


def _powers(exponents, v: str, axis: int) -> List[str]:
    """Lines that compute each power ``v**e`` with e > 1 that a term of P or
    Q reads (e is the term's i for ``axis`` 0, its j for ``axis`` 1) once,
    into ``v2``, ``v3``, ...; ``exponents`` holds the (i, j) of each term of
    P and of Q."""
    return [f"{v}{e} = {v} ** {e}"
            for e in sorted({m[axis] for comp in exponents for m in comp if m[axis] > 1})]


def _poly_source(exponents, units, coef: str, x: str, y: str) -> str:
    """Source of the sum of the terms c_k * x**i * y**j, (i, j) =
    ``exponents[k]``, from the left and in order, each power read from the
    name that :func:`_powers` binds.  ``units[k]`` is 1 or -1 when c_k is
    exactly that float and 0 otherwise: a term 0 reads c_k as ``{coef}{k}``,
    a term 1 is the product of its factors and a term -1 is subtracted, or
    negated when it comes first.  The floats are those of the plain sum of
    c_k*x**i*y**j: 1.0*a is a, and, rounding being sign-symmetric,
    a + (-1.0*u)*v is a - u*v."""
    out = ""
    for k, ((i, j), unit) in enumerate(zip(exponents, units)):
        factors = [v if e == 1 else f"{v}{e}" for v, e in ((x, i), (y, j)) if e]
        product = " * ".join(factors if unit else [f"{coef}{k}", *factors]) or "1.0"
        if out:
            out += f" {'-' if unit < 0 else '+'} {product}"
        else:
            out = ("-" if unit < 0 else "") + product
    return out or "0.0"


def _unpack(exponents) -> List[str]:
    """Lines that bind the coefficients ``a0, a1, ...`` of P from ``cP`` and
    ``b0, b1, ...`` of Q from ``cQ``."""
    return ["".join(f"{coef}{k}, " for k in range(len(comp))) + f"= {arg}"
            for coef, arg, comp in (("a", "cP", exponents[0]), ("b", "cQ", exponents[1]))
            if comp]


@functools.lru_cache(maxsize=16)
def _dopri_loop(exponents, units, p: int, q: int, positive: bool) -> Callable:
    """The stepping loop of :func:`integrate_adaptive` for one monomial
    structure of P and Q, its unit coefficients, the weights and the sign of
    W (``positive``), generated and compiled on first use.  ``exponents``
    and ``units`` hold, per component, the (i, j) of each term and its unit
    (1 or -1 for a coefficient exactly 1.0 or -1.0, else 0, which
    :func:`_poly_source` reads); the loop is called as ``loop(cP, cQ, psi,
    psi1, r0, guard_radius, rel_tol, abs_tol, max_steps)`` with the terms'
    float coefficients.  Each stage computes P and Q in place, so a step
    calls no right-hand side and builds no stage tuple.  The loop's label
    names the weights and the emitted P and Q, so that a profile keeps one
    entry per loop.

    A stage at node ``ps`` and radius ``rr`` computes the point
    rx = rr**p*cos(ps), ry = rr**q*sin(ps), P and Q there, W = p*rx*Q -
    q*ry*P and the two slopes; a weight 1 is left out, since rr**1 is rr and
    1*a is a.  A stage where W is finite and lacks its sign raises
    ``Turned``: the test is written for the sign, ``0 >= W > -inf`` or
    ``0 <= W < inf``, which is ``-inf < W*sign <= 0`` for a sign of +-1.
    Stages 6 and 7 both sit at the step's end, so stage 7 reads stage 6's
    cos, sin and p*cos^2 + q*sin^2; stage 2's t-slope is left out, since
    neither the 5th-order row nor the error row reads it.  ``max(u, v)`` is
    written ``v if v > u else u`` and ``min(u, v)`` ``v if v < u else u``,
    which is what the builtins compute, NaN included, and the error sum
    starts at its first square, which is what adding that square to 0.0
    gives.
    """
    rp, rq = ("rr" if e == 1 else f"r{e}" for e in (p, q))
    wp, wq = ("" if e == 1 else f"{e} * " for e in (p, q))
    angle = ["cs = cos(ps)", "sn = sin(ps)"]
    radius = [f"{name} = rr ** {e}" for name, e in ((rp, p), (rq, q)) if e > 1]
    radius += [f"rx = {rp} * cs", f"ry = {rq} * sn"]
    fP, fQ = (_poly_source(comp, unit, coef, "rx", "ry")
              for comp, unit, coef in zip(exponents, units, "ab"))
    field_ = [*_powers(exponents, "rx", 0), *_powers(exponents, "ry", 1), f"fP = {fP}",
              f"fQ = {fQ}", f"W = {wp}rx * fQ - {wq}ry * fP"]
    # a finite W without its sign; a non-finite one makes a non-finite error
    check = ["if 0 >= W > -inf:" if positive else "if 0 <= W < inf:", "    raise Turned"]

    def slope(k, weight=f"({wp}cs * cs + {wq}sn * sn)"):
        return [f"k{k}_0 = rr * ({rq} * cs * fP + {rp} * sn * fQ) / W",
                f"k{k}_1 = {rp} * {rq} * {weight} / W"]

    stages = []
    for s, row in enumerate(_STAGES, start=2):
        r_new = f"y_0 + h * ({_weighted_sum(row, 0)})"
        if s < 6:
            node = f"psi + {_NODES[s - 2][0] / _NODES[s - 2][1]!r} * h"
            # no row reads stage 2's t-slope
            stages += [f"ps = {node}", f"rr = {r_new}", *angle, *radius, *field_, *check,
                       *slope(s)[:1 if s == 2 else 2]]
        elif s == 6:
            stages += ["ps = pn", f"rr = {r_new}", *angle, *radius, *field_, *check,
                       f"ang = {wp}cs * cs + {wq}sn * sn", *slope(6, weight="ang")]
        else:
            stages += [f"yn_0 = {r_new}", f"yn_1 = y_1 + h * ({_weighted_sum(row, 1)})"]
    # stage 7 at ps = pn, where stage 6 left cs, sn and ang
    stages += ["rr = yn_0", *radius, *field_, *check, *slope(7, weight="ang")]
    src = _LOOP.format(unpack="\n".join(" " * 4 + line for line in _unpack(exponents)),
                       point="\n".join(" " * 4 + line for line in angle + radius),
                       field="\n".join(" " * 8 + line for line in field_),
                       stalled="W <= 0" if positive else "W >= 0",
                       slope="\n".join(" " * 4 + line for line in slope(1)),
                       stages="\n".join(" " * 12 + line for line in stages),
                       error_0=_weighted_sum(_ERROR, 0), error_1=_weighted_sum(_ERROR, 1))
    ns = {"Trajectory": Trajectory, "IntegrationError": IntegrationError, "Turned": _Turned,
          "inf": math.inf, "nan": math.nan,
          "sqrt": math.sqrt, "hypot": math.hypot, "cos": math.cos, "sin": math.sin}
    exec(compile(src, f"<dopri ({p},{q}) xdot = {fP}; ydot = {fQ}>", "exec"), ns)
    return ns["dopri_loop"]


# The trapezoid sums of the condition (ii) integrand (c*P + s*Q)/W, with
# W = p*c*Q - q*s*P, at the nodes tau*k/n, k = first, first + step, ... of
# the upper half turn k <= n/2, each node with its reflection (c, -s) when
# 0 < 2k < n.  {unpack} binds the coefficients; {node} computes P, Q, W and
# the integrand v at (c, s) and {reflected} the same as u at (c, -s).
_TRAPEZOID = """\
def trapezoid_sums(cP, cQ, n, first, step):
{unpack}
    total = size = 0.0
    for k in range(first, n // 2 + 1, step):
        if 2 * k == n:
            c, s = -1.0, 0.0
        else:
            c, s = cos(tau * k / n), sin(tau * k / n)
{node}
        size += abs(v)
        if 0 < 2 * k < n:
            m = -s
{reflected}
            size += abs(u)
            v += u
        total += v
    return total, size
"""


def _integrand_source(exponents, x: str, y: str, p: int, q: int, out: str) -> list:
    """Lines that compute the integrand at the point (``x``, ``y``) into
    ``out``: the powers of ``y`` (those of ``x`` are shared), P and Q from
    the coefficients ``a0, a1, ...`` and ``b0, b1, ...`` and (x*P + y*Q)/W,
    or inf where W is 0."""
    lines = _powers(exponents, y, 1)
    for name, coef, comp in (("P", "a", exponents[0]), ("Q", "b", exponents[1])):
        lines.append(f"{name}_{out} = {_poly_source(comp, (0,) * len(comp), coef, x, y)}")
    wp, wq = ("" if e == 1 else f"{e} * " for e in (p, q))
    lines += [f"W = {wp}{x} * Q_{out} - {wq}{y} * P_{out}",
              f"{out} = ({x} * P_{out} + {y} * Q_{out}) / W if W else inf"]
    return lines


@functools.lru_cache(maxsize=16)
def trapezoid_kernel(exponents, p: int, q: int) -> Callable:
    """The trapezoid sums of the condition (ii) integrand for one monomial
    structure and weights, generated and compiled on first use:
    ``exponents`` holds the (i, j) of each term of P and of Q, in the order
    of :func:`float_terms`.  The kernel is called as ``kernel(cP, cQ, n,
    first, step)`` with the terms' float coefficients and returns the sum of
    the integrand and the sum of its magnitude over the nodes
    2*pi*k/n, k = first, first + step, ... <= n/2, with psi = pi taken as
    exactly (-1.0, 0.0) and each node 0 < 2k < n joined by its reflection
    (c, -s), which is added to it before it enters the sum.  Every
    coefficient is read by name, so a sweep whose coefficients pass through
    1.0 keeps its one kernel; a weight 1 is left out, since 1*a is a."""
    node = _powers(exponents, "c", 0) + _integrand_source(exponents, "c", "s", p, q, "v")
    reflected = _integrand_source(exponents, "c", "m", p, q, "u")
    src = _TRAPEZOID.format(unpack="\n".join(" " * 4 + line for line in _unpack(exponents)),
                            node="\n".join(" " * 8 + line for line in node),
                            reflected="\n".join(" " * 12 + line for line in reflected))
    ns = {"cos": math.cos, "sin": math.sin, "inf": math.inf, "tau": 2 * math.pi}
    exec(compile(src, f"<trapezoid ({p},{q}) {exponents}>", "exec"), ns)
    return ns["trapezoid_sums"]


@dataclass
class ReturnSample:
    x0: float
    value: float          # Pi(x0), the returned point's coordinate on the section
    displacement: float
    return_time: float


@dataclass
class ReturnMapResult:
    transversal: str
    samples: List[ReturnSample]
    classification: str  # center_evidence | stable_focus_evidence | unstable_focus_evidence | inconclusive
    rel_tol: float
    warnings: List[str] = field(default_factory=list)
    nfev: int = 0


NO_WEIGHTS = ("no weights (p,q) of the Newton polygon make p*x*Q - q*y*P definite: "
              "monodromy not shown, nothing integrated")


def _section(transversal, p: int, q: int) -> Tuple[float, int, str]:
    """The section's psi0, the exponent e for which a point r of it has the
    coordinate r**e along it, and its name.  An angle is a section of the
    weighted polar coordinates only when p = q = 1 (ValueError otherwise)."""
    if transversal in ("x+", "x"):
        return 0.0, p, "positive x-axis"
    if transversal in ("y+", "y"):
        return math.pi / 2, q, "positive y-axis"
    angle = float(transversal)
    if p != q:
        raise ValueError(f"the monodromy weights are ({p},{q}), so a ray at an angle is "
                         "not a section of their polar angle; use the transversal x+ or y+")
    return angle, 1, f"ray at angle {angle:.6f}"


def return_map(s: PlaneSystem, x0_list: Sequence[float], transversal="x+",
               rel_tol: float = 1e-12, abs_tol: float = 1e-14,
               guard_radius: float = 1.0) -> ReturnMapResult:
    """First-return map on a section of the weighted polar angle.

    The weights come from :func:`structure.monodromy_weights`; with none,
    monodromy is not shown and nothing is integrated: the result is
    inconclusive, with the warning :data:`NO_WEIGHTS`.  Each x0 starts on
    the section psi0: x = x0 on the positive x-axis (psi0 = 0,
    r0 = x0^(1/p)), y = x0 on the positive y-axis (psi0 = pi/2,
    r0 = x0^(1/q)), or radius x0 on a ray at an angle, which needs
    p = q = 1.  One turn of psi later, the value is the end's coordinate on
    the section and the return time its t.  A run that escapes, stalls or
    reaches max_steps gives a warning and no sample.  The absolute
    tolerance of a radius is min(abs_tol, rel_tol*x0), so that a small orbit
    is resolved relative to its size, as the center test reads it; a radius
    beyond ``guard_radius``, or whose tolerance is not a positive normal
    float, is refused with ValueError before anything is integrated.
    Classification: center evidence when every
    |displacement| <= max(1e-9, 100*rel_tol)*x0, focus evidence on a
    consistent sign, inconclusive otherwise.
    """
    terms = float_terms(s)
    atols = []
    for x0 in x0_list:
        if x0 > guard_radius:
            raise ValueError(f"x0={x0} starts outside the guard radius {guard_radius}")
        atols.append(min(abs_tol, rel_tol * x0))
        if not atols[-1] >= sys.float_info.min:
            raise ValueError(f"x0={x0} is too small: its absolute tolerance "
                             f"min(abs_tol, rel_tol*x0) = {atols[-1]!r} is not a positive "
                             "normal float")
    weights = monodromy_weights(s)
    if weights is None:
        name = _section(transversal, 1, 1)[2]
        return ReturnMapResult(name, [], "inconclusive", rel_tol, [NO_WEIGHTS])
    psi0, e, name = _section(transversal, weights.p, weights.q)
    span = (psi0, psi0 + weights.sign * 2 * math.pi)
    samples: List[ReturnSample] = []
    warnings: List[str] = []
    nfev = 0
    for x0, atol in zip(x0_list, atols):
        traj = integrate_adaptive(terms, weights, x0 ** (1 / e), span, guard_radius,
                                  rel_tol=rel_tol, abs_tol=atol)
        nfev += traj.nfev
        if traj.status == "escaped":
            warnings.append(f"x0={x0}: orbit left the guard radius {guard_radius} "
                            "(evidence against monodromy)")
        elif traj.status == "stalled":
            warnings.append(f"x0={x0}: psi' vanished at psi={traj.psi[-1]:.6g}, where "
                            "p*x*Q - q*y*P lost its sign: no return")
        elif traj.status != "finished":
            warnings.append(f"x0={x0}: no return within {traj.steps} steps ({traj.status})")
        else:
            r, t = traj.y[-1]
            value = r ** e
            samples.append(ReturnSample(x0, value, value - x0, t))

    if not samples:
        cls = "inconclusive"
    else:
        tol = max(1e-9, 1e2 * rel_tol)
        if all(abs(sm.displacement) <= tol * sm.x0 for sm in samples):
            cls = "center_evidence"
        elif all(sm.displacement < 0 for sm in samples):
            cls = "stable_focus_evidence"
        elif all(sm.displacement > 0 for sm in samples):
            cls = "unstable_focus_evidence"
        else:
            cls = "inconclusive"
    return ReturnMapResult(name, samples, cls, rel_tol, warnings, nfev)
