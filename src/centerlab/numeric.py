"""Adaptive ODE integration and Poincare return maps for numeric systems.

The integrator is the embedded Dormand-Prince 5(4) pair (Dormand & Prince,
J. Comput. Appl. Math. 6, 1980) with an I step-size controller.  It runs on
plain Python floats, because on a plane state array overhead would cost far
more than the right-hand side.  The stepping loop is Python source generated
from the tableau's nonzero entries and compiled on first use, one loop per
system compiled by :func:`compile_system`: both components are scalar
locals, every stage sum and the error sum are written out term by term, and
the system's right-hand side is written into each stage, so a stage calls
no function, builds no tuple and computes each power of x and y once.  The
order of the float operations is fixed (that of the tableau's rows, left to
right, and of the system's terms), so a run repeats bit for bit.  The
inlined right-hand side gives the floats that the compiled function
returns: its sums keep that function's terms and factors in order and
differ only where IEEE arithmetic is exact (a factor 1.0 is left out, and a
negative coefficient becomes a subtraction, since rounding is
sign-symmetric).

After each accepted step the loop runs the return map's test (guard radius,
arming, sign change of the distance from the ray, radial side) and keeps
nothing per step: only the segment of the crossing is built, and the
crossing is refined by bisection on its dense output.  So a return map's
memory does not grow with its number of steps.  Verdicts produced here are
evidence only; they never override an exact result.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .systems import PlaneSystem
from .structure import CharacteristicDirections, characteristic_directions

State = Tuple[float, ...]

# Dense-output weights of the quartic interpolant of the 5(4) pair: row s
# holds the coefficients of theta, theta^2, theta^3, theta^4 multiplying the
# stage derivative k_s, for the stages 1, 3, 4, 5, 6, 7 (the row of stage 2
# is zero).
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)

# A return map integrates towards this time and reports an orbit that gets
# there without crossing its ray.
HORIZON = 1e9


class IntegrationError(RuntimeError):
    def __init__(self, message: str, closest_approach: Optional[float] = None):
        super().__init__(message)
        self.closest_approach = closest_approach


def compile_system(s: PlaneSystem) -> Callable:
    """Compile a parameter-free system into a float right-hand side f(x, y).

    The function carries the system's float terms as ``f.float_terms``: per
    component, the (coefficient, i, j) of each c*x**i*y**j in the order in
    which ``f`` adds them.  :func:`integrate_adaptive` writes these terms
    into its stepping loop.  A coefficient too large for a float raises
    ValueError."""
    if not s.is_numeric():
        used = sorted((set(s.P.variables_present()) | set(s.Q.variables_present())) - {"x", "y"})
        raise ValueError(f"system must be numeric; specialize {used}")
    terms = (_float_terms(s.P, "xdot"), _float_terms(s.Q, "ydot"))
    p, q = _render(terms[0]), _render(terms[1])
    src = f"def _f(x, y):\n    return ({p}, {q})\n"
    ns: dict = {}
    # a label per system, so that a profile keeps one entry for each
    exec(compile(src, f"<rhs xdot = {p}; ydot = {q}>", "exec"), ns)
    f = ns["_f"]
    f.float_terms = terms
    return f


def _float_terms(p, name: str) -> Tuple[Tuple[float, int, int], ...]:
    """The (float coefficient, i, j) of each term c*x**i*y**j of ``p``, in
    descending graded-lex order, as MPoly.sorted_terms lists them."""
    out = []
    for (i, j), c in sorted(p.coefficients_in_vars(("x", "y")).items(),
                            key=lambda t: (sum(t[0]), t[0]), reverse=True):
        try:
            out.append((float(c.constant_value()), i, j))
        except OverflowError:
            monomial = "*".join(v + (f"^{e}" if e > 1 else "")
                                for v, e in (("x", i), ("y", j)) if e) or "1"
            raise ValueError(f"{name}: the coefficient of {monomial} "
                             "is too large for a float") from None
    return tuple(out)


def _render(terms) -> str:
    """Source of the sum of ``terms`` in x and y, term by term from the left."""
    parts = []
    for c, i, j in terms:
        piece = repr(c)
        if i:
            piece += "*x" + (f"**{i}" if i > 1 else "")
        if j:
            piece += "*y" + (f"**{j}" if j > 1 else "")
        parts.append(piece)
    return " + ".join(parts) or "0.0"


@dataclass
class DenseSegment:
    """One accepted step: its start time, step size, start state and the
    seven stage derivatives, from which ``eval`` builds the interpolant."""

    t0: float
    h: float
    y0: State
    k: Tuple[State, ...]

    def eval(self, t: float) -> State:
        th = (t - self.t0) / self.h
        w1, w3, w4, w5, w6, w7 = [th * (a + th * (b + th * (c + th * d)))
                                  for a, b, c, d in _P]
        h = self.h
        k1, _, k3, k4, k5, k6, k7 = self.k
        return tuple([a + h * (w1 * b1 + w3 * b3 + w4 * b4 + w5 * b5 + w6 * b6 + w7 * b7)
                      for a, b1, b3, b4, b5, b6, b7 in zip(self.y0, k1, k3, k4, k5, k6, k7)])


@dataclass
class Trajectory:
    """How an integration ended: its start and end points, its counts, and
    at a crossing the one segment in which it was found (``segments``) with
    ``crossing`` its refined (t, state).  ``status`` is "finished" (reached
    the end of the span), "max_steps", "event" (stopped at a crossing) or
    "escaped" (left the crossing's guard radius)."""

    t: List[float]
    y: List[State]
    segments: List[DenseSegment]
    status: str
    nfev: int
    steps: int
    closest_approach: float
    crossing: Optional[Tuple[float, State]]


class Crossing(NamedTuple):
    """The return map's stop test, run inside the stepping loop: the first
    crossing of the ray from the origin along (cx, cy) in the direction
    ``want_sign`` of g, after the orbit has left the ray's line, or leaving
    ``guard_radius``.  ``x0`` is the starting radius, which sets how far
    from the line the orbit must get before a crossing counts."""

    cx: float
    cy: float
    want_sign: float
    guard_radius: float
    x0: float

    def g(self, state: State) -> float:
        """Signed distance of ``state`` from the ray's line."""
        return -self.cy * state[0] + self.cx * state[1]

    def radial(self, state: State) -> float:
        """Coordinate of ``state`` along the ray."""
        return self.cx * state[0] + self.cy * state[1]


def check_tolerance(name: str, value: float) -> None:
    """Refuse an integration tolerance outside (0, 1e-4]."""
    if not (0 < value <= 1e-4):
        raise ValueError(f"{name} must be in (0, 1e-4]")


def integrate_adaptive(f: Callable, state0: Sequence[float], t_span: Tuple[float, float],
                       crossing: Crossing, rel_tol: float = 1e-10, abs_tol: float = 1e-12,
                       max_steps: int = 1_000_000) -> Trajectory:
    """Integrate the plane system ``f`` from :func:`compile_system` over
    t_span with local error control, stopping at ``crossing``.

    The steps run in the loop that :func:`_dopri_loop` generates for the
    float terms that ``f`` carries; a function without them is refused with
    ValueError.  ``f`` itself is called once, for the first stage of the
    first step.  A step is accepted only when its error norm is at most 1,
    so a step with non-finite stages (or whose right-hand side overflows) is
    rejected and shrunk; if that never ends, the step size underflows and
    ``IntegrationError`` is raised.  After each accepted step the loop runs
    the stop test of ``crossing`` and keeps no per-step data: the trajectory
    holds the start and end points and at most the one segment of the
    crossing, so its memory does not grow with the number of steps.
    """
    check_tolerance("rel_tol", rel_tol)
    check_tolerance("abs_tol", abs_tol)
    terms = getattr(f, "float_terms", None)
    if terms is None:
        raise ValueError("the right-hand side must come from compile_system")
    t0, t1 = t_span
    direction = 1.0 if t1 >= t0 else -1.0
    y = tuple([float(v) for v in state0])
    closest = math.hypot(y[0], y[1])
    try:
        fy = f(*y)
    except (OverflowError, ZeroDivisionError) as exc:
        raise IntegrationError(f"right-hand side not finite at t={t0:.6g}",
                               closest_approach=closest) from exc
    # initial step heuristic
    scale = [abs_tol + rel_tol * abs(v) for v in y]
    d0 = max([abs(v) / s for v, s in zip(y, scale)])
    d1 = max([abs(v) / s for v, s in zip(fy, scale)])
    h = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6
    h = direction * min(h, abs(t1 - t0))
    loop = _dopri_loop(_inline_rhs(terms))
    return loop(t0, t1, direction, y, fy, h, closest, rel_tol, abs_tol, max_steps, crossing)


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
# weights of the embedded error estimate (5th- minus 4th-order solution)
_ERROR = ((1, 71, 57600), (3, -71, 16695), (4, 71, 1920), (5, -17253, 339200),
          (6, 22, 525), (7, -1, 40))

# The stepping loop.  ``event`` is a Crossing.  An accepted step keeps
# nothing; g = -cy*y_0 + cx*y_1 is the signed distance from the ray's line,
# carried from one step to the next.  The loop stops when the orbit leaves
# the guard radius, or at the first step after arming in which g changes
# sign towards want_sign on the ray's side and the refined crossing is on
# that side too: only that step's segment is built and kept.
_LOOP = """\
def dopri_loop(t, t1, direction, y, k1, h, closest, rel_tol, abs_tol,
               max_steps, event):
    y_0, y_1 = y
    k1_0, k1_1 = k1
    t_start = t
    segments = []
    crossing = None
    cx = event.cx
    cy = event.cy
    want_sign = event.want_sign
    guard_radius = event.guard_radius
    arm_tol = 1e3 * abs_tol + 1e-12 * abs(event.x0)
    g_old = -cy * y_0 + cx * y_1
    armed = False
    nfev = 1
    steps = 0
    status = "finished"
    while (t - t1) * direction < 0:
        if steps >= max_steps:
            status = "max_steps"
            break
        # the floor is the float resolution at t, not a share of the span:
        # a return map runs towards a far horizon that it never reaches
        at = abs(t)
        if abs(h) < 1e-15 * (at if at > 1.0 else 1.0):
            raise IntegrationError(
                f"step size underflow at t={{t:.6g}}", closest_approach=closest)
        if (t + h - t1) * direction > 0:
            h = t1 - t
        nfev += 6
        try:
{stages}
        except (OverflowError, ZeroDivisionError):
            # float ** and / raise where a non-finite value would result:
            # reject the step like one with a non-finite error
            err = inf
        else:
            # RMS norm of the embedded error estimate, scaled per component
            u = abs(y_0)
            v = abs(yn_0)
            r_0 = h * ({error_0}) / (abs_tol + rel_tol * (v if v > u else u))
            u = abs(y_1)
            v = abs(yn_1)
            r_1 = h * ({error_1}) / (abs_tol + rel_tol * (v if v > u else u))
            err = sqrt((r_0 * r_0 + r_1 * r_1) / 2)
        if not err <= 1.0:  # also rejects a NaN error
            factor = 0.9 * err ** (-0.2)
            h *= factor if factor > 0.2 else 0.2
            continue
        steps += 1
        r = hypot(yn_0, yn_1)
        closest = r if r < closest else closest
        g = -cy * yn_0 + cx * yn_1
        if r > guard_radius:
            status = "escaped"
            t += h
            y_0, y_1 = yn_0, yn_1
            break
        if not armed:
            # wait until the orbit has genuinely left the section
            armed = abs(g) > arm_tol and g * want_sign < 0
        elif g_old * want_sign < 0 <= g * want_sign and cx * yn_0 + cy * yn_1 > 0:
            seg = DenseSegment(t, h, (y_0, y_1), {ks})
            crossing = refine_crossing(seg, event.g)
            if event.radial(crossing[1]) > 0:
                segments.append(seg)
                status = "event"
                t += h
                y_0, y_1 = yn_0, yn_1
                break
            crossing = None
        g_old = g
        t += h
        y_0, y_1 = yn_0, yn_1
        k1_0, k1_1 = k7_0, k7_1
        factor = 0.9 * err ** (-0.2) if err > 1e-10 else 10.0
        factor = factor if factor > 0.2 else 0.2
        h *= factor if factor < 10.0 else 10.0
    return Trajectory([t_start, t], [y, (y_0, y_1)], segments, status, nfev, steps, closest, crossing)
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


def _inline_rhs(terms) -> str:
    """Source of one stage's right-hand side, from the terms that
    :func:`compile_system` attaches: it reads the stage's state from ``rx``
    and ``ry`` and writes ``{k}_0`` and ``{k}_1``, to be formatted with a
    stage name.  Each power rx**e or ry**e with e > 1 is computed once (into
    ``rx2``, ``ry3``, ...), a coefficient 1.0 is left out and a negative one
    is written as a subtraction, or as a leading minus.

    Every float equals the one the compiled ``f`` returns: 1.0*a is a,
    a + (-c)*u*v is a - c*u*v because rounding is sign-symmetric, and a
    power computed once is the same float each time it is read.  Powers stay
    ``**``, and the terms and the factors of each keep ``f``'s order.  A
    coefficient's sign is read from its repr, so -0.0 is written as a
    subtraction too."""
    powers = sorted({(v, e) for comp in terms for _, i, j in comp
                     for v, e in (("rx", i), ("ry", j)) if e > 1})
    lines = [f"{v}{e} = {v}**{e}" for v, e in powers]
    for out, comp in zip(("{k}_0", "{k}_1"), terms):
        expr = ""
        for c, i, j in comp:
            coef = repr(c)
            factors = [v if e == 1 else f"{v}{e}" for v, e in (("rx", i), ("ry", j)) if e]
            size = coef.lstrip("-")
            if size != "1.0" or not factors:
                factors.insert(0, size)
            minus = coef.startswith("-")
            if expr:
                expr += f" {'-' if minus else '+'} {'*'.join(factors)}"
            else:
                expr = ("-" if minus else "") + "*".join(factors)
        lines.append(f"{out} = {expr or '0.0'}")
    return "\n".join(lines)


@functools.lru_cache(maxsize=16)
def _dopri_loop(rhs: str) -> Callable:
    """The stepping loop of :func:`integrate_adaptive` for one system,
    generated and compiled on first use from ``rhs``, the source that
    :func:`_inline_rhs` writes for its float terms: each stage runs that
    source, so a step calls no right-hand side and builds no stage tuple.
    The loop's label names the system, so that a profile keeps one entry
    per system.  The cache is keyed by the source text, not by the float
    terms, since ``0.0 == -0.0`` would let two systems share a loop.

    Each component is a scalar local (``y_0``, ``k3_1``, ...), so a step
    builds no list and calls no ``zip``; the state and stage derivatives of
    a crossing's segment are still tuples.  ``max(u, v)`` is written
    ``v if v > u else u`` and ``min(u, v)`` ``v if v < u else u``, which is
    what the builtins compute, NaN included, and the error sum starts at its
    first square, which is what adding that square to 0.0 gives.
    """
    stages = []
    for s, row in enumerate(_STAGES, start=2):
        x, y = (f"y_{i} + h * ({_weighted_sum(row, i)})" for i in (0, 1))
        if s < 7:
            stages += [f"rx = {x}", f"ry = {y}", *rhs.format(k=f"k{s}").splitlines()]
        else:
            stages += [f"yn_0 = {x}", f"yn_1 = {y}"]
    stages += ["rx = yn_0", "ry = yn_1", *rhs.format(k="k7").splitlines()]
    # the state and stage derivatives of a crossing's segment, as tuples
    ks = ", ".join(f"(k{s}_0, k{s}_1)" for s in range(1, 8))
    src = _LOOP.format(stages="\n".join(" " * 12 + line for line in stages), ks=f"({ks})",
                       error_0=_weighted_sum(_ERROR, 0), error_1=_weighted_sum(_ERROR, 1))
    ns = {"DenseSegment": DenseSegment, "Trajectory": Trajectory,
          "IntegrationError": IntegrationError, "inf": math.inf,
          "sqrt": math.sqrt, "hypot": math.hypot, "refine_crossing": _refine_crossing}
    xdot, ydot = (line.split(" = ", 1)[1] for line in rhs.splitlines()[-2:])
    exec(compile(src, f"<dopri xdot = {xdot}; ydot = {ydot}>", "exec"), ns)
    return ns["dopri_loop"]


def _refine_crossing(seg: DenseSegment, gfun: Callable) -> Tuple[float, State]:
    """Bisection for g(y(t)) = 0 over one dense segment; the bracket is
    shrunk until the crossing coordinate is within 1e-12."""
    lo, hi = seg.t0, seg.t0 + seg.h
    glo = gfun(seg.eval(lo))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = gfun(seg.eval(mid))
        if gm == 0.0:
            lo = hi = mid
            break
        if (gm > 0) == (glo > 0):
            lo, glo = mid, gm
        else:
            hi = mid
        if abs(gm) < 1e-12 and (hi - lo) < 1e-12 * max(1.0, abs(mid)):
            break
    tcross = 0.5 * (lo + hi)
    return tcross, seg.eval(tcross)


@dataclass
class ReturnSample:
    x0: float
    value: float          # Pi(x0), radial coordinate on the transversal
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



def _ray(transversal) -> Tuple[float, float, str]:
    if transversal in ("x+", "x"):
        return 1.0, 0.0, "positive x-axis"
    if transversal in ("y+", "y"):
        return 0.0, 1.0, "positive y-axis"
    angle = float(transversal)
    return math.cos(angle), math.sin(angle), f"ray at angle {angle:.6f}"


def return_map(s: PlaneSystem, x0_list: Sequence[float], transversal="x+",
               rel_tol: float = 1e-12, abs_tol: float = 1e-14,
               guard_radius: float = 1.0) -> ReturnMapResult:
    """First-return map on a ray from the origin.

    For each starting radius x0 the orbit is integrated until it crosses the
    ray again in the direction of its initial departure, or reaches the time
    :data:`HORIZON`; the crossing is refined on the dense output of the step
    in which it happens.  The test runs in the integrator's stepping loop
    (see :class:`Crossing`), so an orbit of any number of steps keeps at most
    that one segment.  The absolute tolerance of a radius is
    min(abs_tol, rel_tol*x0), so that a small orbit is resolved relative to
    its size, as the center test below reads it.  A radius beyond
    ``guard_radius``, or whose tolerance is not a positive normal float, is
    refused with ValueError before anything is integrated.
    Classification: center evidence when every
    |displacement| <= max(1e-9, 100*rel_tol)*x0, focus evidence on a
    consistent sign, inconclusive otherwise.
    """
    f = compile_system(s)
    cx, cy, name = _ray(transversal)
    atols = []
    for x0 in x0_list:
        if x0 > guard_radius:
            raise ValueError(f"x0={x0} starts outside the guard radius {guard_radius}")
        atols.append(min(abs_tol, rel_tol * x0))
        if not atols[-1] >= sys.float_info.min:
            raise ValueError(f"x0={x0} is too small: its absolute tolerance "
                             f"min(abs_tol, rel_tol*x0) = {atols[-1]!r} is not a positive "
                             "normal float")
    samples: List[ReturnSample] = []
    warnings: List[str] = []
    nfev = 0
    for x0, atol in zip(x0_list, atols):
        start = (cx * x0, cy * x0)
        ray = Crossing(cx, cy, 1.0, guard_radius, x0)
        g0dot = ray.g(f(*start))
        if g0dot == 0:
            warnings.append(f"x0={x0}: orbit tangent to the transversal at start")
            continue
        if not g0dot > 0:
            ray = ray._replace(want_sign=-1.0)
        traj = integrate_adaptive(f, start, (0.0, HORIZON), ray, rel_tol=rel_tol,
                                  abs_tol=atol)
        nfev += traj.nfev
        if traj.status == "escaped":
            warnings.append(f"x0={x0}: orbit left the guard radius {guard_radius} "
                            "(evidence against monodromy)")
            continue
        if traj.status == "finished":
            warnings.append(f"x0={x0}: reached the time horizon {HORIZON:g} without a "
                            f"return ({traj.steps} steps)")
            continue
        if traj.crossing is None:
            warnings.append(f"x0={x0}: no return within {traj.steps} steps ({traj.status})")
            continue
        tc, yc = traj.crossing
        value = ray.radial(yc)
        samples.append(ReturnSample(x0, value, value - x0, tc))

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


@dataclass
class MonodromicVerdict:
    directions: CharacteristicDirections
    return_result: ReturnMapResult
    summary: str


def classify_monodromic(s: PlaneSystem, x0_list: Sequence[float] = (0.02, 0.05, 0.1),
                        transversal="x+") -> MonodromicVerdict:
    """Candidate characteristic directions together with return-map evidence.

    Both parts are evidence, not proof; discrepancies with exact results
    should be resolved in favor of the exact ones.
    """
    dirs = characteristic_directions(s)
    rm = return_map(s, x0_list, transversal=transversal)
    summary = (f"{len(dirs.directions)} candidate characteristic direction(s); "
               f"return map: {rm.classification}")
    return MonodromicVerdict(dirs, rm, summary)
