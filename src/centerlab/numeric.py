"""Adaptive ODE integration and Poincare return maps for numeric systems.

The integrator is the embedded Dormand-Prince 5(4) pair (Dormand & Prince,
J. Comput. Appl. Math. 6, 1980) with an I step-size controller.  It runs on
plain Python floats, because on two or three components array overhead
would cost far more than the right-hand side.  The stepping loop is Python
source generated from the tableau's nonzero entries and compiled on first
use: each component is a scalar local and every stage sum and the error sum
are written out term by term.  The order of those float operations is fixed
(it is that of the tableau's rows, left to right), so a run repeats bit for
bit and the loop gives the same states and step sizes as one over tuples
and lists.

A plain callable right-hand side gets one loop per number of state
components, which calls it at each stage.  A plane system compiled by
:func:`compile_system` carries its float terms, and gets a loop of its own
with that right-hand side written into each stage: no call and no stage
tuple per stage, and each power of x and y computed once per stage.  Those
floats equal the compiled function's bit for bit, because the inlined sums
keep its terms and factors in order and differ only where IEEE arithmetic
is exact: a factor 1.0 is left out, and a negative coefficient becomes a
subtraction, since rounding is sign-symmetric.

The stage sums, the error norm and the step-size control are shared by two
tails of the loop, each compiled once per loop.  The crossing tail runs the
return map's test (guard radius, arming, sign change of the distance from
the ray, radial side) inline after each accepted step and keeps nothing per
step: only the segment of the crossing is built, and the crossing is
refined by bisection on its dense output.  The dense tail keeps every
accepted step's stage derivatives as tuples, builds the quartic
dense-output interpolant from them only when a segment is evaluated, and
calls a step callback.  The package itself runs only compiled systems
through the crossing tail; the dense tail, the step callback and the
plain-callable loop serve the tests, as the reference runs that the
crossing tail and the inlined right-hand side are checked against.
Verdicts produced here are evidence only; they never override an exact
result.
"""

from __future__ import annotations

import functools
import math
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
    """An integration's kept points and segments, its counts and how it
    ended.  With the dense tail every accepted step is kept; with the
    crossing tail only the start and end points, and the one segment in
    which the crossing was found, with ``crossing`` its refined (t, state).
    ``status`` is "finished", "max_steps", "event" (stopped by the step
    callback or at a crossing) or "escaped" (left a crossing's guard
    radius)."""

    t: List[float]
    y: List[State]
    segments: List[DenseSegment]
    status: str
    nfev: int
    steps: int
    closest_approach: float
    crossing: Optional[Tuple[float, State]] = None

    def __call__(self, t: float) -> State:
        segs = self.segments
        if not segs:
            return self.y[0]
        # the first segment whose end is not before t in the direction of time
        sign = 1.0 if segs[0].h > 0 else -1.0
        lo, hi = 0, len(segs) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if (segs[mid].t0 + segs[mid].h - t) * sign < 0:
                lo = mid + 1
            else:
                hi = mid
        return segs[lo].eval(t)


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
                       rel_tol: float = 1e-10, abs_tol: float = 1e-12,
                       max_steps: int = 1_000_000,
                       step_callback: Optional[Callable] = None,
                       crossing: Optional[Crossing] = None) -> Trajectory:
    """Integrate dstate/dt = f(*state) over t_span with local error control.

    ``step_callback(segment, y_new)`` may return a truthy value to stop the
    integration early (event detection in the tests' reference runs; no
    package module passes one).  A step is accepted only
    when its error norm is at most 1, so a step with non-finite stages (or
    whose right-hand side overflows) is rejected and shrunk; if that never
    ends, the step size underflows and ``IntegrationError`` is raised.

    The steps run in the loop that :func:`_dopri_loop` generates: for a
    function from :func:`compile_system` (it carries ``float_terms``), one
    with that system's right-hand side written into each stage, and
    otherwise one per number of state components that calls ``f``.  The
    inlined right-hand side gives the floats that ``f`` returns, bit for
    bit (see :func:`_inline_rhs`).  The stage sums, error sum and
    comparisons are written out in the one fixed order of the tableau's
    rows, so every state, step size and stage derivative, and every return
    map and report built from them, repeats bit for bit.  The loop has two
    tails.  Given a ``crossing`` (a plane state only, and no callback), the
    crossing tail runs that stop test after each accepted step and keeps no
    per-step data: the trajectory holds the start and end points and at
    most the one segment of the crossing, so its memory does not grow with
    the number of steps.  Otherwise the dense tail keeps every accepted step
    as a segment and calls ``step_callback``; only the tests run it, and the
    plain-callable loop, as references.
    """
    check_tolerance("rel_tol", rel_tol)
    check_tolerance("abs_tol", abs_tol)
    if crossing is not None and (step_callback is not None or len(state0) != 2):
        raise ValueError("a crossing needs a plane state and no step callback")
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
    terms = getattr(f, "float_terms", None)
    loop = _dopri_loop(len(y), crossing is not None,
                       None if terms is None else _inline_rhs(terms))
    return loop(f, t0, t1, direction, y, fy, h, closest, rel_tol, abs_tol, max_steps,
                step_callback if crossing is None else crossing)


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

# The loop is one template with two tails.  Both share the stage sums, the
# error norm, the rejection of a step and the step-size control; they differ
# in what an accepted step keeps and in how the loop stops.
_LOOP = """\
def dopri_loop(f, t, t1, direction, y, k1, h, closest, rel_tol, abs_tol,
               max_steps, event):
    {y_} = y
    {k1_} = k1
{prologue}
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
{error}
        if not err <= 1.0:  # also rejects a NaN error
            factor = 0.9 * err ** (-0.2)
            h *= factor if factor > 0.2 else 0.2
            continue
{tail}
        factor = 0.9 * err ** (-0.2) if err > 1e-10 else 10.0
        factor = factor if factor > 0.2 else 0.2
        h *= factor if factor < 10.0 else 10.0
    return Trajectory({result})
"""

# dense tail: every accepted step is kept as a segment and shown to the
# step callback (``event``), which may stop the loop
_DENSE_PROLOGUE = """\
    ts = [t]
    ys = [y]
    segments = []"""
_DENSE_TAIL = """\
        seg = DenseSegment(t, h, y, {ks})
        segments.append(seg)
        steps += 1
        t += h
        y = ({yn_})
        {y_} = y
        {carry}
        ts.append(t)
        ys.append(y)
        r = hypot(y_0, y_1)
        closest = r if r < closest else closest
        if event is not None and event(seg, y):
            status = "event"
            break"""
_DENSE_RESULT = "ts, ys, segments, status, nfev, steps, closest"

# crossing tail: ``event`` is a Crossing.  An accepted step keeps nothing;
# g = -cy*y_0 + cx*y_1 is the signed distance from the ray's line, carried
# from one step to the next.  The loop stops when the orbit leaves the
# guard radius, or at the first step after arming in which g changes sign
# towards want_sign on the ray's side and the refined crossing is on that
# side too: only that step's segment is built and kept.
_CROSSING_PROLOGUE = """\
    t_start = t
    segments = []
    crossing = None
    cx = event.cx
    cy = event.cy
    want_sign = event.want_sign
    guard_radius = event.guard_radius
    arm_tol = 1e3 * abs_tol + 1e-12 * abs(event.x0)
    g_old = -cy * y_0 + cx * y_1
    armed = False"""
_CROSSING_TAIL = """\
        steps += 1
        r = hypot(yn_0, yn_1)
        closest = r if r < closest else closest
        g = -cy * yn_0 + cx * yn_1
        if r > guard_radius:
            status = "escaped"
            t += h
            {y_} = {yn_}
            break
        if not armed:
            # wait until the orbit has genuinely left the section
            armed = abs(g) > arm_tol and g * want_sign < 0
        elif g_old * want_sign < 0 <= g * want_sign and cx * yn_0 + cy * yn_1 > 0:
            seg = DenseSegment(t, h, ({y_}), {ks})
            crossing = refine_crossing(seg, event.g)
            if event.radial(crossing[1]) > 0:
                segments.append(seg)
                status = "event"
                t += h
                {y_} = {yn_}
                break
            crossing = None
        g_old = g
        t += h
        {y_} = {yn_}
        {carry}"""
_CROSSING_RESULT = ("[t_start, t], [y, ({y_})], segments, status, nfev, steps, closest, "
                    "crossing")


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
def _dopri_loop(n: int, crossing: bool = False, rhs: Optional[str] = None) -> Callable:
    """The stepping loop of :func:`integrate_adaptive` for states of ``n``
    components, generated and compiled on first use: with the dense tail,
    or with the crossing tail when ``crossing`` is true.

    Without ``rhs`` each stage calls the loop's argument ``f``; the tests
    keep that loop and the dense tail as references.  Given the
    source of :func:`_inline_rhs` (a plane system), each stage runs that
    source in place of the call, so a step calls no right-hand side and
    builds no stage tuple; the loop is then one system's, and its label
    names the system, so that a profile keeps one entry per system.  The
    cache is keyed by the source text, not by the float terms, since
    ``0.0 == -0.0`` would let two systems share a loop.

    Each component is a scalar local (``y_0``, ``k3_1``, ...), so a step
    builds no list and calls no ``zip``; the states and stage derivatives
    that a segment keeps are still tuples.  ``max(u, v)`` is written
    ``v if v > u else u`` and ``min(u, v)`` ``v if v < u else u``, which is
    what the builtins compute, NaN included, and the error sum starts at its
    first square, which is what adding that square to 0.0 gives.
    """
    comps = range(n)

    def names(prefix: str) -> str:
        return ", ".join(f"{prefix}{i}" for i in comps)

    def evaluate(s: int, args) -> list:
        # the stage derivative k{s} at the state args, as scalars k{s}_i
        if rhs is None:
            return [f"k{s} = f({', '.join(args)})", f"{names(f'k{s}_')} = k{s}"]
        return [f"rx = {args[0]}", f"ry = {args[1]}"] + rhs.format(k=f"k{s}").splitlines()

    stages = []
    for s, row in enumerate(_STAGES, start=2):
        args = [f"y_{i} + h * ({_weighted_sum(row, i)})" for i in comps]
        if s < 7:
            stages += evaluate(s, args)
        else:
            stages += [f"yn_{i} = {a}" for i, a in zip(comps, args)]
    stages += evaluate(7, [f"yn_{i}" for i in comps])
    error = []
    for i in comps:
        error.append(f"u = abs(y_{i})")
        error.append(f"v = abs(yn_{i})")
        error.append(f"r_{i} = h * ({_weighted_sum(_ERROR, i)})"
                     " / (abs_tol + rel_tol * (v if v > u else u))")
    error.append(f"err = sqrt(({' + '.join(f'r_{i} * r_{i}' for i in comps)}) / {n})")
    state = {"y_": names("y_"), "k1_": names("k1_"), "yn_": names("yn_")}
    if rhs is None:
        # the stage tuples that f returned; k7 is the next step's k1
        state["ks"] = "(k1, k2, k3, k4, k5, k6, k7)"
        state["carry"] = f"k1 = k7\n        {state['k1_']} = k7"
    else:
        # tuples only for a segment that is kept
        kept = ", ".join(f"({names(f'k{s}_')})" for s in range(1, 8))
        state["ks"] = f"({kept})"
        state["carry"] = f"{state['k1_']} = {names('k7_')}"
    prologue, tail, result = ((_CROSSING_PROLOGUE, _CROSSING_TAIL, _CROSSING_RESULT)
                              if crossing else (_DENSE_PROLOGUE, _DENSE_TAIL, _DENSE_RESULT))
    src = _LOOP.format(
        **state, prologue=prologue, tail=tail.format(**state), result=result.format(**state),
        stages="\n".join(" " * 12 + line for line in stages),
        error="\n".join(" " * 12 + line for line in error))
    ns = {"DenseSegment": DenseSegment, "Trajectory": Trajectory,
          "IntegrationError": IntegrationError, "inf": math.inf,
          "sqrt": math.sqrt, "hypot": math.hypot, "refine_crossing": _refine_crossing}
    label = f"dopri n={n} crossing" if crossing else f"dopri n={n}"
    if rhs is not None:
        xdot, ydot = (line.split(" = ", 1)[1] for line in rhs.splitlines()[-2:])
        label += f" xdot = {xdot}; ydot = {ydot}"
    exec(compile(src, f"<{label}>", "exec"), ns)
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

    For each starting radius the orbit is integrated until it crosses the ray
    again in the direction of its initial departure; the crossing is refined
    on the dense output of the step in which it happens.  The test runs in
    the integrator's crossing tail (see :class:`Crossing`), so an orbit of
    any number of steps keeps at most that one segment.  Classification:
    center evidence when every |displacement| <= max(1e-9, 100*rel_tol)*x0,
    focus evidence on a consistent sign, inconclusive otherwise.
    """
    f = compile_system(s)
    cx, cy, name = _ray(transversal)
    samples: List[ReturnSample] = []
    warnings: List[str] = []
    nfev = 0
    for x0 in x0_list:
        start = (cx * x0, cy * x0)
        ray = Crossing(cx, cy, 1.0, guard_radius, x0)
        g0dot = ray.g(f(*start))
        if g0dot == 0:
            warnings.append(f"x0={x0}: orbit tangent to the transversal at start")
            continue
        if not g0dot > 0:
            ray = ray._replace(want_sign=-1.0)
        traj = integrate_adaptive(f, start, (0.0, 1e9), rel_tol=rel_tol,
                                  abs_tol=abs_tol, crossing=ray)
        nfev += traj.nfev
        if traj.status == "escaped":
            warnings.append(f"x0={x0}: orbit left the guard radius {guard_radius} "
                            "(evidence against monodromy)")
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
