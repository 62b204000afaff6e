"""Adaptive ODE integration and Poincare return maps for numeric systems.

The integrator is the embedded Dormand-Prince 5(4) pair (Dormand & Prince,
J. Comput. Appl. Math. 6, 1980) with an I step-size controller.  It runs on
plain Python floats: states and stage derivatives are tuples and the stage
sums are unrolled over the tableau's nonzero entries, because on two or
three components array overhead would cost far more than the right-hand
side.  Each accepted step keeps its stage derivatives, and the quartic
dense-output interpolant is built from them only when a segment is
evaluated.  Event locations are refined by bisection on the dense output.
Verdicts produced here are evidence only; they never override an exact
result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

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
    """Compile a parameter-free system into a float right-hand side f(x, y)."""
    if not s.is_numeric():
        used = sorted((set(s.P.variables_present()) | set(s.Q.variables_present())) - {"x", "y"})
        raise ValueError(f"system must be numeric; specialize {used}")

    def render(p) -> str:
        if p.is_zero:
            return "0.0"
        parts = []
        # descending graded-lex order, as MPoly.sorted_terms lists them
        for (i, j), c in sorted(p.coefficients_in_vars(("x", "y")).items(),
                                key=lambda t: (sum(t[0]), t[0]), reverse=True):
            piece = repr(float(c.constant_value()))
            if i:
                piece += "*x" + (f"**{i}" if i > 1 else "")
            if j:
                piece += "*y" + (f"**{j}" if j > 1 else "")
            parts.append(piece)
        return " + ".join(parts)

    src = f"def _f(x, y):\n    return ({render(s.P)}, {render(s.Q)})\n"
    ns: dict = {}
    exec(src, ns)
    return ns["_f"]


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
    t: List[float]
    y: List[State]
    segments: List[DenseSegment]
    status: str
    nfev: int
    steps: int
    closest_approach: float

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

    @property
    def t_end(self) -> float:
        return self.t[-1]

    @property
    def y_end(self) -> State:
        return self.y[-1]


def check_tolerance(name: str, value: float) -> None:
    """Refuse an integration tolerance outside (0, 1e-4]."""
    if not (0 < value <= 1e-4):
        raise ValueError(f"{name} must be in (0, 1e-4]")


def integrate_adaptive(f: Callable, state0: Sequence[float], t_span: Tuple[float, float],
                       rel_tol: float = 1e-10, abs_tol: float = 1e-12,
                       max_steps: int = 1_000_000,
                       step_callback: Optional[Callable] = None) -> Trajectory:
    """Integrate dstate/dt = f(*state) over t_span with local error control.

    ``step_callback(segment, y_new)`` may return a truthy value to stop the
    integration early (used for event detection).  A step is accepted only
    when its error norm is at most 1, so a step with non-finite stages (or
    whose right-hand side overflows) is rejected and shrunk; if that never
    ends, the step size underflows and ``IntegrationError`` is raised.
    """
    check_tolerance("rel_tol", rel_tol)
    check_tolerance("abs_tol", abs_tol)
    t0, t1 = t_span
    direction = 1.0 if t1 >= t0 else -1.0
    y = tuple([float(v) for v in state0])
    n = len(y)
    t = t0
    closest = math.hypot(y[0], y[1])
    try:
        fy = f(*y)
    except (OverflowError, ZeroDivisionError) as exc:
        raise IntegrationError(f"right-hand side not finite at t={t:.6g}",
                               closest_approach=closest) from exc
    nfev = 1
    # initial step heuristic
    scale = [abs_tol + rel_tol * abs(v) for v in y]
    d0 = max([abs(v) / s for v, s in zip(y, scale)])
    d1 = max([abs(v) / s for v, s in zip(fy, scale)])
    h = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6
    h = direction * min(h, abs(t1 - t0))

    ts = [t]
    ys = [y]
    segments: List[DenseSegment] = []
    steps = 0
    status = "finished"

    while (t - t1) * direction < 0:
        if steps >= max_steps:
            status = "max_steps"
            break
        # the floor is the float resolution at t, not a share of the span:
        # a return map runs towards a far horizon that it never reaches
        if abs(h) < 1e-15 * max(1.0, abs(t)):
            raise IntegrationError(
                f"step size underflow at t={t:.6g}", closest_approach=closest)
        if (t + h - t1) * direction > 0:
            h = t1 - t
        k1 = fy
        nfev += 6
        # Dormand-Prince RK5(4) tableau, unrolled: stage i is evaluated at
        # y + h * sum_j a_ij k_j, and the stage-7 argument is the 5th-order
        # solution.
        try:
            k2 = f(*[a + h * (1 / 5 * b1) for a, b1 in zip(y, k1)])
            k3 = f(*[a + h * (3 / 40 * b1 + 9 / 40 * b2) for a, b1, b2 in zip(y, k1, k2)])
            k4 = f(*[a + h * (44 / 45 * b1 - 56 / 15 * b2 + 32 / 9 * b3)
                     for a, b1, b2, b3 in zip(y, k1, k2, k3)])
            k5 = f(*[a + h * (19372 / 6561 * b1 - 25360 / 2187 * b2 + 64448 / 6561 * b3
                              - 212 / 729 * b4)
                     for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)])
            k6 = f(*[a + h * (9017 / 3168 * b1 - 355 / 33 * b2 + 46732 / 5247 * b3
                              + 49 / 176 * b4 - 5103 / 18656 * b5)
                     for a, b1, b2, b3, b4, b5 in zip(y, k1, k2, k3, k4, k5)])
            y_new = tuple([a + h * (35 / 384 * b1 + 500 / 1113 * b3 + 125 / 192 * b4
                                    - 2187 / 6784 * b5 + 11 / 84 * b6)
                           for a, b1, b3, b4, b5, b6 in zip(y, k1, k3, k4, k5, k6)])
            k7 = f(*y_new)
        except (OverflowError, ZeroDivisionError):
            # float ** and / raise where a non-finite value would result:
            # reject the step like one with a non-finite error
            err = math.inf
        else:
            # RMS norm of the embedded error estimate, scaled per component
            acc = 0.0
            for a, a_new, b1, b3, b4, b5, b6, b7 in zip(y, y_new, k1, k3, k4, k5, k6, k7):
                r = (h * (71 / 57600 * b1 - 71 / 16695 * b3 + 71 / 1920 * b4
                          - 17253 / 339200 * b5 + 22 / 525 * b6 - 1 / 40 * b7)
                     / (abs_tol + rel_tol * max(abs(a), abs(a_new))))
                acc += r * r
            err = math.sqrt(acc / n)
        if not err <= 1.0:  # also rejects a NaN error
            h *= max(0.2, 0.9 * err ** (-0.2))
            continue
        seg = DenseSegment(t, h, y, (k1, k2, k3, k4, k5, k6, k7))
        segments.append(seg)
        steps += 1
        t += h
        y = y_new
        fy = k7
        ts.append(t)
        ys.append(y)
        closest = min(closest, math.hypot(y[0], y[1]))
        if step_callback is not None and step_callback(seg, y):
            status = "event"
            break
        factor = 0.9 * err ** (-0.2) if err > 1e-10 else 10.0
        h *= min(10.0, max(0.2, factor))
    return Trajectory(ts, ys, segments, status, nfev, steps, closest)


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
    on the dense output.  Classification: center evidence when every
    |displacement| <= max(1e-9, 100*rel_tol)*x0, focus evidence on a
    consistent sign, inconclusive otherwise.
    """
    f = compile_system(s)
    cx, cy, name = _ray(transversal)

    def gfun(state):
        return -cy * state[0] + cx * state[1]  # signed distance from the ray plane

    def radial(state):
        return cx * state[0] + cy * state[1]

    samples: List[ReturnSample] = []
    warnings: List[str] = []
    nfev = 0
    for x0 in x0_list:
        start = (cx * x0, cy * x0)
        g0dot = gfun(f(*start))
        if g0dot == 0:
            warnings.append(f"x0={x0}: orbit tangent to the transversal at start")
            continue
        want_sign = 1.0 if g0dot > 0 else -1.0
        state = {"armed": False, "hit": None, "escaped": False}

        def callback(seg, y_new):
            g_new = gfun(y_new)
            g_old = gfun(seg.y0)
            if math.hypot(*y_new) > guard_radius:
                state["escaped"] = True
                return True
            if not state["armed"]:
                # wait until the orbit has genuinely left the section
                if abs(g_new) > 1e3 * abs_tol + 1e-12 * abs(x0) and g_new * want_sign < 0:
                    state["armed"] = True
                return False
            if g_old * want_sign < 0 <= g_new * want_sign and radial(y_new) > 0:
                tc, yc = _refine_crossing(seg, gfun)
                if radial(yc) > 0:
                    state["hit"] = (tc, yc)
                    return True
            return False

        traj = integrate_adaptive(f, start, (0.0, 1e9), rel_tol=rel_tol,
                                  abs_tol=abs_tol, step_callback=callback)
        nfev += traj.nfev
        if state["escaped"]:
            warnings.append(f"x0={x0}: orbit left the guard radius {guard_radius} "
                            "(evidence against monodromy)")
            continue
        if state["hit"] is None:
            warnings.append(f"x0={x0}: no return within {traj.steps} steps ({traj.status})")
            continue
        tc, yc = state["hit"]
        value = radial(yc)
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
