"""Adaptive ODE integration and Poincare return maps for numeric systems.

The integrator is an embedded Dormand-Prince 5(4) pair with the standard
quartic dense-output interpolant and PI step control.  Event locations are
refined by bisection on the dense output.  Verdicts produced here are
evidence only; they never override an exact result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .systems import PlaneSystem
from .structure import CharacteristicDirections, characteristic_directions

# Dormand-Prince RK5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
# dense-output coefficients (quartic interpolant of the 5(4) pair)
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


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
        ix, iy = p.vars.index("x"), p.vars.index("y")
        parts = []
        for e, c in p.sorted_terms():
            piece = repr(float(c))
            if e[ix]:
                piece += "*x" + (f"**{e[ix]}" if e[ix] > 1 else "")
            if e[iy]:
                piece += "*y" + (f"**{e[iy]}" if e[iy] > 1 else "")
            parts.append(piece)
        return " + ".join(parts)

    src = f"def _f(x, y):\n    return ({render(s.P)}, {render(s.Q)})\n"
    ns: dict = {}
    exec(src, ns)
    return ns["_f"]


@dataclass
class DenseSegment:
    t0: float
    h: float
    y0: np.ndarray
    Q: np.ndarray  # state_dim x 4

    def eval(self, t: float) -> np.ndarray:
        theta = (t - self.t0) / self.h
        powers = np.array([theta, theta ** 2, theta ** 3, theta ** 4])
        return self.y0 + self.h * (self.Q @ powers)


@dataclass
class Trajectory:
    t: List[float]
    y: List[np.ndarray]
    segments: List[DenseSegment]
    status: str
    nfev: int
    steps: int
    closest_approach: float

    def __call__(self, t: float) -> np.ndarray:
        lo, hi = 0, len(self.segments) - 1
        if not self.segments:
            return self.y[0]
        while lo < hi:
            mid = (lo + hi) // 2
            if self.segments[mid].t0 + self.segments[mid].h < t:
                lo = mid + 1
            else:
                hi = mid
        return self.segments[lo].eval(t)

    @property
    def t_end(self) -> float:
        return self.t[-1]

    @property
    def y_end(self) -> np.ndarray:
        return self.y[-1]


def integrate_adaptive(f: Callable, state0: Sequence[float], t_span: Tuple[float, float],
                       rel_tol: float = 1e-10, abs_tol: float = 1e-12,
                       max_steps: int = 1_000_000,
                       step_callback: Optional[Callable] = None) -> Trajectory:
    """Integrate dstate/dt = f(*state) over t_span with local error control.

    ``step_callback(segment, y_new)`` may return a truthy value to stop the
    integration early (used for event detection).
    """
    if not (0 < rel_tol <= 1e-4):
        raise ValueError("rel_tol must be in (0, 1e-4]")
    if not (0 < abs_tol <= 1e-4):
        raise ValueError("abs_tol must be in (0, 1e-4]")
    t0, t1 = t_span
    direction = 1.0 if t1 >= t0 else -1.0
    y = np.asarray(state0, dtype=float)
    n = len(y)
    t = t0
    k = np.empty((7, n))
    fy = np.asarray(f(*y))
    nfev = 1
    # initial step heuristic
    scale = abs_tol + rel_tol * np.abs(y)
    d0 = float(np.max(np.abs(y) / scale))
    d1 = float(np.max(np.abs(fy) / scale))
    h = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6
    h = direction * min(h, abs(t1 - t0))

    ts = [t]
    ys = [y.copy()]
    segments: List[DenseSegment] = []
    closest = float(np.hypot(*y[:2]))
    steps = 0
    status = "finished"
    hmin = 16 * abs(t1 - t0) * np.finfo(float).eps + 1e-300

    while (t - t1) * direction < 0:
        if steps >= max_steps:
            status = "max_steps"
            break
        if abs(h) < hmin or abs(h) < 1e-15 * max(1.0, abs(t)):
            raise IntegrationError(
                f"step size underflow at t={t:.6g}", closest_approach=closest)
        if (t + h - t1) * direction > 0:
            h = t1 - t
        k[0] = fy
        failed = False
        for i in range(1, 7):
            yi = y + h * (k[:i].T @ _A[i])
            k[i] = f(*yi)
        nfev += 6
        y_new = yi  # stage 7 argument equals the 5th-order solution
        err_vec = h * (k.T @ _E)
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        if err > 1.0:
            h *= max(0.2, 0.9 * err ** (-0.2))
            continue
        seg = DenseSegment(t, h, y.copy(), k.T @ _P)
        segments.append(seg)
        steps += 1
        t += h
        y = y_new.copy()
        fy = k[6].copy()
        ts.append(t)
        ys.append(y.copy())
        closest = min(closest, float(np.hypot(*y[:2])))
        if step_callback is not None and step_callback(seg, y):
            status = "event"
            break
        factor = 0.9 * err ** (-0.2) if err > 1e-10 else 10.0
        h *= min(10.0, max(0.2, factor))
    return Trajectory(ts, ys, segments, status, nfev, steps, closest)


def integrate_system(s: PlaneSystem, state0, t_span, rel_tol=1e-10, abs_tol=1e-12,
                     **kw) -> Trajectory:
    return integrate_adaptive(compile_system(s), state0, t_span,
                              rel_tol=rel_tol, abs_tol=abs_tol, **kw)


def _refine_crossing(seg: DenseSegment, gfun: Callable, tol: float = 1e-12) -> Tuple[float, np.ndarray]:
    """Bisection for g(y(t)) = 0 over one dense segment; the bracket is
    shrunk until the crossing coordinate is within ``tol``."""
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
        if abs(gm) < tol and (hi - lo) < tol * max(1.0, abs(mid)):
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
               guard_radius: float = 1.0, max_steps: int = 1_000_000) -> ReturnMapResult:
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
        start = np.array([cx * x0, cy * x0])
        g0dot = gfun(f(*start))
        if g0dot == 0:
            warnings.append(f"x0={x0}: orbit tangent to the transversal at start")
            continue
        want_sign = 1.0 if g0dot > 0 else -1.0
        state = {"armed": False, "hit": None, "escaped": False}

        def callback(seg, y_new):
            g_new = gfun(y_new)
            g_old = gfun(seg.y0)
            if float(np.hypot(*y_new)) > guard_radius:
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
                                  abs_tol=abs_tol, max_steps=max_steps,
                                  step_callback=callback)
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
                        transversal="x+", **kw) -> MonodromicVerdict:
    """Candidate characteristic directions together with return-map evidence.

    Both parts are evidence, not proof; discrepancies with exact results
    should be resolved in favor of the exact ones.
    """
    dirs = characteristic_directions(s)
    rm = return_map(s, x0_list, transversal=transversal, **kw)
    summary = (f"{len(dirs.directions)} candidate characteristic direction(s); "
               f"return map: {rm.classification}")
    return MonodromicVerdict(dirs, rm, summary)
