"""Test-only reference stepping loops for ``centerlab.numeric``.

The package generates one Dormand-Prince 5(4) loop, which inlines a compiled
system and runs the return map's crossing test.  The tests check it against
two loops of their own, kept here; the package does not import this module.

- ``_tuple_loop_integrate`` steps on float tuples with list comprehensions,
  calls the right-hand side at every stage, keeps every accepted step and
  calls a step callback.  Its floats are those of the package's loop, bit
  for bit, so ``crossing_run`` (with ``CrossingWatch`` as the callback)
  predicts the package's ``Trajectory`` exactly, and ``_callback_return_map``
  its return map.  It takes any number of components, which the 3-state
  condition (ii) reference of ``test_qhomog`` uses, and gives dense output.
- ``_reference_integrate`` is the numpy loop on arrays that the scalar loops
  replaced, an independent check of the tableau and the step control.
"""

import math
import sys
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from centerlab import numeric
from centerlab.numeric import (
    Crossing,
    DenseSegment,
    IntegrationError,
    ReturnMapResult,
    ReturnSample,
    Trajectory,
    _ray,
    _refine_crossing,
    check_tolerance,
)


@dataclass
class Run:
    """Every accepted point and segment of a reference run, its counts and
    how it ended: "finished", "max_steps" or "event" (stopped by the step
    callback).  Calling it evaluates the dense output at a time."""

    t: List[float]
    y: List[tuple]
    segments: List[DenseSegment]
    status: str
    nfev: int
    steps: int
    closest_approach: float

    def __call__(self, t: float) -> tuple:
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


def _tuple_loop_integrate(f, state0, t_span, rel_tol=1e-10, abs_tol=1e-12,
                          max_steps=1_000_000, step_callback=None) -> Run:
    # the stepping loop on float tuples, with list comprehensions over zip
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
    scale = [abs_tol + rel_tol * abs(v) for v in y]
    d0 = max([abs(v) / s for v, s in zip(y, scale)])
    d1 = max([abs(v) / s for v, s in zip(fy, scale)])
    h = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6
    h = direction * min(h, abs(t1 - t0))
    ts = [t]
    ys = [y]
    segments = []
    steps = 0
    status = "finished"
    while (t - t1) * direction < 0:
        if steps >= max_steps:
            status = "max_steps"
            break
        if abs(h) < 1e-15 * max(1.0, abs(t)):
            raise IntegrationError(
                f"step size underflow at t={t:.6g}", closest_approach=closest)
        if (t + h - t1) * direction > 0:
            h = t1 - t
        k1 = fy
        nfev += 6
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
            err = math.inf
        else:
            acc = 0.0
            for a, a_new, b1, b3, b4, b5, b6, b7 in zip(y, y_new, k1, k3, k4, k5, k6, k7):
                r = (h * (71 / 57600 * b1 - 71 / 16695 * b3 + 71 / 1920 * b4
                          - 17253 / 339200 * b5 + 22 / 525 * b6 - 1 / 40 * b7)
                     / (abs_tol + rel_tol * max(abs(a), abs(a_new))))
                acc += r * r
            err = math.sqrt(acc / n)
        if not err <= 1.0:
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
    return Run(ts, ys, segments, status, nfev, steps, closest)


class CrossingWatch:
    """The stop test of a ``Crossing`` as a step callback: stop on leaving
    the guard radius (``escaped``), or at the first step after arming in
    which g changes sign towards ``want_sign`` on the ray's side and the
    crossing refined on that step's segment is on that side too (``hit``)."""

    def __init__(self, crossing: Crossing, abs_tol: float, state0):
        self.crossing = crossing
        self.arm_tol = 1e3 * abs_tol + 1e-12 * abs(crossing.x0)
        self.g = crossing.g(tuple(map(float, state0)))
        self.armed = False
        self.escaped = False
        self.hit: Optional[Tuple[float, tuple]] = None

    def __call__(self, seg, y_new) -> bool:
        ray = self.crossing
        g_old = self.g
        g_new = self.g = ray.g(y_new)
        want = ray.want_sign
        if math.hypot(*y_new) > ray.guard_radius:
            self.escaped = True
            return True
        if not self.armed:
            self.armed = abs(g_new) > self.arm_tol and g_new * want < 0
            return False
        if g_old * want < 0 <= g_new * want and ray.radial(y_new) > 0:
            tc, yc = _refine_crossing(seg, ray.g)
            if ray.radial(yc) > 0:
                self.hit = (tc, yc)
                return True
        return False


def crossing_run(f, state0, t_span, crossing, rel_tol=1e-10, abs_tol=1e-12,
                 max_steps=1_000_000) -> Tuple[Trajectory, Run]:
    """The ``Trajectory`` that ``integrate_adaptive`` returns for these
    arguments, predicted from the tuple loop with the crossing test as its
    step callback, and that loop's full run."""
    watch = CrossingWatch(crossing, abs_tol, state0)
    run = _tuple_loop_integrate(f, state0, t_span, rel_tol, abs_tol, max_steps, watch)
    status = "escaped" if watch.escaped else run.status
    kept = run.segments[-1:] if watch.hit else []
    traj = Trajectory([run.t[0], run.t[-1]], [run.y[0], run.y[-1]], kept, status,
                      run.nfev, run.steps, run.closest_approach, watch.hit)
    return traj, run


def _callback_return_map(s, x0_list, transversal="x+", rel_tol=1e-12, abs_tol=1e-14,
                         guard_radius=1.0):
    # the return map on the tuple loop, with the crossing test as a step
    # callback: the oracle for numeric.return_map and the Trajectory of each
    # of its integrations
    f = numeric.compile_system(s)
    cx, cy, name = _ray(transversal)
    for x0 in x0_list:
        if x0 > guard_radius:
            raise ValueError(f"x0={x0} starts outside the guard radius {guard_radius}")
        if not min(abs_tol, rel_tol * x0) >= sys.float_info.min:
            raise ValueError(f"x0={x0} is too small")
    samples, warnings, nfev, trajs = [], [], 0, []
    for x0 in x0_list:
        start = (cx * x0, cy * x0)
        ray = Crossing(cx, cy, 1.0, guard_radius, x0)
        g0dot = ray.g(f(*start))
        if g0dot == 0:
            warnings.append(f"x0={x0}: orbit tangent to the transversal at start")
            continue
        if not g0dot > 0:
            ray = ray._replace(want_sign=-1.0)
        traj, _ = crossing_run(f, start, (0.0, 1e9), ray, rel_tol=rel_tol,
                               abs_tol=min(abs_tol, rel_tol * x0))
        trajs.append(traj)
        nfev += traj.nfev
        if traj.status == "escaped":
            warnings.append(f"x0={x0}: orbit left the guard radius {guard_radius} "
                            "(evidence against monodromy)")
            continue
        if traj.crossing is None:
            warnings.append(f"x0={x0}: reached the time horizon 1e+09 without a return "
                            f"({traj.steps} steps)" if traj.status == "finished" else
                            f"x0={x0}: no return within {traj.steps} steps ({traj.status})")
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
    return ReturnMapResult(name, samples, cls, rel_tol, warnings, nfev), trajs


# -- the numpy stepping loop that the scalar loops replaced --

_REF_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_REF_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
_REF_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


@dataclass
class _RefSegment:
    t0: float
    h: float
    y0: np.ndarray
    Q: np.ndarray  # state_dim x 4

    def eval(self, t):
        theta = (t - self.t0) / self.h
        powers = np.array([theta, theta ** 2, theta ** 3, theta ** 4])
        return self.y0 + self.h * (self.Q @ powers)


def _reference_integrate(f, state0, t_span, rel_tol=1e-10, abs_tol=1e-12,
                         max_steps=1_000_000, step_callback=None):
    # the stepping loop as it was on numpy arrays, with its rejected-step count
    t0, t1 = t_span
    direction = 1.0 if t1 >= t0 else -1.0
    y = np.asarray(state0, dtype=float)
    n = len(y)
    t = t0
    k = np.empty((7, n))
    fy = np.asarray(f(*y))
    nfev = 1
    scale = abs_tol + rel_tol * np.abs(y)
    d0 = float(np.max(np.abs(y) / scale))
    d1 = float(np.max(np.abs(fy) / scale))
    h = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6
    h = direction * min(h, abs(t1 - t0))
    ts, ys, segments = [t], [y.copy()], []
    steps, rejected, status = 0, 0, "finished"
    hmin = 16 * abs(t1 - t0) * np.finfo(float).eps + 1e-300
    while (t - t1) * direction < 0:
        if steps >= max_steps:
            status = "max_steps"
            break
        if abs(h) < hmin or abs(h) < 1e-15 * max(1.0, abs(t)):
            raise IntegrationError(f"step size underflow at t={t:.6g}")
        if (t + h - t1) * direction > 0:
            h = t1 - t
        k[0] = fy
        for i in range(1, 7):
            yi = y + h * (k[:i].T @ _REF_A[i])
            k[i] = f(*yi)
        nfev += 6
        y_new = yi
        err_vec = h * (k.T @ _REF_E)
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        if err > 1.0:
            rejected += 1
            h *= max(0.2, 0.9 * err ** (-0.2))
            continue
        seg = _RefSegment(t, h, y.copy(), k.T @ _REF_P)
        segments.append(seg)
        steps += 1
        t += h
        y = y_new.copy()
        fy = k[6].copy()
        ts.append(t)
        ys.append(y.copy())
        if step_callback is not None and step_callback(seg, y):
            status = "event"
            break
        factor = 0.9 * err ** (-0.2) if err > 1e-10 else 10.0
        h *= min(10.0, max(0.2, factor))
    return ts, ys, segments, status, nfev, steps, rejected
