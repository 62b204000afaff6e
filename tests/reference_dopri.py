"""Test-only reference stepping loops for ``centerlab.numeric``.

The package generates one Dormand-Prince 5(4) loop, which integrates (r, t)
over the weighted polar angle psi with P and Q written into its stages.
The tests check it against loops of their own, kept here; the package does
not import this module.

- ``compile_system`` renders a system's float terms as a plain Python
  function f(x, y), each term ``c*x**i*y**j`` with its coefficient written
  out (``_render``), independently of the package's emitter.  It is the
  right-hand side that the references call.

- ``_tuple_loop_integrate`` steps on float tuples with list comprehensions,
  calls the right-hand side at every stage (given the stage's node when
  ``nodes`` is set), keeps every accepted step as a ``DenseSegment`` and
  calls a step callback.  On the psi right-hand side of ``psi_rhs``, which
  calls ``compile_system``'s ``f`` instead of inlining it, its floats are
  those of the package's loop, bit for bit, so ``psi_run`` predicts the
  package's ``Trajectory`` exactly and ``reference_return_map`` its return
  map.  It takes any number of components, which the 3-state condition (ii)
  reference of ``test_qhomog`` uses, and its dense output
  (``refine_crossing``) finds the crossings of the time-stepped references
  (``conftest.integrated_circle``).
- ``_reference_integrate`` is the numpy loop on arrays that the scalar loops
  replaced, an independent check of the tableau and the step control.
"""

import math
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from centerlab.numeric import (
    NO_WEIGHTS,
    IntegrationError,
    ReturnMapResult,
    ReturnSample,
    Trajectory,
    check_tolerance,
    float_terms,
)
from centerlab.structure import monodromy_weights
from centerlab.systems import PlaneSystem

State = Tuple[float, ...]


def compile_system(s: PlaneSystem) -> Callable:
    """Compile a parameter-free system into a float right-hand side f(x, y).

    The function carries the system's :func:`float_terms` as
    ``f.float_terms``, in the order in which ``f`` adds them: the loop that
    :func:`integrate_adaptive` generates from them computes the floats that
    ``f`` returns."""
    terms = float_terms(s)
    p, q = _render(terms[0]), _render(terms[1])
    src = f"def _f(x, y):\n    return ({p}, {q})\n"
    ns: dict = {}
    # a label per system, so that a profile keeps one entry for each
    exec(compile(src, f"<rhs xdot = {p}; ydot = {q}>", "exec"), ns)
    f = ns["_f"]
    f.float_terms = terms
    return f


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


def refine_crossing(seg: DenseSegment, gfun: Callable) -> Tuple[float, State]:
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


class Turned(ArithmeticError):
    """Raised by a psi right-hand side where W lacks its sign."""


@dataclass
class Run:
    """Every accepted point and segment of a reference run, its counts and
    how it ended: "finished", "max_steps", "event" (stopped by the step
    callback) or "stalled" (the step size underflowed after a stage raised
    ``Turned``).  Calling it evaluates the dense output at a time."""

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


def _plane_radius(t, y):
    return math.hypot(y[0], y[1])


def _tuple_loop_integrate(f, state0, t_span, rel_tol=1e-10, abs_tol=1e-12,
                          max_steps=1_000_000, step_callback=None, nodes=False,
                          radius=_plane_radius, var="t", sized_by=None) -> Run:
    # the stepping loop on float tuples, with list comprehensions over zip;
    # with ``nodes`` the right-hand side is called as f(t_s, *y_s).
    # ``radius(t, y)`` gives the closest approach, ``var`` names t in errors,
    # and the first step is sized on the first ``sized_by`` components.
    # The tolerances are numbers or tuples, one per component
    y = tuple([float(v) for v in state0])
    n = len(y)
    if not isinstance(rel_tol, tuple):
        check_tolerance("rel_tol", rel_tol)
        check_tolerance("abs_tol", abs_tol)
        rel_tol, abs_tol = (rel_tol,) * n, (abs_tol,) * n
    t0, t1 = t_span
    direction = 1.0 if t1 >= t0 else -1.0
    t = t0

    def rhs(ts, ys):
        return f(ts, *ys) if nodes else f(*ys)

    closest = radius(t, y)
    try:
        fy = rhs(t, y)
    except (OverflowError, ZeroDivisionError) as exc:
        raise IntegrationError(f"right-hand side not finite at {var}={t:.6g}",
                               closest_approach=closest) from exc
    nfev = 1
    scale = [a + r * abs(v) for v, a, r in zip(y[:sized_by], abs_tol, rel_tol)]
    d0 = max([abs(v) / s for v, s in zip(y, scale)])
    d1 = max([abs(v) / s for v, s in zip(fy, scale)])
    h = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6
    h = direction * min(h, abs(t1 - t0))
    ts = [t]
    ys = [y]
    segments = []
    steps = 0
    status = "finished"
    turned = False
    while (t - t1) * direction < 0:
        if steps >= max_steps:
            status = "max_steps"
            break
        if abs(h) < 1e-15 * max(1.0, abs(t)):
            if turned:
                status = "stalled"
                break
            raise IntegrationError(
                f"step size underflow at {var}={t:.6g}", closest_approach=closest)
        # the last step ends exactly on t1
        if (t + h - t1) * direction >= 0:
            h = t1 - t
            tn = t1
        else:
            tn = t + h
        k1 = fy
        nfev += 6
        try:
            k2 = rhs(t + 1 / 5 * h, [a + h * (1 / 5 * b1) for a, b1 in zip(y, k1)])
            k3 = rhs(t + 3 / 10 * h, [a + h * (3 / 40 * b1 + 9 / 40 * b2)
                                      for a, b1, b2 in zip(y, k1, k2)])
            k4 = rhs(t + 4 / 5 * h, [a + h * (44 / 45 * b1 - 56 / 15 * b2 + 32 / 9 * b3)
                                     for a, b1, b2, b3 in zip(y, k1, k2, k3)])
            k5 = rhs(t + 8 / 9 * h, [a + h * (19372 / 6561 * b1 - 25360 / 2187 * b2
                                              + 64448 / 6561 * b3 - 212 / 729 * b4)
                                     for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)])
            k6 = rhs(tn, [a + h * (9017 / 3168 * b1 - 355 / 33 * b2 + 46732 / 5247 * b3
                                   + 49 / 176 * b4 - 5103 / 18656 * b5)
                          for a, b1, b2, b3, b4, b5 in zip(y, k1, k2, k3, k4, k5)])
            y_new = tuple([a + h * (35 / 384 * b1 + 500 / 1113 * b3 + 125 / 192 * b4
                                    - 2187 / 6784 * b5 + 11 / 84 * b6)
                           for a, b1, b3, b4, b5, b6 in zip(y, k1, k3, k4, k5, k6)])
            k7 = rhs(tn, y_new)
        except Turned:
            err = math.inf
            turned = True
        except (OverflowError, ZeroDivisionError):
            err = math.inf
            turned = False
        else:
            acc = 0.0
            for a, a_new, b1, b3, b4, b5, b6, b7, atol, rtol in zip(
                    y, y_new, k1, k3, k4, k5, k6, k7, abs_tol, rel_tol):
                r = (h * (71 / 57600 * b1 - 71 / 16695 * b3 + 71 / 1920 * b4
                          - 17253 / 339200 * b5 + 22 / 525 * b6 - 1 / 40 * b7)
                     / (atol + rtol * max(abs(a), abs(a_new))))
                acc += r * r
            err = math.sqrt(acc / n)
        if not err <= 1.0:
            h *= max(0.2, 0.9 * err ** (-0.2))
            continue
        turned = False
        seg = DenseSegment(t, h, y, (k1, k2, k3, k4, k5, k6, k7))
        segments.append(seg)
        steps += 1
        t = tn
        y = y_new
        fy = k7
        ts.append(t)
        ys.append(y)
        closest = min(closest, radius(t, y))
        if step_callback is not None and step_callback(seg, t, y):
            status = "event"
            break
        factor = 0.9 * err ** (-0.2) if err > 1e-10 else 10.0
        h *= min(10.0, max(0.2, factor))
    return Run(ts, ys, segments, status, nfev, steps, closest)


def psi_point(p, q, psi, r):
    """The point (r^p*cos psi, r^q*sin psi) of the weighted polar
    coordinates, computed as the package's loop computes it."""
    return r ** p * math.cos(psi), r ** q * math.sin(psi)


def psi_rhs(f, p, q, sign):
    """The (dr/dpsi, dt/dpsi) right-hand side on the system ``f``, called
    with the stage's node; it raises ``Turned`` where W = p*x*Q - q*y*P
    lacks ``sign``."""
    def g(psi, r, t):
        c = math.cos(psi)
        s = math.sin(psi)
        rp = r ** p
        rq = r ** q
        x = rp * c
        y = rq * s
        P, Q = f(x, y)
        W = p * x * Q - q * y * P
        if -math.inf < W * sign <= 0:
            raise Turned
        return (r * (rq * c * P + rp * s * Q) / W, rp * rq * (p * c * c + q * s * s) / W)
    return g


def psi_run(f, weights, r0, psi_span, guard_radius=math.inf, rel_tol=1e-10, abs_tol=1e-12,
            max_steps=1_000_000) -> Tuple[Trajectory, Optional[Run]]:
    """The ``Trajectory`` that ``integrate_adaptive`` returns for these
    arguments, predicted from the tuple loop on ``psi_rhs``, with the guard
    radius as its step callback, and that loop's full run (None when W
    lacks its sign at the start, where nothing is integrated)."""
    check_tolerance("rel_tol", rel_tol)
    check_tolerance("abs_tol", abs_tol)
    p, q, sign = weights
    psi0, psi1 = float(psi_span[0]), float(psi_span[1])
    r0 = float(r0)

    def radius(psi, y):
        return math.hypot(*psi_point(p, q, psi, y[0]))

    x, y = psi_point(p, q, psi0, r0)
    closest = radius(psi0, (r0,))
    try:
        P, Q = f(x, y)
        v = (p * x * Q - q * y * P) * sign
    except OverflowError:
        v = math.nan
    if not -math.inf < v < math.inf:
        raise IntegrationError(f"right-hand side not finite at psi={psi0:.6g}",
                               closest_approach=closest)
    if v <= 0:
        return Trajectory([psi0, psi0], [(r0, 0.0), (r0, 0.0)], "stalled", 1, 0, closest), None
    escaped = []

    def guard(seg, psi, y_new):
        if radius(psi, y_new) > guard_radius:
            escaped.append(psi)
        return bool(escaped)

    # r's error relative to r, t's with both tolerances
    run = _tuple_loop_integrate(psi_rhs(f, p, q, sign), (r0, 0.0), (psi0, psi1),
                                (abs_tol / r0 + rel_tol, rel_tol), (0.0, abs_tol), max_steps,
                                guard, nodes=True, radius=radius, var="psi", sized_by=1)
    status = "escaped" if escaped else run.status
    traj = Trajectory([run.t[0], run.t[-1]], [run.y[0], run.y[-1]], status, run.nfev,
                      run.steps, run.closest_approach)
    return traj, run


def reference_return_map(s, x0_list, transversal="x+", rel_tol=1e-12, abs_tol=1e-14,
                         guard_radius=1.0):
    """The return map on the tuple loop: the oracle for
    ``numeric.return_map``, and the ``Trajectory`` of each of its
    integrations."""
    f = compile_system(s)
    for x0 in x0_list:
        if x0 > guard_radius:
            raise ValueError(f"x0={x0} starts outside the guard radius {guard_radius}")
        if not min(abs_tol, rel_tol * x0) >= sys.float_info.min:
            raise ValueError(f"x0={x0} is too small")
    w = monodromy_weights(s)
    p, q = (1, 1) if w is None else w[:2]
    if transversal in ("x+", "x"):
        psi0, e, name = 0.0, p, "positive x-axis"
    elif transversal in ("y+", "y"):
        psi0, e, name = math.pi / 2, q, "positive y-axis"
    else:
        if p != q:
            raise ValueError(f"the monodromy weights are ({p},{q})")
        psi0, e, name = float(transversal), 1, f"ray at angle {float(transversal):.6f}"
    if w is None:
        return ReturnMapResult(name, [], "inconclusive", rel_tol, [NO_WEIGHTS]), []
    samples, warnings, nfev, trajs = [], [], 0, []
    for x0 in x0_list:
        traj, _ = psi_run(f, w, x0 ** (1 / e), (psi0, psi0 + w.sign * 2 * math.pi),
                          guard_radius, rel_tol, min(abs_tol, rel_tol * x0))
        trajs.append(traj)
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
            value = traj.y[-1][0] ** e
            samples.append(ReturnSample(x0, value, value - x0, traj.y[-1][1]))
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
        if step_callback is not None and step_callback(seg, t, y):
            status = "event"
            break
        factor = 0.9 * err ** (-0.2) if err > 1e-10 else 10.0
        h *= min(10.0, max(0.2, factor))
    return ts, ys, segments, status, nfev, steps, rejected
