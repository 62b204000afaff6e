import glob
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass

import numpy as np
import pytest

from centerlab import numeric, qhomog
from centerlab.numeric import (
    Crossing,
    DenseSegment,
    IntegrationError,
    ReturnMapResult,
    ReturnSample,
    Trajectory,
    _dopri_loop,
    _inline_rhs,
    _ray,
    _refine_crossing,
    classify_monodromic,
    check_tolerance,
    compile_system,
    integrate_adaptive,
    return_map,
)
from centerlab.systems import parse_system, substitute

from conftest import DEG_FACTORED, HAM_QH, HOMOG_CUBIC, NIL_DARBOUX, NIL_REVERSIBLE, poly

import test_qhomog


def integrate_system(s, state0, t_span, rel_tol=1e-10, abs_tol=1e-12, **kw):
    return integrate_adaptive(compile_system(s), state0, t_span,
                              rel_tol=rel_tol, abs_tol=abs_tol, **kw)


def test_circle_returns_after_two_pi():
    s = parse_system("xdot = -y; ydot = x")
    traj = integrate_system(s, (1.0, 0.0), (0.0, 2 * math.pi),
                            rel_tol=1e-12, abs_tol=1e-14)
    assert np.hypot(traj.y[-1][0] - 1.0, traj.y[-1][1]) <= 1e-9


def test_dense_output_accuracy():
    s = parse_system("xdot = -y; ydot = x")
    traj = integrate_system(s, (1.0, 0.0), (0.0, 6.0), rel_tol=1e-12, abs_tol=1e-14)
    for t in (0.5, 1.7, 3.3, 5.9):
        state = traj(t)
        assert abs(state[0] - math.cos(t)) < 1e-9
        assert abs(state[1] - math.sin(t)) < 1e-9


def test_energy_conservation_weighted_hamiltonian():
    s = substitute(parse_system(HAM_QH), {"a": 1, "b": 1})
    H = poly("y^4/4 + x^6/6", s.vars)
    start = (0.8, 0.0)
    # one revolution: return to the x-axis from below
    hits = []

    def cb(seg, y_new):
        if seg.t0 + seg.h > 0.5 and seg.y0[1] < 0 <= y_new[1] and y_new[0] > 0:
            hits.append(seg.t0 + seg.h)
            return True
        return False

    traj = integrate_adaptive(compile_system(s), start, (0.0, 1e4),
                              rel_tol=1e-12, abs_tol=1e-14, step_callback=cb)
    h0 = H.eval_float({"x": start[0], "y": start[1]})
    h1 = H.eval_float({"x": traj.y[-1][0], "y": traj.y[-1][1]})
    assert hits
    assert abs(h1 - h0) <= 1e-9


def test_darboux_instance_first_integral_conserved():
    s = substitute(parse_system(NIL_DARBOUX), {"a": 1, "c": 1})

    def H(x, y):
        return (1 + x) ** (-2.0) * (1 + y) ** (-2.0) * (x ** 4 + y ** 2)

    traj = integrate_system(s, (0.15, 0.0), (0.0, 12.0), rel_tol=1e-11, abs_tol=1e-13)
    h0 = H(0.15, 0.0)
    drift = max(abs(H(*traj(t)) - h0) for t in np.linspace(0.1, traj.t[-1], 40))
    assert drift <= 1e-8 * abs(h0)


def test_tolerance_rejected_out_of_range():
    s = parse_system("xdot = -y; ydot = x")
    with pytest.raises(ValueError):
        integrate_system(s, (1, 0), (0, 1), rel_tol=1e-3)


def test_return_map_reversible_nilpotent_center():
    s = parse_system(NIL_REVERSIBLE)
    rm = return_map(s, [0.02, 0.05, 0.1])
    assert rm.classification == "center_evidence"
    for sm in rm.samples:
        assert abs(sm.displacement) <= 1e-9 * sm.x0 + 1e-13


def test_return_map_factored_degenerate_center():
    s = parse_system(DEG_FACTORED)
    rm = return_map(s, [0.05, 0.1])
    assert rm.classification == "center_evidence"


def test_return_map_perturbed_cubic_center():
    # reversible member of the cubic family at eps = 1
    s = parse_system("xdot = y + y^2; ydot = -x - x^3 + x*y^2")
    rm = return_map(s, [0.05, 0.1])
    assert rm.classification == "center_evidence"


def test_return_map_radial_focus():
    s = parse_system("xdot = -y - x*(x^2 + y^2); ydot = x - y*(x^2 + y^2)")
    rm = return_map(s, [0.05, 0.1, 0.2])
    assert rm.classification == "stable_focus_evidence"
    assert all(sm.displacement < 0 for sm in rm.samples)
    s2 = parse_system("xdot = -y + x*(x^2 + y^2); ydot = x + y*(x^2 + y^2)")
    rm2 = return_map(s2, [0.05, 0.1])
    assert rm2.classification == "unstable_focus_evidence"


def test_return_map_guard_radius():
    s = parse_system("xdot = -y + x*(x^2 + y^2); ydot = x + y*(x^2 + y^2)")
    rm = return_map(s, [0.9], guard_radius=1.0)
    assert any("guard" in w for w in rm.warnings)


def test_displacement_shrinks_with_tolerance():
    # for a true center the displacement is integrator noise: halving the
    # tolerances reduces it by at least 4x
    s = parse_system(NIL_REVERSIBLE)
    d1 = abs(return_map(s, [0.1], rel_tol=1e-9, abs_tol=1e-11).samples[0].displacement)
    d2 = abs(return_map(s, [0.1], rel_tol=1e-12, abs_tol=1e-14).samples[0].displacement)
    assert d2 <= d1 / 4 or d1 < 1e-13


def test_time_reversed_integration_recovers_start():
    s = parse_system(DEG_FACTORED)
    f = compile_system(s)
    fwd = integrate_adaptive(f, (0.2, 0.05), (0.0, 3.0), rel_tol=1e-11, abs_tol=1e-13)
    back = integrate_adaptive(lambda x, y: tuple(-v for v in f(x, y)),
                              fwd.y[-1], (0.0, 3.0), rel_tol=1e-11, abs_tol=1e-13)
    assert np.hypot(back.y[-1][0] - 0.2, back.y[-1][1] - 0.05) <= 1e-10


def test_compile_rejects_symbolic_system():
    with pytest.raises(ValueError, match="numeric"):
        compile_system(parse_system("xdot = a*y; ydot = -x"))


@pytest.mark.parametrize("text,message", [
    ("xdot = -y + 10^400*x^5; ydot = x", "xdot: the coefficient of x^5 "),
    ("xdot = -y; ydot = x - 10^309*x^2*y/2", "ydot: the coefficient of x^2*y "),
    ("xdot = -y + x*y/10^400; ydot = x + 10^400*y^3", "ydot: the coefficient of y^3 "),
], ids=["xdot", "negative", "after-an-underflow"])
def test_compile_names_a_coefficient_too_large_for_a_float(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}is too large for a float$"):
        compile_system(parse_system(text))


def test_classify_monodromic_combines_evidence():
    s = substitute(parse_system("xdot = -a*y^3; ydot = eps*x^3 + b*x^5"),
                   {"a": 1, "b": 1, "eps": 1})
    v = classify_monodromic(s, x0_list=[0.3, 0.5])
    assert not v.directions.directions and not v.directions.every_direction
    assert v.return_result.classification == "center_evidence"

    h = substitute(parse_system(HAM_QH), {"a": 1, "b": 1})
    v2 = classify_monodromic(h, x0_list=[0.5], transversal="y+")
    assert len(v2.directions.directions) == 1
    assert v2.return_result.classification == "center_evidence"

    lf = parse_system("xdot = -y - x/10; ydot = x")
    v3 = classify_monodromic(lf, x0_list=[0.05, 0.1])
    assert v3.return_result.classification == "stable_focus_evidence"


def test_step_underflow_reports_closest_approach():
    # finite-time blowup forces the step size under the floor
    with pytest.raises(IntegrationError) as err:
        integrate_adaptive(lambda x, y: (1 + x * x, 0.0), (0.0, 0.0), (0.0, 10.0),
                           rel_tol=1e-10, abs_tol=1e-12)
    assert err.value.closest_approach is not None


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_step_is_rejected(bad):
    # a NaN error norm compares false with 1.0; such a step must not be
    # accepted: the step shrinks until it underflows
    with pytest.raises(IntegrationError) as err:
        integrate_adaptive(lambda x, y: (bad if x > 0.5 else 1.0, 0.0), (0.0, 0.25), (0.0, 10.0))
    assert "underflow at t=0.5" in str(err.value)
    assert err.value.closest_approach == pytest.approx(0.25)


def test_right_hand_side_overflow_is_rejected():
    # float ** raises OverflowError once 2^(2000 x) passes the float range,
    # near x = 0.512; the trial steps beyond it are rejected until underflow
    with pytest.raises(IntegrationError) as err:
        integrate_adaptive(lambda x, y: (1.0, 2.0 ** (2000 * x)), (0.0, 0.0), (0.0, 10.0))
    assert "underflow at t=0.512" in str(err.value)
    assert err.value.closest_approach == 0.0
    with pytest.raises(IntegrationError, match="not finite") as err:
        integrate_adaptive(lambda x, y: (x ** 2000, 0.0), (2.0, 0.0), (0.0, 1.0))
    assert err.value.closest_approach == 2.0


# -- differential test against the numpy stepping loop the scalar core replaced --

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


def _assert_same_run(f, state0, t_span, **kw):
    # numpy sums the stage dot products in BLAS (with fused multiply-adds), so
    # the two loops round differently and their step sizes agree only to the
    # rounding that the error estimate's cancellation amplifies.  The step
    # sequence (steps, evaluations, rejections) must be the same, and the new
    # dense output must reproduce the reference states at the reference times.
    ref_t, ref_y, ref_segs, ref_status, ref_nfev, ref_steps, ref_rejected = \
        _reference_integrate(f, state0, t_span, **kw)
    got = integrate_adaptive(f, state0, t_span, **kw)
    assert (got.status, got.steps, got.nfev) == (ref_status, ref_steps, ref_nfev)
    assert (got.nfev - 1) // 6 - got.steps == ref_rejected
    assert len(got.segments) == len(ref_segs) == got.steps
    size = max(float(np.max(np.abs(v))) for v in ref_y)

    def close(a, b):
        return all(abs(u - v) <= 1e-12 * size for u, v in zip(a, b))

    assert all(close(got(t), y) for t, y in zip(ref_t[1:], ref_y[1:]))
    if got.status == "finished":
        assert got.t[-1] == ref_t[-1] and close(got.y[-1], ref_y[-1])
    for ref in ref_segs[::max(1, len(ref_segs) // 40)]:
        for theta in (0.1, 0.37, 0.5, 0.93):
            t = ref.t0 + theta * ref.h
            assert close(got(t), ref.eval(t))
    return got, ref_rejected


def test_dense_segment_matches_reference_interpolant():
    rng = np.random.default_rng(7)
    for n in (2, 3):
        for _ in range(50):
            y0 = rng.uniform(-1, 1, n)
            k = rng.uniform(-2, 2, (7, n))
            t0 = float(rng.uniform(-5, 5))
            h = float(rng.choice([-1, 1]) * rng.uniform(1e-3, 0.5))
            seg = DenseSegment(t0, h, tuple(y0.tolist()), tuple(map(tuple, k.tolist())))
            ref = _RefSegment(t0, h, y0, k.T @ _REF_P)
            for theta in (0.0, 0.2, 0.5, 0.81, 1.0):
                t = t0 + theta * h
                # the quartic's coefficients reach ~30: rounding-level agreement
                assert np.allclose(seg.eval(t), ref.eval(t), rtol=0, atol=1e-13)


def test_scalar_core_matches_numpy_reference_harmonic():
    got, _ = _assert_same_run(lambda x, y: (-y, x), (1.0, 0.0), (0.0, 6.0),
                              rel_tol=1e-12, abs_tol=1e-14)
    assert got.status == "finished" and got.steps > 100


def test_scalar_core_matches_numpy_reference_return_map_stop():
    # reversible nilpotent center: first return to the positive x-axis,
    # located on the dense output
    f = compile_system(parse_system(NIL_REVERSIBLE))
    hit = []

    def callback(seg, y_new):
        if seg.y0[1] > 0 >= y_new[1] and y_new[0] > 0:
            hit.append(_refine_crossing(seg, lambda st: st[1]))
            return True
        return False

    got, _ = _assert_same_run(f, (0.1, 0.0), (0.0, 1e9), rel_tol=1e-12, abs_tol=1e-14,
                              step_callback=callback)
    assert got.status == "event" and len(hit) == 2
    (t_new, y_new), (t_ref, y_ref) = hit
    assert abs(t_new - t_ref) <= 1e-12 * t_ref
    assert abs(y_new[0] - y_ref[0]) <= 1e-12 * 0.1


def test_scalar_core_matches_numpy_reference_condition_ii(monkeypatch):
    # the 3-state (Cs, Sn, integral) right-hand side of condition (ii),
    # captured from the integrations of the double Dormand-Prince quadrature
    # that test_qhomog keeps as the reference for the trapezoid rule
    calls = []
    real = test_qhomog.integrate_adaptive

    def spy(*args, **kw):
        calls.append((args, kw))
        return real(*args, **kw)

    monkeypatch.setattr(test_qhomog, "integrate_adaptive", spy)
    s = substitute(parse_system(HOMOG_CUBIC), {"lambda": 1, "mu": 1})
    test_qhomog.reference_period_integral(s, qhomog.QHSignature(1, 1, 3))
    three_state = [c for c in calls if len(c[0][1]) == 3]
    assert len(three_state) == 2
    for args, kw in three_state:
        got, rejected = _assert_same_run(*args, **kw)
        assert got.status == "event"
    assert rejected > 0


def test_scalar_core_matches_numpy_reference_time_reversed():
    f = compile_system(parse_system(DEG_FACTORED))
    got, _ = _assert_same_run(f, (0.2, 0.05), (0.0, -3.0), rel_tol=1e-11, abs_tol=1e-13)
    assert got.t[-1] == -3.0 and all(seg.h < 0 for seg in got.segments)


def test_dense_output_on_time_reversed_span():
    traj = integrate_adaptive(lambda x, y: (-y, x), (1.0, 0.0), (0.0, -3.0),
                              rel_tol=1e-11, abs_tol=1e-13)
    for t in (-0.4, -1.0, -2.9):
        state = traj(t)
        assert abs(state[0] - math.cos(t)) < 1e-9
        assert abs(state[1] - math.sin(t)) < 1e-9


def test_scalar_core_matches_numpy_reference_max_steps():
    got, _ = _assert_same_run(lambda x, y: (-y, x), (1.0, 0.0), (0.0, 100.0),
                              rel_tol=1e-12, abs_tol=1e-14, max_steps=25)
    assert got.status == "max_steps" and got.steps == 25


# -- bit-exact test against the tuple loop that the generated loop replaced --

def _tuple_loop_integrate(f, state0, t_span, rel_tol=1e-10, abs_tol=1e-12,
                          max_steps=1_000_000, step_callback=None):
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
    return Trajectory(ts, ys, segments, status, nfev, steps, closest)


def _assert_bit_identical(f, state0, t_span, **kw):
    # == on every field (t, y, each segment's t0/h/y0/k, nfev, steps, status,
    # closest_approach); repr also tells -0.0 from 0.0
    ref = _tuple_loop_integrate(f, state0, t_span, **kw)
    got = integrate_adaptive(f, state0, t_span, **kw)
    assert got == ref
    assert repr(got) == repr(ref)
    return got


def test_generated_loop_bit_identical_harmonic():
    got = _assert_bit_identical(lambda x, y: (-y, x), (1.0, 0.0), (0.0, 6.0),
                                rel_tol=1e-12, abs_tol=1e-14)
    assert got.status == "finished" and got.steps > 100


def test_generated_loop_bit_identical_return_map_stop():
    f = compile_system(parse_system(NIL_REVERSIBLE))

    def callback(seg, y_new):
        return seg.y0[1] > 0 >= y_new[1] and y_new[0] > 0

    got = _assert_bit_identical(f, (0.1, 0.0), (0.0, 1e9), rel_tol=1e-12, abs_tol=1e-14,
                                step_callback=callback)
    assert got.status == "event" and got.steps > 100


def test_generated_loop_bit_identical_condition_ii(monkeypatch):
    # the 3-state (Cs, Sn, integral) right-hand side of condition (ii), as in
    # the numpy-reference test above
    calls = []
    real = test_qhomog.integrate_adaptive

    def spy(*args, **kw):
        calls.append((args, kw))
        return real(*args, **kw)

    monkeypatch.setattr(test_qhomog, "integrate_adaptive", spy)
    s = substitute(parse_system(HOMOG_CUBIC), {"lambda": 1, "mu": 1})
    test_qhomog.reference_period_integral(s, qhomog.QHSignature(1, 1, 3))
    three_state = [c for c in calls if len(c[0][1]) == 3]
    assert len(three_state) == 2
    for args, kw in three_state:
        assert _assert_bit_identical(*args, **kw).status == "event"


def test_generated_loop_bit_identical_time_reversed():
    f = compile_system(parse_system(DEG_FACTORED))
    got = _assert_bit_identical(f, (0.2, 0.05), (0.0, -3.0), rel_tol=1e-11, abs_tol=1e-13)
    assert got.t[-1] == -3.0 and all(seg.h < 0 for seg in got.segments)


def test_generated_loop_bit_identical_max_steps():
    got = _assert_bit_identical(lambda x, y: (-y, x), (1.0, 0.0), (0.0, 100.0),
                                rel_tol=1e-12, abs_tol=1e-14, max_steps=25)
    assert got.status == "max_steps" and got.steps == 25


def test_generated_loop_bit_identical_overflow_rejection():
    # math.exp raises OverflowError on trial stages that leave |y| < 1.001:
    # those steps are rejected and shrunk, and the run still finishes
    overflows = []

    def f(x, y):
        if abs(y) > 1.001:
            overflows.append(y)
            return (-y, math.exp(1e3))
        return (-y, x)

    got = _assert_bit_identical(f, (1.0, 0.0), (0.0, 6.0), rel_tol=1e-4, abs_tol=1e-6)
    assert got.status == "finished" and overflows
    # and a run that ends in step-size underflow raises the same error
    errors = []
    for integrate in (_tuple_loop_integrate, integrate_adaptive):
        with pytest.raises(IntegrationError) as err:
            integrate(lambda x, y: (1.0, 2.0 ** (2000 * x)), (0.0, 0.0), (0.0, 10.0))
        errors.append((str(err.value), err.value.closest_approach))
    assert errors[0] == errors[1]


def test_loop_built_on_first_use_and_shared_per_dimension():
    # importing numeric generates no loop; every 2-state integration of a
    # plain callable runs the one loop built for n = 2, and a 3-state one
    # builds its own
    code = (
        "from centerlab import numeric\n"
        "info = numeric._dopri_loop.cache_info\n"
        "assert info().currsize == 0, info()\n"
        "numeric.integrate_adaptive(lambda x, y: (-y, x), (1.0, 0.0), (0.0, 1.0))\n"
        "numeric.integrate_adaptive(lambda x, y: (y, -x), (0.5, 0.0), (0.0, 2.0))\n"
        "assert info()[:2] == (1, 1) and info().currsize == 1, info()\n"
        "numeric.integrate_adaptive(lambda x, y, z: (-y, x, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0))\n"
        "assert info().currsize == 2, info()\n"
        # a return map builds its system's crossing loop on its first call,
        # and every later return map of that system runs that one
        "from centerlab.systems import parse_system\n"
        "s = parse_system('xdot = -y; ydot = x')\n"
        "assert info().currsize == 2, info()\n"
        "numeric.return_map(s, [0.1, 0.2])\n"
        "assert info().currsize == 3, info()\n"
        "hits = info().hits\n"
        "numeric.return_map(s, [0.3], transversal='y+')\n"
        "assert info().currsize == 3 and info().hits == hits + 1, info()\n"
        # a second system builds its own crossing loop
        "numeric.return_map(parse_system('xdot = -y^3; ydot = x^3'), [0.1])\n"
        "assert info().currsize == 4 and info().hits == hits + 1, info()\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_generated_code_names_its_source(monkeypatch):
    # profiles and tracebacks name the compiled right-hand side and the
    # generated loop, not "<string>"; each system and each tail has its own
    # label, which cProfile keys its entries by
    f = compile_system(parse_system("xdot = -y; ydot = x"))
    assert f.__code__.co_filename == "<rhs xdot = -1.0*y; ydot = 1.0*x>"
    g = compile_system(parse_system("xdot = -y^3; ydot = x^3 + x^5"))
    assert g.__code__.co_filename == "<rhs xdot = -1.0*y**3; ydot = 1.0*x**5 + 1.0*x**3>"
    assert _dopri_loop(2).__code__.co_filename == "<dopri n=2>"
    assert _dopri_loop(2, True).__code__.co_filename == "<dopri n=2 crossing>"
    # a loop with a system's right-hand side inlined names that system
    labels = {(fn, crossing): _dopri_loop(2, crossing, _inline_rhs(fn.float_terms))
              .__code__.co_filename for fn in (f, g) for crossing in (False, True)}
    assert labels == {
        (f, False): "<dopri n=2 xdot = -ry; ydot = rx>",
        (f, True): "<dopri n=2 crossing xdot = -ry; ydot = rx>",
        (g, False): "<dopri n=2 xdot = -ry3; ydot = rx5 + rx3>",
        (g, True): "<dopri n=2 crossing xdot = -ry3; ydot = rx5 + rx3>",
    }
    # and it is the loop that a return map of that system runs
    loops = []

    def spy(*args):
        loops.append(_dopri_loop(*args))
        return loops[-1]

    monkeypatch.setattr(numeric, "_dopri_loop", spy)
    return_map(parse_system("xdot = -y^3; ydot = x^3 + x^5"), [0.05])
    assert [loop.__code__.co_filename for loop in loops] == [labels[g, True]]


# -- bit-exact test against the return map that ran on the dense tail --

def _callback_return_map(s, x0_list, transversal="x+", rel_tol=1e-12, abs_tol=1e-14,
                         guard_radius=1.0):
    # the return map as a step callback on the dense tail, which keeps every
    # segment: the oracle for the crossing tail.  f is a plain callable, so
    # the oracle runs the loop that calls it at every stage, and the return
    # map, which inlines the system, is checked against that loop too
    compiled = numeric.compile_system(s)
    f = lambda x, y: compiled(x, y)  # noqa: E731
    cx, cy, name = _ray(transversal)

    def gfun(state):
        return -cy * state[0] + cx * state[1]

    def radial(state):
        return cx * state[0] + cy * state[1]

    samples, warnings, nfev, trajs = [], [], 0, []
    for x0 in x0_list:
        start = (cx * x0, cy * x0)
        g0dot = gfun(f(*start))
        if g0dot == 0:
            warnings.append(f"x0={x0}: orbit tangent to the transversal at start")
            continue
        want_sign = 1.0 if g0dot > 0 else -1.0
        state = {"armed": False, "hit": None, "escaped": False, "g": gfun(start)}

        def callback(seg, y_new):
            g_old = state["g"]
            g_new = state["g"] = gfun(y_new)
            if math.hypot(*y_new) > guard_radius:
                state["escaped"] = True
                return True
            if not state["armed"]:
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
        trajs.append(traj)
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
    return ReturnMapResult(name, samples, cls, rel_tol, warnings, nfev), trajs


def _assert_same_return_map(s, x0_list, **kw):
    # == and repr on every sample, warning, nfev and the classification; the
    # crossing tail's steps, counts, closest approach and end point equal the
    # dense tail's, and it keeps at most the segment of the crossing
    ref, ref_trajs = _callback_return_map(s, x0_list, **kw)
    got_trajs = []
    real = numeric.integrate_adaptive

    def spy(*args, **kwargs):
        got_trajs.append(real(*args, **kwargs))
        return got_trajs[-1]

    numeric.integrate_adaptive = spy
    try:
        got = return_map(s, x0_list, **kw)
    finally:
        numeric.integrate_adaptive = real
    assert got == ref
    assert repr(got) == repr(ref)
    assert len(got_trajs) == len(ref_trajs)
    for g, r in zip(got_trajs, ref_trajs):
        assert (g.steps, g.nfev, g.closest_approach) == (r.steps, r.nfev, r.closest_approach)
        assert (g.t, g.y) == ([r.t[0], r.t[-1]], [r.y[0], r.y[-1]])
        assert g.status == ("escaped" if r.status == "event" and g.crossing is None
                            else r.status)
        assert g.segments == ([] if g.crossing is None else [r.segments[-1]])
    return got


def _numeric_system_files():
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    out = []
    for path in sorted(glob.glob(os.path.join(root, "sample_systems", "*.sys"))
                       + glob.glob(os.path.join(root, "bench", "systems", "*.sys"))):
        with open(path) as fh:
            s = parse_system(fh.read())
        if s.is_numeric():
            out.append((os.path.basename(path), s))
    return out


_NUMERIC_SYSTEMS = _numeric_system_files()
_BENCH_RADII = [k / 100 for k in range(2, 11)]


@pytest.mark.parametrize("transversal", ["x+", "y+", "0.7"])
@pytest.mark.parametrize("name,system", _NUMERIC_SYSTEMS, ids=[n for n, _ in _NUMERIC_SYSTEMS])
def test_crossing_tail_bit_identical_on_system_files(name, system, transversal):
    got = _assert_same_return_map(system, _BENCH_RADII, transversal=transversal)
    assert len(got.samples) + len(got.warnings) == len(_BENCH_RADII)
    if transversal == "x+":
        assert len(got.samples) == len(_BENCH_RADII)


def test_system_files_cover_the_return_map_benchmark():
    # the five parameter-free files: four centers and one focus
    assert len(_NUMERIC_SYSTEMS) == 5


def test_crossing_tail_bit_identical_on_stops_without_return():
    # leaving the guard radius: one orbit after some steps, one at once
    unstable = parse_system("xdot = -y + x*(x^2 + y^2); ydot = x + y*(x^2 + y^2)")
    got = _assert_same_return_map(unstable, [0.9, 1.5, 0.05], guard_radius=1.0)
    assert sum("guard radius" in w for w in got.warnings) == 2 and len(got.samples) == 1
    # the orbit leaves the x-axis and settles at (0, x0) on the y-axis, so
    # the run reaches the far horizon without a return
    node = parse_system("xdot = -x^3; ydot = x^3")
    got = _assert_same_return_map(node, [0.05, 0.1])
    assert [w.endswith("(finished)") and "no return within" in w for w in got.warnings] \
        == [True, True]
    # orbits tangent to the ray at the start are not integrated
    got = _assert_same_return_map(parse_system("xdot = -x; ydot = -y"), [0.05, 0.1])
    assert all("tangent" in w for w in got.warnings) and got.nfev == 0
    # a ray at an angle that the focus crosses with y < 0
    got = _assert_same_return_map(unstable, [0.05, 0.1], transversal="-2.5")
    assert got.classification == "unstable_focus_evidence"


@pytest.mark.parametrize("rhs,message", [
    # finite-time blowup inside a far guard radius: the step size underflows
    (lambda x, y: (1.0 + x * x, 1.0 + y * y), "step size underflow"),
    # trial stages whose right-hand side overflows are rejected until the
    # step size underflows
    (lambda x, y: (1.0, 2.0 ** (2000 * x)), "step size underflow at t=0.502"),
])
def test_crossing_tail_raises_as_dense_tail(monkeypatch, rhs, message):
    monkeypatch.setattr(numeric, "compile_system", lambda s: rhs)
    s = parse_system("xdot = -y; ydot = x")
    errors = []
    for run in (lambda: _callback_return_map(s, [0.01], guard_radius=math.inf),
                lambda: return_map(s, [0.01], guard_radius=math.inf)):
        with pytest.raises(IntegrationError) as err:
            run()
        errors.append((str(err.value), err.value.closest_approach))
    assert errors[0] == errors[1]
    assert message in errors[0][0] and errors[0][1] is not None


def test_crossing_tail_keeps_bounded_memory():
    # an orbit that never meets the crossing test runs thousands of steps:
    # the crossing tail keeps its two end points and no segment, with the
    # dense tail's steps, evaluations, closest approach and end point
    f = lambda x, y: (-y, x)  # noqa: E731
    never = Crossing(1.0, 0.0, -1.0, 2.0, 1.0)
    kw = dict(rel_tol=1e-10, abs_tol=1e-12)
    got = integrate_adaptive(f, (1.0, 0.0), (0.0, 600.0), crossing=never, **kw)
    dense = integrate_adaptive(f, (1.0, 0.0), (0.0, 600.0), **kw)
    assert got.steps > 5000 and got.status == dense.status == "finished"
    assert len(got.segments) == 0 and len(got.t) <= 2 and len(got.y) <= 2
    assert (got.steps, got.nfev, got.closest_approach) == \
        (dense.steps, dense.nfev, dense.closest_approach)
    assert (got.t[-1], got.y[-1]) == (dense.t[-1], dense.y[-1])
    # the same at max_steps, and at a crossing: one segment, the last one
    capped = integrate_adaptive(f, (1.0, 0.0), (0.0, 600.0), crossing=never, max_steps=3000,
                                **kw)
    assert capped.status == "max_steps" and capped.steps == 3000 and not capped.segments
    hit = integrate_adaptive(f, (1.0, 0.0), (0.0, 600.0),
                             crossing=Crossing(1.0, 0.0, 1.0, 2.0, 1.0), **kw)
    assert hit.status == "event" and len(hit.segments) == 1 and len(hit.t) == 2
    assert abs(hit.crossing[0] - 2 * math.pi) < 1e-8
    assert hit.segments[0].t0 < hit.crossing[0] <= hit.segments[0].t0 + hit.segments[0].h


def test_crossing_checks_its_inputs():
    ray = Crossing(1.0, 0.0, 1.0, 2.0, 1.0)
    with pytest.raises(IntegrationError, match="not finite") as err:
        integrate_adaptive(lambda x, y: (x ** 2000, 0.0), (2.0, 0.0), (0.0, 1.0), crossing=ray)
    assert err.value.closest_approach == 2.0
    with pytest.raises(ValueError, match="plane state"):
        integrate_adaptive(lambda x, y: (-y, x), (1.0, 0.0), (0.0, 1.0), crossing=ray,
                           step_callback=lambda seg, y: False)
    with pytest.raises(ValueError, match="plane state"):
        integrate_adaptive(lambda x, y, z: (-y, x, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0),
                           crossing=ray)


def test_crossing_behind_the_origin_does_not_stop():
    # a straight orbit whose third step ends with x > 0 after crossing y = 0
    # at x = -0.005: the refined crossing lies behind the origin, so the run
    # goes on to the end of the span, as the step callback's did
    f = lambda x, y: (1.0, 1.0)  # noqa: E731
    ray = Crossing(1.0, 0.0, 1.0, 100.0, 0.1)
    got = integrate_adaptive(f, (-0.105, -0.1), (0.0, 10.0), crossing=ray)
    dense = integrate_adaptive(f, (-0.105, -0.1), (0.0, 10.0))
    third = dense.segments[2]
    assert third.y0[1] < 0 < dense.y[3][1] and dense.y[3][0] > 0
    assert _refine_crossing(third, ray.g)[1][0] < 0
    assert got.status == "finished" and got.crossing is None and not got.segments
    assert (got.steps, got.nfev, got.t[-1], got.y[-1]) == \
        (dense.steps, dense.nfev, dense.t[-1], dense.y[-1])


# -- bit-exact test of the inlined right-hand side against the call path --

def _with_float_terms(terms):
    # a right-hand side rendered from float terms as compile_system renders
    # one, for terms that no system can give (a constant term)
    p, q = numeric._render(terms[0]), numeric._render(terms[1])
    ns = {}
    exec(f"def f(x, y):\n    return ({p}, {q})\n", ns)
    ns["f"].float_terms = terms
    return ns["f"]


def _assert_inlined_bit_identical(f, state0, t_span, crossing=None, **kw):
    # the oracle is f behind a plain lambda, which takes the loop that calls
    # it at every stage; the inlined loop calls f only for the first stage of
    # the first step.  == on every field (points, segments, status, nfev,
    # steps, closest approach, crossing); repr also tells -0.0 from 0.0
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return f(x, y)

    counted.float_terms = f.float_terms
    ref = integrate_adaptive(lambda x, y: f(x, y), state0, t_span, crossing=crossing, **kw)
    got = integrate_adaptive(counted, state0, t_span, crossing=crossing, **kw)
    assert calls == [tuple(map(float, state0))] and got.nfev > 1
    assert got == ref
    assert repr(got) == repr(ref)
    return got


_INLINED_SYSTEMS = {
    # coefficients exactly +1 and -1 (Q starts with -1.0*y**2), and another
    # negative one
    "unit-coefficients": "xdot = -y + x^2 - 3*x*y^2; ydot = x - y^2",
    # a negative first term that is not -1
    "negative-first-term": "xdot = -y - x^3/7; ydot = x - 2*x^2*y",
    # powers up to 5, shared between P and Q
    "shared-powers": "xdot = -y + x^5 - 2*x^2*y^3 + y^5/3; ydot = x + x^2*y^3 - x^5 + x*y^4",
    # coefficients that underflow to 0.0 and to -0.0
    "underflow-to-zero": "xdot = -y + x^3/10^400; ydot = x",
    "underflow-to-minus-zero": "xdot = -y - x^3/10^400; ydot = x",
}


@pytest.mark.parametrize("text", _INLINED_SYSTEMS.values(), ids=_INLINED_SYSTEMS.keys())
def test_inlined_rhs_bit_identical(text):
    f = compile_system(parse_system(text))
    kw = dict(rel_tol=1e-12, abs_tol=1e-14)
    got = _assert_inlined_bit_identical(f, (0.1, 0.05), (0.0, 3.0), **kw)
    assert got.status == "finished" and len(got.segments) == got.steps > 10
    got = _assert_inlined_bit_identical(f, (0.1, 0.05), (0.0, -3.0), **kw)
    assert got.status == "finished"
    for x0 in (0.02, 0.1):
        ray = Crossing(1.0, 0.0, 1.0 if f(x0, 0.0)[1] > 0 else -1.0, 1.0, x0)
        got = _assert_inlined_bit_identical(f, (x0, 0.0), (0.0, 1e9), crossing=ray, **kw)
        assert got.status == "event" and len(got.segments) == 1
    _assert_same_return_map(parse_system(text), [0.02, 0.05], transversal="0.7")


def test_inlined_rhs_bit_identical_on_constant_term_and_zero_component():
    # xdot = 1 - y, ydot = x - 2.5 (a center at (2.5, 1)), and a constant
    # first term of each sign
    for terms in [(((1.0, 0, 0), (-1.0, 0, 1)), ((1.0, 1, 0), (-2.5, 0, 0))),
                  (((-2.5, 0, 0), (1.0, 0, 1)), ((0.5, 0, 0), (-1.0, 1, 0)))]:
        f = _with_float_terms(terms)
        got = _assert_inlined_bit_identical(f, (0.1, 0.05), (0.0, 5.0), rel_tol=1e-10,
                                            abs_tol=1e-12)
        assert got.status == "finished"
        ray = Crossing(1.0, 0.0, 1.0, 100.0, 0.1)
        _assert_inlined_bit_identical(f, (0.1, 0.0), (0.0, 100.0), crossing=ray)
    # a zero component: xdot = 0, so the orbit leaves the guard radius
    f = compile_system(parse_system("xdot = 0; ydot = x + x^2"))
    assert f.float_terms[0] == () and "{k}_0 = 0.0" in _inline_rhs(f.float_terms)
    _assert_inlined_bit_identical(f, (0.3, -0.2), (0.0, 4.0))
    got = _assert_inlined_bit_identical(f, (0.3, 0.0), (0.0, 1e9),
                                        crossing=Crossing(1.0, 0.0, 1.0, 1.0, 0.3))
    assert got.status == "escaped"


def test_inlined_rhs_bit_identical_when_a_power_overflows():
    # rx**2000 raises OverflowError on trial stages past x ~ 1.43: those
    # steps are rejected until the step size underflows, in both loops
    f = compile_system(parse_system("xdot = y + x^2000; ydot = x"))
    errors = []
    for g in (lambda x, y: f(x, y), f):
        with pytest.raises(IntegrationError, match="step size underflow") as err:
            integrate_adaptive(g, (1.0, 0.5), (0.0, 10.0))
        errors.append((str(err.value), err.value.closest_approach))
    assert errors[0] == errors[1]


def test_inlined_loop_cached_by_source_text():
    info = _dopri_loop.cache_info
    # the same system, compiled again, reuses its loop
    s = parse_system("xdot = -y + x^2*y/5; ydot = x - y^3/9")
    return_map(s, [0.05])
    before = info()
    return_map(s, [0.03, 0.04])
    assert (info().hits, info().misses) == (before.hits + 2, before.misses)
    # coefficients that round to 0.0 and to -0.0 give equal float terms but
    # two sources, so each system gets its own loop
    plus, minus = (compile_system(parse_system(_INLINED_SYSTEMS[k]))
                   for k in ("underflow-to-zero", "underflow-to-minus-zero"))
    assert plus.float_terms == minus.float_terms
    rhs_plus, rhs_minus = _inline_rhs(plus.float_terms), _inline_rhs(minus.float_terms)
    assert rhs_plus != rhs_minus
    assert _dopri_loop(2, True, rhs_plus) is not _dopri_loop(2, True, rhs_minus)
    assert _dopri_loop(2, True, rhs_minus).__code__.co_filename == \
        "<dopri n=2 crossing xdot = -0.0*rx3 - ry; ydot = rx>"
    # a sweep of 40 distinct systems builds 40 loops and keeps at most the
    # cache's small bound
    before = info()
    for k in range(1, 41):
        return_map(parse_system(f"xdot = -y + {k}*x^3/41; ydot = x"), [0.05])
    assert info().misses == before.misses + 40
    assert info().currsize <= info().maxsize <= 16
