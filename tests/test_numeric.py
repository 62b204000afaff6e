import math
from dataclasses import dataclass

import numpy as np
import pytest

from centerlab import qhomog
from centerlab.numeric import (
    DenseSegment,
    IntegrationError,
    _refine_crossing,
    classify_monodromic,
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
    assert np.hypot(traj.y_end[0] - 1.0, traj.y_end[1]) <= 1e-9


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
    h1 = H.eval_float({"x": traj.y_end[0], "y": traj.y_end[1]})
    assert hits
    assert abs(h1 - h0) <= 1e-9


def test_darboux_instance_first_integral_conserved():
    s = substitute(parse_system(NIL_DARBOUX), {"a": 1, "c": 1})

    def H(x, y):
        return (1 + x) ** (-2.0) * (1 + y) ** (-2.0) * (x ** 4 + y ** 2)

    traj = integrate_system(s, (0.15, 0.0), (0.0, 12.0), rel_tol=1e-11, abs_tol=1e-13)
    h0 = H(0.15, 0.0)
    drift = max(abs(H(*traj(t)) - h0) for t in np.linspace(0.1, traj.t_end, 40))
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
                              fwd.y_end, (0.0, 3.0), rel_tol=1e-11, abs_tol=1e-13)
    assert np.hypot(back.y_end[0] - 0.2, back.y_end[1] - 0.05) <= 1e-10


def test_compile_rejects_symbolic_system():
    with pytest.raises(ValueError, match="numeric"):
        compile_system(parse_system("xdot = a*y; ydot = -x"))


def test_classify_monodromic_combines_evidence():
    s = substitute(parse_system("xdot = -a*y^3; ydot = eps*x^3 + b*x^5"),
                   {"a": 1, "b": 1, "eps": 1})
    v = classify_monodromic(s, x0_list=[0.3, 0.5])
    assert v.directions.none_found
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
        assert got.t_end == ref_t[-1] and close(got.y_end, ref_y[-1])
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
    assert got.t_end == -3.0 and all(seg.h < 0 for seg in got.segments)


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
