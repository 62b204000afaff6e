import glob
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from centerlab import numeric, qhomog
from centerlab.numeric import (
    NO_WEIGHTS,
    IntegrationError,
    _dopri_loop,
    float_terms,
    integrate_adaptive,
    return_map,
)
from centerlab.structure import MonodromyWeights, characteristic_directions, monodromy_weights
from centerlab.systems import parse_system, substitute

from conftest import DEG_FACTORED, HAM_QH, HOMOG_CUBIC, NIL_DARBOUX, NIL_REVERSIBLE, poly
from reference_dopri import (
    _REF_P,
    DenseSegment,
    _RefSegment,
    _reference_integrate,
    _tuple_loop_integrate,
    compile_system,
    psi_point,
    psi_run,
    reference_return_map,
    refine_crossing,
)

import reference_dopri
import test_qhomog

# weights (1, 1) with W > 0: the polar angle, turning counterclockwise
POLAR = MonodromyWeights(1, 1, 1)


def integrate_system(s, r0, psi_span, rel_tol=1e-10, abs_tol=1e-12, **kw):
    """A run of the package's loop on ``s`` in its own monodromy weights."""
    return integrate_adaptive(float_terms(s), monodromy_weights(s), r0, psi_span,
                              rel_tol=rel_tol, abs_tol=abs_tol, **kw)


def end_point(s, traj):
    """The plane point at the end of a run of :func:`integrate_system`."""
    w = monodromy_weights(s)
    return psi_point(w.p, w.q, traj.psi[-1], traj.y[-1][0])


def _with_float_terms(terms):
    # a right-hand side rendered from float terms as compile_system renders
    # one, for terms that no system can give (a constant term, a power past
    # the parser's degree limit, or repeated and cancelling terms)
    p, q = reference_dopri._render(terms[0]), reference_dopri._render(terms[1])
    ns = {}
    exec(f"def f(x, y):\n    return ({p}, {q})\n", ns)
    ns["f"].float_terms = terms
    return ns["f"]


def _inlined(f, *args, **kw):
    # the package's loop on the float terms of f, called as psi_run calls f
    return integrate_adaptive(f.float_terms, *args, **kw)


HARMONIC = "xdot = -y; ydot = x"


def test_circle_returns_after_two_pi():
    # r stays 1 and t = psi: one turn ends exactly at 2*pi after time 2*pi
    s = parse_system(HARMONIC)
    traj = integrate_system(s, 1.0, (0.0, 2 * math.pi), rel_tol=1e-12, abs_tol=1e-14)
    assert traj.status == "finished" and traj.psi[-1] == 2 * math.pi
    r, t = traj.y[-1]
    assert r == 1.0 and abs(t - 2 * math.pi) <= 1e-12


def test_energy_conservation_weighted_hamiltonian():
    # one turn of the (2,3) polar angle around the level of H through (0.8, 0)
    s = substitute(parse_system(HAM_QH), {"a": 1, "b": 1})
    assert monodromy_weights(s) == (2, 3, 1)
    H = poly("y^4/4 + x^6/6", s.vars)
    traj = integrate_system(s, 0.8 ** 0.5, (0.0, 2 * math.pi), rel_tol=1e-12, abs_tol=1e-14)
    x, y = end_point(s, traj)
    assert traj.status == "finished"
    assert abs(H.eval_float({"x": x, "y": y}) - H.eval_float({"x": 0.8, "y": 0.0})) <= 1e-9


def test_darboux_instance_first_integral_conserved():
    s = substitute(parse_system(NIL_DARBOUX), {"a": 1, "c": 1})
    w = monodromy_weights(s)
    assert w == (1, 2, -1)

    def H(x, y):
        return (1 + x) ** (-2.0) * (1 + y) ** (-2.0) * (x ** 4 + y ** 2)

    h0 = H(0.15, 0.0)
    ends = [end_point(s, integrate_system(s, 0.15, (0.0, -float(psi)), rel_tol=1e-11,
                                          abs_tol=1e-13))
            for psi in np.linspace(0.1, 2 * math.pi, 12)]
    drift = max(abs(H(*y) - h0) for y in ends)
    assert drift <= 1e-8 * abs(h0)


def test_tolerance_rejected_out_of_range():
    s = parse_system(HARMONIC)
    with pytest.raises(ValueError):
        integrate_system(s, 1.0, (0, 1), rel_tol=1e-3)


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
    # r' = -r^3 with psi' = 1: one turn maps x0 to x0/sqrt(1 + 4*pi*x0^2)
    s = parse_system("xdot = -y - x*(x^2 + y^2); ydot = x - y*(x^2 + y^2)")
    rm = return_map(s, [0.05, 0.1, 0.2])
    assert rm.classification == "stable_focus_evidence"
    assert all(sm.displacement < 0 for sm in rm.samples)
    assert all(abs(sm.value - sm.x0 / math.sqrt(1 + 4 * math.pi * sm.x0 ** 2)) <= 1e-12
               for sm in rm.samples)
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
    # psi run backwards integrates back in time: t returns to 0
    s = parse_system(DEG_FACTORED)
    fwd = integrate_system(s, 0.2, (0.0, 3.0), rel_tol=1e-11, abs_tol=1e-13)
    (r, t), = fwd.y[-1:]
    back = integrate_system(s, r, (3.0, 0.0), rel_tol=1e-11, abs_tol=1e-13)
    assert back.psi[-1] == 0.0 and t > 0
    assert abs(back.y[-1][0] - 0.2) <= 1e-10 and abs(back.y[-1][1] + t) <= 1e-10 * t


def test_compile_rejects_symbolic_system():
    # the refusal names every free name of P and Q, eps included
    with pytest.raises(ValueError, match=r"^specialize parameters first: \['a', 'eps'\]$"):
        float_terms(parse_system("xdot = a*y; ydot = -eps*x"))


@pytest.mark.parametrize("text,message", [
    ("xdot = -y + 10^400*x^5; ydot = x", "xdot: the coefficient of x^5 "),
    ("xdot = -y; ydot = x - 10^309*x^2*y/2", "ydot: the coefficient of x^2*y "),
    ("xdot = -y + x*y/10^400; ydot = x + 10^400*y^3", "ydot: the coefficient of y^3 "),
], ids=["xdot", "negative", "after-an-underflow"])
def test_compile_names_a_coefficient_too_large_for_a_float(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}is too large for a float$"):
        float_terms(parse_system(text))


def test_classify_monodromic_combines_evidence():
    # the two parts of ``classify``: characteristic directions, and the
    # return map in the weights that show monodromy
    s = substitute(parse_system("xdot = -a*y^3; ydot = eps*x^3 + b*x^5"),
                   {"a": 1, "b": 1, "eps": 1})
    dirs = characteristic_directions(s)
    assert not dirs.directions and not dirs.every_direction
    assert return_map(s, [0.3, 0.5]).classification == "center_evidence"

    h = substitute(parse_system(HAM_QH), {"a": 1, "b": 1})
    assert len(characteristic_directions(h).directions) == 1
    assert return_map(h, [0.5], transversal="y+").classification == "center_evidence"

    lf = parse_system("xdot = -y - x/10; ydot = x")
    assert return_map(lf, [0.05, 0.1]).classification == "stable_focus_evidence"


def test_step_underflow_reports_closest_approach():
    # r' = r^3 with psi' = 1 blows up at psi = 1/(2*r0^2) = 0.5 for r0 = 1:
    # the step size falls under the floor there
    s = parse_system("xdot = -y + x*(x^2 + y^2); ydot = x + y*(x^2 + y^2)")
    with pytest.raises(IntegrationError, match=r"underflow at psi=0\.5$") as err:
        integrate_system(s, 1.0, (0.0, 10.0))
    assert err.value.closest_approach == 1.0


_BIG = sys.float_info.max


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_step_is_rejected(bad):
    # a NaN error norm compares false with 1.0; such a step must not be
    # accepted: the step shrinks until it underflows.  xdot = -y until the
    # product (_BIG*x)*y overflows at x*y = 1 (with x < 1), and ``bad`` past
    # it: the terms after it subtract an equal inf, or leave it; -y comes
    # last.  On the circle r = 2, run from the y-axis down, that is at
    # psi = 5*pi/12
    terms = {"nan": ((_BIG, 1, 1), (-_BIG, 1, 1), (-1.0, 0, 1)),
             "inf": ((_BIG, 1, 1), (-_BIG / 2, 1, 1), (-_BIG / 2, 1, 1), (-1.0, 0, 1)),
             "-inf": ((-_BIG, 1, 1), (_BIG / 2, 1, 1), (_BIG / 2, 1, 1), (-1.0, 0, 1))}[repr(bad)]
    f = _with_float_terms((terms, ((1.0, 1, 0),)))
    assert f(0.5, 2.0) == (-2.0, 0.5) and repr(f(0.5000000000000001, 2.0)[0]) == repr(bad)
    errors = []
    for run in (psi_run, _inlined):
        with pytest.raises(IntegrationError) as err:
            run(f, POLAR, 2.0, (math.pi / 2, 0.0))
        errors.append((str(err.value), err.value.closest_approach))
    assert errors[0] == errors[1]
    assert errors[0][0] == "step size underflow at psi=1.309"
    assert abs(errors[0][1] - 2.0) <= 1e-15


def test_right_hand_side_overflow_is_rejected():
    # float ** raises OverflowError once x^710200 passes the float range,
    # past x = 1.001; r' = r^3 drives the orbit from (0.9, 0) to where the
    # term 1e-300*x^710200 of both components takes over, and the trial steps
    # beyond it are rejected until underflow
    wall = (1e-300, 710200, 0)
    f = _with_float_terms((((1.0, 3, 0), (1.0, 1, 2), (-1.0, 0, 1), wall),
                           ((1.0, 2, 1), (1.0, 0, 3), (1.0, 1, 0), wall)))
    overflows = []

    def watched(x, y):
        try:
            return f(x, y)
        except OverflowError:
            overflows.append(x)
            raise

    watched.float_terms = f.float_terms
    errors = []
    for run in (psi_run, _inlined):
        with pytest.raises(IntegrationError) as err:
            run(watched, POLAR, 0.9, (0.0, 0.5))
        errors.append((str(err.value), err.value.closest_approach))
    assert errors[0] == errors[1] == ("step size underflow at psi=0.126179", 0.9)
    assert overflows
    # at the start itself the right-hand side is not finite
    for run in (psi_run, _inlined):
        with pytest.raises(IntegrationError, match=r"not finite at psi=0$") as err:
            run(f, POLAR, 1.5, (0.0, 1.0))
        assert err.value.closest_approach == 1.5


# -- differential test of the tuple reference loop against the numpy loop --

def _assert_same_run(f, state0, t_span, **kw):
    # numpy sums the stage dot products in BLAS (with fused multiply-adds), so
    # the two loops round differently and their step sizes agree only to the
    # rounding that the error estimate's cancellation amplifies.  The step
    # sequence (steps, evaluations, rejections) must be the same, and the
    # tuple loop's dense output must reproduce the numpy states at the numpy
    # times.  The tuple loop is in turn bit-identical to the package's loop
    # on the psi right-hand side (the tests below).
    ref_t, ref_y, ref_segs, ref_status, ref_nfev, ref_steps, ref_rejected = \
        _reference_integrate(f, state0, t_span, **kw)
    got = _tuple_loop_integrate(f, state0, t_span, **kw)
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
    # reversible nilpotent center stepped in time: first return to the
    # positive x-axis, located on the dense output
    f = compile_system(parse_system(NIL_REVERSIBLE))
    hit = []

    def callback(seg, t_new, y_new):
        if seg.y0[1] > 0 >= y_new[1] and y_new[0] > 0:
            hit.append(refine_crossing(seg, lambda st: st[1]))
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
    real = test_qhomog._tuple_loop_integrate

    def spy(*args, **kw):
        calls.append((args, kw))
        return real(*args, **kw)

    monkeypatch.setattr(test_qhomog, "_tuple_loop_integrate", spy)
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


def test_scalar_core_matches_numpy_reference_max_steps():
    got, _ = _assert_same_run(lambda x, y: (-y, x), (1.0, 0.0), (0.0, 100.0),
                              rel_tol=1e-12, abs_tol=1e-14, max_steps=25)
    assert got.status == "max_steps" and got.steps == 25


# -- bit-exact test of the generated loop against the tuple reference loop --

def _assert_bit_identical(f, weights, r0, psi_span, **kw):
    # the oracle is the tuple loop on the psi right-hand side, which calls f
    # at every stage (psi_run); the generated loop inlines f's float terms.
    # == on every field of the Trajectory (end points, status, nfev, steps,
    # closest approach); repr also tells -0.0 from 0.0.  Returns the
    # Trajectory and the tuple loop's full run.
    ref, run = psi_run(f, weights, r0, psi_span, **kw)
    got = integrate_adaptive(f.float_terms, weights, r0, psi_span, **kw)
    assert got.nfev >= 1
    assert got == ref
    assert repr(got) == repr(ref)
    return got, run


def test_generated_loop_bit_identical_harmonic():
    # r' = 0 exactly, so the steps grow tenfold up to the end of the span
    got, _ = _assert_bit_identical(compile_system(parse_system(HARMONIC)), POLAR, 1.0,
                                   (0.0, 6.0), rel_tol=1e-12, abs_tol=1e-14)
    assert got.status == "finished" and got.psi[-1] == 6.0 and got.y[-1][0] == 1.0


def test_generated_loop_bit_identical_return_map_stop():
    # one turn of the (1,2) polar angle, clockwise, from x = 0.1
    s = parse_system(NIL_REVERSIBLE)
    got, _ = _assert_bit_identical(compile_system(s), monodromy_weights(s), 0.1,
                                   (0.0, -2 * math.pi), rel_tol=1e-12, abs_tol=1e-14)
    assert got.status == "finished" and got.steps > 100
    assert got.psi[-1] == -2 * math.pi and abs(got.y[-1][0] - 0.1) <= 1e-12


def test_generated_loop_bit_identical_condition_ii():
    # the (Cs, Sn) curve of condition (ii) at weights (2, 3): the orbit of
    # z' = -w^3, w' = z^5 through (2^(-1/6), 0), over one turn of psi, which
    # takes one period, with rejected steps
    z0 = 2 ** (-1 / 6)
    f = compile_system(parse_system("xdot = -y^3; ydot = x^5"))
    got, _ = _assert_bit_identical(f, MonodromyWeights(2, 3, 1), z0 ** 0.5,
                                   (0.0, 2 * math.pi), rel_tol=1e-12, abs_tol=1e-14)
    assert got.status == "finished" and (got.nfev - 1) // 6 > got.steps
    assert abs(got.y[-1][1] - test_qhomog.pq_period(2, 3)) <= 1e-9


def test_generated_loop_bit_identical_time_reversed():
    f = compile_system(parse_system(DEG_FACTORED))
    got, run = _assert_bit_identical(f, POLAR, 0.2, (0.0, -3.0), rel_tol=1e-11,
                                     abs_tol=1e-13)
    assert got.psi[-1] == -3.0 and got.y[-1][1] < 0
    assert all(seg.h < 0 for seg in run.segments)


def test_generated_loop_bit_identical_max_steps():
    s = parse_system(NIL_REVERSIBLE)
    got, _ = _assert_bit_identical(compile_system(s), monodromy_weights(s), 0.1,
                                   (0.0, -2 * math.pi), rel_tol=1e-12, abs_tol=1e-14,
                                   max_steps=25)
    assert got.status == "max_steps" and got.steps == 25


def test_generated_loop_bit_identical_overflow_rejection():
    # r' = r^3 drives the orbit from (0.9, 0) towards ydot's term
    # 1e-300*x^710200, which grows past ydot's other terms near x = 1.00098
    # and raises OverflowError past x = 1.001: the orbit stops short of that
    # wall, and the trial stages beyond it are rejected and shrunk; the run
    # still finishes
    f = _with_float_terms((((1.0, 3, 0), (1.0, 1, 2), (-1.0, 0, 1)),
                           ((1.0, 2, 1), (1.0, 0, 3), (1.0, 1, 0), (1e-300, 710200, 0))))
    overflows = []

    def watched(x, y):
        try:
            return f(x, y)
        except OverflowError:
            overflows.append(x)
            raise

    watched.float_terms = f.float_terms
    got, _ = _assert_bit_identical(watched, POLAR, 0.9, (0.0, 0.13), rel_tol=1e-4,
                                   abs_tol=1e-6)
    assert got.status == "finished" and overflows
    assert 1.0009 < got.y[-1][0] * math.cos(0.13) < 1.001
    # and a run that ends in step-size underflow raises the same error: r'
    # = r^3 blows up at psi = 1/(2*r0^2) = 0.5
    g = _with_float_terms((f.float_terms[0], f.float_terms[1][:3]))
    errors = []
    for integrate in (psi_run, _inlined):
        with pytest.raises(IntegrationError) as err:
            integrate(g, POLAR, 1.0, (0.0, 10.0))
        errors.append((str(err.value), err.value.closest_approach))
    assert errors[0] == errors[1] == ("step size underflow at psi=0.5", 1.0)


def test_loop_built_on_first_use_and_shared_per_system():
    # importing numeric generates no loop; a return map builds its system's
    # loop on its first call, and every later return map of that system runs
    # that one; a second system builds its own
    code = (
        "from centerlab import numeric\n"
        "from centerlab.systems import parse_system\n"
        "info = numeric._dopri_loop.cache_info\n"
        "assert info().currsize == 0, info()\n"
        "s = parse_system('xdot = -y; ydot = x')\n"
        "numeric.return_map(s, [0.1, 0.2])\n"
        "assert info()[:2] == (1, 1) and info().currsize == 1, info()\n"
        "numeric.return_map(s, [0.3], transversal='y+')\n"
        "assert info()[:2] == (2, 1), info()\n"
        "numeric.return_map(parse_system('xdot = -y^3; ydot = x^3'), [0.1])\n"
        "assert info()[:2] == (2, 2) and info().currsize == 2, info()\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def _loops_of(call):
    """The loops that ``_dopri_loop`` hands out while ``call()`` runs."""
    loops = []
    real = numeric._dopri_loop

    def spy(*key):
        loops.append(real(*key))
        return loops[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numeric, "_dopri_loop", spy)
        call()
    return loops


def _loop_for(terms, weights=POLAR):
    """The loop that ``integrate_adaptive`` runs on these float terms and
    weights."""
    loop, = _loops_of(lambda: integrate_adaptive(terms, weights, 0.1, (0.0, 0.0)))
    return loop


def test_generated_code_names_its_source():
    # profiles and tracebacks name the generated loop, not "<string>": its
    # label names its weights and the P and Q that the emitter wrote, a
    # coefficient 1.0 or -1.0 as a product or a subtraction and any other
    # by name, and cProfile keys its entries by that label
    labels = [_loop_for(float_terms(parse_system(text)), w).__code__.co_filename
              for text, w in ((HARMONIC, POLAR),
                              ("xdot = -y^3; ydot = x^3 + x^5", POLAR),
                              ("xdot = -y^3/2; ydot = x^3 - 2*x^5", POLAR),
                              ("xdot = -x*y + 3*x^2*y^3; ydot = x", MonodromyWeights(2, 3, -1)))]
    assert labels == ["<dopri (1,1) xdot = -ry; ydot = rx>",
                      "<dopri (1,1) xdot = -ry3; ydot = rx5 + rx3>",
                      "<dopri (1,1) xdot = a0 * ry3; ydot = b0 * rx5 + rx3>",
                      "<dopri (2,3) xdot = a0 * rx2 * ry3 - rx * ry; ydot = rx>"]
    # and it is the loop that a return map of that system runs
    loops = _loops_of(lambda: return_map(parse_system("xdot = -y^3/2; ydot = x^3 - 2*x^5"),
                                         [0.05]))
    assert [loop.__code__.co_filename for loop in loops] == [labels[2]]


# -- bit-exact test of the return map against the tuple reference loop --

def _assert_same_return_map(s, x0_list, **kw):
    # == and repr on every sample, warning, nfev and the classification, and
    # on the Trajectory of each integration: its steps, counts, closest
    # approach and end points equal the tuple loop's
    ref, ref_trajs = reference_return_map(s, x0_list, **kw)
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
    assert got_trajs == ref_trajs
    assert repr(got_trajs) == repr(ref_trajs)
    return got


def _numeric_system_files():
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    out = []
    for path in sorted(glob.glob(os.path.join(root, "sample_systems", "*.sys"))
                       + glob.glob(os.path.join(root, "bench", "systems", "*.sys"))):
        with open(path) as fh:
            s = parse_system(fh.read())
        if not s.free_names():
            out.append((os.path.basename(path), s))
    return out


_NUMERIC_SYSTEMS = _numeric_system_files()
_BENCH_RADII = [k / 100 for k in range(2, 11)]


@pytest.mark.parametrize("transversal", ["x+", "y+", "0.7"])
@pytest.mark.parametrize("name,system", _NUMERIC_SYSTEMS, ids=[n for n, _ in _NUMERIC_SYSTEMS])
def test_crossing_tail_bit_identical_on_system_files(name, system, transversal):
    # every return of the package's loop, its stop tests included, is the
    # tuple loop's; a ray at an angle is a section only at weights (1, 1)
    if monodromy_weights(system)[:2] != (1, 1) and transversal == "0.7":
        with pytest.raises(ValueError, match=r"^the monodromy weights are \(1,2\), so a ray "
                                             r"at an angle .*; use the transversal x\+ or y\+$"):
            return_map(system, _BENCH_RADII, transversal=transversal)
        return
    got = _assert_same_return_map(system, _BENCH_RADII, transversal=transversal)
    assert len(got.samples) + len(got.warnings) == len(_BENCH_RADII)
    if transversal == "x+":
        assert len(got.samples) == len(_BENCH_RADII)


def test_system_files_cover_the_return_map_benchmark():
    # the five parameter-free files: four centers and one focus
    assert len(_NUMERIC_SYSTEMS) == 5


def test_crossing_tail_bit_identical_on_stops_without_return():
    # leaving the guard radius: one orbit after some steps, and one that
    # starts on it, at once
    unstable = parse_system("xdot = -y + x*(x^2 + y^2); ydot = x + y*(x^2 + y^2)")
    got = _assert_same_return_map(unstable, [0.9, 1.0, 0.05], guard_radius=1.0)
    assert sum("guard radius" in w for w in got.warnings) == 2 and len(got.samples) == 1
    # nodes have no monodromy weights: nothing is integrated
    for node in ("xdot = -x^3; ydot = x^3", "xdot = -x; ydot = -y"):
        got = _assert_same_return_map(parse_system(node), [0.05, 0.1])
        assert (got.samples, got.warnings, got.nfev) == ([], [NO_WEIGHTS], 0)
        assert got.classification == "inconclusive"
    # a ray at an angle that the focus crosses with y < 0
    got = _assert_same_return_map(unstable, [0.05, 0.1], transversal="-2.5")
    assert got.classification == "unstable_focus_evidence"


# W = (x^2 + y^2)*(1 - 5*x): definite near the origin, and zero on the line
# x = 1/5, which this spiral (r' = r/2 while psi' = 1 - 5*x) runs into
TURNING = "xdot = x/2 - y + 5*x*y; ydot = y/2 + x - 5*x^2"


def test_return_map_reports_psi_vanishing_along_the_orbit():
    # psi' changes sign where the orbit meets x = 1/5: the psi loop cannot go
    # on past that point, and the run ends there as "stalled", not with a
    # step-size error; a start beyond the line stops before any step
    s = parse_system(TURNING)
    assert monodromy_weights(s) == (1, 1, 1)
    got = _assert_same_return_map(s, [0.05, 0.1, 0.25])
    assert got.samples == [] and got.classification == "inconclusive"
    psis = [float(re.fullmatch(r"x0=0\.\d+: psi' vanished at psi=(\S+), where "
                               r"p\*x\*Q - q\*y\*P lost its sign: no return", w)[1])
            for w in got.warnings]
    assert psis[2] == 0 and 0 < psis[1] < psis[0] < 2 * math.pi
    # the orbit of x0 = 0.1 does meet the line there
    f = compile_system(s)
    traj = integrate_adaptive(f.float_terms, POLAR, 0.1, (0.0, 2 * math.pi), 1.0, 1e-12, 1e-14)
    x, y = psi_point(1, 1, traj.psi[-1], traj.y[-1][0])
    assert traj.status == "stalled" and abs(x - 0.2) <= 1e-6 and traj.steps > 10


def test_return_map_refuses_a_start_it_cannot_use(monkeypatch):
    # a start outside the guard radius, or one whose absolute tolerance
    # min(abs_tol, rel_tol*x0) is not a positive normal float, is refused
    # before any integration
    integrations = []
    monkeypatch.setattr(numeric, "integrate_adaptive",
                        lambda *args, **kw: integrations.append(args))
    s = parse_system("xdot = -y + x*(x^2 + y^2); ydot = x + y*(x^2 + y^2)")
    with pytest.raises(ValueError, match=r"^x0=1\.5 starts outside the guard radius 1\.0$"):
        return_map(s, [0.05, 1.5])
    with pytest.raises(ValueError, match=r"^x0=1e-300 is too small: .* = 1e-312 is not a "
                                         r"positive normal float$"):
        return_map(s, [0.05, 1e-300])
    with pytest.raises(ValueError, match="x0=0.5 is too small"):
        return_map(s, [0.5], abs_tol=0.0)
    assert integrations == []


@pytest.mark.parametrize("x0", [1e-5, 1e-8])
def test_return_map_small_start_radius(x0):
    # the absolute tolerance scales with the start: a center stays a center,
    # and the linear focus x'' + x'/10 + x = 0 a stable focus, with the
    # same work at every radius
    rm = return_map(parse_system(NIL_REVERSIBLE), [x0])
    assert rm.classification == "center_evidence" and 2000 < rm.nfev < 4000
    lf = return_map(parse_system("xdot = -y - x/10; ydot = x"), [x0, x0 * 1e-90])
    assert lf.classification == "stable_focus_evidence" and lf.nfev < 2 * 2500
    assert all(abs(sm.value / sm.x0 - math.exp(-math.pi / 10 / math.sqrt(0.9975)))
               <= 1e-9 for sm in lf.samples)
    _assert_same_return_map(parse_system(NIL_REVERSIBLE), [x0])


_WALL = (1e-300, 710200, 0)


@pytest.mark.parametrize("rhs,message", [
    # r' = r^3 blows up at psi = 1/(2*0.5^2) = 2 from x0 = 0.5, inside a far
    # guard radius: the step size underflows
    (lambda: (compile_system(parse_system("xdot = -y + x*(x^2 + y^2); "
                                          "ydot = x + y*(x^2 + y^2)")), 0.5),
     "step size underflow"),
    # from x0 = 0.9, trial stages whose right-hand side overflows
    # (x^710200 past x = 1.001) are rejected until the step size underflows
    (lambda: (_with_float_terms((((1.0, 3, 0), (1.0, 1, 2), (-1.0, 0, 1), _WALL),
                                 ((1.0, 2, 1), (1.0, 0, 3), (1.0, 1, 0), _WALL))), 0.9),
     "step size underflow at psi=0.126179"),
])
def test_crossing_tail_raises_as_dense_tail(monkeypatch, rhs, message):
    # the return map raises what its tuple-loop oracle raises
    f, x0 = rhs()
    monkeypatch.setattr(numeric, "float_terms", lambda s: f.float_terms)
    monkeypatch.setattr(reference_dopri, "compile_system", lambda s: f)
    s = parse_system(HARMONIC)
    errors = []
    for run in (lambda: reference_return_map(s, [x0], guard_radius=math.inf),
                lambda: return_map(s, [x0], guard_radius=math.inf)):
        with pytest.raises(IntegrationError) as err:
            run()
        errors.append((str(err.value), err.value.closest_approach))
    assert errors[0] == errors[1]
    assert message in errors[0][0] and errors[0][1] == x0


def test_crossing_tail_keeps_bounded_memory():
    # a run of thousands of steps keeps its two end points and stores no
    # step, with the tuple loop's steps, evaluations, closest approach and
    # end point
    s = parse_system("xdot = y + y^2; ydot = -x - x^3 + x*y^2")
    f, w = compile_system(s), monodromy_weights(s)
    kw = dict(rel_tol=1e-12, abs_tol=1e-14)
    got, run = _assert_bit_identical(f, w, 0.5, (0.0, -600.0), **kw)
    assert got.steps > 5000 and got.status == run.status == "finished"
    assert len(got.psi) == len(got.y) == 2 and got.segments == ()
    assert len(run.segments) == got.steps
    # the same at max_steps
    capped, _ = _assert_bit_identical(f, w, 0.5, (0.0, -600.0), max_steps=3000, **kw)
    assert capped.status == "max_steps" and capped.steps == 3000


def test_crossing_checks_its_inputs():
    f = _with_float_terms((((-1.0, 0, 1),), ((1.0, 2000, 0),)))
    with pytest.raises(IntegrationError, match="not finite") as err:
        integrate_adaptive(f.float_terms, POLAR, 2.0, (0.0, 1.0))
    assert err.value.closest_approach == 2.0
    # the sign of W is 1 or -1
    with pytest.raises(ValueError, match="the sign of W must be 1 or -1, got 0"):
        integrate_adaptive(f.float_terms, MonodromyWeights(1, 1, 0), 1.0, (0.0, 1.0))


# -- bit-exact test of the inlined right-hand side against the call path --

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
    for span in ((0.0, 3.0), (0.0, -3.0), (0.7, 0.7 + 2 * math.pi)):
        got, _ = _assert_bit_identical(f, POLAR, 0.1, span, **kw)
        assert got.status == "finished" and got.steps > 3
    _assert_same_return_map(parse_system(text), [0.02, 0.05], transversal="0.7")


def test_inlined_rhs_bit_identical_on_constant_term_and_zero_component():
    # xdot = 1 - y, ydot = x - 2.5 (a center at (2.5, 1)), and a constant
    # first term of each sign, away from the origin where W > 0
    for terms in [(((1.0, 0, 0), (-1.0, 0, 1)), ((1.0, 1, 0), (-2.5, 0, 0))),
                  (((-2.5, 0, 0), (1.0, 0, 1)), ((0.5, 0, 0), (-1.0, 1, 0)))]:
        f = _with_float_terms(terms)
        sign = 1 if f(3.0, 0.0)[1] > 0 else -1
        got, _ = _assert_bit_identical(f, MonodromyWeights(1, 1, sign), 3.0, (0.0, 0.5 * sign),
                                       rel_tol=1e-10, abs_tol=1e-12)
        assert got.status == "finished"
    # a zero component: xdot = 0, so the orbit runs up the line x = 0.3 and
    # leaves the guard radius
    f = compile_system(parse_system("xdot = 0; ydot = x + x^2"))
    assert f.float_terms[0] == ()
    assert _loop_for(f.float_terms).__code__.co_filename == \
        "<dopri (1,1) xdot = 0.0; ydot = rx2 + rx>"
    got, _ = _assert_bit_identical(f, POLAR, 0.3, (0.0, 2 * math.pi), guard_radius=1.0)
    assert got.status == "escaped"


def test_inlined_rhs_bit_identical_when_a_power_overflows():
    # rx**2000 raises OverflowError on trial stages past x ~ 1.43: those
    # steps are rejected until the step size underflows, in both loops
    f = _with_float_terms((((-1.0, 0, 1), (1.0, 2000, 0)), ((1.0, 1, 0),)))
    errors = []
    for integrate in (psi_run, _inlined):
        with pytest.raises(IntegrationError, match="step size underflow") as err:
            integrate(f, POLAR, 1.2, (0.0, -2.0))
        errors.append((str(err.value), err.value.closest_approach))
    assert errors[0] == errors[1]


# coefficients the emitter treats apart (units, signed zeros), subnormals,
# and values near 1e300 whose products overflow
_SPECIAL_COEFFICIENTS = [1.0, -1.0, 0.0, -0.0, 2.0, -2.0, 5e-324, -2.5e-310, 1e300, -3e299,
                         8e300]


def _outcome(run):
    # the repr of what a run returns, or the message and closest approach of
    # the IntegrationError it raises
    try:
        return repr(run())
    except IntegrationError as exc:
        return str(exc), repr(exc.closest_approach)


def test_generated_code_bit_identical_on_random_terms_property():
    # random float terms: the package's loop returns the tuple loop's
    # Trajectory (or raises its error) on the test-side compile_system, and
    # the trapezoid kernel returns the sums of a node loop that calls it
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    coefficient = st.one_of(st.sampled_from(_SPECIAL_COEFFICIENTS),
                            st.floats(-10, 10, allow_nan=False))
    component = st.lists(st.tuples(coefficient, st.integers(0, 5), st.integers(0, 5)),
                         max_size=4).map(tuple)
    weights = st.sampled_from([(1, 1), (1, 2), (2, 3), (3, 1)])

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(component, component, weights, st.floats(0.01, 1.0),
                      st.floats(0.0, 0.7), st.floats(-2 * math.pi, 2 * math.pi),
                      st.sampled_from([(8, 0, 1), (16, 1, 2), (12, 1, 2)]))
    def check(P, Q, pq, r0, psi0, turn, nodes):
        f = _with_float_terms((P, Q))
        p, q = pq
        try:
            x, y = psi_point(p, q, psi0, r0)
            fP, fQ = f(x, y)
            sign = 1 if p * x * fQ - q * y * fP >= 0 else -1
        except OverflowError:
            sign = 1
        w = MonodromyWeights(p, q, sign)
        kw = dict(rel_tol=1e-8, abs_tol=1e-10, max_steps=40)
        span = (psi0, psi0 + turn)
        assert _outcome(lambda: _inlined(f, w, r0, span, **kw)) == \
            _outcome(lambda: psi_run(f, w, r0, span, **kw)[0])
        exponents = tuple(tuple((i, j) for _, i, j in comp) for comp in (P, Q))
        kernel = numeric.trapezoid_kernel(exponents, p, q)
        coefficients = (tuple(c for c, _, _ in comp) for comp in (P, Q))
        assert repr(kernel(*coefficients, *nodes)) == \
            repr(test_qhomog.node_sums(f, p, q, *nodes))

    check()


def test_loop_cached_by_structure_and_units():
    _dopri_loop.cache_clear()
    info = _dopri_loop.cache_info
    # the same system again reuses its loop
    s = parse_system("xdot = -y + x^2*y/5; ydot = x - y^3/9")
    return_map(s, [0.05])
    return_map(s, [0.03, 0.04])
    assert (info().hits, info().misses) == (2, 1)
    # a family whose members keep their monomials and their unit
    # coefficients passes only its coefficients: 40 members, one loop
    for k in range(1, 41):
        return_map(parse_system(f"xdot = -y + {k}*x^3/41; ydot = x"), [0.05])
    assert (info().hits, info().misses) == (41, 2)
    # a coefficient that moves from 1.0 to 2.0 changes what the loop writes
    one, two, three = (_loop_for(float_terms(parse_system(f"xdot = -y + {c}*x^3; ydot = x")))
                       for c in (1, 2, 3))
    assert one is not two and two is three
    assert one.__code__.co_filename == "<dopri (1,1) xdot = rx3 - ry; ydot = rx>"
    # coefficients that round to 0.0 and to -0.0 share their loop, and each
    # run stays the reference's, bit for bit
    plus, minus = (compile_system(parse_system(_INLINED_SYSTEMS[k]))
                   for k in ("underflow-to-zero", "underflow-to-minus-zero"))
    assert repr(plus.float_terms) != repr(minus.float_terms)
    assert _loop_for(plus.float_terms) is _loop_for(minus.float_terms) is two
    for f in (plus, minus):
        _assert_bit_identical(f, POLAR, 0.1, (0.0, 3.0), rel_tol=1e-12, abs_tol=1e-14)
    # the weights and the sign of W are part of the key
    loops = {_loop_for(plus.float_terms, w)
             for w in (POLAR, MonodromyWeights(1, 2, 1), MonodromyWeights(1, 1, -1))}
    assert len(loops) == 3
    assert info().currsize <= info().maxsize <= 16
