import cmath
import math

import pytest

from centerlab import qhomog
from centerlab.mpoly import Rat
from centerlab.qhomog import (
    QHSignature,
    classify_qh_center,
    condition_i_no_real_factors,
    condition_ii_integral,
    detect_quasi_homogeneity,
    measured_period,
    pq_circle,
    pq_period,
    pq_trig,
)
from centerlab.systems import parse_system, substitute

from conftest import HAM_QH, HAM_QH_EPS, HOMOG_CUBIC, poly

SIG11 = QHSignature(1, 1, 3)


def _cubic(lam, mu):
    return substitute(parse_system(HOMOG_CUBIC), {"lambda": lam, "mu": mu})


# -- detection -------------------------------------------------------------------


def test_detects_weighted_hamiltonian():
    sigs = detect_quasi_homogeneity(parse_system(HAM_QH), 6)
    assert QHSignature(2, 3, 8) in sigs


def test_detects_homogeneous_cubic():
    sigs = detect_quasi_homogeneity(parse_system(HOMOG_CUBIC), 4)
    assert sigs == [QHSignature(1, 1, 3)]


def test_mixed_weights_empty():
    s = parse_system("xdot = y + x^2 + x^3; ydot = -x^3")
    assert detect_quasi_homogeneity(s, 6) == []


# -- generalized trigonometric functions -------------------------------------------


def test_classical_case_matches_cos_sin():
    circle = pq_circle(1, 1)
    for th in (0.0, 0.3, 1.0, 2.5, 5.0):
        cs, sn = circle.cs_sn(th)
        assert abs(cs - math.cos(th)) < 1e-10
        assert abs(sn - math.sin(th)) < 1e-10


def test_initial_condition():
    for p, q in ((1, 1), (2, 3), (3, 2), (1, 2)):
        cs, sn = pq_trig(p, q, 0.0, circle=pq_circle(p, q))
        assert abs(cs - p ** (-1 / (2 * q))) < 1e-14
        assert sn == 0.0


def test_identity_along_circle():
    circle = pq_circle(2, 3)
    ths = [k * circle.tau / 500 for k in range(500)]
    assert max(abs(2 * circle.cs_sn(t)[0] ** 6 + 3 * circle.cs_sn(t)[1] ** 4 - 1)
               for t in ths) <= 1e-10


@pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 3), (3, 2)])
def test_period_formula_matches_ode(p, q):
    assert abs(pq_period(p, q) - measured_period(p, q)) <= 1e-9


def test_period_classical_value():
    assert abs(pq_period(1, 1) - 2 * math.pi) <= 1e-10


# -- condition (i) -----------------------------------------------------------------


def test_condition_i_cubic_exact():
    v = condition_i_no_real_factors(_cubic(1, 1), SIG11)
    assert v.holds and v.exact
    # weighted form: 9x^4 + 34x^2y^2 + (25 - 9mu)y^4, definite iff mu < 25/9
    v2 = condition_i_no_real_factors(_cubic(0, 3), SIG11)
    assert not v2.holds
    v3 = condition_i_no_real_factors(_cubic(0, Rat(20, 9)), SIG11)
    assert v3.holds
    # at mu = 25/9 the specialization degenerates: P and Q share the factor x
    with pytest.raises(ValueError, match="coprime"):
        condition_i_no_real_factors(_cubic(0, Rat(25, 9)), SIG11)


def test_condition_i_weighted_hamiltonian():
    s = substitute(parse_system(HAM_QH), {"a": 1, "b": 1})
    v = condition_i_no_real_factors(s, QHSignature(2, 3, 8))
    assert v.holds and v.sign == 1


def test_condition_i_requires_coprime():
    s = parse_system("xdot = (-y + y^2)*(x^2 + y^2); ydot = (x + 2*x^2)*(x^2 + y^2)")
    with pytest.raises(ValueError, match="coprime"):
        condition_i_no_real_factors(s, SIG11)


def test_condition_i_grid_path():
    # the weighted form x^4 + x^3*y + y^4 is not even-even, so the decision
    # goes through the grid + Lipschitz certificate
    s = parse_system("xdot = -y^3; ydot = x^3 + x^2*y")
    sig = QHSignature(1, 1, 3)
    v = condition_i_no_real_factors(s, sig)
    assert v.holds and not v.exact


# -- condition (ii) ------------------------------------------------------------------


def test_condition_ii_center_cases():
    for lam, mu in ((0, 1), (1, 0)):
        r = condition_ii_integral(_cubic(lam, mu), SIG11)
        assert abs(r.value) <= 1e-8


def test_condition_ii_focus_case_matches_closed_form():
    r = condition_ii_integral(_cubic(1, 1), SIG11)
    assert abs(r.value) >= 1e-3
    mu, lam = 1.0, 1.0
    s1 = cmath.sqrt(9 * mu - 25)
    s2 = cmath.sqrt(81 * mu + 64)
    s3 = cmath.sqrt(-17 - cmath.sqrt(64 + 81 * mu))
    s4 = cmath.sqrt(-17 + cmath.sqrt(64 + 81 * mu))
    closed = (-4 * cmath.pi * lam) / (s1 * s2 * s3 * s4) * (
        s3 * (160 - 27 * mu - 5 * cmath.sqrt(64 + 81 * mu))
        + s4 * (-160 + 27 * mu - 5 * cmath.sqrt(64 + 81 * mu)))
    assert abs(closed.imag) < 1e-12
    assert abs(r.value - closed.real) <= 1e-6 * abs(closed.real)


def test_condition_ii_weighted_hamiltonian_zero():
    s = substitute(parse_system(HAM_QH), {"a": 1, "b": 1})
    r = condition_ii_integral(s, QHSignature(2, 3, 8))
    assert abs(r.value) <= 1e-8


def test_condition_ii_requires_condition_i():
    with pytest.raises(ValueError, match="condition"):
        condition_ii_integral(_cubic(0, 3), SIG11)


def test_condition_ii_invariant_under_time_rescaling():
    s = _cubic(1, 1)
    scaled = parse_system(f"xdot = 3*({s.P}); ydot = 3*({s.Q})")
    r1 = condition_ii_integral(s, SIG11)
    r2 = condition_ii_integral(scaled, SIG11)
    assert abs(r1.value - r2.value) <= 1e-9


def test_condition_ii_odd_symmetry_zero():
    # odd-symmetric integrand: F/G has period-pi antisymmetry, exact zero
    s = parse_system("xdot = -y^3; ydot = x^3")
    r = condition_ii_integral(s, QHSignature(1, 1, 3))
    assert abs(r.value) <= 1e-10


# -- classification ---------------------------------------------------------------------


def test_classify_perturbed_hamiltonian_center():
    s = substitute(parse_system(HAM_QH_EPS), {"a": 1, "b": 1, "eps": 1})
    verdict, info = classify_qh_center(s, QHSignature(2, 3, 8))
    assert verdict == "center"


def test_classify_cubic_focus():
    verdict, _ = classify_qh_center(_cubic(1, 1), SIG11)
    assert verdict == "focus"


def test_classify_quartic_hamiltonian_center():
    verdict, _ = classify_qh_center(parse_system("xdot = -y^3; ydot = x^3"),
                                    QHSignature(1, 1, 3))
    assert verdict == "center"


def test_classify_condition_i_failure_undecided():
    verdict, info = classify_qh_center(_cubic(0, 3), SIG11)
    assert verdict == "undecided"


def test_classify_decides_condition_i_once(monkeypatch):
    calls = []
    decide = qhomog.condition_i_no_real_factors

    def counted(s, sig, *args, **kwargs):
        calls.append(sig)
        return decide(s, sig, *args, **kwargs)

    monkeypatch.setattr(qhomog, "condition_i_no_real_factors", counted)
    verdict, info = classify_qh_center(_cubic(1, 1), SIG11)
    assert verdict == "focus"
    assert len(calls) == 1
    # the stand-alone integral still checks condition (i) itself
    assert info["condition_ii"] == condition_ii_integral(_cubic(1, 1), SIG11)
    assert len(calls) == 2
