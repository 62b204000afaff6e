import cmath
import math
from pathlib import Path

import pytest

from centerlab import numeric, qhomog
from centerlab.mpoly import MPoly, Rat
from centerlab.numeric import compile_system
from centerlab.qhomog import (
    QHSignature,
    classify_qh_center,
    condition_i_no_real_factors,
    detect_quasi_homogeneity,
    qh_signature,
)
from centerlab.systems import PlaneSystem, parse_system, substitute

from conftest import (
    HAM_QH,
    HAM_QH_EPS,
    HOMOG_CUBIC,
    measured_period,
    poly,
    pq_period,
)
from reference_dopri import _tuple_loop_integrate, refine_crossing

SIG11 = QHSignature(1, 1, 3)
SIG238 = QHSignature(2, 3, 8)


def _cubic(lam, mu):
    return substitute(parse_system(HOMOG_CUBIC), {"lambda": lam, "mu": mu})


def _closed_form(mu, lam=1.0):
    """The condition (ii) integral of the homogeneous cubic, for mu < 25/9."""
    s1 = cmath.sqrt(9 * mu - 25)
    s2 = cmath.sqrt(81 * mu + 64)
    s3 = cmath.sqrt(-17 - cmath.sqrt(64 + 81 * mu))
    s4 = cmath.sqrt(-17 + cmath.sqrt(64 + 81 * mu))
    closed = (-4 * cmath.pi * lam) / (s1 * s2 * s3 * s4) * (
        s3 * (160 - 27 * mu - 5 * cmath.sqrt(64 + 81 * mu))
        + s4 * (-160 + 27 * mu - 5 * cmath.sqrt(64 + 81 * mu)))
    assert abs(closed.imag) < 1e-12
    return closed.real


def reference_period_integral(s, sig, rel_tol=1e-12):
    """The double Dormand-Prince quadrature that the trapezoid rule replaced:
    the 3-state (Cs, Sn, I) system integrated on the tests' reference loop
    once at ``rel_tol`` and once at ``100*rel_tol`` up to the return of
    (Cs, Sn) to its start."""
    fPQ = compile_system(s)
    p, q = sig.p, sig.q
    e1 = 2 * p - 1
    e2 = 2 * q - 1
    z0 = p ** (-1 / (2 * q))

    def rhs(z, w, I):
        P, Q = fPQ(z, w)
        F = z ** e2 * P + w ** e1 * Q
        G = p * z * Q - q * w * P
        return (-(w ** e1), z ** e2, F / G)

    def run(tol):
        tau_formula = pq_period(p, q)
        hit = {}

        def callback(seg, t_new, y_new):
            if t_new < 0.5 * tau_formula:
                return False
            if seg.y0[1] < 0 <= y_new[1] and y_new[0] > 0:
                _, yc = refine_crossing(seg, lambda st: st[1])
                hit["I"] = yc[2]
                return True
            return False

        _tuple_loop_integrate(rhs, (z0, 0.0, 0.0), (0.0, 2.5 * tau_formula),
                              rel_tol=tol, abs_tol=tol * 1e-2, step_callback=callback)
        assert "I" in hit, "integration did not close the period"
        return hit["I"]

    i1 = run(rel_tol)
    i2 = run(min(1e-4, rel_tol * 100))
    return i1, abs(i1 - i2) + abs(i1) * rel_tol * 10 + 1e-15


def _reference_verdict(value, error, zero_tol=1e-8):
    return "center" if abs(value) <= max(zero_tol, 1e3 * error) else "focus"


# -- detection -------------------------------------------------------------------


def test_detects_weighted_hamiltonian():
    assert detect_quasi_homogeneity(parse_system(HAM_QH)) == QHSignature(2, 3, 8)


def test_detects_homogeneous_cubic():
    assert detect_quasi_homogeneity(parse_system(HOMOG_CUBIC)) == QHSignature(1, 1, 3)


def test_mixed_weights_empty():
    s = parse_system("xdot = y + x^2 + x^3; ydot = -x^3")
    assert detect_quasi_homogeneity(s) is None


def test_detects_weights_beyond_any_small_bound():
    # (1, 9): x^17 fixes the ray against y, and nothing caps the weights
    s = parse_system("xdot = y; ydot = -x^17")
    assert detect_quasi_homogeneity(s) == QHSignature(1, 9, 9)


def _searched_signature(P, Q, bound=40):
    # the coprime search that solving for the weights replaced: the first
    # (p, q), p then q ascending up to the bound, at which every monomial
    # x^i y^j of P gives one weight degree p*i + q*j - p + 1 (of Q:
    # p*i + q*j - q + 1) and that degree is >= 0
    for p in range(1, bound + 1):
        for q in range(1, bound + 1):
            if math.gcd(p, q) != 1:
                continue
            ms = ({p * i + q * j - p + 1 for i, j in P}
                  | {p * i + q * j - q + 1 for i, j in Q})
            if len(ms) == 1 and min(ms) >= 0:
                return QHSignature(p, q, min(ms))
    return None


def test_detection_matches_coprime_search_property():
    # unconstrained monomial sets, sets on one weight ray (with an extra
    # monomial or not), and sets along a line whose ray is not positive
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    expo = st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(any)
    unconstrained = st.tuples(st.sets(expo, max_size=5), st.sets(expo, max_size=5))

    @st.composite
    def on_ray(draw):
        p = draw(st.integers(1, 9))
        q = draw(st.integers(1, 9).filter(lambda q: math.gcd(p, q) == 1))
        m = draw(st.integers(0, 40))
        # P has weight degree p - 1 + m and Q has q - 1 + m
        fits = [[(i, j) for i in range(w // p + 1) for j in range(w // q + 1)
                 if p * i + q * j == w and (i, j) != (0, 0)] for w in (p - 1 + m, q - 1 + m)]
        P, Q = ({e for e in row if draw(st.booleans())} for row in fits)
        if draw(st.booleans()):
            (P if draw(st.booleans()) else Q).add(draw(expo))
        return P, Q

    @st.composite
    def non_positive_ray(draw):
        # the rows of P move by (k*di, k*dj) and those of Q too: no p, q > 0
        # makes p*di + q*dj vanish
        di, dj = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any))
        P, Q = set(), set()
        for monomials in (P, Q):
            i0, j0 = draw(st.tuples(st.integers(0, 4), st.integers(0, 4)))
            for k in draw(st.sets(st.integers(0, 3), max_size=3)):
                if (i0 + k * di, j0 + k * dj) != (0, 0):
                    monomials.add((i0 + k * di, j0 + k * dj))
        return P, Q

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.one_of(unconstrained, on_ray(), non_positive_ray()))
    def check(monomials):
        P, Q = monomials
        hypothesis.assume(P or Q)
        table = ("x", "y")
        s = PlaneSystem(MPoly(table, dict.fromkeys(P, Rat(1))),
                        MPoly(table, dict.fromkeys(Q, Rat(-2))))
        assert detect_quasi_homogeneity(s) == _searched_signature(P, Q)

    check()


def test_detection_matches_coprime_search_on_sample_and_bench_systems():
    root = Path(__file__).resolve().parents[1]
    paths = sorted((root / "sample_systems").glob("*.sys")) + sorted((root / "bench" / "systems").glob("*.sys"))
    assert len(paths) >= 10
    for path in paths:
        s = parse_system(path.read_text())
        xy = [set(poly.coefficients_in_vars(("x", "y"))) for poly in (s.P, s.Q)]
        assert detect_quasi_homogeneity(s) == _searched_signature(*xy), path.name


# -- generalized trigonometric functions -------------------------------------------


@pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 3), (3, 2)])
def test_period_formula_matches_ode(p, q):
    assert abs(pq_period(p, q) - measured_period(p, q)) <= 1e-9


def test_period_classical_value():
    assert abs(pq_period(1, 1) - 2 * math.pi) <= 1e-10


# -- condition (i) -----------------------------------------------------------------


def test_condition_i_cubic_exact():
    v = condition_i_no_real_factors(_cubic(1, 1), SIG11)
    assert v.holds
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
    # homogeneous with the common factor x + y, which is not x: it shows up
    # in gcd(P(1, t), Q(1, t))
    s = parse_system("xdot = -(x + y)*y^2; ydot = (x + y)*x^2")
    with pytest.raises(ValueError, match="coprime"):
        condition_i_no_real_factors(s, SIG11)


@pytest.mark.parametrize("s,sig", [
    (parse_system("xdot = (-y + y^2)*(x^2 + y^2); ydot = (x + 2*x^2)*(x^2 + y^2)"), SIG11),
    (substitute(parse_system(HAM_QH_EPS), {"a": 1, "b": 1, "eps": 1}), SIG238),
    (parse_system("xdot = -y^3; ydot = x^3"), QHSignature(1, 1, 2)),
], ids=["mixed-degrees", "ham-qh-eps", "wrong-weight-degree"])
def test_condition_i_refuses_non_quasi_homogeneous(s, sig):
    # the reduction to x = +-1 holds only for (p,q)-quasi-homogeneous P, Q
    with pytest.raises(ValueError, match="not"):
        condition_i_no_real_factors(s, sig)


def test_condition_i_form_not_even():
    # the weighted form x^4 + x^3*y + y^4 is not even in x or y; it is
    # positive off the origin, and decided exactly like the even forms
    s = parse_system("xdot = -y^3; ydot = x^3 + x^2*y")
    v = condition_i_no_real_factors(s, SIG11)
    assert v.holds and v.sign == 1
    # x^4 - 2*x^3*y + y^4 vanishes on the diagonal (W(1, 1) = 0)
    s = parse_system("xdot = -y^3; ydot = x^3 - 2*x^2*y")
    assert not condition_i_no_real_factors(s, SIG11).holds


def _weighted_monomials(weight, p, q):
    return [(i, (weight - p * i) // q) for i in range(weight // p + 1)
            if (weight - p * i) % q == 0]


def test_condition_i_matches_sympy_property():
    # random (p,q)-quasi-homogeneous P, Q with small integer coefficients:
    # the coprimality check against sympy.gcd, the verdict against sympy's
    # real roots of W(1, t) and W(-1, t) and W(0, 1) != 0, and the reported
    # sign against W at rational points
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    x, y, t = sympy.symbols("x y t")

    def real_root_free(expr):
        return not sympy.real_roots(sympy.Poly(expr, t))

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.data())
    def check(data):
        p, q = data.draw(st.sampled_from([(1, 1), (1, 2), (2, 3)]))
        m = data.draw(st.integers(1, 6))
        sides = []
        for weight in (p - 1 + m, q - 1 + m):
            monos = _weighted_monomials(weight, p, q)
            coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(monos),
                                        max_size=len(monos)))
            sides.append(sum((c * x ** i * y ** j for c, (i, j) in zip(coeffs, monos)),
                             sympy.Integer(0)))
        P, Q = sides
        hypothesis.assume(P != 0 or Q != 0)
        s = parse_system(f"xdot = {P}; ydot = {Q}".replace("**", "^"))
        sig = QHSignature(p, q, m)
        if sympy.Poly(sympy.gcd(P, Q), x, y).total_degree() > 0:
            with pytest.raises(ValueError, match="coprime"):
                condition_i_no_real_factors(s, sig)
            return
        v = condition_i_no_real_factors(s, sig)
        W = sympy.expand(p * x * Q - q * y * P)
        expected = (W != 0 and W.subs({x: 0, y: 1}) != 0
                    and real_root_free(W.subs({x: 1, y: t}))
                    and real_root_free(W.subs({x: -1, y: t})))
        assert v.holds == expected
        if v.holds:
            for _ in range(5):
                a, b = (data.draw(st.fractions(-5, 5, max_denominator=7)) for _ in "ab")
                hypothesis.assume(a or b)
                value = W.subs({x: sympy.Rational(a.numerator, a.denominator),
                                y: sympy.Rational(b.numerator, b.denominator)})
                assert (value > 0) == (v.sign > 0)

    check()


# -- condition (ii) ------------------------------------------------------------------


def _condition_ii(s, sig):
    return classify_qh_center(s, sig)[1]["condition_ii"]


def test_condition_ii_center_cases():
    for lam, mu in ((0, 1), (1, 0)):
        r = _condition_ii(_cubic(lam, mu), SIG11)
        assert abs(r.value) <= 1e-8


def test_condition_ii_focus_case_matches_closed_form():
    r = _condition_ii(_cubic(1, 1), SIG11)
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


@pytest.mark.parametrize("mu", [Rat(1, 2), Rat(1), Rat(3, 2), Rat(2), Rat(5, 2)])
def test_condition_ii_matches_closed_form_to_rounding(mu):
    # the double Dormand-Prince quadrature was off by up to 3e-12 here
    r = _condition_ii(_cubic(1, mu), SIG11)
    closed = _closed_form(float(mu))
    assert r.converged
    assert abs(r.value - closed) <= 1e-12 * abs(closed)


_REFERENCE_CASES = (
    [(f"cubic-mu={k}/8", _cubic(1, Rat(k, 8)), SIG11) for k in range(17)]
    + [("ham-qh", substitute(parse_system(HAM_QH), {"a": 1, "b": 1}), SIG238),
       ("ham-qh-eps", substitute(parse_system(HAM_QH_EPS), {"a": 1, "b": 1, "eps": 1}),
        SIG238)])


@pytest.mark.parametrize("s,sig", [c[1:] for c in _REFERENCE_CASES],
                         ids=[c[0] for c in _REFERENCE_CASES])
def test_trapezoid_matches_double_dopri_reference(s, sig):
    value, error = reference_period_integral(s, sig)
    r = qhomog._period_integral(s, sig)
    assert r.converged and r.nodes >= qhomog.MIN_NODES
    assert abs(r.value - value) <= 1e-9
    # HAM_QH_EPS at eps = 1 is not (2,3)-quasi-homogeneous, so it has no
    # verdict to compare; its integral is still defined
    if qh_signature(s, sig.p, sig.q) == sig:
        verdict, info = classify_qh_center(s, sig)
        assert info["condition_ii"] == r
        assert verdict == _reference_verdict(value, error)
    # the halving difference is far below the double integration's estimate
    assert r.error <= error


@pytest.mark.parametrize("s", [
    substitute(parse_system(HAM_QH), {"a": 1, "b": 1}),
    substitute(parse_system(HAM_QH_EPS), {"a": 1, "b": 1, "eps": 1}),
    parse_system("xdot = -y^3 + x^3*y; ydot = x^5"),
], ids=["ham-qh", "ham-qh-eps", "reversible"])
def test_condition_ii_error_bounds_p_ne_q_centers(s):
    # Hamiltonian or reversible, so the integral is exactly 0, and the
    # estimate must carry what rounding leaves of it (HAM_QH_EPS at eps = 1
    # is not (2,3)-quasi-homogeneous, so condition (i) would refuse it)
    r = qhomog._period_integral(s, SIG238)
    assert r.converged and r.difference < 1e-15
    assert abs(r.value) <= r.error <= 1e-14


def _mpmath_period_integral(mpmath, s, sig):
    """The integral of F/G * dtheta/dpsi over psi in [0, 2pi), by tanh-sinh
    quadrature at 30 digits on the exact coefficients of the system."""
    p, q = sig.p, sig.q

    def evaluator(poly):
        terms = [(dict(zip(poly.vars, e)), mpmath.mpf(c.numerator) / c.denominator)
                 for e, c in poly.sorted_terms()]
        return lambda z, w: mpmath.fsum(c * z ** e.get("x", 0) * w ** e.get("y", 0)
                                        for e, c in terms)

    fP, fQ = evaluator(s.P), evaluator(s.Q)

    def integrand(psi):
        c, sn = mpmath.cos(psi), mpmath.sin(psi)
        rho = (p * c ** (2 * q) + q * sn ** (2 * p)) ** (mpmath.mpf(-1) / (2 * p * q))
        z, w = rho ** p * c, rho ** q * sn
        P, Q = fP(z, w), fQ(z, w)
        F = z ** (2 * q - 1) * P + w ** (2 * p - 1) * Q
        G = p * z * Q - q * w * P
        return F / G * rho ** (p + q) * (p * c ** 2 + q * sn ** 2)

    with mpmath.workdps(30):
        value, error = mpmath.quad(integrand, mpmath.linspace(0, 2 * mpmath.pi, 17),
                                   error=True)
        assert error < mpmath.mpf(10) ** -25
        return value


@pytest.mark.parametrize("text,sig,reference", [
    ("xdot = -y + x^3; ydot = x^5 + x^2*y", QHSignature(1, 3, 3), 2.961921958772244),
    ("xdot = y + 1/10*x^9; ydot = -x^17", QHSignature(1, 9, 9), -0.1059181130034966832),
    ("xdot = y + 1/10*x^9; ydot = -x^17 + 1/3*x^8*y", QHSignature(1, 9, 9),
     -0.1441491771714737668),
    ("xdot = -y^3 + 1/2*x^3*y; ydot = x^5 + 1/2*x^2*y^2", SIG238, 0.0),
    ("xdot = -y^5 + 1/3*x^5*y^2; ydot = x^9 + 1/5*x^4*y^3", QHSignature(3, 5, 23),
     0.1237536281709147050),
], ids=["1-3-focus", "1-9-focus", "1-9-focus-xy", "2-3-reversible", "3-5-focus"])
def test_condition_ii_matches_mpmath_p_ne_q(text, sig, reference):
    # every (2,3) system of weight degree 8 is odd in y in P and even in Q,
    # hence reversible: the (2,3) case is a center that is not Hamiltonian
    mpmath = pytest.importorskip("mpmath")
    s = parse_system(text)
    verdict, info = classify_qh_center(s, sig)
    r = info["condition_ii"]
    ref = _mpmath_period_integral(mpmath, s, sig)
    assert abs(float(ref) - reference) <= 1e-15 * max(1.0, abs(reference))
    assert r.converged
    assert abs(r.value - float(ref)) <= r.error
    assert verdict == ("center" if reference == 0.0 else "focus")


@pytest.mark.parametrize("text,sig", [
    ("xdot = -y^3 + 1/2*x^3*y; ydot = x^5 + 1/2*x^2*y^2", SIG238),
    ("xdot = -y^3 + x^2*y; ydot = x^3 + x*y^2", SIG11),
], ids=["2-3", "1-1"])
def test_reversible_centers_sum_to_exact_zero(text, sig):
    # P odd and Q even in y: the integrand is odd under (c, s) -> (c, -s),
    # and each node meets its reflection before it enters the sum
    r = _condition_ii(parse_system(text), sig)
    assert r.value == 0.0 and r.difference == 0.0


def test_condition_ii_weighted_hamiltonian_zero():
    s = substitute(parse_system(HAM_QH), {"a": 1, "b": 1})
    r = _condition_ii(s, QHSignature(2, 3, 8))
    assert abs(r.value) <= 1e-8


def test_condition_ii_requires_condition_i():
    # the integral is taken only where the weighted form is definite
    verdict, info = classify_qh_center(_cubic(0, 3), SIG11)
    assert verdict == "undecided"
    assert not info["condition_i"].holds and "condition_ii" not in info


@pytest.mark.parametrize("rel_tol", [0.0, -1e-12, math.nan])
def test_condition_ii_rejects_tolerance_out_of_range(rel_tol):
    with pytest.raises(ValueError, match="rel_tol"):
        qhomog._period_integral(_cubic(1, 1), SIG11, rel_tol=rel_tol)


def test_condition_ii_invariant_under_time_rescaling():
    s = _cubic(1, 1)
    scaled = parse_system(f"xdot = 3*({s.P}); ydot = 3*({s.Q})")
    r1 = _condition_ii(s, SIG11)
    r2 = _condition_ii(scaled, SIG11)
    assert abs(r1.value - r2.value) <= 1e-9


def test_condition_ii_odd_symmetry_zero():
    # odd-symmetric integrand: it has period-pi antisymmetry, exact zero
    s = parse_system("xdot = -y^3; ydot = x^3")
    r = _condition_ii(s, QHSignature(1, 1, 3))
    assert abs(r.value) <= 1e-10


# -- classification ---------------------------------------------------------------------


def test_classify_perturbed_hamiltonian_center():
    # at eps = 1 the x^3 and x^5 terms have (2,3)-weights 6 and 10: the
    # system is not (2,3)-quasi-homogeneous and is refused, not classified
    s = substitute(parse_system(HAM_QH_EPS), {"a": 1, "b": 1, "eps": 1})
    with pytest.raises(ValueError, match="not"):
        classify_qh_center(s, QHSignature(2, 3, 8))


def test_classify_cubic_focus():
    verdict, _ = classify_qh_center(_cubic(1, 1), SIG11)
    assert verdict == "focus"


def test_classify_quartic_hamiltonian_center():
    verdict, _ = classify_qh_center(parse_system("xdot = -y^3; ydot = x^3"),
                                    QHSignature(1, 1, 3))
    assert verdict == "center"


@pytest.mark.parametrize("digits,verdict", [(4, "focus"), (6, "focus"), (8, "undecided")])
def test_classify_near_singular_is_never_center(digits, verdict):
    # mu just below 25/9, where condition (i) still holds: W nearly vanishes
    # at psi = pi/2, the integrand has a peak of width about 10^(-digits/2) and the
    # integral is large.  At 1e-4 the trapezoid rule converges; at 1e-6 it
    # reaches the node cap, but |I| already exceeds 1000 halving differences,
    # which shows the focus that the double Dormand-Prince quadrature read;
    # at 1e-8 it does not
    mu = Rat(25, 9) - Rat(1, 10 ** digits)
    s = _cubic(1, mu)
    got, info = classify_qh_center(s, SIG11)
    r = info["condition_ii"]
    assert got == verdict
    assert r.converged == (digits == 4)
    assert abs(r.value - _closed_form(float(mu))) <= r.error
    if r.converged:
        assert "detail" not in info
    else:
        assert r.nodes == qhomog.MAX_NODES
        assert info["detail"] == (f"trapezoid rule not converged at {qhomog.MAX_NODES} "
                                  f"nodes: halving difference {r.difference:.3g}")
    if verdict == "focus":
        assert _reference_verdict(*reference_period_integral(s, SIG11)) == "focus"


def test_unconverged_quadrature_is_undecided(monkeypatch):
    # a cap the tolerance cannot meet and a value within 1000 halving
    # differences: neither center nor focus is read from it
    monkeypatch.setattr(qhomog, "MAX_NODES", 128)
    verdict, info = classify_qh_center(_cubic(1, Rat(25, 9) - Rat(1, 10 ** 4)), SIG11)
    assert verdict == "undecided"
    r = info["condition_ii"]
    assert (r.nodes, r.converged) == (128, False)
    assert r.difference > 1e-12 * abs(r.value)
    assert abs(r.value) <= info["threshold"]


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_condition_ii_integrates_no_ode(monkeypatch):
    # (2,3)-quasi-homogeneous of weight degree 8 with a weighted form
    # 2x^6 - c*x^3*y^2 + 3y^4; condition (i) is exact, and condition (ii)
    # sums the return map's slope at r = 1 at any weights
    family = parse_system("xdot = -y^3 + c*x^3*y; ydot = x^5 + c*x^2*y^2")
    integrations = _count_calls(monkeypatch, numeric, "integrate_adaptive")
    loops = _count_calls(monkeypatch, numeric, "_dopri_loop")
    for k in range(1, 5):
        s = substitute(family, {"c": Rat(k, 8)})
        verdict, info = classify_qh_center(s, SIG238)
        assert info["condition_i"].holds and info["condition_ii"].converged
    for k in range(17):
        classify_qh_center(_cubic(1, Rat(k, 8)), SIG11)
    assert integrations == loops == []


def test_non_finite_integral_is_undecided():
    # divergence-free, so a Hamiltonian center; Q's coefficient underflows
    # to 0.0 and W vanishes at psi = 0, which makes the sum infinite
    s = parse_system("xdot = -y^101; ydot = x^101/10^400")
    sig = detect_quasi_homogeneity(s)
    verdict, info = classify_qh_center(s, sig)
    r = info["condition_ii"]
    assert not math.isfinite(r.value) and not r.converged
    assert verdict == "undecided"
    assert info["detail"] == (f"period integral not finite (value {r.value}, error {r.error}): "
                              "(c*P + s*Q)/W overflows or W rounds to 0 at a node")


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
    assert info["condition_ii"] == qhomog._period_integral(_cubic(1, 1), SIG11)
    assert len(calls) == 1
