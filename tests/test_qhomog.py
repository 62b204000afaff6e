import cmath
import contextlib
import io
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from centerlab import cli, numeric, qhomog, structure, systems
from centerlab.mpoly import MPoly, Rat
from centerlab.numeric import compile_system
from centerlab.qhomog import (
    QHSignature,
    classify_qh_center,
    condition_i_no_real_factors,
    detect_quasi_homogeneity,
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
    if detect_quasi_homogeneity(s) == sig:
        verdict, info = classify_qh_center(s, sig)
        assert info["condition_ii"] == r
        assert verdict == _reference_verdict(value, error)
    # the halving difference is far below the double integration's estimate
    assert r.error <= error


def compiled_period_integral(s, sig, rel_tol=1e-12):
    """The trapezoid rule as the package ran it before its generated kernel:
    the integrand calls ``compile_system``'s function at each node, and a
    Python loop sums each node of the upper half turn with its reflection."""
    fPQ = compile_system(s)
    p, q = sig.p, sig.q
    tau = 2 * math.pi

    def integrand(c, sn):
        P, Q = fPQ(c, sn)
        W = p * c * Q - q * sn * P
        return (c * P + sn * Q) / W if W else math.inf

    def sums(n, first, step):
        total = size = 0.0
        for k in range(first, n // 2 + 1, step):
            if 2 * k == n:
                c, sn = -1.0, 0.0
            else:
                c, sn = math.cos(tau * k / n), math.sin(tau * k / n)
            v = integrand(c, sn)
            size += abs(v)
            if 0 < 2 * k < n:
                u = integrand(c, -sn)
                size += abs(u)
                v += u
            total += v
        return total, size

    n = qhomog.MIN_NODES
    total, size = sums(n, 0, 1)
    value = tau * total / n
    while True:
        n *= 2
        odd_total, odd_size = sums(n, 1, 2)
        total += odd_total
        size += odd_size
        new = tau * total / n
        diff = abs(new - value)
        value = new
        converged = diff <= rel_tol * (tau * size / n)
        if converged or n >= qhomog.MAX_NODES or not math.isfinite(diff):
            err = diff + abs(value) * rel_tol * 10 + 1e-15
            return qhomog.ConditionIIResult(value, err, n, diff, converged)


def _random_qh_systems(seed, count):
    """``count`` seeded (p,q)-quasi-homogeneous systems with small rational
    coefficients whose condition (i) holds, each with its signature."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p, q = rng.choice([(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (1, 3)])
        m = rng.randint(1, 7)
        terms = []
        for w in (p - 1 + m, q - 1 + m):
            fits = [(i, j) for i in range(w // p + 1) for j in range(w // q + 1)
                    if p * i + q * j == w]
            picked = rng.sample(fits, rng.randint(1, len(fits))) if fits else []
            terms.append({e: Rat(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 7))
                          for e in picked})
        if not all(terms):
            continue
        s = PlaneSystem(MPoly(("x", "y"), terms[0]), MPoly(("x", "y"), terms[1]))
        sig = detect_quasi_homogeneity(s)
        if sig is None:
            continue
        try:
            if not condition_i_no_real_factors(s, sig).holds:
                continue
        except ValueError:
            continue
        out.append((s, sig))
    return out


_KERNEL_CASES = (
    [(f"cubic-lambda={lam}-mu={k}/8", _cubic(lam, Rat(k, 8)), SIG11)
     for lam in (0, 1) for k in range(25)]
    + [(f"ham-qh-{a}-{b}", substitute(parse_system(HAM_QH), {"a": a, "b": b}), SIG238)
       for a, b in ((1, 1), (3, Rat(2, 7)), (-1, 5))]
    + [(f"random-{k}", s, sig) for k, (s, sig) in enumerate(_random_qh_systems(20261020, 12))])


@pytest.mark.parametrize("s,sig", [c[1:] for c in _KERNEL_CASES],
                         ids=[c[0] for c in _KERNEL_CASES])
def test_kernel_matches_compiled_integrand(s, sig):
    # the generated kernel gives every float of the integrand that calls the
    # compiled right-hand side: value, error, nodes, halving difference and
    # convergence are identical (repr tells -0.0 and nan apart as == cannot)
    got = qhomog._period_integral(s, sig)
    ref = compiled_period_integral(s, sig)
    assert [repr(getattr(got, f)) for f in ("value", "error", "nodes", "difference", "converged")] \
        == [repr(getattr(ref, f)) for f in ("value", "error", "nodes", "difference", "converged")]


def test_sweep_with_a_fixed_structure_compiles_one_kernel(tmp_path):
    # the six points of a sweep share their monomials and weights, so they
    # share one kernel and pass only their coefficients
    root = Path(__file__).resolve().parents[1]
    numeric.trapezoid_kernel.cache_clear()
    rc = cli.main(["qhcenter", str(root / "sample_systems" / "homogeneous_cubic.sys"),
                   "--set", "lambda=1", "--sweep", "mu=1/2:7/4:1/4", "--no-timings",
                   "-o", str(tmp_path / "out.json")])
    assert rc == 0
    info = numeric.trapezoid_kernel.cache_info()
    assert (info.misses, info.hits) == (1, 5)


# -- sweeps from one integer table ------------------------------------------------

CUBIC_FILE = Path(__file__).resolve().parents[1] / "sample_systems" / "homogeneous_cubic.sys"


def _qhomog_report(argv, path):
    """The qhomog block of one in-process qhcenter run, or the exit code and
    the error line when it exits nonzero."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(["qhcenter", str(CUBIC_FILE), *argv, "--no-timings", "-o", str(path)])
    if rc:
        return rc, err.getvalue()
    return json.loads(path.read_text())["qhomog"]


def test_table_points_match_the_substituted_system_property():
    # the family table at a point gives the monomials, float coefficients
    # and signature of the system that substitute builds there, and None
    # exactly where that system has fewer monomials
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    family = parse_system(CUBIC_FILE.read_text())
    rationals = st.fractions(-4, 4, max_denominator=12)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(rationals, st.one_of(rationals, st.sampled_from([Rat(25, 9), Rat(0)])))
    def check(lam, mu):
        s = substitute(family, {"lambda": lam})
        point = qhomog.sweep_table(s, "mu").at(mu)
        fixed = substitute(s, {"mu": mu})
        terms = numeric.float_terms(fixed)
        exponents = tuple(tuple((i, j) for _, i, j in comp) for comp in terms)
        if point is None:
            assert exponents != qhomog.sweep_table(s, "mu").exponents
            return
        assert point.table.exponents == exponents
        assert point.floats() == tuple(tuple(c for c, _, _ in comp) for comp in terms)
        assert detect_quasi_homogeneity(point) == detect_quasi_homogeneity(fixed)
        assert [Fraction(n, point.den) for comp in point.numerators for n in comp] \
            == [Fraction(num, den) for poly in (fixed.P, fixed.Q)
                for _, num, den in poly.integer_terms_in(("x", "y"))]

    check()


def test_sweep_entries_match_one_point_runs_property(tmp_path):
    # every entry of a sweep, apart from its label, is the qhomog block of
    # the one-point run at its value, refusals included
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    out = tmp_path / "out.json"

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.fractions(-3, 3, max_denominator=6),
                      st.fractions(-2, 4, max_denominator=9),
                      st.fractions(Fraction(1, 9), 1, max_denominator=9))
    def check(lam, start, step):
        end = start + 2 * step
        swept = _qhomog_report(["--set", f"lambda={lam}", "--sweep", f"mu={start}:{end}:{step}"],
                               out)
        singles = [_qhomog_report(["--set", f"lambda={lam}", "--set", f"mu={v}"], out)
                   for v in (start, start + step, end)]
        if isinstance(swept, tuple):
            # every point refused: the sweep exits with the first one's error
            assert all(isinstance(r, tuple) for r in singles) and swept == singles[0]
            return
        for entry, single, v in zip(swept["sweep"], singles, (start, start + step, end)):
            assert entry.pop("sweep") == {"mu": str(v)}
            if entry["verdict"] == "refused":
                assert single == (3, f"error: {entry['reason']}\n")
            else:
                assert entry == single

    check()


def test_sweep_reads_a_new_structure_through_substitute(monkeypatch, tmp_path):
    # at lambda = 1, mu = 25/9 removes P's y^3 term: that point alone is
    # built by substitute, and its entry is the one-point run's (x divides
    # W there, so condition (i) fails and no second kernel is compiled)
    calls = _count_calls(monkeypatch, cli, "substitute")
    swept = _qhomog_report(["--set", "lambda=1", "--sweep", "mu=2:3:1/9"], tmp_path / "a.json")
    assert [c[1] for c in calls] == [{"lambda": Rat(1)}, {"mu": Rat(25, 9)}]
    entry = swept["sweep"][7]
    assert entry.pop("sweep") == {"mu": "25/9"}
    assert entry == _qhomog_report(["--set", "lambda=1", "--set", "mu=25/9"], tmp_path / "b.json")
    assert entry["verdict"] == "undecided" and entry["condition_i"] is False


def test_a_refused_point_of_the_table_keeps_its_reason(tmp_path):
    # at lambda = 0, mu = 0 every monomial of the family stays, so the point
    # is read from the table, and the gcd of P(1, t) and Q(1, t) refuses it
    s = substitute(parse_system(CUBIC_FILE.read_text()), {"lambda": 0})
    point = qhomog.sweep_table(s, "mu").at(Rat(0))
    assert point is not None
    reason = "P and Q must be coprime; P(1, t) and Q(1, t) have a common factor"
    with pytest.raises(ValueError, match=re.escape(reason)):
        condition_i_no_real_factors(point, SIG11)
    swept = _qhomog_report(["--set", "lambda=0", "--sweep", "mu=0:1/8:1/8"], tmp_path / "a.json")
    assert swept["sweep"][0] == {"sweep": {"mu": "0"}, "verdict": "refused", "reason": reason}
    assert _qhomog_report(["--set", "lambda=0", "--set", "mu=0"], tmp_path / "b.json") \
        == (3, f"error: {reason}\n")


def test_a_generic_sweep_point_substitutes_and_multiplies_nothing(monkeypatch, tmp_path):
    # the table is built once; a point that keeps the family's monomials is
    # read from it with no substitute, no MPoly product and no Fraction
    # coefficient list
    path = tmp_path / "cubic.sys"
    path.write_text("params: mu\nxdot = 12*x^3 - 9*x^2*y - 20*x*y^2 - 25*y^3 + 9*mu*y^3\n"
                    "ydot = 9*x^3 + 12*x^2*y + 25*x*y^2 - 20*y^3\n")
    args = cli.build_parser().parse_args(["qhcenter", str(path), "--sweep", "mu=1/2:7/4:1/4"])
    s = parse_system(path.read_text())
    counted = [_count_calls(monkeypatch, cli, "substitute"),
               _count_calls(monkeypatch, systems, "substitute"),
               _count_calls(monkeypatch, MPoly, "__mul__"),
               _count_calls(monkeypatch, MPoly, "coefficient_list")]
    entries = cli.cmd_qhcenter(args, s)["qhomog"]["sweep"]
    assert [e["verdict"] for e in entries] == ["focus"] * 6
    assert counted == [[], [], [], []]


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
        terms = [(dict(zip(poly.vars, e)), mpmath.mpf(num) / den)
                 for e, num, den in poly.integer_terms()]
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


def _sign_counting_both_lines(at_0_1, on_x1, on_xm1):
    """Reference: :func:`structure.weighted_sign_on_lines` with a Sturm count
    on each of W(1, t) and W(-1, t), whatever p and q are."""
    if not any(on_x1):
        return 0, "weighted form is identically zero"
    if not at_0_1:
        return 0, "x divides the weighted form"
    for x0, line in ((1, on_x1), (-1, on_xm1)):
        if structure.real_root_count(line):
            return 0, f"W({x0}, t) has a real root"
    return (1 if at_0_1 > 0 else -1), "W(1, t) and W(-1, t) have no real root (Sturm counts)"


def test_condition_i_counts_one_line_when_p_and_q_are_odd(monkeypatch, tmp_path):
    # p = q = 1: W(-1, t) = +-W(1, -t), so each sweep point that reaches the
    # Sturm counts runs one, and every verdict and detail is the one that
    # counting both lines gives
    sweeps = [["--set", "lambda=1", "--sweep", "mu=1/2:7/4:1/4"],
              ["--set", "lambda=0", "--sweep", "mu=0:3:1/8"],
              ["--set", "lambda=1", "--sweep", "mu=0:3:1/8"],
              ["--set", "mu=1", "--sweep", "lambda=-1:1:1/4"]]
    reference = []
    with monkeypatch.context() as m:
        m.setattr(qhomog, "weighted_sign_on_lines", _sign_counting_both_lines)
        for k, argv in enumerate(sweeps):
            reference.append(_qhomog_report(argv, tmp_path / f"ref{k}.json"))
    counts = _count_calls(monkeypatch, structure, "real_root_count")
    for k, argv in enumerate(sweeps):
        assert _qhomog_report(argv, tmp_path / f"new{k}.json") == reference[k]
    counts.clear()
    passing = _qhomog_report(sweeps[0], tmp_path / "a.json")["sweep"]
    assert len(passing) == 6 and all(e["condition_i"] for e in passing)
    assert len(counts) == len(passing)
    # odd powers of t: W = x^4 + x^3*y + y^4 gives W(-1, t) = W(1, -t)
    counts.clear()
    W = MPoly(("x", "y"), {(4, 0): 1, (3, 1): 1, (0, 4): 1})
    assert structure.weighted_form_sign(W)[0] == 1 and len(counts) == 1
    # weights (2, 3): W = x^3 + y^2 gives W(-1, t) = t^2 - 1, no mirror of
    # W(1, t) = t^2 + 1, so both lines are counted
    counts.clear()
    W = MPoly(("x", "y"), {(3, 0): 1, (0, 2): 1})
    assert structure.weighted_form_sign(W) == (0, "W(-1, t) has a real root")
    assert len(counts) == 2
