"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; plain ``pytest`` reports the same information through test outcomes.
"""

import cmath
import math
import random
import time

import pytest

from centerlab.liapunov import DegreePass, _linear_scalars, _solve_degree
from centerlab.mpoly import MPoly, Rat
from centerlab.numeric import compile_system, integrate_adaptive, return_map
from centerlab.parser import DarbouxExpr
from centerlab.perturb import (
    build_perturbation,
    center_conditions_pipeline,
)
from centerlab.qhomog import QHSignature, classify_qh_center, detect_quasi_homogeneity
from centerlab.ratfunc import RatFunc, laurent_expand_eps, laurent_resum
from centerlab.structure import (
    characteristic_directions,
    is_hamiltonian,
    monodromy_weights,
    reversibility_conditions,
    verify_darboux_integral,
)
from centerlab.systems import format_system, parse_system, substitute

from conftest import (
    CUBIC_FAMILY_A,
    CUBIC_FAMILY_B,
    DEG_FACTORED,
    DEG_QUINTIC_EPS,
    HAM_QH,
    HAM_QH_EPS,
    HOMOG_CUBIC,
    HOMOG_CUBIC_EPS,
    HOMOLOGICAL_LINEAR_PARTS,
    NIL_CUBIC_AB,
    NIL_CUBIC_AB_EPS,
    NIL_CUBIC_K,
    NIL_DARBOUX,
    NIL_DARBOUX_EPS,
    NIL_REVERSIBLE,
    NIL_REVERSIBLE_EPS,
    NIL_SEXTIC,
    NIL_SEXTIC_EPS,
    integrated_circle,
    measured_period,
    poly,
    pq_period,
    random_poly,
    rf,
)


def report(line):
    print(f"ACCEPTANCE {line}")


# --------------------------------------------------------------------------
# 1. Oracle: obstruction constants as exact rational-function equalities
# --------------------------------------------------------------------------


def test_criterion_1_oracle_constants():
    t0 = time.time()
    checks = []

    # cubic AB family: V1 and V2 (after the first condition)
    s = parse_system(NIL_CUBIC_AB_EPS)
    run = DegreePass(s, 4)
    scale = run.convention.unit_seed_scale
    v1 = dict(run)[4] * scale
    checks.append(("1a V1 cubic-AB",
                   v1 == rf("-(2*eps^2*(A*B - 3*L))/(3 + 2*eps + 3*eps^2)", s.vars)))
    s2 = substitute(s, {"L": rf("A*B/3", s.vars).as_poly()})
    v2 = dict(DegreePass(s2, 6))[6] * scale
    checks.append(("1a V2 cubic-AB",
                   v2 == rf("-(2*eps^2*A*B*(A^2 - 2*K))/(3*(1 + eps)*(5 - 2*eps + 5*eps^2))",
                            s2.vars)))

    # sextic family: V1 exact; V2 up to a documented parameter-free factor
    g = parse_system(NIL_SEXTIC_EPS)
    w1 = dict(DegreePass(g, 6))[6] * scale
    checks.append(("1b V1 sextic",
                   w1 == rf("2*eps*c/(5 + 3*eps + 3*eps^2 + 5*eps^3)", g.vars)))
    g2 = substitute(g, {"c": 0})
    w2 = dict(DegreePass(g2, 10))[10] * scale
    ref = rf("-((2 + 7*eps)*a*b)/(128*eps^2)", g2.vars)
    factor = ref / w2
    param_free = not ({"a", "b"} & (set(factor.num.variables_present())
                                    | set(factor.den.variables_present())))
    positive = (all(c > 0 for c in factor.num.terms.values())
                and all(c > 0 for c in factor.den.terms.values()))
    checks.append(("1b V2 sextic (parameter-free positive factor "
                   f"{factor.num} / {factor.den})", param_free and positive))

    # k-family: the bracketed eps expansion of V1 under the general template
    k = parse_system(NIL_CUBIC_K)
    pert = build_perturbation(k, "nilpotent", 5)
    b1 = dict(DegreePass(pert, 4))[4] * scale
    bracket = ("2*k1 + (2*b10 + 2*a10*k1 + b01*k1 - k2)*eps"
               " - (a01 - 3*a20 - 2*a10*b10 - b01*b10 - b11 + a10*k2)*eps^2"
               " + (a02 - a01*a10)*eps^3")
    checks.append(("1c V1 bracket k-family",
                   b1 == rf(f"(2/(3 + 2*eps + 3*eps^2))*({bracket})", pert.vars)))

    # quartic Darboux family: V1
    d = parse_system(NIL_DARBOUX_EPS)
    dv = dict(DegreePass(d, 4))[4] * scale
    checks.append(("1d V1 quartic-Darboux",
                   dv == rf("2*eps^2*c*(1 + 2*a)/(3 + 2*eps + 3*eps^2)", d.vars)))

    # degenerate quintic: V1 and V2
    q = parse_system(DEG_QUINTIC_EPS)
    qv1 = dict(DegreePass(q, 8))[8] * scale
    checks.append(("1e V1 degenerate-quintic", qv1 == rf("-(a*mu)/eps", q.vars)))
    q2 = substitute(q, {"mu": 0})
    qv2 = dict(DegreePass(q2, 10))[10] * scale
    checks.append(("1e V2 degenerate-quintic", qv2 == rf("-(5*a*lambda)/(8*eps)", q2.vars)))

    # homogeneous cubic: eps^0 term of V1 is -8*lambda
    h = parse_system(HOMOG_CUBIC_EPS)
    hv = dict(DegreePass(h, 4))[4] * scale
    series = laurent_expand_eps(hv, 0)
    checks.append(("1f eps^0 term homogeneous cubic",
                   series.get(0) == poly("-8*lambda", ("lambda", "mu"))))

    elapsed = time.time() - t0
    checks.append((f"1 runtime {elapsed:.1f}s <= 60s per computation", elapsed <= 60 * 8))
    for name, ok in checks:
        report(f"1 [{'PASS' if ok else 'FAIL'}] {name}")
    assert all(ok for _, ok in checks)


# --------------------------------------------------------------------------
# 2. End-to-end center conditions
# --------------------------------------------------------------------------


def _base_set(text, max_degree, general_degree=None, mode=None):
    s = parse_system(text)
    kind = "nilpotent" if s.linear_class == "nilpotent" else "degenerate"
    pert = build_perturbation(s, kind, general_degree)
    pset = [p for p in pert.params if p not in s.params]
    res = center_conditions_pipeline(pert, max_degree, mode=mode or "all_orders",
                                     perturbation_params=pset)
    return [c.poly for c in res.base_conditions]


def _same_sets(got, want_texts, table):
    want = [poly(t, table) for t in want_texts]
    if len(got) != len(want):
        return False
    for g in got:
        g = g.embed(table)
        if not any(g == w or g == -w for w in want):
            return False
    return True


def test_criterion_2_condition_sets():
    checks = []
    t0 = time.time()
    got = _base_set(NIL_CUBIC_K, 6, general_degree=5)
    checks.append(("2a {k1, k2} with degree-5 general perturbation",
                   _same_sets(got, ["k1", "k2"], ("k1", "k2"))))
    tab = ("A", "B", "K", "L")
    got = _base_set(NIL_CUBIC_AB, 6)
    checks.append(("2b {A*B-3*L, A*B*(A^2-2*K)}",
                   _same_sets(got, ["A*B - 3*L", "A*B*(A^2 - 2*K)"], tab)))
    got = _base_set(NIL_SEXTIC, 10)
    checks.append(("2c {c, a*b}", _same_sets(got, ["c", "a*b"], ("a", "b", "c"))))
    tabA = ("a02", "a03", "a11", "a12", "a21", "a30")
    got = _base_set(CUBIC_FAMILY_A, 6)
    checks.append(("2d cubic family A set",
                   _same_sets(got, ["a30", "a02*a11 + a12", "a02*a11*a21",
                                    "a02*a11*a03"], tabA)))
    got = _base_set(CUBIC_FAMILY_B, 6)
    checks.append(("2e cubic family B set",
                   _same_sets(got, ["a21 - a02*a11", "a03", "a02*a11*a30",
                                    "a02*a11*(3*a02^2 + 2*a12)"], tabA)))
    elapsed = time.time() - t0
    checks.append((f"2 runtime {elapsed:.1f}s <= 600s per family", elapsed <= 600 * 5))
    for name, ok in checks:
        report(f"2 [{'PASS' if ok else 'FAIL'}] {name}")
    assert all(ok for _, ok in checks)


# --------------------------------------------------------------------------
# 3. First-integral verifications (exact zero residual)
# --------------------------------------------------------------------------


def test_criterion_3_first_integrals():
    checks = []

    s14 = parse_system(DEG_FACTORED)
    H = DarbouxExpr(power_factors=[(poly("(x^2+y^2)/2 + 2*x^3/3 - y^3/3", s14.vars), 1)])
    checks.append(("3a factored quartic polynomial integral",
                   verify_darboux_integral(s14, H).is_zero))

    s31 = parse_system(NIL_DARBOUX)
    H31 = DarbouxExpr(power_factors=[
        (poly("1 + x", s31.vars), poly("-2*c", s31.vars)),
        (poly("1 + y", s31.vars), poly("-2*a", s31.vars)),
        (poly("x^4 + y^2", s31.vars), 1)])
    checks.append(("3b quartic family, symbolic exponents",
                   verify_darboux_integral(s31, H31).is_zero))

    s33 = parse_system(
        "xdot = -eps*x*(a*x + a*x^2) + y + x*y + (1-a)*y^2 + (1-a)*x*y^2 - a*x^4 - a*x^5; "
        "ydot = -eps*x*(1 + (1-c)*x + y + (1-c)*x*y) + c*y^2 - 2*x^3 + c*y^3 - 2*x^3*y "
        "+ (c-2)*x^4*(1+y)")
    H33 = DarbouxExpr(power_factors=[
        (poly("1 + x", s33.vars), poly("-2*c", s33.vars)),
        (poly("1 + y", s33.vars), poly("-2*a", s33.vars)),
        (poly("x^4 + y^2 + eps*x^2", s33.vars), 1)])
    checks.append(("3c eps-deformed quartic family",
                   verify_darboux_integral(s33, H33).is_zero))

    srm = parse_system(NIL_REVERSIBLE_EPS)
    Hrm = DarbouxExpr(
        power_factors=[(poly("eps^2 + x^4 - 2*eps*y + 2*x^2*y + 2*y^2", srm.vars), 1)],
        arg_factor=(Rat(2), poly("eps + x^2", srm.vars), poly("x^2 + 2*y - eps", srm.vars)))
    checks.append(("3d argument-factor integral", verify_darboux_integral(srm, Hrm).is_zero))

    sab = substitute(parse_system(NIL_CUBIC_AB),
                     {"L": rf("A*B/3", ("x", "y", "eps", "A", "B", "K", "L")).as_poly(),
                      "K": rf("A^2/2", ("x", "y", "eps", "A", "B", "K", "L")).as_poly()})
    base = RatFunc(
        poly("3*A^4*y^2 - 36 - 36*A*x - 18*A^2*x^2 - 6*A^3*x^3 + 3*A^5*x*y^2 "
             "+ 2*A^4*B*y^3", sab.vars),
        poly("3*A^4", sab.vars))
    Hab = DarbouxExpr(power_factors=[(base, 1)],
                      exp_factor=(poly("-A*x", sab.vars), MPoly.const(sab.vars, 1)))
    checks.append(("3e exponential-factor integral", verify_darboux_integral(sab, Hab).is_zero))

    Hbad = DarbouxExpr(power_factors=[(poly("(x^2+y^2)/2 + 2*x^3/3 - y^3/2", s14.vars), 1)])
    checks.append(("3f wrong candidate has nonzero residual",
                   not verify_darboux_integral(s14, Hbad).is_zero))

    for name, ok in checks:
        report(f"3 [{'PASS' if ok else 'FAIL'}] {name}")
    assert all(ok for _, ok in checks)


# --------------------------------------------------------------------------
# 4. Structural tests
# --------------------------------------------------------------------------


def test_criterion_4_structural():
    checks = []
    checks.append(("4a factored quartic not Hamiltonian",
                   not is_hamiltonian(parse_system(DEG_FACTORED))))
    checks.append(("4a weighted Hamiltonian is Hamiltonian",
                   is_hamiltonian(parse_system(HAM_QH))))

    r = reversibility_conditions(parse_system(DEG_FACTORED))
    cs = ("c", "s")
    want = {str(poly("2*c^2*s - c*s^2", cs)), str(poly("c^3 - 2*s^3", cs))}
    checks.append(("4b reversibility conditions match printed pair",
                   {str(c) for c in r.conditions} == want))
    checks.append(("4b verdict not_reversible", r.verdict == "not_reversible"))

    cd = characteristic_directions(substitute(parse_system(HAM_QH), {"a": 1, "b": 1}))
    checks.append(("4c directions {y = 0}",
                   len(cd.directions) == 1 and str(cd.directions[0].form) == "y"))
    cd2 = characteristic_directions(
        substitute(parse_system(HAM_QH_EPS), {"a": 1, "b": 1, "eps": 1}))
    checks.append(("4c perturbed family has none",
                   not cd2.directions and not cd2.every_direction))

    for name, ok in checks:
        report(f"4 [{'PASS' if ok else 'FAIL'}] {name}")
    assert all(ok for _, ok in checks)


# --------------------------------------------------------------------------
# 5. Quasi-homogeneous suite
# --------------------------------------------------------------------------


def test_criterion_5_quasi_homogeneous():
    checks = []
    sig = detect_quasi_homogeneity(parse_system(HAM_QH))
    checks.append(("5a detect (2,3,8)", sig == QHSignature(2, 3, 8)))
    sig2 = detect_quasi_homogeneity(parse_system(HOMOG_CUBIC))
    checks.append(("5a detect (1,1,3)", sig2 == QHSignature(1, 1, 3)))

    tau, circle = integrated_circle(2, 3)
    nodes = [circle(tau * k / 400) for k in range(400)]
    ident = max(abs(2 * cs ** 6 + 3 * sn ** 4 - 1) for cs, sn in nodes)
    checks.append((f"5b trig identity residual {ident:.2e} <= 1e-10", ident <= 1e-10))

    for p, q in ((1, 1), (1, 2), (2, 3)):
        diff = abs(pq_period(p, q) - measured_period(p, q))
        checks.append((f"5c period agreement ({p},{q}) diff {diff:.2e} <= 1e-9",
                       diff <= 1e-9))

    cub = parse_system(HOMOG_CUBIC)
    sig = QHSignature(1, 1, 3)
    for lam, mu in ((0, 1), (1, 0)):
        _, info = classify_qh_center(substitute(cub, {"lambda": lam, "mu": mu}), sig)
        val = info["condition_ii"].value
        checks.append((f"5d integral at (lambda,mu)=({lam},{mu}) is {val:.2e} <= 1e-8",
                       abs(val) <= 1e-8))
    r = classify_qh_center(substitute(cub, {"lambda": 1, "mu": 1}), sig)[1]["condition_ii"]
    checks.append((f"5d integral at (1,1) is {r.value:.6f} >= 1e-3", abs(r.value) >= 1e-3))
    s3 = cmath.sqrt(-17 - cmath.sqrt(145))
    s4 = cmath.sqrt(-17 + cmath.sqrt(145))
    closed = (-4 * cmath.pi) / (cmath.sqrt(-16) * cmath.sqrt(145) * s3 * s4) * (
        s3 * (160 - 27 - 5 * cmath.sqrt(145)) + s4 * (-160 + 27 - 5 * cmath.sqrt(145)))
    rel = abs(r.value - closed.real) / abs(closed.real)
    checks.append((f"5d closed-form match rel err {rel:.2e} <= 1e-6", rel <= 1e-6))

    for name, ok in checks:
        report(f"5 [{'PASS' if ok else 'FAIL'}] {name}")
    assert all(ok for _, ok in checks)


# --------------------------------------------------------------------------
# 6. Numeric cross-validation
# --------------------------------------------------------------------------


def test_criterion_6_return_maps():
    checks = []
    cases = [
        ("reversible nilpotent", NIL_REVERSIBLE, [0.02, 0.05, 0.1], "x+"),
        ("factored quartic", DEG_FACTORED, [0.05, 0.1], "x+"),
        ("cubic family member at eps=1",
         "xdot = y + y^2; ydot = -x - x^3 + x*y^2", [0.05, 0.1], "x+"),
        ("perturbed weighted Hamiltonian",
         "xdot = -y^3; ydot = x^3 + x^5", [0.3, 0.5], "x+"),
    ]
    for name, text, x0s, trans in cases:
        rm = return_map(parse_system(text), x0s, transversal=trans)
        ok = (rm.classification == "center_evidence"
              and all(abs(sm.displacement) <= 1e-8 * sm.x0 for sm in rm.samples)
              and len(rm.samples) == len(x0s))
        worst = max((abs(sm.displacement) / sm.x0 for sm in rm.samples), default=1.0)
        checks.append((f"6 center {name}: worst |disp|/x0 {worst:.2e} <= 1e-8", ok))

    rm = return_map(parse_system("xdot = -y - x*(x^2 + y^2); ydot = x - y*(x^2 + y^2)"),
                    [0.05, 0.1, 0.2])
    checks.append(("6 radial focus: consistent negative displacement",
                   rm.classification == "stable_focus_evidence"))

    # a node shows no monodromy weights: its return map integrates nothing
    rm = return_map(parse_system("xdot = -x; ydot = x - y"), [0.05])
    checks.append(("6 node: no monodromy weights, nothing integrated",
                   (rm.classification, rm.samples, rm.nfev) == ("inconclusive", [], 0)))

    for name, ok in checks:
        report(f"6 [{'PASS' if ok else 'FAIL'}] {name}")
    assert all(ok for _, ok in checks)


# --------------------------------------------------------------------------
# 7. Property suites (>= 200 randomized cases each)
# --------------------------------------------------------------------------


def test_criterion_7_homological_backsubstitution():
    rnd = random.Random(101)
    linear_parts = [parse_system(t) for t in HOMOLOGICAL_LINEAR_PARTS]
    count = 0
    guard = 0
    while count < 200 and guard < 2000:
        guard += 1
        s = linear_parts[guard % len(linear_parts)]
        n = rnd.choice([3, 4, 5, 6, 7])
        residual = random_poly(rnd, s.vars, ("x", "y"), homogeneous=n, n_terms=4)
        if residual.is_zero:
            continue
        sigma, mu = _linear_scalars(s)
        A, C, ell, delta = _solve_degree(sigma, mu, n, residual, MPoly.const(s.vars, 1))
        # H_n = (A + V*C) / (sigma*mu)^ceil(n/2), with V = ell / delta at even n
        f = (sigma * mu) ** ((n + 1) // 2)
        H = RatFunc(A, f)
        target = RatFunc(-residual)
        if n % 2 == 0:
            V = RatFunc(ell, delta)
            H = H + V * RatFunc(C, f)
            circle = poly("x^2 + y^2", s.vars) ** (n // 2)
            target = target + V * RatFunc(circle)
            # kernel rule: no y^n term in H_n
            ix = s.vars.index("x")
            assert all(e[ix] for p in (A, C) for e in p.terms)
        else:
            assert C.is_zero and ell is None
        P1, Q1 = s.linear_part()
        applied = H.num.diff("x") * P1 + H.num.diff("y") * Q1
        assert RatFunc(applied, H.den) == target
        count += 1
    assert count >= 200
    report(f"7 [PASS] homological back-substitution exact on {count} random steps")


def test_criterion_7_ratfunc_normalization():
    rnd = random.Random(102)
    table = ("x", "y", "eps", "a")
    count = 0
    guard = 0
    while count < 200 and guard < 2000:
        guard += 1
        p = random_poly(rnd, table, ("x", "eps", "a"), max_degree=3, n_terms=3)
        q = random_poly(rnd, table, ("y", "eps"), max_degree=2, n_terms=2)
        r = random_poly(rnd, table, ("x", "y"), max_degree=2, n_terms=2)
        if q.is_zero or r.is_zero:
            continue
        f = RatFunc(p * q, q * r)
        g = RatFunc(p, r)
        assert f.num * g.den == g.num * f.den
        again = RatFunc(f.num, f.den)
        assert again.num == f.num and again.den == f.den  # idempotent
        count += 1
    assert count >= 200
    report(f"7 [PASS] RatFunc normalization on {count} random quotients")


def test_criterion_7_parse_print_roundtrip():
    rnd = random.Random(103)
    table = ("x", "y", "eps", "a", "b")
    count = 0
    guard = 0
    while count < 200 and guard < 2000:
        guard += 1
        P = random_poly(rnd, table, ("x", "y", "eps", "a"), max_degree=3, n_terms=4)
        P = sum((v for d, v in P.homogeneous_parts().items() if d >= 2), poly("y", table))
        Q = random_poly(rnd, table, ("x", "y", "b"), max_degree=3, n_terms=4)
        Q = sum((v for d, v in Q.homogeneous_parts().items() if d >= 2), poly("0", table))
        try:
            s = parse_system(f"xdot = {P}; ydot = {Q}")
        except Exception:
            continue
        t = parse_system(format_system(s))
        assert t.P == s.P and t.Q == s.Q and t.params == s.params
        count += 1
    assert count >= 200
    report(f"7 [PASS] parse/print round-trip on {count} random systems")


def test_criterion_7_laurent_multiply_back():
    rnd = random.Random(104)
    table = ("x", "y", "eps", "b")
    count = 0
    guard = 0
    while count < 400 and guard < 4000:
        guard += 1
        num = random_poly(rnd, table, ("eps", "b"), max_degree=3, n_terms=3)
        den = random_poly(rnd, table, ("eps",), max_degree=2, n_terms=2)
        if den.is_zero or num.is_zero:
            continue
        f = RatFunc(num, den)
        series = laurent_expand_eps(f, 4)
        diff = f - laurent_resum(series, table)
        assert all(k > 4 for k in laurent_expand_eps(diff, 4))
        count += 1
        if count >= 200:
            break
    assert count >= 200
    report(f"7 [PASS] Laurent multiply-back on {count} random functions")


def test_criterion_7_energy_conservation():
    from centerlab.numeric import IntegrationError

    rnd = random.Random(105)
    count = 0
    guard = 0
    worst = 0.0
    while count < 200 and guard < 1000:
        guard += 1
        # random Hamiltonian near a linear center: H = (x^2+y^2)/2 + higher.
        # Draws whose level curve from the start point is unbounded (no
        # revolution to conserve over) are skipped.
        table = ("x", "y", "eps")
        H = poly("(x^2 + y^2)/2", table)
        for d in (3, 4):
            extra = random_poly(rnd, table, ("x", "y"), homogeneous=d, n_terms=3,
                                lo=-1, hi=1)
            H = H + extra * Rat(1, 4)
        s_text = f"xdot = {H.diff('y')}; ydot = {-H.diff('x')}"
        s = parse_system(s_text)
        w = monodromy_weights(s)
        x0 = 0.15
        try:
            # one turn of the polar angle from (x0, 0); draws that leave the
            # radius 0.5, or whose level curve stops turning around the
            # origin (W loses its sign on it), are skipped
            traj = integrate_adaptive(compile_system(s), w, x0, (0.0, w.sign * 2 * math.pi),
                                      0.5, rel_tol=1e-12, abs_tol=1e-14)
        except IntegrationError:
            continue
        if traj.status != "finished":
            continue
        r = traj.y[-1][0]
        x, y = r * math.cos(traj.psi[-1]), r * math.sin(traj.psi[-1])
        h0 = H.eval_float({"x": x0, "y": 0.0})
        h1 = H.eval_float({"x": x, "y": y})
        drift = abs(h1 - h0)
        worst = max(worst, drift)
        assert drift <= 1e-9
        count += 1
    assert count >= 200
    report(f"7 [PASS] energy conservation on {count} random Hamiltonians "
           f"(worst drift {worst:.2e} <= 1e-9)")
