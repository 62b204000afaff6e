import pytest

from centerlab import liapunov
from centerlab.liapunov import (
    DegreePass,
    EngineError,
    _solve_degree,
    compute_liapunov_constants,
    solve_homological_step,
    verify_backsubstitution,
)
from centerlab.mpoly import MPoly, Rat
from centerlab.ratfunc import RatFunc
from centerlab.systems import ClassificationError, parse_system, substitute

from conftest import (
    DEG_QUINTIC_EPS,
    HOMOG_CUBIC_EPS,
    HOMOLOGICAL_LINEAR_PARTS,
    NIL_CUBIC_AB_EPS,
    NIL_DARBOUX_EPS,
    NIL_REVERSIBLE_EPS,
    NIL_SEXTIC_EPS,
    poly,
    random_poly,
    rf,
)

# every computed constant is half the value produced by the unnormalized
# seed x^2 + y^2; the reference expressions below use that convention
SCALE = 2


def _scaled(report, degree):
    entry = report.constant_at_degree(degree)
    return entry.value * report.convention.unit_seed_scale


def test_cubic_ab_first_and_second_constants():
    s = parse_system(NIL_CUBIC_AB_EPS)
    rep = compute_liapunov_constants(s, 4)
    assert rep.convention.unit_seed_scale == SCALE
    assert _scaled(rep, 4) == rf("-(2*eps^2*(A*B - 3*L))/(3 + 2*eps + 3*eps^2)", s.vars)
    s2 = substitute(s, {"L": rf("A*B/3", s.vars).as_poly()})
    rep2 = compute_liapunov_constants(s2, 6)
    assert rep2.constant_at_degree(4).value.is_zero
    assert _scaled(rep2, 6) == rf(
        "-(2*eps^2*A*B*(A^2 - 2*K))/(3*(1 + eps)*(5 - 2*eps + 5*eps^2))", s2.vars)


def test_sextic_constants_and_indexing():
    s = parse_system(NIL_SEXTIC_EPS)
    rep = compute_liapunov_constants(s, 6)
    assert _scaled(rep, 6) == rf("2*eps*c/(5 + 3*eps + 3*eps^2 + 5*eps^3)", s.vars)
    assert rep.first_nonzero().degree == 6
    # with c = 0 the next obstruction appears at degree 10, up to a positive
    # parameter-free factor of the reference expression
    s2 = substitute(s, {"c": 0})
    rep2 = compute_liapunov_constants(s2, 10)
    assert rep2.constant_at_degree(6).value.is_zero
    assert rep2.constant_at_degree(8).value.is_zero
    v10 = _scaled(rep2, 10)
    ref = rf("-((2 + 7*eps)*a*b)/(128*eps^2)", s2.vars)
    factor = ref / v10
    assert not any(v in ("a", "b") for v in factor.num.variables_present())
    assert not any(v in ("a", "b") for v in factor.den.variables_present())
    # positive for eps > 0: all coefficients of both sides positive
    assert all(c > 0 for c in factor.num.terms.values())
    assert all(c > 0 for c in factor.den.terms.values())
    # at eps = 1 the two expressions agree exactly
    assert v10.subs({"eps": 1}) == ref.subs({"eps": 1})


def test_degenerate_quintic_constants():
    s = parse_system(DEG_QUINTIC_EPS)
    rep = compute_liapunov_constants(s, 8)
    assert rep.first_nonzero().degree == 8
    assert _scaled(rep, 8) == rf("-(a*mu)/eps", s.vars)
    s2 = substitute(s, {"mu": 0})
    rep2 = compute_liapunov_constants(s2, 10)
    assert rep2.first_nonzero().degree == 10
    assert _scaled(rep2, 10) == rf("-(5*a*lambda)/(8*eps)", s2.vars)


def test_homogeneous_cubic_leading_term():
    s = parse_system(HOMOG_CUBIC_EPS)
    rep = compute_liapunov_constants(s, 4)
    v = _scaled(rep, 4)
    assert v == rf("-8*lambda", s.vars)


def test_darboux_family_first_constant():
    s = parse_system(NIL_DARBOUX_EPS)
    rep = compute_liapunov_constants(s, 4)
    assert _scaled(rep, 4) == rf("2*eps^2*c*(1 + 2*a)/(3 + 2*eps + 3*eps^2)", s.vars)


def test_k_family_bracket():
    s = parse_system(
        "xdot = y + x^2 + k2*x*y + eps*x*(a10*x + a01*y + a20*x^2 + a11*x*y + a02*y^2); "
        "ydot = -eps*x + k1*x^2 - x^3 + eps*x*(b10*x + b01*y + b20*x^2 + b11*x*y + b02*y^2)")
    rep = compute_liapunov_constants(s, 4)
    bracket = ("2*k1 + (2*b10 + 2*a10*k1 + b01*k1 - k2)*eps"
               " - (a01 - 3*a20 - 2*a10*b10 - b01*b10 - b11 + a10*k2)*eps^2"
               " + (a02 - a01*a10)*eps^3")
    assert _scaled(rep, 4) == rf(f"(2/(3 + 2*eps + 3*eps^2))*({bracket})", s.vars)


def test_linear_center_all_constants_vanish():
    s = parse_system("xdot = y; ydot = -eps*x")
    rep = compute_liapunov_constants(s, 10)
    assert rep.all_zero()
    assert any("not a" in w or "evidence" in w for w in rep.warnings)


def test_reversible_system_constants_vanish():
    # invariant under (x, y, t) -> (-x, y, -t): every constant is zero
    s = parse_system("xdot = y + x^2; ydot = -eps*x - x^3")
    rep = compute_liapunov_constants(s, 10)
    assert rep.all_zero()


def test_zero_constants_keep_delta_out_of_the_chain():
    # every V_n vanishes, so no Delta_n enters the table: each f_n is the
    # eps-monomial mu^h*sigma^h and the H_k still satisfy the identity
    s = parse_system(NIL_REVERSIBLE_EPS)
    run = DegreePass(s, 14)
    assert [n for n, V in run if V.is_zero] == [4, 6, 8, 10, 12, 14]
    assert sorted(run.H) == list(range(2, 15))
    assert all(len(f) == 1 for _, f in run.H.values())
    assert verify_backsubstitution(compute_liapunov_constants(s, 14))


def test_nonzero_constants_keep_delta_in_the_chain(monkeypatch):
    runs = []

    class Recorded(DegreePass):
        def __init__(self, *args):
            super().__init__(*args)
            runs.append(self)

    monkeypatch.setattr(liapunov, "DegreePass", Recorded)
    s = parse_system(NIL_CUBIC_AB_EPS)
    rep = compute_liapunov_constants(s, 8)
    [run] = runs
    for n in (4, 6, 8):
        assert not rep.constant_at_degree(n).is_zero
        # f_n = mu^h*sigma^h*Delta_n with the multi-term Delta_n
        assert len(run.H[n][1]) == n // 2 + 1, n
    assert all(len(run.H[n][1]) == 1 for n in (3, 5, 7))
    assert verify_backsubstitution(rep)


def test_backsubstitution_invariant():
    s = parse_system(NIL_CUBIC_AB_EPS)
    rep = compute_liapunov_constants(s, 6)
    assert verify_backsubstitution(rep)
    s2 = parse_system(DEG_QUINTIC_EPS)
    rep2 = compute_liapunov_constants(s2, 8)
    assert verify_backsubstitution(rep2)


def test_specialization_commutes():
    s = parse_system(NIL_CUBIC_AB_EPS)
    rep = compute_liapunov_constants(s, 4)
    v_sym = rep.constant_at_degree(4).value.subs({"eps": Rat(1, 7)}, s.vars)
    s_num = substitute(s, {"eps": Rat(1, 7)})
    rep_num = compute_liapunov_constants(s_num, 4)
    assert rep_num.constant_at_degree(4).value == v_sym


def test_wrong_class_rejected():
    s = parse_system("xdot = y + x^2; ydot = -x^3")  # unperturbed nilpotent
    with pytest.raises(ClassificationError):
        compute_liapunov_constants(s, 6)
    with pytest.raises(ValueError):
        compute_liapunov_constants(parse_system("xdot = -y; ydot = x"), 2)


def test_homological_step_zero_residual():
    s = parse_system("xdot = y; ydot = -eps*x")
    H, V = solve_homological_step(s, MPoly.zero(s.vars), degree=4)
    assert H.is_zero and V.is_zero
    H3, V3 = solve_homological_step(s, MPoly.zero(s.vars), degree=3)
    assert H3.is_zero and V3 is None


def test_homological_step_seed_degree():
    s = parse_system("xdot = y; ydot = -eps*x")
    H, V = solve_homological_step(s, MPoly.zero(s.vars), degree=2)
    assert H.is_zero and V.is_zero


def test_homological_step_random_backsubstitution(rng):
    linear_parts = [parse_system(t) for t in HOMOLOGICAL_LINEAR_PARTS]
    count = 0
    for trial in range(200):
        s = linear_parts[trial % len(linear_parts)]
        n = rng.choice([3, 5, 7])
        residual = random_poly(rng, s.vars, ("x", "y"), homogeneous=n, n_terms=4)
        if residual.is_zero:
            continue
        H, V = solve_homological_step(s, residual)
        assert V is None
        # L(H) must equal -residual exactly
        applied = (H.num.diff("x") * s.P.homogeneous_part(1)
                   + H.num.diff("y") * s.Q.homogeneous_part(1))
        assert RatFunc(applied, H.den) == RatFunc(-residual)
        count += 1
    assert count >= 190


def test_singular_degree_system_raises_engine_error():
    # the saddle linear part (y, x), outside every supported class, makes the
    # degree-2 system singular: Delta_2 = mu + sigma = 0
    vars = ("x", "y", "eps")
    one = MPoly.const(vars, 1)
    with pytest.raises(EngineError):
        _solve_degree(one, -one, 2, MPoly.zero(vars), one)
