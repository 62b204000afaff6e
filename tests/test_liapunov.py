import pytest

from centerlab.liapunov import (
    DegreePass,
    EngineError,
    _linear_scalars,
    _solve_degree,
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


def _constants(system, max_even_degree):
    """degree -> V_n of one pass."""
    return dict(DegreePass(system, max_even_degree))


def _first_nonzero(constants):
    return min(n for n, V in constants.items() if not V.is_zero)


def _solve(s, residual, degree):
    """The degree-n homological solve for the linear part of ``s``: H_n as a
    RatFunc, and V."""
    one = MPoly.const(s.vars, 1)
    num, f, V = _solve_degree(*_linear_scalars(s), degree, residual, one)
    return RatFunc(num, f), V


def test_cubic_ab_first_and_second_constants():
    s = parse_system(NIL_CUBIC_AB_EPS)
    run = DegreePass(s, 4)
    V = dict(run)
    assert run.convention.unit_seed_scale == SCALE
    assert V[4] * SCALE == rf("-(2*eps^2*(A*B - 3*L))/(3 + 2*eps + 3*eps^2)", s.vars)
    s2 = substitute(s, {"L": rf("A*B/3", s.vars).as_poly()})
    V2 = _constants(s2, 6)
    assert V2[4].is_zero
    assert V2[6] * SCALE == rf(
        "-(2*eps^2*A*B*(A^2 - 2*K))/(3*(1 + eps)*(5 - 2*eps + 5*eps^2))", s2.vars)


def _subs(r, bindings, vars=None):
    """``r`` with the bindings substituted into numerator and denominator."""
    return RatFunc(r.num.subs(bindings, vars), r.den.subs(bindings, vars))


def test_sextic_constants_and_indexing():
    s = parse_system(NIL_SEXTIC_EPS)
    V = _constants(s, 6)
    assert V[6] * SCALE == rf("2*eps*c/(5 + 3*eps + 3*eps^2 + 5*eps^3)", s.vars)
    assert _first_nonzero(V) == 6
    # with c = 0 the next obstruction appears at degree 10, up to a positive
    # parameter-free factor of the reference expression
    s2 = substitute(s, {"c": 0})
    V2 = _constants(s2, 10)
    assert V2[6].is_zero
    assert V2[8].is_zero
    v10 = V2[10] * SCALE
    ref = rf("-((2 + 7*eps)*a*b)/(128*eps^2)", s2.vars)
    factor = ref / v10
    assert not any(v in ("a", "b") for v in factor.num.variables_present())
    assert not any(v in ("a", "b") for v in factor.den.variables_present())
    # positive for eps > 0: all coefficients of both sides positive
    assert all(c > 0 for c in factor.num.terms.values())
    assert all(c > 0 for c in factor.den.terms.values())
    # at eps = 1 the two expressions agree exactly
    assert _subs(v10, {"eps": 1}) == _subs(ref, {"eps": 1})


def test_degenerate_quintic_constants():
    s = parse_system(DEG_QUINTIC_EPS)
    V = _constants(s, 8)
    assert _first_nonzero(V) == 8
    assert V[8] * SCALE == rf("-(a*mu)/eps", s.vars)
    s2 = substitute(s, {"mu": 0})
    V2 = _constants(s2, 10)
    assert _first_nonzero(V2) == 10
    assert V2[10] * SCALE == rf("-(5*a*lambda)/(8*eps)", s2.vars)


def test_homogeneous_cubic_leading_term():
    s = parse_system(HOMOG_CUBIC_EPS)
    assert _constants(s, 4)[4] * SCALE == rf("-8*lambda", s.vars)


def test_darboux_family_first_constant():
    s = parse_system(NIL_DARBOUX_EPS)
    assert _constants(s, 4)[4] * SCALE == rf("2*eps^2*c*(1 + 2*a)/(3 + 2*eps + 3*eps^2)",
                                             s.vars)


def test_k_family_bracket():
    s = parse_system(
        "xdot = y + x^2 + k2*x*y + eps*x*(a10*x + a01*y + a20*x^2 + a11*x*y + a02*y^2); "
        "ydot = -eps*x + k1*x^2 - x^3 + eps*x*(b10*x + b01*y + b20*x^2 + b11*x*y + b02*y^2)")
    V = _constants(s, 4)
    bracket = ("2*k1 + (2*b10 + 2*a10*k1 + b01*k1 - k2)*eps"
               " - (a01 - 3*a20 - 2*a10*b10 - b01*b10 - b11 + a10*k2)*eps^2"
               " + (a02 - a01*a10)*eps^3")
    assert V[4] * SCALE == rf(f"(2/(3 + 2*eps + 3*eps^2))*({bracket})", s.vars)


def test_linear_center_all_constants_vanish():
    s = parse_system("xdot = y; ydot = -eps*x")
    V = _constants(s, 10)
    assert sorted(V) == [4, 6, 8, 10]
    assert all(v.is_zero for v in V.values())


def test_reversible_system_constants_vanish():
    # invariant under (x, y, t) -> (-x, y, -t): every constant is zero
    s = parse_system("xdot = y + x^2; ydot = -eps*x - x^3")
    assert all(V.is_zero for V in _constants(s, 10).values())


def test_zero_constants_keep_delta_out_of_the_chain():
    # every V_n vanishes, so no Delta_n enters the table: each f_n is the
    # eps-monomial mu^h*sigma^h and the H_k still satisfy the identity
    s = parse_system(NIL_REVERSIBLE_EPS)
    run = DegreePass(s, 14)
    V = dict(run)
    assert [n for n, v in V.items() if v.is_zero] == [4, 6, 8, 10, 12, 14]
    assert sorted(run.H) == list(range(2, 15))
    assert all(len(f) == 1 for _, f in run.H.values())
    assert verify_backsubstitution(run, V)


def test_nonzero_constants_keep_delta_in_the_chain():
    s = parse_system(NIL_CUBIC_AB_EPS)
    run = DegreePass(s, 8)
    V = dict(run)
    for n in (4, 6, 8):
        assert not V[n].is_zero
        # f_n = mu^h*sigma^h*Delta_n with the multi-term Delta_n
        assert len(run.H[n][1]) == n // 2 + 1, n
    assert all(len(run.H[n][1]) == 1 for n in (3, 5, 7))
    assert verify_backsubstitution(run, V)


def test_backsubstitution_invariant():
    for text, max_even_degree in ((NIL_CUBIC_AB_EPS, 6), (DEG_QUINTIC_EPS, 8)):
        run = DegreePass(parse_system(text), max_even_degree)
        assert verify_backsubstitution(run, dict(run))


def test_backsubstitution_detects_a_perturbed_table():
    s = parse_system(NIL_CUBIC_AB_EPS)
    run = DegreePass(s, 6)
    V = dict(run)
    assert verify_backsubstitution(run, V)
    # one extra term in one stored numerator breaks the identity at degree 5
    num, f = run.H[5]
    run.H[5] = (num + poly("x^5", s.vars), f)
    assert not verify_backsubstitution(run, V)
    run.H[5] = (num, f)
    # so does a wrong constant
    assert not verify_backsubstitution(run, {**V, 4: V[4] + RatFunc(poly("1", s.vars))})


def test_specialization_commutes():
    s = parse_system(NIL_CUBIC_AB_EPS)
    v_sym = _subs(_constants(s, 4)[4], {"eps": Rat(1, 7)}, s.vars)
    s_num = substitute(s, {"eps": Rat(1, 7)})
    assert _constants(s_num, 4)[4] == v_sym


def test_wrong_class_rejected():
    s = parse_system("xdot = y + x^2; ydot = -x^3")  # unperturbed nilpotent
    with pytest.raises(ClassificationError):
        DegreePass(s, 6)
    with pytest.raises(ValueError):
        DegreePass(parse_system("xdot = -y; ydot = x"), 2)


def test_homological_step_zero_residual():
    s = parse_system("xdot = y; ydot = -eps*x")
    H, V = _solve(s, MPoly.zero(s.vars), 4)
    assert H.is_zero and V.is_zero
    H3, V3 = _solve(s, MPoly.zero(s.vars), 3)
    assert H3.is_zero and V3 is None


def test_homological_step_seed_degree():
    s = parse_system("xdot = y; ydot = -eps*x")
    H, V = _solve(s, MPoly.zero(s.vars), 2)
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
        H, V = _solve(s, residual, n)
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
