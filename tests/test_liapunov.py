import pytest

from centerlab.liapunov import (
    DegreePass,
    EngineError,
    EpsBasis,
    _linear_scalars,
    _solve_degree,
    _solve_plan,
    verify_backsubstitution,
)
from centerlab.mpoly import MPoly, Rat
from centerlab.ratfunc import RatFunc
from centerlab.systems import ClassificationError, parse_system, substitute

from two_sweep_solve import two_sweep_solve

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
    to_sympy,
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
    RatFunc, and V (None at odd n, where the V column is zero)."""
    sigma, mu = _linear_scalars(s)
    A, C, ell, delta = _solve_degree(sigma, mu, degree, residual, MPoly.const(s.vars, 1))
    f = (sigma * mu) ** ((degree + 1) // 2)
    if ell is None:
        assert C.is_zero
        return RatFunc(A, f), None
    V = RatFunc(ell, delta)
    return RatFunc(A, f) + V * RatFunc(C, f), V


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
    # every V_n vanishes, so no slot V(n) enters the table and each H_k is
    # its numerator over the eps-monomial chain
    s = parse_system(NIL_REVERSIBLE_EPS)
    run = DegreePass(s, 14)
    V = dict(run)
    assert [n for n, v in V.items() if v.is_zero] == [4, 6, 8, 10, 12, 14]
    assert sorted(run.H) == list(range(2, 15))
    assert not any(v.startswith("V(") for num in run.H.values()
                   for v in num.variables_present())
    assert all(len(h.den) == 1 for h in run.h_table().values())
    assert verify_backsubstitution(run, V)


def test_nonzero_constants_keep_delta_out_of_the_chain():
    # Delta_4, Delta_6 and Delta_8 have several terms, yet every chain factor
    # is one term: a nonzero V_n enters the table as the symbol V(n), which
    # is set to its value only in what leaves the pass
    s = parse_system(NIL_CUBIC_AB_EPS)
    run = DegreePass(s, 8)
    V = dict(run)
    for n in (4, 6, 8):
        assert not V[n].is_zero and len(V[n].den) > 1, n
        assert f"V({n})" in run.H[n].variables_present(), n
    assert all(len(f) == 1 for f in run._factors.values())
    for r in (*V.values(), *run.h_table().values()):
        assert r.vars == s.vars
        assert not any(v.startswith("V(") for p in (r.num, r.den) for v in p.variables_present())
    assert verify_backsubstitution(run, V)


def test_assembly_rejects_a_product_of_slots():
    # the table is affine in the V slots; the assembly refuses anything else
    run = DegreePass(parse_system(NIL_CUBIC_AB_EPS), 8)
    dict(run)
    vars = run.H[2].vars
    one = MPoly.const(vars, 1)
    v4, v6 = MPoly.variable("V(4)", vars), MPoly.variable("V(6)", vars)
    assert not run._assemble(v4 + v6, one)[0].is_zero
    for p in (v4 * v6, v4 ** 2 + v6, run.H[8] * v4):
        with pytest.raises(EngineError):
            run._assemble(p, one)


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
    num = run.H[5]
    run.H[5] = num + poly("x^5", num.vars)
    assert not verify_backsubstitution(run, V)
    run.H[5] = num
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
        P1, Q1 = s.linear_part()
        applied = H.num.diff("x") * P1 + H.num.diff("y") * Q1
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


def test_prefix_solve_matches_two_sweep_reference(rng):
    # the prefix-sum solve gives exactly the (A, C, ell, delta) of the two
    # MPoly sweeps it replaced: every tested linear part, plus one whose
    # sigma has the higher eps order, n = 3..14, R_den 1 or a power of eps,
    # and residuals that carry a parameter and V(j) slots of the table
    texts = HOMOLOGICAL_LINEAR_PARTS + ("xdot = eps*y; ydot = -x",)
    count = 0
    for trial in range(264):
        s = parse_system(texts[trial % len(texts)])
        table = s.vars + ("a", "V(4)", "V(6)")
        sigma, mu = (v.embed(table) for v in _linear_scalars(s))
        n = 3 + trial % 12
        R_num = MPoly.zero(table)
        for _ in range(rng.randint(1, 3)):
            rows = random_poly(rng, table, ("x", "y"), homogeneous=n, n_terms=rng.randint(1, 8))
            coeff = random_poly(rng, table, ("eps", "a", "V(4)", "V(6)"), max_degree=3,
                                n_terms=rng.randint(1, 4))
            R_num = R_num + rows * coeff
        R_den = MPoly.variable("eps", table) ** rng.randint(0, 4) * Rat(1, rng.randint(1, 3))
        got = _solve_degree(sigma, mu, n, R_num, R_den)
        want = two_sweep_solve(sigma, mu, n, R_num, R_den)
        if got[2] is not None and got[2].is_zero:
            # a zero constant builds no circle column: its C is zero
            assert got[1].is_zero
            got, want = got[::2] + got[3:], want[::2] + want[3:]
        assert got == want, (trial, n)
        # every eps offset of the plan is a non-negative exponent
        sweeps = _solve_plan(sigma, mu, n)[0]
        assert all(src[2] >= 0 and tgt[2] >= 0 for sweep in sweeps for src, tgt in sweep)
        count += bool(R_num)
    assert count >= 200


def test_solve_rejects_linear_scalars_that_are_not_one_eps_term():
    vars = ("x", "y", "eps", "a")
    one, eps = MPoly.const(vars, 1), MPoly.variable("eps", vars)
    residual = poly("x^3*a + y^3", vars)
    for sigma, mu in ((one + eps, one), (one, eps * MPoly.variable("a", vars)),
                      (MPoly.zero(vars), one)):
        with pytest.raises(EngineError):
            _solve_degree(sigma, mu, 3, residual, one)


def test_solve_rejects_a_residual_of_the_wrong_degree():
    vars = ("x", "y", "eps")
    one, eps = MPoly.const(vars, 1), MPoly.variable("eps", vars)
    for residual in ("x^3", "x^4 + y^3", "eps*x^2*y^2 + eps*x", "eps^2"):
        with pytest.raises(ValueError):
            _solve_degree(one, eps, 4, poly(residual, vars), one)


def test_zero_constant_builds_no_circle_column(monkeypatch):
    # every V_n of the reversible family is zero: each degree runs the one
    # prefix sum of its residual, and no power of the circle is formed
    read = []
    prefix_sums = MPoly.prefix_sums
    monkeypatch.setattr(MPoly, "prefix_sums", lambda p, *args: read.append(p) or prefix_sums(p, *args))
    V = _constants(parse_system(NIL_REVERSIBLE_EPS), 14)
    assert [n for n, v in V.items() if v.is_zero] == [4, 6, 8, 10, 12, 14]
    assert len(read) == len(range(3, 15))
    # one solve: a zero ell reads the residual only, a nonzero one the circle too
    s = parse_system(NIL_CUBIC_AB_EPS)
    sigma, mu = _linear_scalars(s)
    one = MPoly.const(s.vars, 1)
    for n in range(4, 21, 2):
        read.clear()
        _, C, ell, _ = _solve_degree(sigma, mu, n, poly(f"x^{n - 1}*y", s.vars), one)
        assert ell.is_zero and C.is_zero and len(read) == 1
        _, C, ell, _ = _solve_degree(sigma, mu, n, poly(f"x^{n}", s.vars), one)
        assert not ell.is_zero and not C.is_zero and len(read) == 3


def test_delta_is_the_legendre_form():
    # for (y, -eps*x), Delta_n = c_m * eps^(m/2) * P_m((1 + eps)/(2*sqrt(eps)))
    # with m = n/2, P_m the Legendre polynomial and c_m = Delta_n of (y, -x)
    sympy = pytest.importorskip("sympy")
    eps = sympy.Symbol("eps")
    deltas = {}
    for text in ("xdot = y; ydot = -eps*x", "xdot = y; ydot = -x"):
        s = parse_system(text)
        sigma, mu = _linear_scalars(s)
        deltas[text] = [_solve_degree(sigma, mu, n, MPoly.zero(s.vars), MPoly.const(s.vars, 1))[3]
                        for n in range(4, 21, 2)]
    for m, nilpotent, linear in zip(range(2, 11), *deltas.values()):
        c = sympy.Rational(*linear.constant_value().as_integer_ratio())
        legendre = c * eps ** sympy.Rational(m, 2) * sympy.legendre(m, (1 + eps) / (2 * sympy.sqrt(eps)))
        assert sympy.expand(to_sympy(nilpotent) - legendre) == 0, m


def test_basis_reduction_matches_the_gcd_reduction(rng):
    # EpsBasis.reduce against RatFunc's poly_gcd reduction: numerators over
    # products of basis powers, divisible by proper powers of the factors;
    # one element, (1 + eps)*(2 + eps), is reducible, and a basis seeded with
    # it is refined when a numerator holds only one of its factors
    vars = ("x", "eps", "a")
    factors = [poly(f, vars) for f in ("1 + eps", "2 + eps", "3*eps^2 + 2*eps + 3",
                                       "eps^3 - eps + 2")]
    elements = [factors[0] * factors[1], *factors[1:], poly("eps", vars)]
    refined = 0
    for trial in range(150):
        basis = EpsBasis()
        for f in rng.sample(elements, rng.randint(0, len(elements))):
            basis.factor(f)
        den = MPoly.const(vars, Rat(rng.choice((-3, 1, 5)), rng.randint(1, 4)))
        for f in elements:
            den = den * f ** rng.randint(0, 3)
        num = random_poly(rng, vars, vars, n_terms=rng.randint(1, 4))
        for f in factors + elements[-1:]:
            num = num * f ** rng.randint(0, 2)
        c, exps = basis.factor(den)
        before = set(basis._elements)
        reduced, exps = basis.reduce(num, exps)
        got = RatFunc.coprime(reduced * (1 / c), basis.poly(exps, vars))
        want = RatFunc(num, den)
        assert (got.num, got.den) == (want.num, want.den), trial
        refined += set(basis._elements) != before
    assert refined > 20
