import pytest

from centerlab.mpoly import MPoly, Rat, merge_tables
from centerlab import mpoly, ratfunc
from centerlab.ratfunc import RatFunc, laurent_expand_eps, laurent_resum

from conftest import from_sympy, poly, random_poly, rf, to_sympy

TAB = ("x", "y", "eps")
PTAB = ("x", "y", "eps", "a", "mu")


def test_normalize_common_monomial_factor():
    r = RatFunc(poly("2*eps^2", TAB), poly("2*eps", TAB))
    assert r == rf("eps", TAB)
    assert r.den == MPoly.const(TAB, 1)


def test_normalize_canonical_denominator_sign():
    r = RatFunc(poly("-a*mu", PTAB), poly("eps", PTAB))
    assert r.den == poly("eps", PTAB)
    assert r.num == poly("-a*mu", PTAB)
    # the sign lives in the numerator, the denominator leads positive
    r2 = RatFunc(poly("a*mu", PTAB), poly("-eps", PTAB))
    assert r2 == r


def test_normalize_cross_multiplication_oracle(rng):
    table = merge_tables(TAB, ("a",))
    for _ in range(200):
        p = random_poly(rng, table, ("x", "eps"), max_degree=2, n_terms=2)
        q = random_poly(rng, table, ("y", "eps"), max_degree=2, n_terms=2)
        r = random_poly(rng, table, ("x", "y"), max_degree=2, n_terms=2)
        if q.is_zero or r.is_zero:
            continue
        left = RatFunc(p * q, q * r)
        right = RatFunc(p, r)
        assert left.num * right.den == right.num * left.den


def test_scaling_invariance(rng):
    # normalize(a*d, b*d) == normalize(a, b) for nonzero d
    for _ in range(200):
        a = random_poly(rng, TAB, ("x", "eps"), max_degree=2, n_terms=3)
        b = random_poly(rng, TAB, ("eps",), max_degree=2, n_terms=2)
        d = random_poly(rng, TAB, ("x", "y", "eps"), max_degree=2, n_terms=2)
        if b.is_zero or d.is_zero:
            continue
        lhs = RatFunc(a * d, b * d)
        rhs = RatFunc(a, b)
        assert lhs == rhs
        assert str(lhs) == str(rhs)  # canonical form is identical, not just equal


def _eps_poly_nonzero_at_0(rng, table):
    p = random_poly(rng, table, ("eps",), max_degree=3, n_terms=3)
    return p + Rat(rng.choice((-3, -1, 2, 5)), rng.randint(1, 3)) - p.coefficient((0,) * len(table))


def test_eps_only_denominator_matches_sympy_cancel(rng):
    # eps^k, eps^k*P and P with P(0) != 0, against numerators with and
    # without a factor of eps or of P, over several parameters
    sympy = pytest.importorskip("sympy")
    table = merge_tables(TAB, ("a", "b", "c"))
    eps = poly("eps", table)
    for _ in range(20):
        k = rng.randint(1, 4)
        p = _eps_poly_nonzero_at_0(rng, table)
        r = random_poly(rng, table, table, max_degree=3, n_terms=rng.randint(1, 5))
        if r.is_zero:
            continue
        for den in (eps ** k, eps ** k * p, p):
            for num in (r, r * eps ** rng.randint(1, 5), r * p, r * p * eps ** rng.randint(0, 3)):
                got = RatFunc(num, den)
                q_num, q_den = sympy.fraction(sympy.cancel(to_sympy(num) / to_sympy(den)))
                assert got.den == from_sympy(q_den, table).primitive()
                assert sympy.expand(to_sympy(got.num) * q_den - q_num * to_sympy(got.den)) == 0


def test_eps_power_denominator_needs_no_gcd(monkeypatch):
    def no_gcd(*args):
        raise AssertionError("gcd kernel called for an eps-power denominator")

    monkeypatch.setattr(mpoly, "_univariate_gcd", no_gcd)
    monkeypatch.setattr(mpoly, "_subresultants", no_gcd)
    r = RatFunc(poly("eps^2*(x + a) + eps^5*y", PTAB), poly("2*eps^3", PTAB))
    assert r.num == poly("(x + a + eps^3*y)/2", PTAB)
    assert r.den == poly("eps", PTAB)
    r = RatFunc(poly("x - mu", PTAB), poly("-3*eps^2", PTAB))
    assert (r.num, r.den) == (poly("(mu - x)/3", PTAB), poly("eps^2", PTAB))


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc(poly("x", TAB), MPoly.zero(TAB))


def test_laurent_simple_pole():
    f = RatFunc(poly("-a*mu", PTAB), poly("eps", PTAB))
    assert laurent_expand_eps(f, 3) == {-1: poly("-a*mu", ("a", "mu"))}


def test_laurent_polynomial_identity():
    f = rf("3 - eps + 2*eps^4", TAB)
    series = laurent_expand_eps(f, 4)
    assert [(k, str(c)) for k, c in series.items()] == [
        (0, "3"), (1, "-1"), (4, "2")]


def test_laurent_inverse_series_multiply_back():
    den = poly("3 + 2*eps + 3*eps^2", TAB)
    f = RatFunc(MPoly.const(TAB, 1), den)
    series = laurent_expand_eps(f, 2)
    assert series[0] == MPoly.const((), Rat(1, 3))
    assert series[1].constant_value() == Rat(-2, 9)
    # multiplying back must match 1 through eps^2
    total = laurent_resum(series, TAB) * den
    assert laurent_expand_eps(total - 1, 2) == {}


def test_laurent_resum_property(rng):
    table = ("x", "y", "eps", "b")
    for _ in range(200):
        num = random_poly(rng, table, ("eps", "b"), max_degree=3, n_terms=3)
        den = random_poly(rng, table, ("eps",), max_degree=2, n_terms=2)
        if den.is_zero:
            continue
        f = RatFunc(num, den)
        order = 4
        series = laurent_expand_eps(f, order)
        diff = f - laurent_resum(series, table)
        assert all(k > order for k in laurent_expand_eps(diff, order))


def test_laurent_rejects_state_variables():
    with pytest.raises(ValueError):
        laurent_expand_eps(rf("x/eps", TAB), 2)


def test_laurent_rejects_parameter_denominator():
    # every engine denominator is in eps alone; a parameter anywhere in the
    # denominator, in its lowest eps-coefficient or above, is refused
    table = ("x", "y", "eps", "a")
    for den in ("a + eps", "1 + a*eps", "a"):
        with pytest.raises(ValueError, match="eps alone"):
            laurent_expand_eps(RatFunc(MPoly.const(table, 1), poly(den, table)), 1)


def test_laurent_expansion_builds_no_ratfunc_and_runs_no_gcd(monkeypatch):
    # the expansion is rational arithmetic on the denominator's series and
    # polynomial sums on the numerator's eps-coefficients: no RatFunc is
    # built and no gcd runs
    f = RatFunc(poly("(a*b - eps)*(3 + eps) + a*eps^4", LTAB),
                poly("eps^2*(2 - eps + 5*eps^2)", LTAB))
    want = laurent_expand_eps(f, 3)
    built, gcds = [], []
    init, gcd = RatFunc.__init__, mpoly.poly_gcd

    def recorded_init(self, *args):
        built.append(args)
        init(self, *args)

    def recorded_gcd(a, b):
        gcds.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(RatFunc, "__init__", recorded_init)
    monkeypatch.setattr(ratfunc, "poly_gcd", recorded_gcd)
    monkeypatch.setattr(mpoly, "poly_gcd", recorded_gcd)
    got = laurent_expand_eps(f, 3)
    assert (built, gcds) == ([], [])
    assert [(k, c.terms) for k, c in got.items()] == [(k, c.terms) for k, c in want.items()]
    assert min(got) == -2 and all(got.values())
    # the spies see what they watch: the resum builds one rational function
    assert laurent_resum(got, LTAB) and len(built) == 1 and len(gcds) == 1


def test_arithmetic_and_pow():
    f = rf("eps/(1+eps)", TAB)
    g = rf("1/(1+eps)", TAB)
    assert f + g == rf("1", TAB) - rf("eps", TAB) / rf("1+eps", TAB) + rf("(2*eps - eps)/(1+eps)", TAB)
    assert (f * g) == rf("eps/((1+eps)^2)", TAB)
    assert f ** 2 == rf("eps^2/((1+eps)^2)", TAB)
    assert (f / g) == rf("eps", TAB)


LTAB = ("x", "y", "eps", "a", "b")


def test_laurent_matches_sympy_series(rng):
    # f = num / (eps^v * u(eps)) with u in eps alone and u(0) a nonzero
    # rational; every coefficient through the order must match sympy's
    # series, and resumming must reproduce f through that order
    sympy = pytest.importorskip("sympy")
    eps_s = sympy.Symbol("eps")
    eps = poly("eps", LTAB)
    for trial in range(16):
        v = rng.randint(0, 2)
        u0 = MPoly.const(LTAB, Rat(rng.choice((-3, -1, 2, 5)), rng.randint(1, 3)))
        u = u0 + eps * random_poly(rng, LTAB, ("eps",), max_degree=2, n_terms=2)
        num = random_poly(rng, LTAB, ("eps", "a", "b"), max_degree=3, n_terms=4)
        f = RatFunc(num, eps ** v * u)
        order = rng.randint(0, 2)
        series = laurent_expand_eps(f, order)
        assert list(series) == sorted(series) and all(series.values())
        assert all(c.vars == ("a", "b") for c in series.values())
        # num/u is analytic at eps = 0: its Taylor coefficient of eps^(k+v)
        # is the Laurent coefficient of eps^k in f
        taylor = sympy.expand(sympy.series(to_sympy(num) / to_sympy(u),
                                           eps_s, 0, order + v + 1).removeO())
        assert set(series) <= set(range(-v, order + 1)), trial
        for k in range(-v - 1, order + 1):
            got = to_sympy(series[k]) if k in series else 0
            want = taylor.coeff(eps_s, k + v) if k + v >= 0 else 0
            assert sympy.expand(got - want) == 0, (trial, k)
        diff = f - laurent_resum(series, LTAB)
        assert all(k > order for k in laurent_expand_eps(diff, order)), trial


def _hypothesis_polys_in(slots, max_size, top=2):
    """Polynomials over LTAB whose exponents are nonzero only in ``slots``."""
    st = pytest.importorskip("hypothesis.strategies")
    coeff = st.builds(Rat, st.integers(-9, 9).filter(bool), st.integers(1, 4))
    expo = st.tuples(*[st.integers(0, top) if i in slots else st.just(0)
                       for i in range(len(LTAB))])
    return st.dictionaries(expo, coeff, min_size=1, max_size=max_size).map(
        lambda terms: MPoly(LTAB, terms))


def test_eps_only_denominator_properties():
    # the two facts the degree pass relies on when it specialises the stored
    # H table: a canonical form that ignores common factors, and substitution
    # of a parameter that commutes with normalisation over an eps-only
    # denominator
    hypothesis = pytest.importorskip("hypothesis")
    every = range(len(LTAB))
    nums, factors = _hypothesis_polys_in(every, 5), _hypothesis_polys_in(every, 2)
    dens = _hypothesis_polys_in({LTAB.index("eps")}, 3, top=3)
    values = _hypothesis_polys_in({LTAB.index("b")}, 2)
    ptab = ("x", "y", "eps", "b")

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(nums, dens, factors, values)
    def check(n, d, g, val):
        r = RatFunc(n, d)
        scaled = RatFunc(n * g, d * g)
        assert (scaled.num.terms, scaled.den.terms) == (r.num.terms, r.den.terms)
        binding = {"a": val}
        lhs = RatFunc(n.subs(binding, ptab), d.subs(binding, ptab))
        rhs = RatFunc(r.num.subs(binding, ptab), r.den.subs(binding, ptab))
        assert (lhs.num.terms, lhs.den.terms) == (rhs.num.terms, rhs.den.terms)

    check()


RTAB = ("eps", "a", "b")


def _hypothesis_ratfuncs():
    """Rational functions over (eps, a, b) with denominators in all three.
    Each part has at most three terms of degree at most 2 in each variable,
    so the laws, which multiply and add three of them, run multivariate
    gcds of coprime pairs up to degree 8 in a variable."""
    st = pytest.importorskip("hypothesis.strategies")
    coeff = st.builds(Rat, st.integers(-5, 5).filter(bool), st.integers(1, 3))
    expo = st.tuples(*[st.integers(0, 2)] * len(RTAB))
    polys = st.dictionaries(expo, coeff, min_size=1, max_size=3).map(
        lambda terms: MPoly(RTAB, terms))
    return st.builds(RatFunc, polys, polys)


def test_multivariate_ring_laws_property():
    # RatFunc.__init__ scales by the denominator's content and sign: the
    # canonical forms must still satisfy the field laws exactly
    hypothesis = pytest.importorskip("hypothesis")
    fs = _hypothesis_ratfuncs()

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(fs, fs, fs)
    def check(f, g, h):
        assert f + g == g + f and f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f / g) * g == f
        assert f - f == 0 and (f - f).is_zero
        for r in (f + g, f * g, f / g):
            # the canonical form: denominator primitive with a positive lead
            assert r.den.content() == 1 and r.den.leading_coefficient() > 0
        assert hash(f * g) == hash(g * f) and hash(f - f) == hash(0)

    check()


def test_multivariate_normalisation_matches_sympy_cancel(rng):
    # RatFunc(n, d) against sympy.cancel: the same reduced denominator up to
    # the canonical scaling, and the same function
    sympy = pytest.importorskip("sympy")
    cases = 0
    while cases < 60:
        g = random_poly(rng, RTAB, RTAB, max_degree=2, n_terms=rng.randint(1, 3))
        n = random_poly(rng, RTAB, RTAB, max_degree=2, n_terms=rng.randint(1, 3)) * g
        d = random_poly(rng, RTAB, RTAB, max_degree=2, n_terms=rng.randint(1, 3)) * g
        if n.is_zero or d.is_zero:
            continue
        r = RatFunc(n, d)
        pn, pd = sympy.fraction(sympy.cancel(to_sympy(n) / to_sympy(d)))
        want_den = from_sympy(pd, RTAB)
        assert r.den == want_den.primitive()
        assert r.num * want_den == from_sympy(pn, RTAB) * r.den
        cases += 1


def test_coprime_triple_product_matches_sympy_cancel():
    # three coprime quotients over (eps, a, b): the gcds of the products
    # finish, and the reduced product is sympy's
    sympy = pytest.importorskip("sympy")
    f = rf("(-3*a^2*b^2 - 10*eps*a - 10*a^2)/(12*eps*a*b - 15*b^2 + 8*eps)", RTAB)
    g = rf("(-3/2*eps^2*a + 2*b^2)/(eps*a^2 - b)", RTAB)
    h = rf("(3*eps^2*a^2 - 18*eps*a)/(3*eps^2*b - 2)", RTAB)
    r = (f * g) * h
    assert r == f * (g * h)
    whole = sympy.Integer(1)
    for q in (f, g, h):
        whole *= to_sympy(q.num) / to_sympy(q.den)
    pn, pd = sympy.fraction(sympy.cancel(whole))
    want_den = from_sympy(pd, RTAB)
    assert r.den == want_den.primitive()
    assert r.num * want_den == from_sympy(pn, RTAB) * r.den


def test_constant_ratfunc_hashes_like_its_value():
    for c in (0, 4, Rat(-3, 7)):
        f = RatFunc.const(RTAB, c)
        assert f == c and hash(f) == hash(c)
    p = poly("a*b - eps", RTAB)
    assert RatFunc(p) == p and hash(RatFunc(p)) == hash(p)
