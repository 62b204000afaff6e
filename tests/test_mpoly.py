import random

import pytest

from centerlab.mpoly import EngineError, MPoly, Rat, merge_tables, poly_gcd, poly_lcm

from conftest import from_sympy, poly, random_poly, to_sympy

TAB = ("x", "y", "eps")


def test_difference_of_squares():
    x = MPoly.variable("x", TAB)
    y = MPoly.variable("y", TAB)
    assert (x + y) * (x - y) == poly("x^2 - y^2", TAB)


def test_partial_derivative_of_seed():
    h = poly("(eps*x^2 + y^2)/2", TAB)
    assert h.diff("x") == poly("eps*x", TAB)
    assert h.diff("y") == poly("y", TAB)


def test_expand_then_refactor():
    base = poly("x^2 + y^2", TAB)
    squared = base ** 2
    assert squared == poly("x^4 + 2*x^2*y^2 + y^4", TAB)
    g = poly_gcd(squared, base)
    assert g == base
    assert squared.try_div(g) == base


def test_gcd_trivial_cases():
    assert poly_gcd(poly("x^2 - y^2", TAB), poly("x - y", TAB)) == poly("x - y", TAB)
    d = poly("3 + 2*eps + 3*eps^2", TAB)
    g = poly_gcd(MPoly.zero(TAB), d)
    # up to canonical normalization (primitive, positive leading coefficient)
    assert g == d


def test_gcd_divide_back_oracle(rng):
    # gcd(r*s, r*t) recovers r for coprime random s, t; verified by division
    table = merge_tables(TAB, ("a",))
    for _ in range(60):
        r = random_poly(rng, table, ("x", "y"), max_degree=2, n_terms=3)
        s = random_poly(rng, table, ("x", "eps"), max_degree=2, n_terms=2)
        t = random_poly(rng, table, ("y", "a"), max_degree=2, n_terms=2)
        if r.is_zero or s.is_zero or t.is_zero:
            continue
        g = poly_gcd(r * s, r * t)
        # g is a common divisor and a multiple of every common divisor;
        # check divisibility both ways against r's primitive part
        assert (r * s).try_div(g) is not None
        assert (r * t).try_div(g) is not None
        assert g.try_div(poly_gcd(g, r.primitive())) is not None


def test_gcd_divides_both_arguments(rng):
    table = TAB
    for _ in range(60):
        a = random_poly(rng, table, ("x", "y", "eps"), max_degree=3, n_terms=4)
        b = random_poly(rng, table, ("x", "y", "eps"), max_degree=3, n_terms=3)
        if a.is_zero or b.is_zero:
            continue
        g = poly_gcd(a, b)
        assert a.try_div(g) is not None
        assert b.try_div(g) is not None


def test_lcm_contains_both(rng):
    for _ in range(20):
        a = random_poly(rng, TAB, ("x", "eps"), max_degree=2, n_terms=2)
        b = random_poly(rng, TAB, ("x",), max_degree=2, n_terms=2)
        if a.is_zero or b.is_zero:
            continue
        m = poly_lcm(a, b)
        assert m.try_div(a.primitive()) is not None
        assert m.try_div(b.primitive()) is not None


def test_inexact_division_in_lcm_raises(monkeypatch):
    # an explicit check, not an assert, so that it survives python -O
    a, b = poly("eps + 1", TAB), poly("eps - 1", TAB)
    monkeypatch.setattr(MPoly, "try_div", lambda self, divisor: None)
    with pytest.raises(EngineError):
        poly_lcm(a, b)


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        MPoly.variable("x", TAB) ** -1


def test_table_mismatch_rejected():
    a = MPoly.variable("x", TAB)
    b = MPoly.variable("x", ("x", "y"))
    with pytest.raises(ValueError):
        a + b


def test_graded_lex_leading_monomial():
    p = poly("x*y + y^3 + eps", TAB)
    # y^3 has higher total degree than x*y
    assert p.leading_monomial() == (0, 3, 0)
    q = poly("x*y + y^2", TAB)
    # same degree: x > y lexicographically
    assert q.leading_monomial() == (1, 1, 0)


def test_canonical_string_roundtrips():
    p = poly("-x^3 + 3/2*x*y*eps - 2", TAB)
    assert poly(str(p), TAB) == p
    assert str(MPoly.zero(TAB)) == "0"


def test_substitution():
    p = poly("x^2 + k*y", ("x", "y", "eps", "k"))
    q = p.subs({"k": Rat(1, 2)})
    assert q == poly("x^2 + 1/2*y", ("x", "y", "eps"))
    r = p.subs({"k": poly("x", ("x", "y", "eps", "k"))}, ("x", "y", "eps"))
    assert r == poly("x^2 + x*y", ("x", "y", "eps"))


def _not_lex_first_divisor(rng, table):
    # the graded-lex leading monomial is not the lexicographic maximum:
    # a degree-2 term in later variables beats a linear term in x
    d = random_poly(rng, table, ("y", "eps", "a"), max_degree=2, n_terms=2)
    return d + poly("x", table) + poly("y^2", table) * Rat(rng.randint(1, 5))


def test_try_div_matches_sympy_reduced(rng):
    # differential test: try_div is exact exactly when sympy's grlex division
    # by the single divisor leaves remainder 0, and then the quotients agree
    sympy = pytest.importorskip("sympy")
    table = merge_tables(TAB, ("a",))
    gens = sympy.symbols(table)

    cases = 0
    while cases < 90:
        p = random_poly(rng, table, table, max_degree=3, n_terms=rng.randint(1, 5))
        if cases % 3 == 2:
            d = _not_lex_first_divisor(rng, table)
        else:
            d = random_poly(rng, table, table, max_degree=2, n_terms=rng.randint(1, 4))
        if p.is_zero or d.is_zero:
            continue
        m = random_poly(rng, table, table, max_degree=4, n_terms=1)
        for dividend in (p * d, p * d + m, p):
            (sq,), sr = sympy.reduced(to_sympy(dividend), [to_sympy(d)], *gens,
                                      order="grlex")
            q = dividend.try_div(d)
            if sr == 0:
                assert q is not None
                assert sympy.expand(to_sympy(q) - sq) == 0
            else:
                assert q is None
        cases += 1


def _rescan_div(p, d):
    # reference: pick the leading remainder term by rescanning the remainder
    lm = d.leading_monomial()
    rem, q = dict(p.terms), {}
    while rem:
        e = max(rem, key=MPoly._key)
        qe = tuple(i - j for i, j in zip(e, lm))
        if min(qe) < 0:
            return None
        q[qe] = rem[e] / d.terms[lm]
        for de, dc in d.terms.items():
            te = tuple(i + j for i, j in zip(qe, de))
            rem[te] = rem.get(te, 0) - q[qe] * dc
            if not rem[te]:
                del rem[te]
    return q


def test_try_div_matches_rescan_reference(rng):
    # same quotient terms, inserted in the same order, as a full rescan
    for _ in range(150):
        p = random_poly(rng, TAB, TAB, max_degree=4, n_terms=rng.randint(1, 6))
        d = random_poly(rng, TAB, TAB, max_degree=3, n_terms=rng.randint(2, 4))
        if p.is_zero or d.is_zero or d.is_constant:
            continue
        for dividend in (p * d, p * d + poly("x*y^2", TAB), p):
            q = dividend.try_div(d)
            ref = _rescan_div(dividend, d)
            assert (q is None) == (ref is None)
            if q is not None:
                assert list(q.terms.items()) == list(ref.items())


def test_try_div_leading_monomial_not_lex_first():
    table = merge_tables(TAB, ("a",))
    d = poly("x + y^2 - a", table)
    assert d.leading_monomial() == (0, 2, 0, 0)
    p = poly("x^2*eps - 3/2*a*y + 1", table)
    assert (p * d).try_div(d) == p
    assert (p * d + poly("y", table)).try_div(d) is None


def test_try_div_by_zero_polynomial_raises():
    with pytest.raises(ZeroDivisionError):
        poly("x + 1", TAB).try_div(MPoly.zero(TAB))


def _hypothesis_polys():
    st = pytest.importorskip("hypothesis.strategies")
    coeff = st.builds(Rat, st.integers(-30, 30).filter(bool), st.integers(1, 9))
    expo = st.tuples(*[st.integers(0, 3)] * len(TAB))
    return st.dictionaries(expo, coeff, min_size=1, max_size=6).map(
        lambda terms: MPoly(TAB, terms))


def test_product_divides_back_property():
    hypothesis = pytest.importorskip("hypothesis")
    polys = _hypothesis_polys()

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(polys, polys)
    def check(p, d):
        assert (p * d).try_div(d) == p

    check()


def _fraction_mul(p, q):
    # reference: the product accumulated term by term in Fraction arithmetic,
    # smaller operand outside; also counts partial sums that cancelled to 0
    a, b = p.terms, q.terms
    if len(a) > len(b):
        a, b = b, a
    terms, cancelled = {}, 0
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            s = terms.get(e, Rat(0)) + ca * cb
            if s:
                terms[e] = s
            elif e in terms:
                del terms[e]
                cancelled += 1
    return terms, cancelled


def _unit_poly(rng):
    monos = [(i, j, 0) for i in range(3) for j in range(3 - i)]
    return MPoly(TAB, {e: rng.choice((-1, 1)) for e in rng.sample(monos, 4)})


WIDE_TAB = merge_tables(TAB, tuple(f"p{i:02d}" for i in range(43)))


def test_mul_matches_fraction_reference(rng):
    # same terms, inserted in the same order, as the Fraction product loop
    assert len(WIDE_TAB) == 46
    cases = []
    for _ in range(150):
        # mixed denominators: random_poly draws denominators 1..4
        cases.append((random_poly(rng, TAB, TAB, n_terms=rng.randint(1, 6)),
                      random_poly(rng, TAB, TAB, n_terms=rng.randint(1, 6))))
        # unit coefficients on few monomials: many partial sums cancel
        cases.append((_unit_poly(rng), _unit_poly(rng)))
        used = rng.sample(WIDE_TAB, 5)
        cases.append((random_poly(rng, WIDE_TAB, used, n_terms=rng.randint(1, 5)),
                      random_poly(rng, WIDE_TAB, used, n_terms=rng.randint(1, 5))))
        # scalar and constant operands
        cases.append((random_poly(rng, TAB, TAB), MPoly.const(TAB, Rat(rng.randint(-9, 9), 7))))
    cancelled = 0
    for p, q in cases:
        ref, k = _fraction_mul(p, q)
        cancelled += k
        got = p * q
        assert got.terms == ref
        assert list(got.terms) == list(ref)
        assert all(type(c) is Rat for c in got.terms.values())
    assert cancelled > 50
    p = random_poly(rng, WIDE_TAB, WIDE_TAB[:6])
    for c in (3, Rat(-5, 6), 0):
        assert (p * c).terms == (c * p).terms == _fraction_mul(p, MPoly.const(WIDE_TAB, c))[0]
    assert (p * MPoly.zero(WIDE_TAB)).is_zero


def test_ring_laws_property():
    hypothesis = pytest.importorskip("hypothesis")
    polys = _hypothesis_polys()

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(polys, polys, polys)
    def check(p, q, r):
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    check()


def test_gcd_matches_sympy(rng):
    # differential test: gcd of a pair with a planted common factor, after
    # both sides are made primitive with a positive leading coefficient
    sympy = pytest.importorskip("sympy")
    table = merge_tables(TAB, ("a", "b"))
    cases = 0
    while cases < 40:
        g = random_poly(rng, table, table, max_degree=2, n_terms=rng.randint(1, 3))
        s = random_poly(rng, table, table, max_degree=2, n_terms=rng.randint(1, 3))
        t = random_poly(rng, table, table, max_degree=2, n_terms=rng.randint(1, 3))
        if g.is_zero or s.is_zero or t.is_zero or g.is_constant:
            continue
        a, b = g * s, g * t
        expected = from_sympy(sympy.gcd(to_sympy(a), to_sympy(b)), table).primitive()
        assert poly_gcd(a, b).primitive() == expected
        cases += 1


def _accumulating_subs(p, bindings, vs):
    # reference: the substitution summed with one MPoly addition per term
    values = {n: (v if isinstance(v, MPoly) else MPoly.const(vs, v))
              for n, v in bindings.items() if n in p.vars}
    result = MPoly.zero(vs)
    for e, c in p.terms.items():
        term = MPoly.const(vs, c)
        e2 = [0] * len(vs)
        for i, k in enumerate(e):
            if k and p.vars[i] in values:
                term = term * values[p.vars[i]] ** k
            elif k:
                e2[vs.index(p.vars[i])] += k
        result = result + term * MPoly.monomial(vs, e2)
    return result


def test_subs_matches_accumulating_reference(rng):
    # same terms, inserted in the same order, as summing term by term
    table = merge_tables(TAB, ("a", "b"))
    cases = 0
    for _ in range(200):
        p = random_poly(rng, table, table, max_degree=4, n_terms=rng.randint(1, 8))
        names = rng.sample(table, rng.randint(1, 3))
        bindings = {}
        for name in names:
            kind = rng.randrange(3)
            if kind == 0:
                bindings[name] = Rat(rng.randint(-3, 3), rng.randint(1, 3))
            else:
                # polynomial values over the other variables collide with
                # existing monomials, so partial sums cancel
                rest = [v for v in table if v not in names]
                bindings[name] = random_poly(rng, table, rest, max_degree=2,
                                             n_terms=rng.randint(1, 3), lo=-2, hi=2)
        vs = tuple(v for v in table if v not in bindings) if rng.random() < 0.5 else table
        bindings = {n: (v.embed(vs) if isinstance(v, MPoly) else v)
                    for n, v in bindings.items()}
        got = p.subs(bindings, vs)
        ref = _accumulating_subs(p, bindings, vs)
        assert got.vars == ref.vars
        assert got.terms == ref.terms
        assert list(got.terms) == list(ref.terms)
        cases += len(p.terms) > len(got.terms)
    # some substitutions merged or cancelled terms
    assert cases > 20
