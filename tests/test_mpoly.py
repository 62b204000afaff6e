import random
from math import gcd

import pytest

from centerlab.mpoly import (EngineError, MPoly, Rat, merge_tables, poly_gcd, poly_lcm,
                             rat_content, resultant)

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


def test_inexact_division_in_gcd_or_resultant_raises(monkeypatch):
    # every division of the subresultant sequence is checked: an engine
    # fault (exit 4), not a wrong gcd
    a, b = poly("x*y^2 + eps", TAB), poly("x^2*y - eps*y + 1", TAB)
    monkeypatch.setattr(MPoly, "try_div", lambda self, divisor: None)
    with pytest.raises(EngineError):
        poly_gcd(a, b)
    with pytest.raises(EngineError):
        resultant(a, b, "y")


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


def _grlex(expo):
    # graded-lex sort key of an exponent tuple: the order of packed keys
    return (sum(expo), expo)


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
        e = max(rem, key=_grlex)
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


def test_one_term_product_property():
    # a one-term operand makes the product a key shift; it must equal the
    # product rebuilt term by term from the public view, in the same order
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    polys = _hypothesis_polys()
    coeff = st.builds(Rat, st.integers(-30, 30).filter(bool), st.integers(1, 9))
    monos = st.builds(lambda e, c: MPoly.monomial(TAB, e, c),
                      st.tuples(*[st.integers(0, 3)] * len(TAB)), coeff)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(polys, monos)
    def check(p, m):
        [(em, cm)] = m.terms.items()
        want = MPoly(TAB, {tuple(i + j for i, j in zip(e, em)): c * cm
                           for e, c in p.terms.items()})
        assert p * m == m * p == want
        assert list((p * m).terms.items()) == list((m * p).terms.items()) \
            == list(want.terms.items())

    check()


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


# -- Fraction references for the integer-primitive kernels --------------------
#
# Each reference works on plain dicts exponent -> Fraction, in the order the
# Fraction kernels inserted terms, so the tests compare both the terms and
# their order.  ``_check_form`` checks the stored form itself.

def _check_form(p):
    # one positive content in lowest terms times a primitive integer dict
    assert p._den > 0 and p._num > 0 and gcd(p._num, p._den) == 1
    assert all(type(c) is int and c for c in p._ints.values())
    assert all(type(e) is int for e in p._ints)
    assert all(len(e) == len(p.vars) for e in p.terms)
    if p._ints:
        assert gcd(*p._ints.values()) == 1
    else:
        assert (p._num, p._den) == (1, 1)
    return p


def _fold(acc, terms, scale=1):
    # the add-or-delete accumulation of the Fraction kernels
    for e, c in terms.items():
        s = acc.get(e, Rat(0)) + scale * c
        if s:
            acc[e] = s
        elif e in acc:
            del acc[e]
    return acc


def _fmul(a, b):
    if len(a) > len(b):
        a, b = b, a
    terms = {}
    for ea, ca in a.items():
        _fold(terms, {tuple(i + j for i, j in zip(ea, eb)): ca * cb for eb, cb in b.items()})
    return terms


def _fpow(a, k, n):
    result, base = {(0,) * n: Rat(1)}, a
    while k:
        if k & 1:
            result = _fmul(result, base)
        k >>= 1
        if k:
            base = _fmul(base, base)
    return result


def _fscale(a, c):
    return {e: v * c for e, v in a.items()} if c else {}


def _ftry_div(p, d):
    # the Fraction heap division: the same loop over rational coefficients
    lm = max(d, key=_grlex)
    rem, q = dict(p), {}
    while rem:
        e = max(rem, key=_grlex)
        qe = tuple(i - j for i, j in zip(e, lm))
        if min(qe) < 0:
            return None
        q[qe] = rem.pop(e) / d[lm]
        _fold(rem, {tuple(i + j for i, j in zip(qe, de)): dc
                    for de, dc in d.items() if de != lm}, -q[qe])
    return q


def _fdiff(a, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in a.items() if e[i]}


def _fsubs(p, bindings, vs):
    values = {}
    for n, v in bindings.items():
        if n in p.vars:
            values[n] = dict(v.terms) if isinstance(v, MPoly) else ({(0,) * len(vs): Rat(v)}
                                                                      if v else {})
    acc = {}
    for e, c in p.terms.items():
        term = {(0,) * len(vs): c}
        e2 = [0] * len(vs)
        for i, k in enumerate(e):
            name = p.vars[i]
            if k and name in values:
                term = _fmul(term, _fpow(values[name], k, len(vs))) if values[name] else {}
            elif k:
                e2[vs.index(name)] += k
        _fold(acc, {tuple(i + j for i, j in zip(te, e2)): tc for te, tc in term.items()})
    return acc


def _fembed(p, vs):
    return {tuple(e[p.vars.index(v)] if v in p.vars else 0 for v in vs): c
            for e, c in p.terms.items()}


def _fcoefficients_in(p, i):
    out = {}
    for e, c in p.terms.items():
        out.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = c
    return out


def _fprimitive(a):
    if not a:
        return {}
    c = rat_content(a.values())
    if a[max(a, key=_grlex)] < 0:
        c = -c
    return {e: v / c for e, v in a.items()}


def _same(got, ref):
    _check_form(got)
    assert got.terms == ref
    assert list(got.terms) == list(ref)
    assert all(type(c) is Rat for c in got.terms.values())


def _kernel_cases(rng):
    # mixed denominators, unit coefficients that cancel, and the 46-variable table
    cases = []
    for _ in range(60):
        cases.append((TAB, random_poly(rng, TAB, TAB, n_terms=rng.randint(1, 6)),
                      random_poly(rng, TAB, TAB, n_terms=rng.randint(1, 6))))
        cases.append((TAB, _unit_poly(rng), _unit_poly(rng)))
        used = rng.sample(WIDE_TAB, 5)
        cases.append((WIDE_TAB, random_poly(rng, WIDE_TAB, used, n_terms=rng.randint(1, 5)),
                      random_poly(rng, WIDE_TAB, used, n_terms=rng.randint(1, 5))))
    return cases


def test_add_sub_neg_match_fraction_reference(rng):
    for _, p, q in _kernel_cases(rng):
        _same(p + q, _fold(dict(p.terms), q.terms))
        _same(p - q, _fold(dict(p.terms), q.terms, -1))
        _same(-p, {e: -c for e, c in p.terms.items()})
        _same(p - p, {})
        _same(p + 3, _fold(dict(p.terms), {(0,) * len(p.vars): Rat(3)}))
        _same(Rat(1, 2) - p, _fold({e: -c for e, c in p.terms.items()},
                                   {(0,) * len(p.vars): Rat(1, 2)}))


def test_scalar_mul_pow_match_fraction_reference(rng):
    for _, p, q in _kernel_cases(rng):
        for c in (1, -1, 0, 7, Rat(-5, 6), Rat(4, 9)):
            _same(p * c, _fscale(p.terms, Rat(c)))
            _same(c * p, _fscale(p.terms, Rat(c)))
        _same(p * q, _fmul(p.terms, q.terms))
        for k in (0, 1, 2, 3):
            _same(p ** k, _fpow(p.terms, k, len(p.vars)))


def test_try_div_matches_fraction_reference(rng):
    for table, p, d in _kernel_cases(rng):
        if d.is_constant:
            continue
        for dividend in (p * d, p * d + MPoly.variable(table[1], table), p):
            got, ref = dividend.try_div(d), _ftry_div(dividend.terms, d.terms)
            assert (got is None) == (ref is None)
            if got is not None:
                _same(got, ref)


def test_try_div_non_integral_quotient_before_non_divisible_monomial():
    # x / (2x + 1): the first quotient coefficient 1/2 is not an integer, so
    # the integer division stops there; the Fraction loop goes on until the
    # constant term fails to divide
    d = poly("2*x + 1", TAB)
    for p in (poly("x", TAB), poly("x^2*y + 3*y", TAB), poly("5/3*x*eps - 1", TAB)):
        assert _ftry_div(p.terms, d.terms) is None
        assert p.try_div(d) is None
    # a rational content that makes the quotient exact
    q = (d * poly("x/3 - 2/7*eps", TAB)).try_div(d)
    _same(q, dict(poly("x/3 - 2/7*eps", TAB).terms))


def test_diff_embed_pieces_primitive_match_fraction_reference(rng):
    for table, p, _ in _kernel_cases(rng):
        for i, v in enumerate(table[:6]):
            _same(p.diff(v), _fdiff(p.terms, i))
            ref = _fcoefficients_in(p, i)
            got = p.coefficients_in(v)
            assert list(got) == list(ref)
            for k in ref:
                _same(got[k], ref[k])
        parts = p.homogeneous_parts()
        for d in range(4):
            _same(parts.get(d, MPoly.zero(p.vars)),
                  {e: c for e, c in p.terms.items() if e[0] + e[1] == d})
        _same(p.primitive(), _fprimitive(p.terms))
        _same((-p).primitive(), _fprimitive(p.terms))
        wider = merge_tables(table, ("zeta",))
        _same(p.embed(wider), _fembed(p, wider))
        present = merge_tables(p.variables_present())
        _same(p.embed(present), _fembed(p, present))
        _same(p.embed(present).embed(table), dict(p.terms))


def test_coefficients_in_vars_round_trip(rng):
    for table, p, _ in _kernel_cases(rng):
        names = table[:2] if rng.random() < 0.5 else (table[2], table[0])
        parts = p.coefficients_in_vars(names)
        idx = [table.index(v) for v in names]
        for k, c in parts.items():
            _check_form(c)
            assert all(e[i] == 0 for e in c.terms for i in idx)
        # the parts come back grouped, so only the terms are compared, not their order
        back = _check_form(MPoly.from_coefficients(table, names, parts))
        assert back == p and back.terms == p.terms


def test_exponents_in_and_integer_terms_in_match_the_terms_view(rng):
    for table, p, _ in _kernel_cases(rng):
        names = table[:2] if rng.random() < 0.5 else (table[2], table[0])
        idx = [table.index(v) for v in names]
        assert p.exponents_in(names) == {tuple(e[i] for i in idx) for e in p.terms}
        assert p.exponents_in(names) == set(p.coefficients_in_vars(names))
        # a polynomial in names alone: its terms cut to names, in descending
        # graded-lex order of the cut tuples, each coefficient in lowest terms
        only = MPoly(table, {e: c for e, c in p.terms.items()
                             if all(k == 0 for i, k in enumerate(e) if i not in idx)})
        cut = [(tuple(e[i] for i in idx), c) for e, c in only.terms.items()]
        cut.sort(key=lambda t: (sum(t[0]), t[0]), reverse=True)
        assert only.integer_terms_in(names) == [
            (k, c.numerator, c.denominator) for k, c in cut]
        if len(only) < len(p):
            with pytest.raises(ValueError, match="variables other than"):
                p.integer_terms_in(names)


def test_subs_matches_fraction_reference(rng):
    table = merge_tables(TAB, ("a", "b"))
    cancelled = 0
    for _ in range(200):
        p = random_poly(rng, table, table, max_degree=4, n_terms=rng.randint(1, 8))
        names = rng.sample(table, rng.randint(1, 3))
        bindings = {}
        for name in names:
            kind = rng.randrange(4)
            if kind == 0:
                bindings[name] = Rat(rng.randint(-3, 3), rng.randint(1, 3))
            elif kind == 1:
                bindings[name] = rng.randint(-2, 2)
            else:
                rest = [v for v in table if v not in names]
                bindings[name] = random_poly(rng, table, rest, max_degree=2,
                                             n_terms=rng.randint(1, 3), lo=-2, hi=2)
        vs = tuple(v for v in table if v not in bindings) if rng.random() < 0.5 else table
        bindings = {n: (v.embed(vs) if isinstance(v, MPoly) else v)
                    for n, v in bindings.items()}
        got = p.subs(bindings, vs)
        assert got.vars == vs
        _same(got, _fsubs(p, bindings, vs))
        cancelled += len(got) < len(p)
    assert cancelled > 20
    # a substitution whose terms all cancel
    q = poly("x*a - x^2", table)
    _same(q.subs({"a": poly("x", table)}, table), {})


def test_constructor_normalises_content():
    p = MPoly(TAB, {(1, 0, 0): Rat(-4, 6), (0, 1, 0): 2, (0, 0, 1): Rat(0)})
    _check_form(p)
    assert (p._num, p._den, list(p._ints.values())) == (2, 3, [-1, 3])
    assert list(p.terms) == [(1, 0, 0), (0, 1, 0)]
    assert p.content() == Rat(2, 3)
    assert MPoly.zero(TAB).content() == 0
    assert p.coefficient((0, 1, 0)) == 2 and p.coefficient((0, 0, 1)) == 0
    assert p.leading_coefficient() == Rat(-2, 3)
    _check_form(MPoly.const(TAB, Rat(-3, 4)))
    assert MPoly.const(TAB, Rat(-3, 4)).constant_value() == Rat(-3, 4)


def test_terms_view_is_read_only():
    p = poly("x - 1/2*y", TAB)
    with pytest.raises(TypeError):
        p.terms[(1, 0, 0)] = 5
    assert dict(p.terms) == {(1, 0, 0): 1, (0, 1, 0): Rat(-1, 2)}
    assert (0, 1, 0) in p.terms and len(p.terms) == 2
    assert list(p.terms) == [(1, 0, 0), (0, 1, 0)]


def test_representation_invariant_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    polys = _hypothesis_polys()
    scalars = st.builds(Rat, st.integers(-12, 12), st.integers(1, 6))

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(polys, polys, scalars)
    def check(p, q, c):
        free_of_y = q.subs({"y": c}, TAB)
        results = [p, p + q, p - q, p - p, -p, p * c, c * p, p * q, p ** 2,
                   (p * q).try_div(q), p.diff("x"), p.diff("eps"), p.primitive(),
                   p.subs({"y": free_of_y}, TAB), p.subs({"x": c}),
                   p.embed(merge_tables(TAB, ("a",))), *p.homogeneous_parts().values(),
                   MPoly.from_coefficients(TAB, ("x", "y"), p.coefficients_in_vars(("x", "y")))]
        results += list(p.coefficients_in("y").values())
        for r in results:
            _check_form(r)

    check()


def _equal_pairs(rng):
    # equal polynomials reached by different orders of operations
    for _ in range(60):
        p, q, r = (random_poly(rng, TAB, TAB, n_terms=rng.randint(1, 4)) for _ in range(3))
        c = Rat(rng.randint(-6, 6), rng.randint(1, 5))
        yield p * (q + r), q * p + r * p
        yield (p + c) - q, p - (q - c)
        yield (p * c) * q, p * (q * c)
        yield (p * q).try_div(q), p
        yield (p - p) * r, MPoly.zero(TAB)
        yield MPoly.const(TAB, c), (p + c) - p
        yield MPoly(TAB, p.terms), p


def test_equal_polynomials_hash_equal(rng):
    seen = 0
    for a, b in _equal_pairs(rng):
        assert a == b
        assert hash(a) == hash(b)
        seen += 1
    assert seen == 420
    # a constant polynomial equals its value, so it hashes like it
    for c in (0, 3, -7, Rat(2, 3), Rat(-5, 1)):
        p = MPoly.const(("x",), c)
        assert p == c and hash(p) == hash(c)
        assert {p: 1}.get(c) == 1
    assert {MPoly.const(TAB, 3): "three"}[3] == "three"
    assert hash(poly("x + 1", TAB)) != hash(poly("x + 2", TAB))


# -- packed monomial keys -------------------------------------------------------
#
# The kernels run on one int per monomial; these tests reach the layout through
# the private ``_keys`` and compare the kernels with tuple-keyed references.

CAP = 2 ** 15  # exponents and total degrees stay below this


def test_constructor_rejects_invalid_exponents():
    for expo in ((-1, 2), (1.0, 0), (0, Rat(1)), (True, 0), (0, "1")):
        with pytest.raises(ValueError):
            MPoly(("x", "y"), {expo: 3})
        with pytest.raises(ValueError):
            MPoly(("x", "y"), {expo: 0})
    with pytest.raises(ValueError):
        MPoly.monomial(("x", "y"), (0, -1))
    with pytest.raises(ValueError):
        MPoly(("x", "y"), {(CAP - 1, 1): 1})
    # a lookup with such a tuple finds nothing
    p = poly("x + y", ("x", "y"))
    assert p.coefficient((-1, 2)) == 0 and (1.0, 0) not in p.terms
    assert p.coefficient((1, 0)) == 1 and (0, 1) in p.terms


def test_packed_key_order_is_graded_lex_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from centerlab.mpoly import _keys

    # up to 8 variables; entries up to 4000 keep every total degree under CAP
    entry = st.one_of(st.integers(0, 3), st.integers(0, 4000))
    pairs = st.integers(0, 8).flatmap(
        lambda n: st.tuples(*[st.tuples(*[entry] * n)] * 2))

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(pairs)
    def check(pair):
        a, b = pair
        ks = _keys(len(a))
        ka, kb = ks.pack(a), ks.pack(b)
        assert ks.unpack(ka) == a and ks.unpack(kb) == b
        assert ka >= 0 and not ka & ks.guard
        assert (ka < kb) == (_grlex(a) < _grlex(b))
        assert (ka == kb) == (a == b)
        # a product of monomials is one integer +
        if sum(a) + sum(b) < CAP:
            assert ka + kb == ks.pack(tuple(i + j for i, j in zip(a, b)))

    check()


def test_product_reaching_degree_limit_raises():
    half = MPoly.monomial(TAB, (CAP // 2, 0, 0))
    below = MPoly.monomial(TAB, (CAP // 2 - 1, 0, 0), 3)
    assert (half * below).leading_monomial() == (CAP - 1, 0, 0)
    for a, b in ((half, half), (half, MPoly.monomial(TAB, (0, CAP // 2, 0))),
                 (half + 1, MPoly.monomial(TAB, (0, 0, CAP // 2)) - 1),
                 # one-term operands against several terms: key shifts
                 (half * Rat(-2, 3), MPoly.monomial(TAB, (0, 0, CAP // 2)) + 1),
                 (MPoly.monomial(TAB, (0, CAP // 2, 0)) + 1, below * MPoly.variable("y", TAB))):
        with pytest.raises(EngineError):
            a * b
    with pytest.raises(EngineError):
        half ** 2
    with pytest.raises(EngineError):
        half.shift("eps", CAP // 2)
    with pytest.raises(EngineError):
        (half * MPoly.variable("y", TAB)).subs({"y": half}, TAB)
    assert half.shift("eps", CAP // 2 - 1).leading_monomial() == (CAP // 2, 0, CAP // 2 - 1)


def test_try_div_borrow_cases_return_none():
    x, y, eps = (MPoly.variable(v, TAB) for v in TAB)
    cases = [
        (x, y),                      # same degree, y field borrows from x
        (x * y ** 2, y ** 3),        # x field is free, y field too small
        (y, eps),
        (x, eps),                    # the borrow runs through an empty y field
        (x ** 2 * eps, x * eps ** 2),  # the divisor leads the dividend in eps only
        (x ** 2 * eps + y, x * eps ** 2 + y ** 2),
        (x * y ** 2, y ** 3 + x * eps),
    ]
    for p, d in cases:
        assert p.try_div(d) is None, (p, d)
        assert _ftry_div(p.terms, d.terms) is None
    assert (x * y ** 3).try_div(y ** 3) == x


def _shift_ref(a, i, k):
    return {e[:i] + (e[i] + k,) + e[i + 1:]: c for e, c in a.items()}


def _coefficients_in_vars_ref(p, names):
    idx = [p.vars.index(v) for v in names]
    out = {}
    for e, c in p.terms.items():
        rest = tuple(0 if i in idx else k for i, k in enumerate(e))
        out.setdefault(tuple(e[i] for i in idx), {})[rest] = c
    return out


def test_packed_kernels_match_tuple_reference_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    table = ("x", "y", "eps", "a", "b")
    coeff = st.builds(Rat, st.integers(-20, 20).filter(bool), st.integers(1, 6))
    # small exponents, and large ones that fill more than a byte of a field
    entry = st.one_of(st.integers(0, 3), st.integers(250, 300))
    polys = st.dictionaries(st.tuples(*[entry] * len(table)), coeff, min_size=1,
                            max_size=5).map(lambda terms: MPoly(table, terms))
    names = st.lists(st.sampled_from(table), min_size=1, max_size=3, unique=True)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(polys, polys, names, st.integers(0, 4))
    def check(p, q, vs, k):
        _same(p * q, _fmul(p.terms, q.terms))
        for dividend in (p * q, p * q + MPoly.variable("y", table), p):
            if q.is_constant:
                break
            got, ref = dividend.try_div(q), _ftry_div(dividend.terms, q.terms)
            assert (got is None) == (ref is None)
            if got is not None:
                _same(got, ref)
        for v in vs:
            i = table.index(v)
            _same(p.diff(v), _fdiff(p.terms, i))
            _same(p.shift(v, k), _shift_ref(p.terms, i, k))
            low = p.lowest_degree_in(v)
            _same(p.shift(v, -low), _shift_ref(p.terms, i, -low))
        parts = p.coefficients_in_vars(vs)
        ref = _coefficients_in_vars_ref(p, vs)
        assert list(parts) == list(ref)
        for key in ref:
            _same(parts[key], ref[key])
        assert MPoly.from_coefficients(table, vs, parts).terms == p.terms
        # "ab" lands between "a" and "b", so fields move both ways
        wider = merge_tables(table, ("ab", "zeta"))
        _same(p.embed(wider), _fembed(p, wider))
        present = merge_tables(p.variables_present())
        assert p.variables_present() == tuple(v for v in table if p.degree_in(v) > 0)
        _same(p.embed(present), _fembed(p, present))
        rest = tuple(v for v in table if v not in vs)
        x0 = MPoly.monomial(rest, (1,) + (0,) * (len(rest) - 1), Rat(-2, 3)) if rest else 5
        bindings = {v: (Rat(k - 2, 2) if j == 0 else x0) for j, v in enumerate(vs)}
        _same(p.subs(bindings, rest), _fsubs(p, bindings, rest))
        bindings = {v: (b.embed(table) if isinstance(b, MPoly) else b) for v, b in bindings.items()}
        _same(p.subs(bindings, table), _fsubs(p, bindings, table))

    check()


def _coefficient_list_ref(p, var, at):
    """p's coefficients in ``var`` with the variables of ``at`` set, summed
    term by term over exponent tuples; ValueError for any other variable."""
    sums = {}
    for e, c in p.terms.items():
        for v, k in zip(p.vars, e):
            if k and v != var:
                if v not in at:
                    raise ValueError(v)
                c *= Rat(at[v]) ** k
        k = e[p.vars.index(var)]
        sums[k] = sums.get(k, Rat(0)) + c
    top = max((k for k, c in sums.items() if c), default=-1)
    return [sums.get(k, Rat(0)) for k in range(top + 1)]


def test_coefficient_list_matches_tuple_reference_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    table = ("x", "y", "eps", "a")
    coeff = st.builds(Rat, st.integers(-20, 20).filter(bool), st.integers(1, 6))
    polys = st.dictionaries(st.tuples(*[st.integers(0, 3)] * len(table)), coeff,
                            max_size=6).map(lambda terms: MPoly(table, terms))
    value = st.one_of(st.integers(-3, 3), st.builds(Rat, st.integers(-5, 5), st.integers(1, 4)))
    values = st.lists(value, min_size=len(table), max_size=len(table))
    unset = st.sets(st.sampled_from(table), max_size=2)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(polys, st.sampled_from(table), values, unset)
    def check(p, var, vals, missing):
        at = {v: c for v, c in zip(table, vals) if v != var and v not in missing}
        try:
            ref = _coefficient_list_ref(p, var, at)
        except ValueError:
            with pytest.raises(ValueError):
                p.coefficient_list(var, at)
            return
        got = p.coefficient_list(var, at)
        assert got == ref and all(type(c) is Rat for c in got)
        # with every other variable set first, no ``at`` is needed
        rest = p.subs(at, table)
        assert rest.coefficient_list(var) == rest.coefficient_list(var, {}) == ref

    check()
    p = poly("x^2*y - 3*y^3 + 1/2", ("x", "y"))
    assert p.coefficient_list("y", {"x": 2}) == [Rat(1, 2), Rat(4), Rat(0), Rat(-3)]
    assert p.coefficient_list("x", {"y": Rat(-1, 3)}) == [Rat(11, 18), Rat(0), Rat(-1, 3)]
    assert MPoly.zero(("x", "y")).coefficient_list("y", {"x": 5}) == []
    with pytest.raises(ValueError, match="variable x present"):
        p.coefficient_list("y")


def _table_ref(p, vs):
    """p's terms over the table ``vs``, moved one exponent tuple at a time;
    ValueError naming the first variable present (in p's table order) that
    ``vs`` lacks."""
    present = [v for i, v in enumerate(p.vars) if any(e[i] for e in p.terms)]
    for v in present:
        if v not in vs:
            raise ValueError(v)
    return {tuple(e[p.vars.index(v)] if v in p.vars else 0 for v in vs): c
            for e, c in p.terms.items()}


def test_move_plans_match_term_reference_property():
    # embed and subs move keys between tables by a plan cached per pair of
    # tables; every move must match the tuple-level reference, whatever was
    # cached before it
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from centerlab import mpoly

    names = ("x", "y", "eps", "a", "b", "c", "d")
    coeff = st.builds(Rat, st.integers(-20, 20).filter(bool), st.integers(1, 6))
    seen = {"moved": 0, "dropped": 0, "refused": 0, "twins": 0}

    @st.composite
    def cases(draw):
        old = tuple(draw(st.permutations(names))[:draw(st.integers(2, 6))])
        used = draw(st.sets(st.sampled_from(old), min_size=1))
        expo = st.tuples(*[st.integers(0, 3) if v in used else st.just(0) for v in old])
        p = MPoly(old, draw(st.dictionaries(expo, coeff, min_size=1, max_size=5)))
        new = tuple(draw(st.permutations(names))[:draw(st.integers(1, 7))])
        # a table of the same length, most often under other names
        twin = tuple(draw(st.permutations(names))[:len(new)])
        bound = draw(st.sets(st.sampled_from(old), max_size=3))
        # each bound variable's value: c0 + c1*(the first variable of the target)
        values = {v: (draw(coeff), draw(st.sampled_from((0, 1, Rat(-2, 3))))) for v in bound}
        return p, new, twin, values

    def bindings(values, vs):
        return {v: (c0 if not c1 else MPoly.const(vs, c0) + MPoly.variable(vs[0], vs) * c1)
                for v, (c0, c1) in values.items()}

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(cases())
    def check(case):
        p, new, twin, values = case
        seen["twins"] += set(new) != set(twin)
        mpoly._plan.cache_clear()
        # the second visit of ``new`` reads the plans cached by the first
        for vs in (new, twin, new):
            try:
                ref = _table_ref(p, vs)
            except ValueError as exc:
                seen["refused"] += 1
                with pytest.raises(ValueError, match=f"^variable {exc} present; cannot "
                                                     "re-express over"):
                    p.embed(vs)
            else:
                seen["moved"] += 1
                seen["dropped"] += not set(p.vars) <= set(vs)
                _same(p.embed(vs), ref)
            b = bindings(values, vs)
            try:
                ref = _fsubs(p, b, vs)
            except ValueError:
                with pytest.raises(ValueError, match="present; not in"):
                    p.subs(b, vs)
            else:
                got = p.subs(b, vs)
                assert got.vars == vs
                _same(got, ref)
        # one plan per (table, table, bound names) met above
        assert mpoly._plan.cache_info().currsize <= 4

    check()
    assert min(seen.values()) > 20, seen


def test_homogeneous_parts_property():
    # one split by degree in the state variables: the parts sum back to p,
    # each holds exactly the terms of its degree
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    coeff = st.builds(Rat, st.integers(-20, 20).filter(bool), st.integers(1, 6))
    # the usual table, one without y, and one with the state variables apart
    tables = (TAB, ("x", "eps", "a"), ("eps", "y", "a", "x"))

    def polys(table):
        return st.dictionaries(st.tuples(*[st.integers(0, 3)] * len(table)), coeff,
                               max_size=6).map(lambda terms: MPoly(table, terms))

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.sampled_from(tables).flatmap(polys),
                      st.sampled_from((("x", "y"), ("eps",), ("y", "a"))))
    def check(p, state):
        slots = [i for i, v in enumerate(p.vars) if v in state]

        def degree(e):
            return sum(e[i] for i in slots)

        parts = p.homogeneous_parts(state)
        assert list(parts) == sorted({degree(e) for e in p.terms})
        total = MPoly.zero(p.vars)
        for d, part in parts.items():
            _check_form(part)
            assert part.vars == p.vars and part
            assert all(degree(e) == d for e in part.terms)
            total = total + part
        assert total == p

    check()
    # the default state is (x, y), present or not
    p = poly("x^2*eps + x + eps^3", ("x", "eps"))
    assert p.homogeneous_parts() == {0: poly("eps^3", p.vars), 1: poly("x", p.vars),
                                     2: poly("x^2*eps", p.vars)}
    assert MPoly.zero(TAB).homogeneous_parts() == {}
