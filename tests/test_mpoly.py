import random

import pytest

from centerlab.mpoly import EngineError, MPoly, Rat, merge_tables, poly_gcd, poly_lcm

from conftest import poly, random_poly

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
