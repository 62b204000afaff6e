import pytest

from centerlab.linalg import bareiss_det, sylvester_resultant

from conftest import from_sympy, poly, random_poly, to_sympy

TAB = ("x", "y", "eps")


def test_bareiss_det_matches_cofactor():
    a, b, c, d = (poly(t, TAB) for t in ("eps", "1 + eps", "2", "eps^2"))
    det = bareiss_det([[a, b], [c, d]])
    assert det == a * d - b * c


def test_resultant_of_common_root():
    # x^2 - y and x - y have resultant in x vanishing iff y^2 = y
    a = poly("x^2 - y", TAB)
    b = poly("x - y", TAB)
    r = sylvester_resultant(a, b, "x")
    assert r == poly("y^2 - y", TAB)


def test_resultant_matches_sympy(rng):
    sympy = pytest.importorskip("sympy")
    table = ("x", "y", "eps")
    cases = 0
    while cases < 30:
        a = random_poly(rng, table, table, max_degree=3, n_terms=rng.randint(1, 4))
        b = random_poly(rng, table, table, max_degree=3, n_terms=rng.randint(1, 4))
        if a.degree_in("y") < 0 or b.degree_in("y") < 0 \
                or a.degree_in("y") + b.degree_in("y") == 0:
            continue
        expected = sympy.resultant(to_sympy(a), to_sympy(b), sympy.Symbol("y"))
        assert sylvester_resultant(a, b, "y") == from_sympy(sympy.expand(expected), table)
        cases += 1
