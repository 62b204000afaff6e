import pytest

from centerlab.mpoly import MPoly, resultant

from conftest import from_sympy, poly, random_poly, to_sympy

TAB = ("x", "y", "eps")


def test_resultant_of_common_root():
    # x^2 - y and x - y have resultant in x vanishing iff y^2 = y
    a = poly("x^2 - y", TAB)
    b = poly("x - y", TAB)
    r = resultant(a, b, "x")
    assert r == poly("y^2 - y", TAB)


def _sympy_resultant(sympy, a, b, var):
    """sympy's resultant, called with the argument of higher degree first:
    sympy 1.14 drops the sign (-1)^(deg a*deg b) when the first argument
    has the lower degree (Res_y(y + 1, y^3 + x) comes out 1 - x, not
    x - 1)."""
    v = sympy.Symbol(var)
    da, db = a.degree_in(var), b.degree_in(var)
    if da >= db:
        return sympy.expand(sympy.resultant(to_sympy(a), to_sympy(b), v))
    return sympy.expand((-1) ** (da * db) * sympy.resultant(to_sympy(b), to_sympy(a), v))


def test_resultant_matches_sympy(rng):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.subresultants_qq_zz import sylvester
    table = ("x", "y", "eps")
    cases = 0
    while cases < 30:
        a = random_poly(rng, table, table, max_degree=3, n_terms=rng.randint(1, 4))
        b = random_poly(rng, table, table, max_degree=3, n_terms=rng.randint(1, 4))
        if a.degree_in("y") < 0 or b.degree_in("y") < 0 \
                or a.degree_in("y") + b.degree_in("y") == 0:
            continue
        for p, q in ((a, b), (b, a)):
            expected = _sympy_resultant(sympy, p, q, "y")
            assert resultant(p, q, "y") == from_sympy(expected, table)
            # the definition: the determinant of the Sylvester matrix
            det = sylvester(to_sympy(p), to_sympy(q), sympy.Symbol("y")).det()
            assert sympy.expand(det - expected) == 0
        cases += 1


def test_swapped_arguments_change_sign_by_the_degree_product():
    sympy = pytest.importorskip("sympy")
    cases = [("y + 1", "y^3 + x"), ("3*y - x", "2*y^3 + eps*y + 1"),
             ("y^2 + x", "y^3 + eps"), ("x*y^3 - eps", "(1 + x)*y + 2")]
    for a, b in cases:
        a, b = poly(a, TAB), poly(b, TAB)
        expected = from_sympy(_sympy_resultant(sympy, a, b, "y"), TAB)
        sign = (-1) ** (a.degree_in("y") * b.degree_in("y"))
        assert resultant(a, b, "y") == expected
        assert resultant(b, a, "y") == expected * sign
    # Res_y(y + 1, y^3 + x) = (y^3 + x) at y = -1
    assert resultant(poly("y + 1", TAB), poly("y^3 + x", TAB), "y") == poly("x - 1", TAB)


def test_constant_argument():
    sympy = pytest.importorskip("sympy")
    b = poly("(1 + x)*y^3 - eps*y + 2", TAB)
    for c in ("3", "x - eps", "x^2*eps"):
        c = poly(c, TAB)
        # a factor free of y has resultant c^deg b, in either order
        assert resultant(c, b, "y") == resultant(b, c, "y") == c ** 3
        assert resultant(c, b, "y") == from_sympy(_sympy_resultant(sympy, c, b, "y"), TAB)
    # neither argument involves y
    assert resultant(poly("x + 1", TAB), poly("eps", TAB), "y") == 1
    with pytest.raises(ValueError):
        resultant(MPoly.zero(TAB), b, "y")
    with pytest.raises(ValueError):
        resultant(b, MPoly.zero(TAB), "y")
