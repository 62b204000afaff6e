from centerlab.linalg import bareiss_det, sylvester_resultant

from conftest import poly

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
