import random

import pytest

from centerlab.mpoly import Rat
from centerlab.realroots import (
    isolate_real_roots,
    poly_divmod,
    poly_gcd_univ,
    real_root_count,
    refine_to_float,
    squarefree,
    trim,
)


def _dense(rng, degree, lo=-6, hi=6):
    return trim([Rat(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(degree + 1)])


def _mul(a, b):
    out = [Rat(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _to_sympy(p, t):
    import sympy

    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p)]
                      or [0], t)


def _from_sympy(poly):
    return trim([Rat(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())])


def test_divmod_matches_sympy_div():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(5)
    for _ in range(200):
        a = _dense(rng, rng.randint(0, 8))
        b = _dense(rng, rng.randint(0, 5))
        if not b:
            continue
        q, r = poly_divmod(a, b)
        sq, sr = sympy.div(_to_sympy(a, t), _to_sympy(b, t))
        assert (q, r) == (_from_sympy(sq), _from_sympy(sr))
        # the inputs are left as they were
        assert poly_divmod(a, b) == (q, r)


def test_divmod_by_zero_polynomial_raises():
    with pytest.raises(ZeroDivisionError):
        poly_divmod([Rat(1), Rat(2)], [Rat(0)])


def test_squarefree_and_gcd_match_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(6)
    for _ in range(60):
        f = _dense(rng, rng.randint(1, 3))
        g = _dense(rng, rng.randint(1, 3))
        if len(f) < 2 or len(g) < 2:
            continue
        p = _mul(_mul(f, f), g)
        sp = _to_sympy(p, t)
        assert _from_sympy(sympy.Poly(sympy.quo(sp, sympy.gcd(sp, sp.diff(t))), t).monic()) \
            == _from_sympy(_to_sympy(squarefree(p), t).monic())
        assert poly_gcd_univ(p, _mul(f, g)) == _from_sympy(
            sympy.gcd(sp, _to_sympy(_mul(f, g), t)).monic())


def test_isolated_root_counts_match_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(7)
    cases = []
    for _ in range(80):
        # planted rational roots, repeated factors and random cofactors
        p = _dense(rng, rng.randint(1, 4))
        for _ in range(rng.randint(0, 3)):
            p = _mul(p, [Rat(rng.randint(-5, 5), rng.randint(1, 3)), Rat(1)])
        if rng.random() < 0.3:
            p = _mul(p, p)
        if len(p) >= 2:
            cases.append(p)
    # planted roots up to 10^25 and 40-digit irreducible quadratics, whose
    # coefficients are too large to factor by trial division
    big = 10 ** 25
    cases += [
        _mul(_mul([Rat(7 - big, 3), Rat(1)], [Rat(big, 10 ** 12 + 39), Rat(1)]),
             [Rat(-2), Rat(0), Rat(1)]),
        _mul(_mul([Rat(-3), Rat(big)], [Rat(-big), Rat(1)]), [Rat(big + 1), Rat(-1)]),
        [Rat(-(2 * 10 ** 39 + 11)), Rat(0), Rat(10 ** 39 + 3)],
        [Rat(10 ** 39 + 1), Rat(-(3 * 10 ** 39 + 5)), Rat(10 ** 39 + 7)],
    ]
    checked = 0
    for p in cases:
        roots = isolate_real_roots(p)
        expected = sorted(set(sympy.real_roots(_to_sympy(p, t))), key=float)
        assert len(roots) == len(expected)
        for (lo, hi, ex), root in zip(roots, expected):
            if ex is not None:
                assert root.is_rational and ex == Rat(int(root.p), int(root.q))
            else:
                assert not root.is_rational
                assert lo < root < hi
                assert abs(refine_to_float(p, lo, hi) - float(root)) <= 1e-12 * max(1, abs(float(root)))
        checked += len(roots)
    assert checked > 60


def test_real_root_count_matches_sympy():
    # distinct real roots from the Sturm chain's leading coefficients, on
    # planted rational roots, repeated factors and either leading sign
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(11)
    for _ in range(120):
        p = _dense(rng, rng.randint(0, 4))
        for _ in range(rng.randint(0, 3)):
            p = _mul(p, [Rat(rng.randint(-5, 5), rng.randint(1, 3)), Rat(1)])
        if rng.random() < 0.3:
            p = _mul(p, p)
        if not trim(p):
            continue
        assert real_root_count(p) == len(set(sympy.real_roots(_to_sympy(p, t))))
    assert real_root_count([Rat(-3)]) == 0
    assert real_root_count([Rat(1), Rat(0), Rat(1)]) == 0
