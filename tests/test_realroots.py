import math
import random

import pytest

from centerlab import realroots, structure
from centerlab.mpoly import Rat, rat_content
from centerlab.realroots import (
    degree,
    eval_poly,
    isolate_real_roots,
    poly_divmod,
    poly_gcd_univ,
    real_root_count,
    refine_to_float,
    root_bound,
    squarefree,
    sturm_chain,
    sturm_count,
    trim,
)
from centerlab.systems import parse_system


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
        # sympy lists real roots in ascending order; sorting them by float
        # would tie 10^25 and 10^25 + 1 and follow the set's hash order
        expected = list(dict.fromkeys(sympy.real_roots(_to_sympy(p, t))))
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


def _fraction_refine_to_float(p, lo, hi):
    # the bisection in exact fractions that refine_to_float replaced: the
    # oracle for its midpoints, its stop test and the float it returns
    sf = squarefree(p)
    flo, fhi = eval_poly(sf, lo), eval_poly(sf, hi)
    if flo == 0:
        return float(lo)
    if fhi == 0:
        return float(hi)
    for _ in range(200):
        mid = (lo + hi) / 2
        fm = eval_poly(sf, mid)
        if fm == 0:
            return float(mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
        if float(hi - lo) < 1e-14 * max(1.0, abs(float(lo))):
            break
    return float((lo + hi) / 2)


def test_refine_to_float_matches_fraction_bisection_property():
    # any interval, isolating or not, with roots at its ends, inside it or
    # none: the same float as the bisection in fractions, not a close one
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rat = st.builds(Rat, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4))
    coeffs = st.lists(st.builds(Rat, st.integers(-40, 40), st.integers(1, 12)),
                      min_size=2, max_size=7).filter(lambda c: degree(c) >= 1)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(coeffs, rat, rat)
    def check(p, a, b):
        hypothesis.assume(a != b)
        lo, hi = min(a, b), max(a, b)
        assert refine_to_float(p, lo, hi) == _fraction_refine_to_float(p, lo, hi)
        for lo, hi, ex in isolate_real_roots(p):
            if ex is None:
                assert refine_to_float(p, lo, hi) == _fraction_refine_to_float(p, lo, hi)

    check()


def test_refine_to_float_matches_fraction_bisection_on_directions(monkeypatch):
    # the four irrational characteristic directions of this cubic are the
    # refinements whose Fraction Horner evaluations once dominated the cost
    # of characteristic_directions
    calls = []

    def spy(p, lo, hi):
        calls.append((p, lo, hi))
        return refine_to_float(p, lo, hi)

    monkeypatch.setattr(structure, "refine_to_float", spy)
    s = parse_system("xdot = 2*x^3 - 3*x*y^2 + y^3; ydot = x^3 - 7*x^2*y + y^3")
    dirs = structure.characteristic_directions(s)
    assert len(calls) == 4 and not any(d.exact for d in dirs.directions)
    for p, lo, hi in calls:
        assert refine_to_float(p, lo, hi) == _fraction_refine_to_float(p, lo, hi)


def _fraction_isolate_real_roots(p):
    # isolation with the rational-root test bisecting in exact fractions
    # (Fraction Horner), over the square-free part as squarefree returns it:
    # the oracle for the intervals and roots that the integer signs give
    sf = squarefree(p)
    if degree(sf) <= 0:
        return []
    chain = sturm_chain(sf)
    M = root_bound(sf)
    out = []

    def split(lo, hi, n):
        if n == 0:
            return
        if n == 1:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        step = (hi - lo) / 4
        while eval_poly(sf, mid) == 0:
            mid = mid + step
            step = step / 3
        nl = sturm_count(chain, lo, mid)
        split(lo, mid, nl)
        split(mid, hi, n - nl)

    def rational_root_in(an, lo, hi):
        slo = eval_poly(sf, lo) > 0
        while (hi - lo) * an >= 1:
            mid = (lo + hi) / 2
            fm = eval_poly(sf, mid)
            if not fm:
                return mid
            if (fm > 0) == slo:
                lo = mid
            else:
                hi = mid
        cand = Rat(math.floor(hi * an), an)
        return cand if lo < cand and not eval_poly(sf, cand) else None

    split(-M, M, sturm_count(chain, -M, M))
    an = abs(sf[-1] / rat_content(sf))
    return [(lo, hi, rational_root_in(an, lo, hi)) for lo, hi in sorted(out)]


def test_isolation_matches_fraction_reference():
    # the same intervals (== and repr, so the same Fractions) and the same
    # rational roots, on planted roots with large denominators, repeated
    # factors, either leading sign and roots on bisection midpoints
    rng = random.Random(23)
    cases = [[Rat(-1), Rat(0), Rat(1)], [Rat(0), Rat(3)], [Rat(-2), Rat(0), Rat(4)],
             _mul([Rat(-1, 3), Rat(1)], [Rat(-2), Rat(0), Rat(1)])]
    for _ in range(150):
        p = _dense(rng, rng.randint(1, 4), -20, 20)
        for _ in range(rng.randint(0, 3)):
            p = _mul(p, [Rat(rng.randint(-500, 500), rng.randint(1, 97)), Rat(rng.choice((1, -3)))])
        if rng.random() < 0.3:
            p = _mul(p, p)
        if degree(p) >= 1:
            cases.append(p)
    found = 0
    for p in cases:
        got = isolate_real_roots(p)
        assert got == _fraction_isolate_real_roots(p)
        assert repr(got) == repr(_fraction_isolate_real_roots(p))
        found += sum(ex is not None for _, _, ex in got)
    assert found > 100


def test_squarefree_part_computed_once_per_polynomial(monkeypatch):
    # characteristic_directions isolates the roots of one polynomial and
    # refines its four irrational roots: one square-free part for all five
    calls = []

    def spy(p):
        calls.append(p)
        return squarefree(p)

    monkeypatch.setattr(realroots, "squarefree", spy)
    realroots._primitive_squarefree.cache_clear()
    s = parse_system("xdot = 2*x^3 - 3*x*y^2 + y^3; ydot = x^3 - 7*x^2*y + y^3")
    dirs = structure.characteristic_directions(s)
    assert len(dirs.directions) == 4
    assert len(calls) == 1
