import math
import random

import pytest

from centerlab import realroots, structure
from centerlab.mpoly import MPoly, Rat, poly_gcd, rat_content
from centerlab.realroots import (
    isolate_real_roots,
    real_root_count,
    root_multiplicity,
    trim,
    univariate_gcd,
)
from centerlab.systems import parse_system

# -- a small reference in exact fractions (index = power) ---------------------


def _ref_degree(p):
    return len(trim(p)) - 1


def _ref_eval(p, x):
    acc = Rat(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _ref_derivative(p):
    return [c * k for k, c in enumerate(p)][1:]


def _ref_divmod(a, b):
    r, b = trim(a), trim(b)
    q = [Rat(0)] * max(len(r) - len(b) + 1, 0)
    while len(r) >= len(b):
        f = r[-1] / b[-1]
        shift = len(r) - len(b)
        q[shift] = f
        for i, c in enumerate(b):
            r[i + shift] -= f * c
        r = trim(r)
    return trim(q), r


def _ref_gcd(a, b):
    # monic
    a, b = trim(a), trim(b)
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return [c / a[-1] for c in a] if a else a


def _ref_squarefree(p):
    p = trim(p)
    g = _ref_gcd(p, _ref_derivative(p))
    return p if len(g) <= 1 else _ref_divmod(p, g)[0]


def _ref_sturm_chain(p):
    chain = [trim(p), trim(_ref_derivative(p))]
    while chain[-1]:
        r = _ref_divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append([-c for c in r])
    return [c for c in chain if c]


def _ref_sign_changes(values):
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _ref_sturm_count(chain, lo, hi):
    # distinct roots in (lo, hi]
    return (_ref_sign_changes([_ref_eval(c, lo) for c in chain])
            - _ref_sign_changes([_ref_eval(c, hi) for c in chain]))


def _ref_root_bound(p):
    # Cauchy: every real root lies in [-M, M]
    return 1 + max(abs(c) for c in p[:-1]) / abs(p[-1])


def _monic(p):
    return [Rat(c) / p[-1] for c in p]


def _positive_primitive(p):
    # a nonzero p over its positive rational content, as integers
    content = rat_content(p)
    return [int(c / content) for c in p]


# -----------------------------------------------------------------------------


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


def test_remainder_matches_sympy_rem():
    # the integer remainder is the rational one times a positive number, and
    # the integer quotient is exact; the fraction reference is sympy's division
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(5)
    checked = 0
    for _ in range(200):
        a = _dense(rng, rng.randint(0, 8))
        b = _dense(rng, rng.randint(0, 5))
        if not b:
            continue
        sq, sr = sympy.div(_to_sympy(a, t), _to_sympy(b, t))
        assert _ref_divmod(a, b) == (_from_sympy(sq), _from_sympy(sr))
        A, B = realroots._primitive(a), realroots._primitive(b)
        r = _from_sympy(sr)
        assert realroots._remainder(A, B) == (_positive_primitive(r) if r else [])
        AB = realroots._primitive(_mul(a, b)) if a else ()
        if AB:
            q = realroots.quotient(AB, B)
            assert _mul([Rat(c) for c in q], [Rat(c) for c in B]) == [Rat(c) for c in AB]
            checked += 1
    assert checked > 100


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
        want = _from_sympy(sympy.Poly(sympy.quo(sp, sympy.gcd(sp, sp.diff(t))), t).monic())
        assert want == _monic(realroots._squarefree(realroots._primitive(p)))
        assert want == _monic(_ref_squarefree(p))
        want = _from_sympy(sympy.gcd(sp, _to_sympy(_mul(f, g), t)).monic())
        got = univariate_gcd(p, _mul(f, g))
        assert got[-1] > 0 and math.gcd(*got) == 1 and _monic(got) == want
        assert _ref_gcd(p, _mul(f, g)) == want


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
        for (ex, value), root in zip(roots, expected):
            if ex is not None:
                assert root.is_rational and ex == Rat(int(root.p), int(root.q))
                assert value == float(ex)
            else:
                assert not root.is_rational
                assert abs(value - float(root)) <= 1e-12 * max(1, abs(float(root)))
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
    # the bisection in exact fractions that the integer refinement replaced:
    # the oracle for its midpoints, its stop test and the float it returns
    sf = _ref_squarefree(p)
    flo, fhi = _ref_eval(sf, lo), _ref_eval(sf, hi)
    if flo == 0:
        return float(lo)
    if fhi == 0:
        return float(hi)
    for _ in range(200):
        mid = (lo + hi) / 2
        fm = _ref_eval(sf, mid)
        if fm == 0:
            return float(mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
        if float(hi - lo) < 1e-14 * max(1.0, abs(float(lo))):
            break
    return float((lo + hi) / 2)


def test_refinement_matches_fraction_bisection_property():
    # any interval, isolating or not, with roots at its ends, inside it or
    # none, and over a denominator that is not the least one: the same float
    # as the bisection in fractions, not a close one
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rat = st.builds(Rat, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4))
    coeffs = st.lists(st.builds(Rat, st.integers(-40, 40), st.integers(1, 12)),
                      min_size=2, max_size=7).filter(lambda c: _ref_degree(c) >= 1)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(coeffs, rat, rat)
    def check(p, a, b):
        hypothesis.assume(a != b)
        lo, hi = min(a, b), max(a, b)
        den = 3 * lo.denominator * hi.denominator
        sf = realroots._squarefree(realroots._primitive(p))
        got = realroots._refine(sf, lo.numerator * (den // lo.denominator),
                                hi.numerator * (den // hi.denominator), den)
        assert got == _fraction_refine_to_float(p, lo, hi)
        assert isolate_real_roots(p) == _fraction_real_roots(p)

    check()


def test_refinement_matches_fraction_bisection_on_directions(monkeypatch):
    # the four irrational characteristic directions of this cubic are the
    # refinements whose Fraction Horner evaluations once dominated the cost
    # of characteristic_directions
    calls = []

    def spy(p):
        roots = isolate_real_roots(p)
        calls.append((p, roots))
        return roots

    monkeypatch.setattr(structure, "isolate_real_roots", spy)
    s = parse_system("xdot = 2*x^3 - 3*x*y^2 + y^3; ydot = x^3 - 7*x^2*y + y^3")
    dirs = structure.characteristic_directions(s)
    assert len(calls) == 1 and not any(d.exact for d in dirs.directions)
    p, roots = calls[0]
    assert len(roots) == 4 and all(ex is None for ex, _ in roots)
    assert roots == _fraction_real_roots(p)


def _fraction_isolate_real_roots(p):
    # isolation with the rational-root test bisecting in exact fractions
    # (Fraction Horner), over the square-free part p / gcd(p, p'): the oracle
    # for the intervals and roots that the integer signs give
    sf = _ref_squarefree(p)
    if _ref_degree(sf) <= 0:
        return []
    chain = _ref_sturm_chain(sf)
    M = _ref_root_bound(sf)
    out = []

    def split(lo, hi, n):
        if n == 0:
            return
        if n == 1:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        step = (hi - lo) / 4
        while _ref_eval(sf, mid) == 0:
            mid = mid + step
            step = step / 3
        nl = _ref_sturm_count(chain, lo, mid)
        split(lo, mid, nl)
        split(mid, hi, n - nl)

    def rational_root_in(an, lo, hi):
        slo = _ref_eval(sf, lo) > 0
        while (hi - lo) * an >= 1:
            mid = (lo + hi) / 2
            fm = _ref_eval(sf, mid)
            if not fm:
                return mid
            if (fm > 0) == slo:
                lo = mid
            else:
                hi = mid
        cand = Rat(math.floor(hi * an), an)
        return cand if lo < cand and not _ref_eval(sf, cand) else None

    split(-M, M, _ref_sturm_count(chain, -M, M))
    an = abs(sf[-1] / rat_content(sf))
    return [(lo, hi, rational_root_in(an, lo, hi)) for lo, hi in sorted(out)]


def _fraction_real_roots(p):
    # each root once, as (exact, float): the rational root, or the bisection
    # in fractions of its isolating interval
    return [(ex, float(ex) if ex is not None else _fraction_refine_to_float(p, lo, hi))
            for lo, hi, ex in _fraction_isolate_real_roots(p)]


def test_isolation_matches_fraction_reference():
    # the same rational roots (== and repr, so the same Fractions) and the
    # same floats, on planted roots with large denominators, repeated
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
        if _ref_degree(p) >= 1:
            cases.append(p)
    found = 0
    for p in cases:
        got = isolate_real_roots(p)
        assert got == _fraction_real_roots(p)
        assert repr(got) == repr(_fraction_real_roots(p))
        found += sum(ex is not None for ex, _ in got)
    assert found > 100


def test_squarefree_part_computed_once_per_polynomial(monkeypatch):
    # characteristic_directions isolates the roots of one polynomial and
    # refines its four irrational roots: one square-free part (one gcd of
    # the polynomial and its derivative) for all of them
    calls = []

    def spy(a, b):
        calls.append((a, b))
        return univariate_gcd(a, b)

    monkeypatch.setattr(realroots, "univariate_gcd", spy)
    s = parse_system("xdot = 2*x^3 - 3*x*y^2 + y^3; ydot = x^3 - 7*x^2*y + y^3")
    dirs = structure.characteristic_directions(s)
    assert len(dirs.directions) == 4
    assert len(calls) == 1


def _odd_gap_polys():
    # lc * t^n + sum c_i t^(n - g_1 - ... - g_i) with a negative lc, |lc| > 1
    # and odd gaps g_i, times planted factors (den*t - num)^m: the remainders
    # drop their degree by more than one, so one step of the integer
    # remainder loop can meet a negative leading coefficient an odd number
    # of times, where scaling by lc instead of |lc| would flip a Sturm sign
    st = pytest.importorskip("hypothesis").strategies
    nonzero = st.builds(Rat, st.integers(-9, 9).filter(bool), st.integers(1, 5))
    plant = st.tuples(st.integers(-6, 6), st.integers(1, 4), st.integers(1, 2))

    def build(lc, gaps, low, coeffs, plants):
        top = sum(gaps) + low
        p = [Rat(0)] * (top + 1)
        p[top] = Rat(lc)
        exps = [top - sum(gaps[:k + 1]) for k in range(len(gaps))]
        for e, c in zip(exps, coeffs):
            p[e] = c
        for num, den, m in plants:
            for _ in range(m):
                p = _mul(p, [Rat(-num), Rat(den)])
        return p, [Rat(num, den) for num, den, _ in plants]

    return st.builds(build, st.integers(-9, -2), st.lists(st.sampled_from((1, 3)), max_size=3),
                     st.integers(0, 1), st.lists(nonzero, min_size=3, max_size=3),
                     st.lists(plant, max_size=2))


def test_integer_layer_matches_fraction_reference_and_sympy_property():
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    t, e = sympy.Symbol("t"), sympy.Symbol("eps")
    polys = _odd_gap_polys()

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(polys, polys, hypothesis.strategies.integers(0, 3))
    def check(first, second, shift):
        (p, planted), (q, _) = first, second
        hypothesis.assume(_ref_degree(p) >= 1)
        got = isolate_real_roots(p)
        assert repr(got) == repr(_fraction_real_roots(p))
        chain = _ref_sturm_chain(p)
        M = _ref_root_bound(p)
        sp = _to_sympy(p, t)
        assert real_root_count(p) == len(got) == _ref_sturm_count(chain, -M, M) \
            == len(set(sympy.real_roots(sp)))
        rational = {Rat(int(r.p), int(r.q)): m for r, m in sympy.roots(sp, filter="Q").items()}
        assert rational == {ex: root_multiplicity(p, ex) for ex, _ in got if ex is not None}
        for r in planted + [Rat(1, 7)]:
            assert root_multiplicity(p, r) == rational.get(r, 0)
        # eps-only gcds: q shares p's planted factors, and on a larger table
        # both carry eps powers
        for r in planted:
            q = _mul(q, [-r, Rat(1)])
        want = sympy.gcd(sp, _to_sympy(q, t))
        assert _monic(univariate_gcd(p, q)) == _from_sympy(sympy.Poly(want, t).monic())
        table = ("x", "eps", "a")
        F = MPoly(table, {(0, k + shift, 0): c for k, c in enumerate(p) if c})
        G = MPoly(table, {(0, k + 3 - shift, 0): c for k, c in enumerate(q) if c})
        want = sympy.Poly(sympy.gcd(_to_sympy(p, e) * e ** shift,
                                    _to_sympy(q, e) * e ** (3 - shift)), e)
        assert poly_gcd(F, G) == MPoly(table, {(0, k, 0): c for k, c in
                                               enumerate(_from_sympy(want)) if c}).primitive()

    check()
