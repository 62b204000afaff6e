"""Exact real-root location for univariate polynomials over the rationals.

This is the package's one dense-list layer: polynomials are coefficient
lists (index = power), and callers convert a univariate ``MPoly`` (or a
quasi-homogeneous form on a line) to one only to count, isolate or refine
its real roots or to take a gcd.  Real roots are isolated by Sturm
bisection.  A rational root of the square-free part, made integer and
primitive with leading coefficient a_n, has a denominator dividing a_n, so
a_n*r is an integer: each isolating interval is bisected below width
1/|a_n| and its one candidate is tested exactly.  Irrational roots are
refined to floats by bisection on integer numerators over a common
denominator.  Both bisections read signs from one homogenised integer
Horner sum over that integer-primitive square-free part, which is computed
once per polynomial and shared.
"""

from __future__ import annotations

import functools
import math
from typing import List, Sequence, Tuple

from .mpoly import Rat, rat_content


def trim(p: Sequence) -> list:
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def degree(p: Sequence) -> int:
    return len(trim(p)) - 1


def eval_poly(p: Sequence, x):
    acc = Rat(0)
    for c in reversed(list(p)):
        acc = acc * x + c
    return acc


def derivative(p: Sequence) -> list:
    return [c * k for k, c in enumerate(p)][1:]


def poly_divmod(a: Sequence, b: Sequence) -> Tuple[list, list]:
    """Quotient and remainder of ``a`` by a nonzero ``b``, both trimmed."""
    r = trim(a)
    b = trim(b)
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    q = [Rat(0)] * max(len(r) - len(b) + 1, 0)
    while len(r) >= len(b):
        f = r[-1] / b[-1]
        shift = len(r) - len(b)
        q[shift] = f
        for i, c in enumerate(b):
            r[i + shift] -= f * c
        r = trim(r)
    return trim(q), r


def poly_gcd_univ(a: Sequence, b: Sequence) -> list:
    a, b = trim(a), trim(b)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def squarefree(p: Sequence) -> list:
    p = trim(p)
    if len(p) <= 1:
        return p
    g = poly_gcd_univ(p, derivative(p))
    if len(g) <= 1:
        return p
    return poly_divmod(p, g)[0]


def sturm_chain(p: Sequence) -> List[list]:
    chain = [trim(p), trim(derivative(p))]
    while chain[-1]:
        r = poly_divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append([-c for c in r])
    return [c for c in chain if c]


def _sign_changes(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(chain: List[list], lo, hi) -> int:
    """Number of distinct real roots in (lo, hi]."""
    va = _sign_changes([eval_poly(c, lo) for c in chain])
    vb = _sign_changes([eval_poly(c, hi) for c in chain])
    return va - vb


def root_bound(p: Sequence):
    """Cauchy bound: all real roots lie in [-M, M]."""
    p = trim(p)
    lead = abs(p[-1])
    m = max((abs(c) for c in p[:-1]), default=Rat(0))
    return Rat(1) + m / lead


@functools.lru_cache(maxsize=64)
def _primitive_squarefree(p: Tuple) -> Tuple[int, ...]:
    """The square-free part of the trimmed ``p``, made integer and
    primitive (index = power).  Callers isolate the roots of a polynomial
    and then refine each irrational one, so this is kept per polynomial."""
    sf = squarefree(p)
    content = rat_content(sf)
    return tuple(int(c / content) for c in sf)


def _homogenised(coeffs: Sequence[int], m: int, den: int) -> int:
    """``den^d`` times the polynomial with integer ``coeffs`` (index =
    power, degree d) at ``m / den``: ``sum_i c_i m^i den^(d-i)`` by Horner's
    rule.  For ``den > 0`` it has the sign of the value at ``m / den``."""
    acc, power = 0, 1
    for c in reversed(coeffs):
        acc = acc * m + c * power
        power *= den
    return acc


def _common_denominator(lo, hi) -> Tuple[int, int, int]:
    """Integers a, b, den > 0 with lo = a / den and hi = b / den."""
    lo, hi = Rat(lo), Rat(hi)
    den = math.lcm(lo.denominator, hi.denominator)
    return lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator), den


def isolate_real_roots(p: Sequence) -> List[Tuple]:
    """Isolating intervals for the distinct real roots of p.

    Returns a sorted list of (lo, hi, exact): an interval (lo, hi) holding
    exactly one root, and that root when it is rational, else None.
    """
    coeffs = _primitive_squarefree(tuple(trim(p)))
    if len(coeffs) <= 1:
        return []
    # a nonzero multiple of the square-free part: the same Sturm signs,
    # root bound and zero tests
    sf = [Rat(c) for c in coeffs]
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

    split(-M, M, sturm_count(chain, -M, M))
    return [(lo, hi, _rational_root_in(coeffs, lo, hi)) for lo, hi in sorted(out)]


def _rational_root_in(coeffs: Sequence[int], lo, hi):
    """The root in (lo, hi) of the integer-primitive square-free ``coeffs``
    if it is rational, else None.  A rational root has a denominator
    dividing a_n, so it is a multiple of 1/|a_n|: the interval is bisected
    below that width and its one candidate floor(hi*|a_n|)/|a_n| tested."""
    an = abs(coeffs[-1])
    a, b, den = _common_denominator(lo, hi)
    slo = _homogenised(coeffs, a, den) > 0
    while (b - a) * an >= den:
        mid = a + b
        a, b, den = 2 * a, 2 * b, 2 * den
        fm = _homogenised(coeffs, mid, den)
        if not fm:
            return Rat(mid, den)
        if (fm > 0) == slo:
            a = mid
        else:
            b = mid
    q = b * an // den
    return Rat(q, an) if a * an < q * den and not _homogenised(coeffs, q, an) else None


def refine_to_float(p: Sequence, lo, hi) -> float:
    """Bisection refinement of an isolating interval to a float root.

    The bisection runs on integer numerators over one common denominator
    ``den = D * 2^k``, D the lcm of the denominators of ``lo`` and ``hi``
    and k the number of halvings so far, with signs from
    :func:`_homogenised` over the integer-primitive square-free part.  The
    midpoints, the stop test and the returned float are thus those of the
    same bisection in exact fractions.
    """
    coeffs = _primitive_squarefree(tuple(trim(p)))
    a, b, den = _common_denominator(lo, hi)
    fa = _homogenised(coeffs, a, den)
    if fa == 0:
        return a / den
    if _homogenised(coeffs, b, den) == 0:
        return b / den
    for _ in range(200):
        mid = a + b
        a, b, den = 2 * a, 2 * b, 2 * den
        fm = _homogenised(coeffs, mid, den)
        if fm == 0:
            return mid / den
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
        if (b - a) / den < 1e-14 * max(1.0, abs(a / den)):
            break
    return (a + b) / (2 * den)


def real_root_count(p: Sequence) -> int:
    """Number of distinct real roots of a nonzero p: the Sturm chain's sign
    changes at -infinity minus those at +infinity, read off the leading
    coefficients."""
    chain = sturm_chain(p)
    at_minus = [c[-1] if len(c) % 2 else -c[-1] for c in chain]
    return _sign_changes(at_minus) - _sign_changes([c[-1] for c in chain])
