"""Exact real-root location for univariate polynomials over the rationals.

This is the package's one dense-list layer: polynomials are coefficient
lists (index = power), and callers convert a univariate ``MPoly`` (or a
quasi-homogeneous form on a line) to one only to count, isolate or refine
its real roots or to take a gcd.  Real roots are isolated by Sturm
bisection.  A rational root of the square-free part, made integer and
primitive with leading coefficient a_n, has a denominator dividing a_n, so
a_n*r is an integer: each isolating interval is bisected below width
1/|a_n| and its one candidate is tested exactly.  Irrational roots are
refined to floats by bisection.
"""

from __future__ import annotations

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


def isolate_real_roots(p: Sequence) -> List[Tuple]:
    """Isolating intervals for the distinct real roots of p.

    Returns a sorted list of (lo, hi, exact): an interval (lo, hi) holding
    exactly one root, and that root when it is rational, else None.
    """
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

    split(-M, M, sturm_count(chain, -M, M))
    # a rational root u/v of the integer-primitive sf has v | a_n, so it is a
    # multiple of 1/a_n: an interval narrower than that holds one candidate
    an = abs(sf[-1] / rat_content(sf))
    return [(lo, hi, _rational_root_in(sf, an, lo, hi)) for lo, hi in sorted(out)]


def _rational_root_in(sf: list, an, lo, hi):
    """The root of the square-free ``sf`` in (lo, hi) if it is rational,
    else None; ``an`` is |a_n| of ``sf`` made integer and primitive."""
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


def refine_to_float(p: Sequence, lo, hi) -> float:
    """Bisection refinement of an isolating interval to a float root."""
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


def real_root_count(p: Sequence) -> int:
    """Number of distinct real roots of a nonzero p: the Sturm chain's sign
    changes at -infinity minus those at +infinity, read off the leading
    coefficients."""
    chain = sturm_chain(p)
    at_minus = [c[-1] if len(c) % 2 else -c[-1] for c in chain]
    return _sign_changes(at_minus) - _sign_changes([c[-1] for c in chain])
