"""Exact real-root location for univariate polynomials over the rationals.

This is the package's one dense-list layer: polynomials are coefficient
lists (index = power), and callers convert a univariate ``MPoly`` (or a
quasi-homogeneous form on a line) to one only to count, isolate or refine
its real roots or to take a gcd.  Rational roots are found exactly;
irrational ones are isolated by Sturm bisection and refined to floats.
"""

from __future__ import annotations

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


def rational_roots(p: Sequence) -> List:
    """All rational roots (with multiplicity ignored), exact."""
    p = trim(p)
    if not p:
        raise ValueError("zero polynomial")
    scale = rat_content(p)
    ints = [int(c / scale) for c in p]
    k = 0
    while ints[k] == 0:
        k += 1
    ints = ints[k:]
    a0, an = abs(ints[0]), abs(ints[-1])
    roots = set()
    if k > 0:
        roots.add(Rat(0))

    def divisors(n):
        out = []
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.append(d)
                out.append(n // d)
            d += 1
        return out

    for pdiv in divisors(a0):
        for qdiv in divisors(an):
            for cand in (Rat(pdiv, qdiv), Rat(-pdiv, qdiv)):
                if eval_poly(ints, cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def isolate_real_roots(p: Sequence) -> List[Tuple]:
    """Isolating intervals for the distinct real roots of p.

    Returns a sorted list of (lo, hi, exact) with exact a rational root when
    lo == hi, else an open interval containing exactly one root.
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
    rats = rational_roots(sf)
    final = []
    for lo, hi in sorted(out, key=lambda t: t[0]):
        hit = [r for r in rats if lo < r <= hi]
        final.append((lo, hi, hit[0] if hit else None))
    return final


def refine_to_float(p: Sequence, lo, hi, tol: float = 1e-14) -> float:
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
        if float(hi - lo) < tol * max(1.0, abs(float(lo))):
            break
    return float((lo + hi) / 2)


def real_root_count(p: Sequence) -> int:
    """Number of distinct real roots of a nonzero p: the Sturm chain's sign
    changes at -infinity minus those at +infinity, read off the leading
    coefficients."""
    chain = sturm_chain(p)
    at_minus = [c[-1] if len(c) % 2 else -c[-1] for c in chain]
    return _sign_changes(at_minus) - _sign_changes([c[-1] for c in chain])
