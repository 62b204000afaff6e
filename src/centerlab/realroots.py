"""Exact real roots and gcds of univariate polynomials over the integers.

This is the package's one univariate layer.  A polynomial is a coefficient
sequence (index = power) of ``int``, ``Fraction`` or ``float``, each read as
the exact rational it is; each entry point scales it once to an integer
tuple with a positive content, made primitive, and all later work is on
integers.  One remainder loop returns a positive
multiple of ``a mod b``, made primitive: it serves the gcd, the square-free
part and the Sturm chain.  A primitive remainder sequence over the integers
gives the gcds and square-free parts of the rational one (Brown, JACM 18,
1971), and scaling each step by ``|lc(b)|``, never by ``lc(b)``, keeps the
rational chain's Sturm signs.

Every sign is read from one homogenised integer Horner sum: the Sturm
counts, the zero tests of the isolation midpoints, the rational-root test,
the refinement and the root multiplicity.  Real roots are isolated by Sturm
bisection over the square-free part, on integer numerators over one
denominator.  A rational root of that integer-primitive part, with leading
coefficient a_n, has a denominator dividing a_n, so a_n*r is an integer:
each isolating interval is bisected below width 1/|a_n| and its one
candidate is tested exactly.  An irrational root is refined to a float by
bisecting the same integer interval further.  The same sum evaluates a
family's integer coefficients at a rational point for
:class:`centerlab.qhomog.QHTable`.

This module imports nothing from the package, so ``mpoly`` can use it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple


def trim(p: Sequence) -> list:
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _primitive(p: Sequence) -> Tuple[int, ...]:
    """The trimmed coefficients of ``p`` over their common denominator,
    divided by the (positive) gcd of the numerators."""
    ratios = [c.as_integer_ratio() for c in trim(p)]
    den = math.lcm(*(d for _, d in ratios))
    ints = [n * (den // d) for n, d in ratios]
    g = math.gcd(*ints)
    return tuple(c // g for c in ints) if g > 1 else tuple(ints)


def _remainder(a: Sequence[int], b: Sequence[int]) -> list:
    """A positive multiple of ``a mod b`` (nonzero ``b``), made primitive.
    Each step scales by ``|lc(b)|``, so the remainder keeps the signs of
    the rational one."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(r) > db:
        g = math.gcd(r[-1], lb)
        ma = abs(lb) // g
        mb = r[-1] // g if lb > 0 else -(r[-1] // g)
        if ma != 1:
            r = [ma * c for c in r]
        shift = len(r) - 1 - db
        for i, c in enumerate(b):
            r[i + shift] -= mb * c
        r = trim(r)
    g = math.gcd(*r)
    return [c // g for c in r] if g > 1 else r


def _quotient(a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
    """``a / b`` for integer ``a`` that the primitive ``b`` divides; by
    Gauss's lemma the quotient has integer coefficients."""
    r = list(a)
    db = len(b) - 1
    q = [0] * (len(r) - db)
    for k in reversed(range(len(q))):
        c = q[k] = r[k + db] // b[-1]
        for i, bc in enumerate(b):
            r[k + i] -= c * bc
    return tuple(q)


def univariate_gcd(a: Sequence, b: Sequence) -> Tuple[int, ...]:
    """The primitive gcd of ``a`` and ``b`` with a positive leading
    coefficient (``()`` when both are zero)."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _remainder(a, b)
    return tuple(a) if not a or a[-1] > 0 else tuple(-c for c in a)


def _squarefree(p: Tuple[int, ...]) -> Tuple[int, ...]:
    """The square-free part of the integer-primitive ``p``, primitive and
    with ``p``'s leading sign."""
    if len(p) <= 2:
        return p
    g = univariate_gcd(p, [k * c for k, c in enumerate(p)][1:])
    return p if len(g) <= 1 else _quotient(p, g)


def _sturm_chain(p: Sequence[int]) -> List[list]:
    """``p``, ``p'`` and the negated remainders, each a positive multiple of
    the rational chain's member."""
    chain = [list(p), [k * c for k, c in enumerate(p)][1:]]
    while chain[-1]:
        r = _remainder(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return [c for c in chain if c]


def homogenised(coeffs: Sequence[int], m: int, den: int) -> int:
    """``den^d`` times the polynomial with integer ``coeffs`` (index =
    power, d = len(coeffs) - 1) at ``m / den``: ``sum_i c_i m^i den^(d-i)``
    by Horner's rule.  For ``den > 0`` it has the sign of the value at
    ``m / den``.  Trailing zeros count in d, so lists padded to one length
    are evaluated over one common power of ``den``."""
    acc, power = 0, 1
    for c in reversed(coeffs):
        acc = acc * m + c * power
        power *= den
    return acc


def _sign_changes(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _changes_at(chain: List[list], m: int, den: int) -> int:
    return _sign_changes([homogenised(c, m, den) for c in chain])


def isolate_real_roots(p: Sequence) -> List[Tuple[Optional[Fraction], float]]:
    """The distinct real roots of p, each once and in ascending order, as
    (exact, value): the root as a ``Fraction`` when it is rational, else
    None, and the root as a float.  An irrational root's float is refined
    from its Sturm isolating interval."""
    sf = _squarefree(_primitive(p))
    if len(sf) <= 1:
        return []
    chain = _sturm_chain(sf)
    roots = []

    def split(a, b, den, n):
        # the interval (a/den, b/den) holds n roots; the left half is
        # searched first, so the roots come out sorted
        if n == 0:
            return
        if n == 1:
            exact = _rational_root_in(sf, a, b, den)
            roots.append((exact, _refine(sf, a, b, den) if exact is None else float(exact)))
            return
        a, b, den, mid = 2 * a, 2 * b, 2 * den, a + b
        if not homogenised(sf, mid, den):
            # a root on the midpoint: step right by a quarter of the width,
            # then by a third of the step before, until off every root
            a, b, mid, den, step = 4 * a, 4 * b, 4 * mid + b - a, 4 * den, b - a
            while not homogenised(sf, mid, den):
                a, b, mid, den = 3 * a, 3 * b, 3 * mid + step, 3 * den
        nl = _changes_at(chain, a, den) - _changes_at(chain, mid, den)
        split(a, mid, den, nl)
        split(mid, b, den, n - nl)

    # Cauchy's bound: every real root lies in [-M, M], M = 1 + max|c_i| / |a_n|
    an = abs(sf[-1])
    bound = an + max(abs(c) for c in sf[:-1])
    split(-bound, bound, an, _changes_at(chain, -bound, an) - _changes_at(chain, bound, an))
    return roots


def _rational_root_in(coeffs: Sequence[int], a: int, b: int, den: int):
    """The root in (a/den, b/den) of the integer-primitive square-free
    ``coeffs`` if it is rational, else None.  A rational root has a
    denominator dividing a_n, so it is a multiple of 1/|a_n|: the interval
    is bisected below that width and its one candidate floor(hi*|a_n|)/|a_n|
    tested."""
    an = abs(coeffs[-1])
    slo = homogenised(coeffs, a, den) > 0
    while (b - a) * an >= den:
        mid = a + b
        a, b, den = 2 * a, 2 * b, 2 * den
        fm = homogenised(coeffs, mid, den)
        if not fm:
            return Fraction(mid, den)
        if (fm > 0) == slo:
            a = mid
        else:
            b = mid
    q = b * an // den
    return Fraction(q, an) if a * an < q * den and not homogenised(coeffs, q, an) else None


def _refine(coeffs: Sequence[int], a: int, b: int, den: int) -> float:
    """The root in (a/den, b/den) of the integer-primitive square-free
    ``coeffs``, to a float, by bisection on integer numerators until the
    width is below 1e-14 relative (at most 200 halvings).  Each quotient of
    integers rounds correctly, so the midpoints, the stop test and the
    returned float are those of the same bisection in exact fractions."""
    fa = homogenised(coeffs, a, den)
    if fa == 0:
        return a / den
    if homogenised(coeffs, b, den) == 0:
        return b / den
    for _ in range(200):
        mid = a + b
        a, b, den = 2 * a, 2 * b, 2 * den
        fm = homogenised(coeffs, mid, den)
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
    chain = _sturm_chain(_primitive(p))
    at_minus = [c[-1] if len(c) % 2 else -c[-1] for c in chain]
    return _sign_changes(at_minus) - _sign_changes([c[-1] for c in chain])


def root_multiplicity(p: Sequence, r: Fraction) -> int:
    """Multiplicity of the rational ``r = num/den`` (lowest terms) as a root
    of ``p``: how many times ``den*t - num`` divides it."""
    coeffs = _primitive(p)
    num, den = r.numerator, r.denominator
    m = 0
    while len(coeffs) > 1 and not homogenised(coeffs, num, den):
        coeffs = _quotient(coeffs, (-num, den))
        m += 1
    return m
