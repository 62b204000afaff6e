"""Homogeneous and quasi-homogeneous center machinery.

A system is (p,q)-quasi-homogeneous of weight degree m when P and Q are
(p,q)-quasi-homogeneous of weight degrees p-1+m and q-1+m.  For coprime P, Q
the centers are characterized by (i) the weighted form W = p*x*Q - q*y*P
having no real factors and (ii) the vanishing of the period integral.

Detection solves for the weights: each monomial fixes a linear relation
between p, q and m, so two monomials fix the ray p:q and the rest must
agree with it (see :func:`detect_quasi_homogeneity`).

Condition (i) is decided exactly: weighted homogeneity reduces it to the
real roots of the two univariate polynomials W(1, t) and W(-1, t), counted
by Sturm chains.  Condition (ii) integrates no ODE.  In the weighted polar
coordinates x = r^p*cos psi, y = r^q*sin psi of the return map (see
:mod:`centerlab.numeric`), quasi-homogeneity factors r^(p+q-1+m) out of

    dr/dpsi = r * (r^q*cos psi*P + r^p*sin psi*Q) / W,

so one turn of psi multiplies r by exp(I), with

    I = integral over psi in [0, 2pi) of (c*P + s*Q)/W at (c, s) = (cos psi, sin psi).

I is the classical integral of F/G over one period of Liapunov's
generalized trigonometric functions: both are the logarithm of the return
ratio on the section psi = 0, where their two radii differ by a constant
factor.  The integrand is periodic and analytic, so the periodic trapezoid
rule on N equally spaced nodes converges geometrically (Trefethen &
Weideman, SIAM Review 56, 2014); N doubles until two successive sums agree.
Node N - k is the reflection (c, -s) of node k, and each reflected pair is
added before it enters the sum, so a center that is reversible under
(x, y, t) -> (x, -y, -t) sums to exactly 0.0.  The sums run in
:func:`numeric.trapezoid_kernel`, generated once per monomial structure and
weights; a point passes its float coefficients, so the points of a sweep
that keep their monomials compile nothing.

Both conditions read a point of a :class:`QHTable`: each coefficient of P
and Q as an integer polynomial in at most one parameter over one
denominator.  A ``qhcenter --sweep`` builds the table of its family once,
with the swept parameter free (:func:`sweep_table`), and reads each point
from it by one homogenised Horner sum per term (:func:`realroots.homogenised`)
over one power of the point's denominator: no ``substitute``, no ``MPoly``
product, no ``Fraction``, and the signature of the family's monomials is
found once.  The lists of condition (i) are sums of those integers, and the
floats of condition (ii) are their exact quotients by the denominator, which
round correctly and so equal :func:`numeric.float_terms`.  A point where a
coefficient vanishes has other monomials; it, a family with an assumption
or a second parameter left, and a system given whole build the table of
the substituted system, which has no free parameter, and run the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import List, Optional, Tuple, Union

from .mpoly import Rat
from .numeric import coefficient_float, trapezoid_kernel
from .realroots import homogenised, univariate_gcd
from .structure import weighted_sign_on_lines
from .systems import PlaneSystem, require_numeric


@dataclass(frozen=True)
class QHSignature:
    p: int
    q: int
    m: int

    def __str__(self) -> str:
        return f"({self.p},{self.q})-quasi-homogeneous of weight degree {self.m}"


def _xy_exponents(s: PlaneSystem) -> set:
    """(i, j, 0) for each monomial x^i y^j of P and (i, j, 1) for each of Q."""
    return {(i, j, c) for c, poly in enumerate((s.P, s.Q))
            for i, j in poly.exponents_in(("x", "y"))}


def _signature(exponents: set, p: int, q: int) -> Optional[QHSignature]:
    """The signature for the weights (p, q), or None when P and Q are not
    (p,q)-quasi-homogeneous of one weight degree m >= 0: P has weight
    degree p-1+m and Q has q-1+m, so every monomial gives m."""
    ms = {p * i + q * j - (q if c else p) + 1 for i, j, c in exponents}
    if len(ms) != 1:
        return None
    m = ms.pop()
    return QHSignature(p, q, m) if m >= 0 else None


def detect_quasi_homogeneity(s: Union[PlaneSystem, QHPoint]) -> Optional[QHSignature]:
    """The coprime weights (p, q) that make the system quasi-homogeneous,
    with their weight degree, or None when there are none.  A point of a
    :class:`QHTable` takes the signature of its table, found once.

    A monomial x^i y^j of P (c = 0) or of Q (c = 1) has weight degree
    m = p*u + q*v + 1 with the row (u, v) = (i - 1 + c, j - c).  So two
    distinct rows fix the ray p:q = (v' - v):(u - u'), which must be
    positive; when every monomial has the same row, every ray fits and
    (1, 1) is the one with the smallest weights."""
    if isinstance(s, QHPoint):
        return s.table.signature
    return _detect(_xy_exponents(s))


def _detect(exponents: set) -> Optional[QHSignature]:
    if not exponents:
        raise ValueError("zero vector field")
    (u, v), *others = {(i - 1 + c, j - c) for i, j, c in exponents}
    p = q = 1
    if others:
        u2, v2 = others[0]
        p, q = (v2 - v, u - u2) if v2 > v else (v - v2, u2 - u)
        if p <= 0 or q <= 0:
            return None
        g = gcd(p, q)
        p, q = p // g, q // g
    return _signature(exponents, p, q)


# -- integer tables ---------------------------------------------------------------


class QHTable:
    """P and Q of a system whose parameters are all specialised but at most
    one, ``t``: for each term x^i*y^j of P and of Q, in the order of
    :func:`numeric.float_terms`, its coefficient as an integer polynomial in
    t (index = power, every list padded to one length) over one positive
    denominator.  A sweep over t builds one table and reads each point from
    it by one homogenised Horner sum per term (:meth:`at`), with no
    ``substitute``; a parameter-free system has a table without t."""

    def __init__(self, s: PlaneSystem, t: Optional[str] = None):
        names = ("x", "y") if t is None else ("x", "y", t)
        comps = []
        for poly in (s.P, s.Q):
            # integer_terms_in orders the terms by their exponents of names,
            # t included: grouped by (i, j) and sorted again, they take the
            # order of float_terms
            rows: dict = {}
            for (i, j, *k), num, den in poly.integer_terms_in(names):
                rows.setdefault((i, j), []).append((k[0] if k else 0, num, den))
            comps.append(sorted(rows.items(), key=lambda r: (sum(r[0]), r[0]), reverse=True))
        terms = [term for comp in comps for _, row in comp for term in row]
        self.den = math.lcm(*(den for _, _, den in terms))
        self.degree = max((k for k, _, _ in terms), default=0)
        self.exponents = tuple(tuple(e for e, _ in comp) for comp in comps)
        self.coefficients = tuple(tuple(self._padded(row) for _, row in comp) for comp in comps)

    def _padded(self, row) -> List[int]:
        coeffs = [0] * (self.degree + 1)
        for k, num, den in row:
            coeffs[k] = num * (self.den // den)
        return coeffs

    @cached_property
    def signature(self) -> Optional[QHSignature]:
        """:func:`detect_quasi_homogeneity` of every point of the table."""
        return _detect(self.exponent_set)

    @cached_property
    def exponent_set(self) -> set:
        """(i, j, 0) for each term x^i y^j of P and (i, j, 1) for each of Q."""
        return {(i, j, c) for c, comp in enumerate(self.exponents) for i, j in comp}

    def at(self, value: Optional[Rat] = None) -> Optional["QHPoint"]:
        """The point at t = ``value`` (no value for a table without t), or
        None when a coefficient vanishes there: that point has other
        monomials, so its system is built by ``substitute``."""
        m, d = (0, 1) if value is None else (value.numerator, value.denominator)
        numerators = tuple(tuple(homogenised(c, m, d) for c in comp)
                           for comp in self.coefficients)
        if not all(map(all, numerators)):
            return None
        return QHPoint(self, numerators, self.den * d ** self.degree)


def sweep_table(s: PlaneSystem, t: str) -> Optional[QHTable]:
    """The table of ``s`` with ``t`` free, or None when each point of a
    sweep over ``t`` needs ``substitute``: ``t`` is not a parameter of
    ``s``, an assumption is to be checked, or P or Q has another
    parameter."""
    used = set(s.P.variables_present()) | set(s.Q.variables_present())
    if t not in s.params or s.assumptions or not used <= {"x", "y", t}:
        return None
    return QHTable(s, t)


@dataclass(frozen=True)
class QHPoint:
    """A parameter-free P and Q as integers: the term x^i*y^j of component
    c has the coefficient ``numerators[c][k] / den``, where (i, j) is
    ``table.exponents[c][k]``; every numerator is nonzero."""

    table: QHTable
    numerators: Tuple[Tuple[int, ...], Tuple[int, ...]]
    den: int

    def floats(self) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        """The coefficients as :func:`numeric.float_terms` gives them."""
        return tuple(tuple(coefficient_float(n, self.den, name, i, j)
                           for (i, j), n in zip(exps, nums))
                     for name, exps, nums in zip(("xdot", "ydot"), self.table.exponents,
                                                 self.numerators))


def _point(s: Union[PlaneSystem, QHPoint]) -> QHPoint:
    if isinstance(s, QHPoint):
        return s
    require_numeric(s)
    return QHTable(s).at()


def _on_lines(exponents, numerators) -> Tuple[list, list, int]:
    """F(1, t) and F(-1, t) (index = power of t) and F(0, 1) for the
    polynomial F with these terms."""
    top = max((j for _, j in exponents), default=-1)
    plus, minus, at_0_1 = [0] * (top + 1), [0] * (top + 1), 0
    for (i, j), n in zip(exponents, numerators):
        plus[j] += n
        minus[j] += -n if i % 2 else n
        if not i:
            at_0_1 += n
    return plus, minus, at_0_1


def _w_on_line(P: list, Q: list, x0: int, p: int, q: int) -> list:
    """W(x0, t) = p*x0*Q(x0, t) - q*t*P(x0, t) from the lists of P and Q."""
    w = [0] * max(len(Q), len(P) + 1)
    for k, c in enumerate(Q):
        w[k] += p * x0 * c
    for k, c in enumerate(P):
        w[k + 1] -= q * c
    return w


# -- center conditions ----------------------------------------------------------


@dataclass
class ConditionIVerdict:
    holds: bool
    sign: Optional[int] = None       # sign of W off the origin when it holds
    detail: str = ""


def condition_i_no_real_factors(s: Union[PlaneSystem, QHPoint],
                                sig: QHSignature) -> ConditionIVerdict:
    """Decide exactly whether the weighted form W = p*x*Q - q*y*P vanishes
    anywhere off the origin (equivalently whether it has a real factor).

    Weighted homogeneity decides it on the lines x = 1 and x = -1 and at
    the point (0, 1) (:func:`structure.weighted_sign_on_lines`, which the
    monodromy weights of the return map share).  The same scaling makes the
    coprimality of P and Q univariate: a common factor is x or divides
    gcd(P(1, t), Q(1, t)).  Every list is read from the integer terms of
    the point, over its one positive denominator: W is linear in P and Q,
    so W(x0, t) = p*x0*Q(x0, t) - q*t*P(x0, t) and W(0, 1) = -q*P(0, 1).
    Raises ``ValueError`` when the system is not quasi-homogeneous with the
    signature ``sig`` or when P and Q are not coprime.
    """
    point = _point(s)
    exponents = point.table.exponents
    if _signature(point.table.exponent_set, sig.p, sig.q) != sig:
        raise ValueError(f"the system is not {sig}")
    if all(i for i, _ in exponents[0]) and all(i for i, _ in exponents[1]):
        raise ValueError("P and Q must be coprime; common factor x")
    (P1, Pm1, P01), (Q1, Qm1, _) = map(_on_lines, exponents, point.numerators)
    if len(univariate_gcd(P1, Q1)) > 1:
        raise ValueError("P and Q must be coprime; P(1, t) and Q(1, t) have a common factor")
    p, q = sig.p, sig.q
    sign, detail = weighted_sign_on_lines(-q * P01, _w_on_line(P1, Q1, 1, p, q),
                                          _w_on_line(Pm1, Qm1, -1, p, q))
    return ConditionIVerdict(bool(sign), sign=sign or None, detail=detail)


@dataclass
class ConditionIIResult:
    """The period integral by the trapezoid rule in psi: its value, an error
    estimate from the halving difference and the tolerance, and how the
    node doubling ended."""

    value: float
    error: float
    nodes: int            # trapezoid nodes of the returned value
    difference: float     # |I_nodes - I_(nodes/2)|
    converged: bool       # difference <= rel_tol * trapezoid sum of the integrand's magnitude


# the trapezoid rule starts from this many nodes, so that an early chance
# agreement of two coarse sums cannot stop it, and gives up past the cap
MIN_NODES = 64
MAX_NODES = 2 ** 16


def _period_integral(s: Union[PlaneSystem, QHPoint], sig: QHSignature,
                     rel_tol: float = 1e-12) -> ConditionIIResult:
    """The condition (ii) integral of (c*P + s*Q)/W over psi in [0, 2pi),
    with (c, s) = (cos psi, sin psi) and W = p*c*Q - q*s*P, for a system whose
    condition (i) is already known to hold, by the periodic trapezoid rule
    on the nodes 2*pi*k/n (the slope d(log r)/dpsi of the return map at
    r = 1, see the module docstring), summed by the kernel of the system's
    monomials and weights.

    Only the upper half turn k <= n/2 calls cos and sin, with psi = pi taken
    as exactly (-1.0, 0.0): node n - k is the reflection (c, -s) of node k,
    and each reflected pair is added together before it enters the sum.
    The node count doubles from ``MIN_NODES`` (each doubling evaluates the
    integrand at the new odd nodes only) until the halving difference is at
    most ``rel_tol`` times the trapezoid sum of its magnitude, or until
    ``MAX_NODES``, where the result is returned with ``converged`` false.
    ``error`` is the halving difference plus ``10*rel_tol*|I|``.  A
    non-finite sum ends the doubling unconverged, with a non-finite value
    or error."""
    if not rel_tol > 0:
        raise ValueError("rel_tol must be positive")
    point = _point(s)
    cP, cQ = point.floats()
    kernel = trapezoid_kernel(point.table.exponents, sig.p, sig.q)
    tau = 2 * math.pi
    n = MIN_NODES
    total, size = kernel(cP, cQ, n, 0, 1)
    value = tau * total / n
    while True:
        n *= 2
        odd_total, odd_size = kernel(cP, cQ, n, 1, 2)
        total += odd_total
        size += odd_size
        new = tau * total / n
        diff = abs(new - value)
        value = new
        converged = diff <= rel_tol * (tau * size / n)
        if converged or n >= MAX_NODES or not math.isfinite(diff):
            err = diff + abs(value) * rel_tol * 10 + 1e-15
            return ConditionIIResult(value, err, n, diff, converged)


def classify_qh_center(s: Union[PlaneSystem, QHPoint], sig: QHSignature) -> Tuple[str, dict]:
    """center / focus / undecided via conditions (i) and (ii).

    The verdict is numeric: the integral is declared nonzero (focus) when
    its magnitude exceeds max(1e-8, 1000 * quadrature error estimate)
    and zero (center) otherwise.  A quadrature that did not converge can
    still show a focus, since its error estimate carries the halving
    difference, but never a center: below the threshold it gives undecided.
    Either way an unconverged quadrature leaves a ``detail`` naming its node
    count and halving difference.  A non-finite value or error shows
    nothing: it gives undecided, with a ``detail`` naming the cause."""
    info: dict = {}
    point = _point(s)
    verdict_i = condition_i_no_real_factors(point, sig)
    info["condition_i"] = verdict_i
    if not verdict_i.holds:
        return "undecided", info
    res = _period_integral(point, sig)
    info["condition_ii"] = res
    if not (math.isfinite(res.value) and math.isfinite(res.error)):
        info["detail"] = (f"period integral not finite (value {res.value}, error "
                          f"{res.error}): (c*P + s*Q)/W overflows or W rounds to 0 at a node")
        return "undecided", info
    threshold = max(1e-8, 1e3 * res.error)
    info["threshold"] = threshold
    if not res.converged:
        info["detail"] = (f"trapezoid rule not converged at {res.nodes} nodes: "
                          f"halving difference {res.difference:.3g}")
    if abs(res.value) > threshold:
        return "focus", info
    return ("center" if res.converged else "undecided"), info
