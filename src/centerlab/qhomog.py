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
weights; a system passes its float coefficients (:func:`numeric.float_terms`),
so the points of a sweep that keep their monomials compile nothing.
Detection and the signature check read the exponents of P and Q from their
keys (:meth:`MPoly.exponents_in`) and build no coefficient polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd
from typing import Optional, Tuple

from .mpoly import MPoly
from .numeric import float_terms, trapezoid_kernel
from .realroots import univariate_gcd
from .structure import weighted_form_sign
from .systems import PlaneSystem


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
    """P has weight degree p-1+m and Q has q-1+m: every monomial gives m."""
    ms = {p * i + q * j - (q if c else p) + 1 for i, j, c in exponents}
    if len(ms) != 1:
        return None
    m = ms.pop()
    return QHSignature(p, q, m) if m >= 0 else None


def qh_signature(s: PlaneSystem, p: int, q: int) -> Optional[QHSignature]:
    """The signature for the weights (p, q), or None when P and Q are not
    (p,q)-quasi-homogeneous of one weight degree m >= 0."""
    return _signature(_xy_exponents(s), p, q)


def detect_quasi_homogeneity(s: PlaneSystem) -> Optional[QHSignature]:
    """The coprime weights (p, q) that make the system quasi-homogeneous,
    with their weight degree, or None when there are none.

    A monomial x^i y^j of P (c = 0) or of Q (c = 1) has weight degree
    m = p*u + q*v + 1 with the row (u, v) = (i - 1 + c, j - c).  So two
    distinct rows fix the ray p:q = (v' - v):(u - u'), which must be
    positive; when every monomial has the same row, every ray fits and
    (1, 1) is the one with the smallest weights."""
    if s.P.is_zero and s.Q.is_zero:
        raise ValueError("zero vector field")
    exponents = _xy_exponents(s)
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


# -- center conditions ----------------------------------------------------------


@dataclass
class ConditionIVerdict:
    holds: bool
    sign: Optional[int] = None       # sign of W off the origin when it holds
    detail: str = ""


def condition_i_no_real_factors(s: PlaneSystem, sig: QHSignature) -> ConditionIVerdict:
    """Decide exactly whether the weighted form W = p*x*Q - q*y*P vanishes
    anywhere off the origin (equivalently whether it has a real factor).

    Weighted homogeneity decides it on the lines x = 1 and x = -1 and at
    the point (0, 1) (:func:`structure.weighted_form_sign`, which the
    monodromy weights of the return map share).  The same scaling makes the
    coprimality of P and Q univariate: a common factor is x or divides
    gcd(P(1, t), Q(1, t)).
    Raises ``ValueError`` when the system is not quasi-homogeneous with the
    signature ``sig`` or when P and Q are not coprime.
    """
    if not s.is_numeric():
        raise ValueError("specialize parameters first")
    if qh_signature(s, sig.p, sig.q) != sig:
        raise ValueError(f"the system is not {sig}")
    if s.P.lowest_degree_in("x") != 0 and s.Q.lowest_degree_in("x") != 0:
        raise ValueError("P and Q must be coprime; common factor x")
    on_x1 = [poly.coefficient_list("y", {"x": 1}) for poly in (s.P, s.Q)]
    if len(univariate_gcd(*on_x1)) > 1:
        raise ValueError("P and Q must be coprime; P(1, t) and Q(1, t) have a common factor")
    x, y = (MPoly.variable(v, s.vars) for v in ("x", "y"))
    sign, detail = weighted_form_sign(x * s.Q * sig.p - y * s.P * sig.q)
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


def _period_integral(s: PlaneSystem, sig: QHSignature,
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
    terms = float_terms(s)
    kernel = trapezoid_kernel(tuple(tuple((i, j) for _, i, j in comp) for comp in terms),
                              sig.p, sig.q)
    cP, cQ = (tuple(c for c, _, _ in comp) for comp in terms)
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


def classify_qh_center(s: PlaneSystem, sig: QHSignature) -> Tuple[str, dict]:
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
    verdict_i = condition_i_no_real_factors(s, sig)
    info["condition_i"] = verdict_i
    if not verdict_i.holds:
        return "undecided", info
    res = _period_integral(s, sig)
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
