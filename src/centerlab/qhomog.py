"""Homogeneous and quasi-homogeneous center machinery.

A system is (p,q)-quasi-homogeneous of weight degree m when P and Q are
(p,q)-quasi-homogeneous of weight degrees p-1+m and q-1+m.  For coprime P, Q
the centers are characterized by (i) the weighted form p*x*Q - q*y*P having
no real factors and (ii) the vanishing of the integral of F/G over one period
of the generalized trigonometric functions Cs, Sn, which solve

    z' = -w^(2p-1),  w' = z^(2q-1),  z(0) = p^(-1/(2q)),  w(0) = 0

and satisfy p*Cs^(2q) + q*Sn^(2p) = 1.

Detection solves for the weights: each monomial fixes a linear relation
between p, q and m, so two monomials fix the ray p:q and the rest must
agree with it (see :func:`detect_quasi_homogeneity`).

Condition (i) is decided exactly: weighted homogeneity reduces it to the
real roots of the two univariate polynomials W(1, t) and W(-1, t), counted
by Sturm chains.  Condition (ii) samples (Cs, Sn) through one cached map per
(p, q): exact cos/sin when p = q = 1 and otherwise the dense output of one
tight integration of the system above.  It is the periodic trapezoid rule
on N equally spaced nodes, which converges geometrically for an analytic
periodic integrand (Trefethen & Weideman, SIAM Review 56, 2014); N doubles
until two successive sums agree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import gcd
from typing import Callable, Optional, Tuple

from .mpoly import MPoly
from .numeric import Trajectory, compile_system, integrate_adaptive, _refine_crossing
from .realroots import real_root_count, univariate_gcd
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
            for i, j in poly.coefficients_in_vars(("x", "y"))}


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


# -- generalized trigonometric functions ---------------------------------------


def pq_period(p: int, q: int) -> float:
    """Period of the (p,q)-trigonometric functions via the Gamma-function
    formula."""
    a = 1 / (2 * p)
    b = 1 / (2 * q)
    return (2 * p ** (-b) * q ** (-a)
            * math.gamma(a) * math.gamma(b) / math.gamma(a + b))


@dataclass
class PQCircle:
    """One period of (Cs, Sn) with dense output: (Cs, Sn)(t) is
    ``trajectory(t % tau)``."""

    p: int
    q: int
    tau: float
    trajectory: Trajectory


def _pq_rhs(p: int, q: int):
    e1 = 2 * p - 1
    e2 = 2 * q - 1

    def f(z, w):
        return (-(w ** e1), z ** e2)

    return f


# the tolerance of the (Cs, Sn) integration that the center conditions sample
CIRCLE_REL_TOL = 1e-12


def pq_circle(p: int, q: int, rel_tol: float = CIRCLE_REL_TOL, abs_tol: float = 1e-14) -> PQCircle:
    """Integrate the defining system over one full period (the period itself
    is located by the return of (Cs, Sn) to the initial point)."""
    f = _pq_rhs(p, q)
    z0 = p ** (-1 / (2 * q))
    tau_formula = pq_period(p, q)
    hit = {}

    def callback(seg, y_new):
        # return of w to 0 from below with z > 0, past half a period
        t_new = seg.t0 + seg.h
        if t_new < 0.5 * tau_formula:
            return False
        if seg.y0[1] < 0 <= y_new[1] and y_new[0] > 0:
            tc, yc = _refine_crossing(seg, lambda st: st[1])
            hit["t"] = tc
            return True
        return False

    traj = integrate_adaptive(f, (z0, 0.0), (0.0, 2.5 * tau_formula),
                              rel_tol=rel_tol, abs_tol=abs_tol, step_callback=callback)
    return PQCircle(p, q, hit.get("t", tau_formula), traj)


@functools.lru_cache(maxsize=16)
def pq_sampler(p: int, q: int) -> Tuple[float, Callable[[float], Tuple[float, float]]]:
    """``(tau, at)`` for the weights (p, q): the period and the map t ->
    (Cs(t), Sn(t)) on [0, tau).  cos/sin when p = q = 1, otherwise the dense
    output of one :func:`pq_circle` run, shared by every caller in the
    process."""
    if p == q == 1:
        return 2 * math.pi, lambda t: (math.cos(t), math.sin(t))
    return pq_period(p, q), pq_circle(p, q).trajectory


# -- center conditions ----------------------------------------------------------


@dataclass
class ConditionIVerdict:
    holds: bool
    sign: Optional[int] = None       # sign of G along the circle when it holds
    detail: str = ""


def _weighted_form(s: PlaneSystem, sig: QHSignature) -> MPoly:
    table = s.vars
    x = MPoly.variable("x", table)
    y = MPoly.variable("y", table)
    return x * s.Q * sig.p - y * s.P * sig.q


def condition_i_no_real_factors(s: PlaneSystem, sig: QHSignature) -> ConditionIVerdict:
    """Decide exactly whether the weighted form W = p*x*Q - q*y*P vanishes
    anywhere off the origin (equivalently whether it has a real factor).

    Weighted homogeneity, W(l^p*x, l^q*y) = l^d*W(x, y) for l > 0, moves
    every point off the origin onto the line x = 1, the line x = -1 or the
    point (0, +-1).  So W keeps one strict sign off the origin exactly when
    W(0, 1), its pure y-power coefficient, is nonzero and neither W(1, t)
    nor W(-1, t) has a real root (two Sturm counts each); the sign is that
    of W(0, 1).  The same scaling makes the coprimality of P and Q
    univariate: a common factor is x or divides gcd(P(1, t), Q(1, t)).
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
    W = _weighted_form(s, sig)
    if W.is_zero:
        return ConditionIVerdict(False, detail="weighted form is identically zero")
    c = sum(W.coefficient_list("y", {"x": 0}))  # W(0, 1)
    if not c:
        return ConditionIVerdict(False, detail="x divides the weighted form")
    for x0 in (1, -1):
        if real_root_count(W.coefficient_list("y", {"x": x0})):
            return ConditionIVerdict(False, detail=f"W({x0}, t) has a real root")
    return ConditionIVerdict(True, sign=1 if c > 0 else -1,
                             detail="W(1, t) and W(-1, t) have no real root (Sturm counts)")


@dataclass
class ConditionIIResult:
    value: float
    error: float
    period: float
    nodes: int            # trapezoid nodes of the returned value
    difference: float     # |I_nodes - I_(nodes/2)|
    converged: bool       # difference <= rel_tol * trapezoid sum of |F/G|


# the trapezoid rule starts from this many nodes, so that an early chance
# agreement of two coarse sums cannot stop it, and gives up past the cap
MIN_NODES = 64
MAX_NODES = 2 ** 16


def condition_ii_integral(s: PlaneSystem, sig: QHSignature,
                          rel_tol: float = 1e-12) -> ConditionIIResult:
    """Integral of F/G over one period of the (p,q)-trigonometric functions.

    F = Cs^(2q-1) P(Cs,Sn) + Sn^(2p-1) Q(Cs,Sn) and
    G = p Cs Q(Cs,Sn) - q Sn P(Cs,Sn); condition (i) must hold first."""
    verdict = condition_i_no_real_factors(s, sig)
    if not verdict.holds:
        raise ValueError(f"condition (i) fails: {verdict.detail}")
    return _period_integral(s, sig, rel_tol)


def _period_integral(s: PlaneSystem, sig: QHSignature,
                     rel_tol: float = 1e-12) -> ConditionIIResult:
    """The integral of :func:`condition_ii_integral`, for a system whose
    condition (i) is already known to hold, by the periodic trapezoid rule.

    The node count doubles from ``MIN_NODES`` (each doubling evaluates F/G
    at the new odd nodes only) until the halving difference is at most
    ``rel_tol`` times the trapezoid sum of |F/G|, or until ``MAX_NODES``,
    where the result is returned with ``converged`` false.  ``error`` is the
    halving difference plus ``10*rel_tol*|I|``, plus, when p != q,
    ``CIRCLE_REL_TOL`` times the integral of |F/G| for the error of the
    integrated (Cs, Sn)."""
    if not rel_tol > 0:
        raise ValueError("rel_tol must be positive")
    fPQ = compile_system(s)
    p, q = sig.p, sig.q
    e1 = 2 * p - 1
    e2 = 2 * q - 1
    tau, at = pq_sampler(p, q)
    node_tol = 0.0 if p == q == 1 else CIRCLE_REL_TOL

    def sums(n, first, step):
        # F/G at the nodes tau*k/n, k = first, first + step, ... < n
        total = size = 0.0
        for k in range(first, n, step):
            z, w = at(tau * k / n)
            P, Q = fPQ(z, w)
            G = p * z * Q - q * w * P
            # G rounding to 0 at a node makes the sums non-finite, which
            # ends the doubling unconverged
            v = (z ** e2 * P + w ** e1 * Q) / G if G else math.inf
            total += v
            size += abs(v)
        return total, size

    n = MIN_NODES
    total, size = sums(n, 0, 1)
    value = tau * total / n
    while True:
        n *= 2
        odd_total, odd_size = sums(n, 1, 2)
        total += odd_total
        size += odd_size
        new = tau * total / n
        diff = abs(new - value)
        value = new
        mass = tau * size / n
        converged = diff <= rel_tol * mass
        if converged or n >= MAX_NODES or not math.isfinite(diff):
            err = diff + abs(value) * rel_tol * 10 + node_tol * mass + 1e-15
            return ConditionIIResult(value, err, tau, n, diff, converged)


def classify_qh_center(s: PlaneSystem, sig: QHSignature) -> Tuple[str, dict]:
    """center / focus / undecided via conditions (i) and (ii).

    The verdict is numeric: the integral is declared nonzero (focus) when
    its magnitude exceeds max(1e-8, 1000 * quadrature error estimate)
    and zero (center) otherwise.  A quadrature that did not converge can
    still show a focus, since its error estimate carries the halving
    difference, but never a center: below the threshold it gives undecided.
    Either way an unconverged quadrature leaves a ``detail`` naming its node
    count and halving difference."""
    info: dict = {}
    verdict_i = condition_i_no_real_factors(s, sig)
    info["condition_i"] = verdict_i
    if not verdict_i.holds:
        return "undecided", info
    res = _period_integral(s, sig)
    info["condition_ii"] = res
    threshold = max(1e-8, 1e3 * res.error)
    info["threshold"] = threshold
    if not res.converged:
        info["detail"] = (f"trapezoid rule not converged at {res.nodes} nodes: "
                          f"halving difference {res.difference:.3g}")
    if abs(res.value) > threshold:
        return "focus", info
    return ("center" if res.converged else "undecided"), info
