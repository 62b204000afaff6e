"""Planar polynomial systems: classification, decomposition, Lie derivative."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

from .mpoly import MPoly, Rat, merge_tables
from .parser import Assumption, parse_system_source

LINEAR_TYPE = "linear_type"
NILPOTENT = "nilpotent"
DEGENERATE = "degenerate"
PERTURBED_NILPOTENT = "perturbed_nilpotent"
PERTURBED_DEGENERATE = "perturbed_degenerate"
#: linear part outside the supported normal forms: usable by the numeric and
#: structural analyses, rejected by the exact engines
OTHER = "other"


class ClassificationError(ValueError):
    pass


class AssumptionError(ValueError):
    pass


@dataclass(frozen=True)
class PlaneSystem:
    """A planar system xdot = P(x,y), ydot = Q(x,y) with a singular origin.

    The exact machinery works on nonzero rational multiples of the normal
    forms

    * ``linear_type``          (-y, x)
    * ``nilpotent``            (y, 0)
    * ``degenerate``           (0, 0)
    * ``perturbed_nilpotent``  (y, -eps*x)
    * ``perturbed_degenerate`` (eps*y, -eps*x)

    For the perturbed classes the role of eps may also be played by a
    positive rational constant (a specialized perturbation strength), kept
    in ``eps_factor``.  Any other linear part is classified ``other``: the
    numeric and structural analyses still apply, the exact engines reject it
    with a pre-normalization message.

    P and Q are split by degree in the state variables once, when the
    system is built; the classification and the part views read that split.
    """

    P: MPoly
    Q: MPoly
    params: Tuple[str, ...] = ()
    assumptions: Tuple[Assumption, ...] = ()
    linear_class: str = field(init=False)
    eps_factor: Optional[MPoly] = field(init=False, default=None)
    # degree -> (P_d, Q_d), ascending, for every degree where P or Q is nonzero
    _by_degree: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self.P._check(self.Q)
        P, Q = self.P.homogeneous_parts(), self.Q.homogeneous_parts()
        zero = MPoly.zero(self.P.vars)
        split = {d: (P.get(d, zero), Q.get(d, zero)) for d in sorted(P.keys() | Q.keys())}
        object.__setattr__(self, "_by_degree", split)
        cls, eps_factor = _classify(split, zero)
        object.__setattr__(self, "linear_class", cls)
        object.__setattr__(self, "eps_factor", eps_factor)

    # -- views ------------------------------------------------------------

    @property
    def vars(self) -> Tuple[str, ...]:
        return self.P.vars

    def linear_part(self) -> Tuple[MPoly, MPoly]:
        zero = MPoly.zero(self.vars)
        return self._by_degree.get(1, (zero, zero))

    def nonlinear_parts(self) -> dict:
        """Maps degree (>= 2) to (P_d, Q_d), skipping zero pairs."""
        return {d: pq for d, pq in self._by_degree.items() if d >= 2}

    def free_names(self) -> list:
        """Every name other than x and y that P or Q holds, sorted."""
        used = set(self.P.variables_present()) | set(self.Q.variables_present())
        return sorted(used - {"x", "y"})

    def __str__(self) -> str:
        return format_system(self)


def _eps_monomial_value(p: MPoly) -> Optional[MPoly]:
    """p itself when p = c*eps with c > 0 rational, or a positive constant."""
    if p.is_zero:
        return None
    if p.is_constant:
        return p if p.constant_value() > 0 else None
    c = p.coefficients_in("eps") if "eps" in p.vars else {}
    if c.keys() == {1} and c[1].is_constant and c[1].constant_value() > 0:
        return p
    return None


def _classify(split: dict, zero: MPoly):
    """Linear class and eps factor from the degree split of (P, Q)."""
    for c, name in zip(split.get(0, ()), ("xdot", "ydot")):
        if not c.is_zero:
            raise ClassificationError(
                f"{name} has a nonzero constant term; the origin must be a singular point")
    # the coefficients of x and y in P_1 and Q_1, polynomials in the other variables
    linear = [p.coefficients_in_vars(("x", "y")) for p in split.get(1, (zero, zero))]
    a_p, b_p, a_q, b_q = (c.get(k, zero) for c in linear for k in ((1, 0), (0, 1)))
    if not a_p.is_zero or not b_q.is_zero:
        return OTHER, None
    if a_q.is_zero and b_p.is_zero:
        return DEGENERATE, None
    if a_q.is_zero:
        if b_p.is_constant:
            return NILPOTENT, None
        return OTHER, None
    if b_p.is_zero:
        return OTHER, None
    # both b_p and a_q nonzero: rotation-like
    if b_p.is_constant:
        sigma = b_p.constant_value()
        if a_q.is_constant and sigma == -a_q.constant_value():
            return LINEAR_TYPE, None
        # (sigma*y, -sigma*mu*x) with mu = eps, c*eps (c > 0), or a positive
        # rational: a perturbed nilpotent part, possibly with eps specialized
        mu = _eps_monomial_value(a_q * (Rat(-1) / sigma))
        if mu is not None:
            return PERTURBED_NILPOTENT, mu
        return OTHER, None
    if (b_p + a_q).is_zero:
        mu = _eps_monomial_value(b_p) or _eps_monomial_value(-b_p)
        if mu is not None:
            return PERTURBED_DEGENERATE, mu
    return OTHER, None


def require_numeric(s: PlaneSystem) -> None:
    """Refuse a system whose P or Q holds a name other than x and y: a
    numeric analysis needs every parameter (and eps) specialized.  The
    ValueError names each such name."""
    free = s.free_names()
    if free:
        raise ValueError(f"specialize parameters first: {free}")


def parse_system(text: str) -> PlaneSystem:
    """Parse system text (see the grammar in :mod:`centerlab.parser`)."""
    parsed = parse_system_source(text)
    return PlaneSystem(parsed.P, parsed.Q, parsed.params, parsed.assumptions)


def lie_derivative(H: MPoly, s: PlaneSystem) -> MPoly:
    """Derivative of H along the flow: H_x P + H_y Q."""
    H._check(s.P)
    return H.diff("x") * s.P + H.diff("y") * s.Q


def substitute(s: PlaneSystem, bindings: Mapping[str, object]) -> PlaneSystem:
    """Specialize parameters and/or eps; x and y cannot be bound.

    Fully-determined assumptions are checked and raise AssumptionError when
    violated; open assumptions are carried over.
    """
    for k in bindings:
        if k in ("x", "y"):
            raise ValueError("cannot bind a state variable")
        if k != "eps" and k not in s.params:
            raise ValueError(f"unknown symbol {k!r}")
    extra = set()
    for v in bindings.values():
        if isinstance(v, MPoly):
            extra.update(v.variables_present())
    remaining = [p for p in s.params if p not in bindings]
    table = merge_tables(("x", "y", "eps"), remaining, tuple(extra))
    clean = {}
    for k, v in bindings.items():
        clean[k] = v.embed(table) if isinstance(v, MPoly) else v
    P = s.P.subs(clean, table)
    Q = s.Q.subs(clean, table)
    new_assumes = []
    for a in s.assumptions:
        poly = a.poly.subs(clean, table)
        a2 = Assumption(poly, a.op)
        truth = a2.holds()
        if truth is False:
            raise AssumptionError(f"assumption violated: {a} under {bindings}")
        if truth is None:
            new_assumes.append(a2)
    new_params = tuple(v for v in table if v not in ("x", "y", "eps"))
    return PlaneSystem(P, Q, new_params, tuple(new_assumes))


def format_system(s: PlaneSystem) -> str:
    """Canonical text form; parsing it back reproduces the system exactly."""
    lines = []
    if s.params:
        lines.append("params: " + ", ".join(s.params))
    for a in s.assumptions:
        lines.append(f"assume: {a.poly} {a.op} 0")
    lines.append(f"xdot = {s.P}; ydot = {s.Q}")
    return "\n".join(lines)
