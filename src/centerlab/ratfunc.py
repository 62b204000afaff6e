"""Reduced rational functions and Laurent expansion around eps = 0.

A :class:`RatFunc` is reduced when it is built, on one path: one
``poly_gcd`` of numerator and denominator and two exact divisions, checked.
The degree loop keeps its own numerators over known eps-only denominators
(see :class:`centerlab.liapunov.DegreePass`), so gcds run only on the values
that leave it (each V and the Laurent coefficients) and on parsed input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

from .mpoly import EngineError, MPoly, Rat, Scalar, poly_gcd


class RatFunc:
    """A gcd-reduced quotient of two polynomials over a shared variable table.

    Canonical form: gcd(num, den) constant, and the denominator is
    integer-primitive with positive leading coefficient (graded-lex order).
    Zero is 0/1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: Optional[MPoly] = None):
        if den is None:
            den = MPoly.const(num.vars, 1)
        num._check(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self.num = num
            self.den = MPoly.const(num.vars, 1)
            return
        g = poly_gcd(num, den)
        if not g.is_constant:
            num, den = num.try_div(g), den.try_div(g)
            if num is None or den is None:
                raise EngineError("the gcd does not divide numerator and denominator exactly")
        # scale so den is integer-primitive with positive leading coefficient:
        # a scalar product changes only the content (and negates on a sign)
        c = den.content()
        if den.leading_coefficient() < 0:
            c = -c
        if c != 1:
            inv = 1 / c
            num, den = num * inv, den * inv
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars) -> "RatFunc":
        return cls(MPoly.zero(vars))

    @classmethod
    def const(cls, vars, c: Scalar) -> "RatFunc":
        return cls(MPoly.const(vars, c))

    # -- views ---------------------------------------------------------------

    @property
    def vars(self):
        return self.num.vars

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den.is_constant

    def as_poly(self) -> MPoly:
        if not self.den.is_constant:
            raise ValueError(f"not a polynomial: {self}")
        return self.num * (1 / self.den.constant_value())

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Rat, MPoly)):
            other = RatFunc.const(self.vars, other) if not isinstance(other, MPoly) else RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    def __hash__(self):
        # the canonical denominator of a polynomial is 1, and such a value
        # equals its numerator, so it hashes like it
        if self.den.is_constant:
            return hash(self.num)
        return hash((self.num, self.den))

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other) -> Optional["RatFunc"]:
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, MPoly):
            return RatFunc(other)
        if isinstance(other, (int, Rat)):
            return RatFunc.const(self.vars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        out = RatFunc.__new__(RatFunc)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return other / self

    def __pow__(self, k: int):
        if k < 0:
            return RatFunc(self.den, self.num) ** (-k)
        return RatFunc(self.num ** k, self.den ** k)

    def subs(self, bindings: Mapping[str, object], vars=None) -> "RatFunc":
        num = self.num.subs(bindings, vars)
        den = self.den.subs(bindings, vars)
        return RatFunc(num, den)

    def embed(self, vars) -> "RatFunc":
        return RatFunc(self.num.embed(vars), self.den.embed(vars))

    def __str__(self) -> str:
        if self.den.is_constant and self.den.constant_value() == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


@dataclass
class LaurentSeries:
    """Laurent coefficients of a rational function of eps around eps = 0.

    ``coeffs`` maps the eps exponent to the coefficient, a rational function
    of the parameters (a plain polynomial whenever the denominator's lowest
    eps coefficient is constant).  ``side_condition`` records the parameter
    polynomial that was assumed nonzero when it is not constant.
    """

    coeffs: dict
    order: int
    side_condition: Optional[MPoly] = None

    def items(self) -> List[Tuple[int, RatFunc]]:
        return sorted(self.coeffs.items())

    def poly_items(self) -> List[Tuple[int, MPoly]]:
        return [(k, c.as_poly()) for k, c in self.items()]

    def coefficient(self, k: int) -> RatFunc:
        if k in self.coeffs:
            return self.coeffs[k]
        vars = next(iter(self.coeffs.values())).vars if self.coeffs else ()
        return RatFunc.zero(vars)

    @property
    def lowest_order(self) -> Optional[int]:
        nonzero = [k for k, c in self.coeffs.items() if not c.is_zero]
        return min(nonzero) if nonzero else None


def laurent_expand_eps(f: RatFunc, order: int) -> LaurentSeries:
    """Expand ``f`` as a Laurent series in eps through the eps^order term.

    ``f`` must be free of the state variables x and y.  The denominator is
    factored as eps^v * u(eps) with u(0) != 0 as a polynomial in the
    parameters; when u(0) is parameter-dependent the expansion is formal and
    u(0) is reported as a side condition.
    """
    present = set(f.num.variables_present()) | set(f.den.variables_present())
    if "x" in present or "y" in present:
        raise ValueError("Laurent expansion requires a function of eps and parameters only")
    vars = f.vars
    param_vars = tuple(v for v in vars if v not in ("x", "y", "eps"))
    if f.is_zero:
        return LaurentSeries({}, order)
    if "eps" not in vars:
        coeff = RatFunc(f.num.embed(param_vars), f.den.embed(param_vars))
        return LaurentSeries({0: coeff} if 0 <= order else {}, order)

    den_by_eps = f.den.coefficients_in("eps")
    v = min(den_by_eps)
    u = {k - v: c.embed(param_vars) for k, c in den_by_eps.items()}
    u0 = u[0]

    num_by_eps = {k: c.embed(param_vars) for k, c in f.num.coefficients_in("eps").items()}
    w = min(num_by_eps)

    n_terms = order + v - w  # highest needed index of 1/u series beyond the base
    if n_terms < 0:
        return LaurentSeries({}, order, None if u0.is_constant else u0.primitive())

    # 1/u = sum_k sigma_k / u0^(k+1) * eps^k  with the sigma_k polynomial.
    sigma = [MPoly.const(param_vars, 1)]
    for k in range(1, n_terms + 1):
        acc = MPoly.zero(param_vars)
        for j in range(1, k + 1):
            uj = u.get(j)
            if uj is None or uj.is_zero:
                continue
            acc = acc + uj * sigma[k - j] * (u0 ** (j - 1))
        sigma.append(-acc)

    coeffs = {}
    for target in range(w - v, order + 1):
        # eps^target of f corresponds to eps^(target + v) of num/u
        t = target + v
        acc_num = MPoly.zero(param_vars)
        top = t - w
        for j in range(0, top + 1):
            ni = num_by_eps.get(t - j)
            if ni is None or ni.is_zero:
                continue
            acc_num = acc_num + ni * sigma[j] * (u0 ** (top - j))
        c = RatFunc(acc_num, u0 ** (top + 1))
        if not c.is_zero:
            coeffs[target] = c
    side = None if u0.is_constant else u0.primitive()
    return LaurentSeries(coeffs, order, side)


def laurent_resum(series: LaurentSeries, vars) -> RatFunc:
    """Sum the series back into a rational function over ``vars`` (eps must be
    in the table).  Used to check the expansion against the original."""
    eps = MPoly.variable("eps", vars)
    total = RatFunc.zero(vars)
    for k, c in series.items():
        piece = c.embed(vars)
        if k >= 0:
            total = total + piece * (eps ** k)
        else:
            total = total + piece / (eps ** (-k))
    return total
