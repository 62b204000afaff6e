"""Reduced rational functions and Laurent expansion around eps = 0.

A :class:`RatFunc` is reduced when it is built.  ``RatFunc(num, den)``
runs one ``poly_gcd`` of numerator and denominator and two exact divisions,
checked: the path of parsed input and of the arithmetic operators.
:meth:`RatFunc.coprime` takes a pair already known to be coprime and runs
only the canonical scaling: the degree loop reduces each value that leaves
it over a basis of its known eps-only factors (see
:class:`centerlab.liapunov.EpsBasis`) and builds it that way, so no
``poly_gcd`` runs in the engine.  Every such denominator is a polynomial in
eps alone, so the Laurent expansion is a univariate series in eps with
polynomial coefficients: it builds no rational function and runs no gcd.
"""

from __future__ import annotations

from typing import Mapping, Optional

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
        if num:
            g = poly_gcd(num, den)
            if not g.is_constant:
                num, den = num.try_div(g), den.try_div(g)
                if num is None or den is None:
                    raise EngineError("the gcd does not divide numerator and denominator "
                                      "exactly")
        self._scale(num, den)

    @classmethod
    def coprime(cls, num: MPoly, den: MPoly) -> "RatFunc":
        """``num/den`` for a pair already known coprime (nonzero ``den``):
        only the canonical scaling runs, no gcd."""
        out = cls.__new__(cls)
        out._scale(num, den)
        return out

    def _scale(self, num: MPoly, den: MPoly) -> None:
        # scale so den is integer-primitive with positive leading coefficient:
        # a scalar product changes only the content (and negates on a sign)
        if num.is_zero:
            self.num, self.den = num, MPoly.const(num.vars, 1)
            return
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

    def render(self, names: Optional[Mapping[str, str]] = None) -> str:
        """The function as text, ``(num)/(den)`` or ``num`` over 1; ``names``
        maps a variable to the name it is shown as (:meth:`MPoly.render`)."""
        num = self.num.render(names)
        if self.den.is_constant and self.den.constant_value() == 1:
            return num
        return f"({num})/({self.den.render(names)})"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"RatFunc({self})"


def laurent_expand_eps(f: RatFunc, order: int) -> dict:
    """The Laurent coefficients of ``f`` around eps = 0 through eps^order:
    exponent (ascending) -> nonzero polynomial in the parameters.

    ``f`` must be free of x and y, eps must be in its table, and its
    denominator must be a polynomial in eps alone, as every denominator of
    the engine is.  Written as
    eps^v * u(eps) with u(0) != 0, 1/u is the rational series s_0 = 1/u_0,
    s_k = -(sum_{j>=1} u_j * s_(k-j)) / u_0, and the eps^t coefficient of f
    is sum_j s_j * N_(t+v-j) over the eps-coefficients N_i of the numerator.
    """
    present = set(f.num.variables_present()) | set(f.den.variables_present())
    if "x" in present or "y" in present:
        raise ValueError("Laurent expansion requires a function of eps and parameters only")
    others = sorted(set(f.den.variables_present()) - {"eps"})
    if others:
        raise ValueError(f"Laurent expansion requires a denominator in eps alone, not in {others}")
    if f.is_zero:
        return {}
    param_vars = tuple(v for v in f.vars if v not in ("x", "y", "eps"))
    den = f.den.coefficient_list("eps")
    v = next(k for k, c in enumerate(den) if c)
    u = den[v:]
    nums = {i: c.embed(param_vars) for i, c in f.num.coefficients_in("eps").items()}
    w = min(nums)

    s = [1 / u[0]]
    for k in range(1, order + v - w + 1):
        s.append(-sum(u[j] * s[k - j] for j in range(1, min(k, len(u) - 1) + 1)) / u[0])

    coeffs = {}
    for t in range(w - v, order + 1):
        acc = MPoly.zero(param_vars)
        for j in range(t + v - w + 1):
            n = nums.get(t + v - j)
            if n is not None and s[j]:
                acc = acc + n * s[j]
        if not acc.is_zero:
            coeffs[t] = acc
    return coeffs


def laurent_resum(series: dict, vars) -> RatFunc:
    """Sum the coefficients of :func:`laurent_expand_eps` back into one
    rational function over ``vars`` (eps must be in the table):
    sum_k c_k * eps^(k - low) over eps^(-low), low the least exponent or 0.
    Used to check the expansion against the original."""
    low = min([0, *series])
    num = MPoly.zero(vars)
    for k, c in series.items():
        num = num + c.embed(vars).shift("eps", k - low)
    return RatFunc(num, MPoly.variable("eps", vars) ** -low)
