"""Degree-by-degree construction of a formal first integral and the
obstruction constants for elliptic, perturbed-nilpotent and
perturbed-degenerate linear parts.

The engine seeds H_2 (``(x^2+y^2)/2``, or ``(mu*x^2+y^2)/2`` when the linear
part is (y, -mu*x)) and solves one homogeneous linear system per degree n so
that the derivative of H along the flow is a combination of powers of
(x^2+y^2).  Every supported linear part is (sigma*y, -mu*x), so that system
splits into two bidiagonal recurrences, solved by one sweep each.  At even
degrees the obstruction coefficient V is the unique value making the
degree-n equation solvable; the kernel ambiguity in H_n is fixed by forcing
the y^n coefficient to zero.  All arithmetic is exact.

:class:`DegreePass` is the engine's one entry: ``V = dict(DegreePass(s, N))``
runs the degree loop, which keeps H_n as a numerator over the chain
f_3*...*f_n of eps-monomials f_k = (mu*sigma)^ceil(k/2): a nonzero V_n enters
the table as the symbol V(n), so its eps-only denominator Delta_n never
does.  No gcd runs on the table, and parameters can be specialised between
degrees.  Only the values that leave the loop (each V, and the H table of
:meth:`DegreePass.h_table`) get the symbols' values and are reduced to a
:class:`RatFunc`.  :func:`verify_backsubstitution` (run, constants) is the
exact oracle for a finished pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import comb
from typing import Dict, Iterator, Mapping, Tuple

from .mpoly import EngineError, MPoly, Rat, poly_lcm
from .ratfunc import RatFunc
from .systems import (
    LINEAR_TYPE,
    PERTURBED_DEGENERATE,
    PERTURBED_NILPOTENT,
    ClassificationError,
    PlaneSystem,
    lie_derivative,
    substitute,
)

SUPPORTED_CLASSES = (LINEAR_TYPE, PERTURBED_NILPOTENT, PERTURBED_DEGENERATE)
# the least max_even_degree: the first constant sits at degree 4
MIN_EVEN_DEGREE = 4


@dataclass
class ConventionRecord:
    """The normalization choices that pin the computed constants uniquely."""

    seed: str
    corrective_term: str = "(x^2+y^2)^(n/2)"
    kernel_rule: str = "coefficient of y^n in H_n is zero for even n >= 2"
    #: Computations seeded with the unnormalized quadratic x^2+y^2 (a common
    #: convention elsewhere) produce constants equal to this multiple of ours.
    unit_seed_scale: int = 2

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "corrective_term": self.corrective_term,
            "kernel_rule": self.kernel_rule,
            "unit_seed_scale": self.unit_seed_scale,
        }


def _xy_coefficients(p: MPoly, n: int) -> Dict[int, MPoly]:
    """Decompose an x,y-homogeneous polynomial of degree n: maps t to the
    (x,y)-free coefficient of x^(n-t) y^t."""
    out: Dict[int, MPoly] = {}
    for (i, t), c in p.coefficients_in_vars(("x", "y")).items():
        if i + t != n:
            raise ValueError(f"polynomial is not x,y-homogeneous of degree {n}")
        out[t] = c
    return out


def _monomial_xy(vars, i: int, j: int) -> MPoly:
    return MPoly.variable("x", vars) ** i * MPoly.variable("y", vars) ** j


def _seed(system: PlaneSystem) -> MPoly:
    """H_2 = (x^2+y^2)/2, with the x^2 weighted by the perturbation factor for
    a perturbed-nilpotent linear part."""
    vars = system.vars
    x2 = _monomial_xy(vars, 2, 0)
    if system.linear_class == PERTURBED_NILPOTENT:
        x2 = x2 * system.eps_factor
    return (x2 + _monomial_xy(vars, 0, 2)) * Rat(1, 2)


def _linear_scalars(system: PlaneSystem) -> Tuple[MPoly, MPoly]:
    """(sigma, mu) with linear part (sigma*y, -mu*x); for every supported
    class each is a nonzero rational constant or c*eps."""
    p1, q1 = system.linear_part()
    return _xy_coefficients(p1, 1)[1], -_xy_coefficients(q1, 1)[0]


def _solve_degree(sigma: MPoly, mu: MPoly, n: int, R_num: MPoly, R_den: MPoly):
    """Core solve at degree n with residual R_num / R_den.

    With L(x^(n-t) y^t) = sigma*(n-t)*x^(n-t-1) y^(t+1) - mu*t*x^(n-t+1) y^(t-1),
    row s of L(H_n) = V*(x^2+y^2)^(n/2) - R reads

        sigma*(n-s+1)*h_(s-1) - mu*(s+1)*h_(s+1) = V*c_s - r_s,

    with c_s the coefficient of x^(n-s) y^s in (x^2+y^2)^(n/2) (zero at odd
    n).  The even rows fix the odd coefficients in a forward sweep that
    carries V symbolically; at even n row n then gives V over the eps-only
    Delta_n, which vanishes exactly when the system is singular.  The odd
    rows fix the even coefficients in a backward sweep from h_n = 0 (the
    kernel rule) at even n, or h_(n+1) = 0 at odd n; the start depends on
    the parity of n alone, not on V.

    Returns (A, C, ell, delta): H_n = (A + V*C) / ((mu*sigma)^h * R_den) with
    h = ceil(n/2) and C the parameter-free column of the b-sweep, and at
    even n V = ell / (delta * R_den) with delta = Delta_n.  At odd n, C is
    zero and ell and delta are None."""
    vars = R_num.vars
    zero = MPoly.zero(vars)
    r = _xy_coefficients(R_num, n) if R_num else {}
    even = n % 2 == 0
    half = (n + 1) // 2  # steps in each sweep
    mu_pow = list(accumulate([mu] * half, MPoly.__mul__, initial=MPoly.const(vars, 1)))
    sigma_pow = list(accumulate([sigma] * half, MPoly.__mul__, initial=MPoly.const(vars, 1)))

    # forward sweep over rows s = 2k: R_den*h_(2k+1) = (a_k - V*R_den*b_k) / mu^(k+1)
    a, b = [], []
    ak = bk = zero
    for k in range(half):
        s = 2 * k
        w = sigma * (n - s + 1)
        inv = Rat(1, s + 1)
        ak = (w * ak + mu_pow[k] * r.get(s, zero)) * inv
        a.append(ak)
        if even:
            bk = (w * bk + mu_pow[k] * comb(half, k)) * inv
            b.append(bk)
    ell = delta = None
    if even:
        # row n: sigma*h_(n-1) = V - r_n
        delta = mu_pow[half] + sigma * bk
        if delta.is_zero:
            raise EngineError(
                f"homological system at degree {n} is singular beyond the expected "
                "one-dimensional obstruction")
        ell = mu_pow[half] * r.get(n, zero) + sigma * ak

    # every coefficient goes over the common denominator mu^half * sigma^half
    scale = [mu_pow[half - k - 1] * sigma_pow[half] for k in range(half)]
    coeffs = {(n - 2 * k - 1, 2 * k + 1): ak * scale[k] for k, ak in enumerate(a)}
    column = {(n - 2 * k - 1, 2 * k + 1): bk * scale[k] for k, bk in enumerate(b)}

    # backward sweep over odd rows s, from h_top = 0: h_(top-2j) = g_j / sigma^j
    top = n if even else n + 1
    g = zero
    for j in range(1, half + 1):
        s = top - 2 * j + 1
        g = (mu * (s + 1) * g - sigma_pow[j - 1] * r.get(s, zero)) * Rat(1, n - s + 1)
        coeffs[n - top + 2 * j, top - 2 * j] = g * (sigma_pow[half - j] * mu_pow[half])

    C = -MPoly.from_coefficients(vars, ("x", "y"), column) * R_den
    return MPoly.from_coefficients(vars, ("x", "y"), coeffs), C, ell, delta


class DegreePass:
    """One pass over degrees 3..``max_even_degree``: iterating solves each
    degree n once into the table ``H`` (degree -> num_n) and yields (n, V)
    at every even n.  H_n is num_n over the chain f_2*...*f_n, f_2 = 1 and
    f_k = (mu*sigma)^ceil(k/2).  The table has one slot ``V(j)`` per even j
    besides the system's variables (no parsed name has parentheses): a
    nonzero V_n enters num_n as ``V(n)*C`` (see :func:`_solve_degree`), so
    the numerators are affine in the slots, and its value is kept beside the
    table.  Between yields the consumer may :meth:`specialise` parameters.
    sigma and mu carry no parameters, so H_k of the specialised family is
    the specialised H_k: the stored table is re-expressed, not recomputed.
    """

    def __init__(self, system: PlaneSystem, max_even_degree: int):
        if system.linear_class not in SUPPORTED_CLASSES:
            raise ClassificationError(
                f"Liapunov computation needs a linear_type, perturbed_nilpotent or "
                f"perturbed_degenerate system, got {system.linear_class!r}; apply a "
                "linear change of variables to reach one of the normal forms "
                "(-y, x), (y, 0), (0, 0), (y, -eps*x), (eps*y, -eps*x)")
        if max_even_degree < MIN_EVEN_DEGREE:
            raise ValueError(f"max_even_degree must be at least {MIN_EVEN_DEGREE}")
        self.max_even_degree = max_even_degree
        self.convention = ConventionRecord(
            seed=("(mu*x^2+y^2)/2 with mu = " + str(system.eps_factor)
                  if system.linear_class == PERTURBED_NILPOTENT else "(x^2+y^2)/2"))
        self._slots = tuple(f"V({j})" for j in range(MIN_EVEN_DEGREE, max_even_degree + 1, 2))
        self._values: Dict[str, Tuple[MPoly, MPoly]] = {}  # slot -> (num, den) of a nonzero V
        self._use(system)
        self.H: Dict[int, MPoly] = {2: _seed(system).embed(self._vars)}

    def _use(self, system: PlaneSystem) -> None:
        self.system = system
        vars = self._vars = system.vars + self._slots
        self._sigma, self._mu = (v.embed(vars) for v in _linear_scalars(system))
        self._parts = {d: (p.embed(vars), q.embed(vars))
                       for d, (p, q) in system.nonlinear_parts().items()}
        sm = list(accumulate([self._sigma * self._mu] * ((self.max_even_degree + 1) // 2),
                             MPoly.__mul__, initial=MPoly.const(vars, 1)))
        self._factors = {k: sm[(k + 1) // 2 if k > 2 else 0]
                         for k in range(2, self.max_even_degree + 1)}

    def specialise(self, bindings: Mapping[str, MPoly]) -> None:
        """Substitute ``bindings`` into the family, the stored V numerators
        and, with one ``subs`` each, the table numerators, in which the slot
        of every V_j that the bindings make vanish is set to 0.  The chain is
        eps-only and stays; no gcd runs."""
        self._use(substitute(self.system, bindings))
        values = {v: (num.subs(bindings, self._vars), den.embed(self._vars))
                  for v, (num, den) in self._values.items()}
        self._values = {v: value for v, value in values.items() if value[0]}
        bindings = {**bindings, **{v: 0 for v in values if v not in self._values}}
        self.H = {k: num.subs(bindings, self._vars) for k, num in self.H.items()}

    def h_table(self) -> Dict[int, RatFunc]:
        """The stored H_k, slots set to their V, each reduced over its chain."""
        chain = MPoly.const(self._vars, 1)
        table = {}
        for k, num in self.H.items():
            chain = chain * self._factors[k]
            table[k] = self._assemble(num, chain)
        return table

    def __iter__(self) -> Iterator[Tuple[int, RatFunc]]:
        for n in range(3, self.max_even_degree + 1):
            R_num, R_den = self._residual(n)
            A, C, ell, delta = _solve_degree(self._sigma, self._mu, n, R_num, R_den)
            V = None if ell is None else self._assemble(ell, delta * R_den)
            if V:
                slot = f"V({n})"
                self._values[slot] = (V.num.embed(self._vars), V.den.embed(self._vars))
                A = A + MPoly.variable(slot, self._vars) * C
            self.H[n] = A
            if V is not None:
                yield n, V

    def _assemble(self, p: MPoly, den: MPoly) -> RatFunc:
        """p / den with every slot set to its V, as one RatFunc over the
        system's table: for p = p_0 + sum_j p_j*V(j) and D the lcm of the
        eps-only den_j, (p_0*D + sum_j p_j*num_j*(D/den_j)) / (D*den)."""
        parts = p.coefficients_in_vars(self._slots)
        if any(sum(k) > 1 for k in parts):
            raise EngineError("a product of V slots reached the H table, which must "
                              "be affine in the constants")
        values = {k: self._values[self._slots[k.index(1)]] for k in parts if any(k)}
        D = MPoly.const(self._vars, 1)
        for _, den_j in values.values():
            D = poly_lcm(D, den_j)
        total = parts.get((0,) * len(self._slots), MPoly.zero(self._vars)) * D
        for k, (num_j, den_j) in values.items():
            total = total + parts[k] * (num_j * D.try_div(den_j))
        vars = self.system.vars
        return RatFunc(total.embed(vars), (D * den).embed(vars))

    def _residual(self, n: int) -> Tuple[MPoly, MPoly]:
        """The degree-n part of the Lie derivative of H_2 + ... + H_(n-1)
        along the nonlinear terms, as (numerator, chain f_2*...*f_(n-1)).
        Horner's rule over the chain: acc <- acc*f_k + grad(num_k).(P, Q)_(n+1-k)."""
        acc = MPoly.zero(self._vars)
        chain = MPoly.const(self._vars, 1)
        for k, num in self.H.items():
            f = self._factors[k]
            acc, chain = acc * f, chain * f
            if n + 1 - k in self._parts:
                pd, qd = self._parts[n + 1 - k]
                acc = acc + num.diff("x") * pd + num.diff("y") * qd
        return acc, chain


def verify_backsubstitution(run: DegreePass, constants: Mapping[int, RatFunc]) -> bool:
    """Exact check of the defining identity for a finished ``run`` and the
    constants it yielded (degree -> V): the Lie derivative of the summed H
    equals the combination of (x^2+y^2) powers through the truncation
    degree."""
    vars = run.system.vars
    h_table = run.h_table()
    D = MPoly.const(vars, 1)
    for h in (*h_table.values(), *constants.values()):
        D = poly_lcm(D, h.den)
    circle = _monomial_xy(vars, 2, 0) + _monomial_xy(vars, 0, 2)
    H_scaled = MPoly.zero(vars)
    for h in h_table.values():
        H_scaled = H_scaled + h.num * D.try_div(h.den)
    residual = lie_derivative(H_scaled, run.system)
    for n, V in constants.items():
        residual = residual - V.num * D.try_div(V.den) * circle ** (n // 2)
    return not any(d <= run.max_even_degree for d in residual.homogeneous_parts())
