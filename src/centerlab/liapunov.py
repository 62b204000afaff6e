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
the y^n coefficient to zero.  All arithmetic is exact.  The solve at degree n
divides by the eps-only f_n = mu^h*sigma^h (h = ceil(n/2)) that it forms
itself, times Delta_n only at an even degree whose V_n is nonzero: when
V_n = 0, Delta_n cancels from every coefficient, so f_n stays an
eps-monomial.

:class:`DegreePass` is the engine's one entry: ``V = dict(DegreePass(s, N))``
runs the degree loop, which keeps H_n as a numerator over the chain
f_3*...*f_n: common denominators are products, no gcd runs per degree, and
parameters can be specialised between degrees.  Only the values that leave
the loop (each V, and the H table of :meth:`DegreePass.h_table`) are reduced
to a :class:`RatFunc`.  :func:`verify_backsubstitution` (run, constants) is
the exact oracle for a finished pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Dict, Iterator, List, Mapping, Tuple

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


def _circle_power(vars, half: int) -> MPoly:
    """(x^2 + y^2)^half."""
    return (_monomial_xy(vars, 2, 0) + _monomial_xy(vars, 0, 2)) ** half


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

    Returns (H_num, f_n, V): H_n = H_num / (f_n * R_den) with the eps-only
    f_n = mu^half * sigma^half * Delta_n when V is nonzero, and
    mu^half * sigma^half, an eps-monomial, when V is zero or n is odd; V is
    a RatFunc (None at odd n)."""
    vars = R_num.vars
    zero = MPoly.zero(vars)
    r = _xy_coefficients(R_num, n) if R_num else {}
    even = n % 2 == 0
    half = (n + 1) // 2  # steps in each sweep
    mu_pow = [MPoly.const(vars, 1)]
    sigma_pow = [MPoly.const(vars, 1)]
    for _ in range(half):
        mu_pow.append(mu_pow[-1] * mu)
        sigma_pow.append(sigma_pow[-1] * sigma)

    # forward sweep over rows s = 2k: h_(2k+1) = (a_k - V*b_k) / mu^(k+1)
    a: List[MPoly] = []
    b: List[MPoly] = []
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
    if even:
        # row n: sigma*h_(n-1) = V - r_n
        delta = mu_pow[half] + sigma * bk
        if delta.is_zero:
            raise EngineError(
                f"homological system at degree {n} is singular beyond the expected "
                "one-dimensional obstruction")
        v_num = mu_pow[half] * r.get(n, zero) + sigma * ak
    else:
        v_num = zero
    if v_num:
        V = RatFunc(v_num, delta * R_den)
    else:
        # without V, delta would cancel from every coefficient: f_n is the
        # eps-monomial mu^half * sigma^half
        V = RatFunc(v_num) if even else None
        delta = MPoly.const(vars, 1)

    # every coefficient goes over the common denominator mu^half * sigma^half * delta
    coeffs: Dict[int, MPoly] = {}
    for k in range(half):
        num = a[k] * delta - v_num * b[k] if v_num else a[k]
        coeffs[2 * k + 1] = num * (mu_pow[half - k - 1] * sigma_pow[half])

    # backward sweep over odd rows s, from h_top = 0: h_(top-2j) = g_j / sigma^j
    top = n if even else n + 1
    even_scale = mu_pow[half] * delta
    g = zero
    for j in range(1, half + 1):
        s = top - 2 * j + 1
        g = (mu * (s + 1) * g - sigma_pow[j - 1] * r.get(s, zero)) * Rat(1, n - s + 1)
        coeffs[top - 2 * j] = g * (sigma_pow[half - j] * even_scale)

    H_num = MPoly.from_coefficients(vars, ("x", "y"), {(n - t, t): c for t, c in coeffs.items()})
    return H_num, mu_pow[half] * sigma_pow[half] * delta, V


class DegreePass:
    """One pass over degrees 3..``max_even_degree``: iterating solves each
    degree n once into the table ``H`` (degree -> (num_n, f_n)) and yields
    (n, V) at every even n.  H_n is num_n over the chain f_2*...*f_n, with
    f_2 = 1 and f_n the eps-only factor of the degree-n solve, which carries
    Delta_n only when V_n is nonzero (see :func:`_solve_degree`).  Between
    yields the consumer may :meth:`specialise` parameters.  sigma and mu
    carry no parameters, so H_k of the specialised family is the specialised
    H_k: the stored table is re-expressed, not recomputed.
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
        self.H: Dict[int, Tuple[MPoly, MPoly]] = {
            2: (_seed(system), MPoly.const(system.vars, 1))}
        self._use(system)

    def _use(self, system: PlaneSystem) -> None:
        self.system = system
        self._sigma, self._mu = _linear_scalars(system)
        self._parts = system.nonlinear_parts()

    def specialise(self, bindings: Mapping[str, MPoly]) -> None:
        """Substitute ``bindings`` into the family and into every stored
        numerator.  The f_k are eps-only and stay; the factor F_j of f_j
        prime to eps (Delta_j, present only where V_j was nonzero) is
        dropped where the bindings make it divide every numerator from num_j
        on, which happens where they make V_j vanish.  An eps-monomial f_j
        has no such factor and is skipped."""
        self._use(substitute(self.system, bindings))
        vars = self.system.vars
        nums = {k: num.subs(bindings, vars) for k, (num, _) in self.H.items()}
        fs = {k: f.embed(vars) for k, (_, f) in self.H.items()}
        for j, f in list(fs.items()):
            F = f if f.is_constant else f.shift("eps", -f.lowest_degree_in("eps"))
            if F.is_constant:
                continue
            quotients = {}
            for k in range(j, max(nums) + 1):
                quotients[k] = nums[k].try_div(F)
                if quotients[k] is None:
                    break
            else:
                nums.update(quotients)
                fs[j] = f.try_div(F)
        self.H = {k: (nums[k], fs[k]) for k in nums}

    def h_table(self) -> Dict[int, RatFunc]:
        """The stored H_k, each reduced over its chain denominator."""
        chain = MPoly.const(self.system.vars, 1)
        table = {}
        for k, (num, f) in self.H.items():
            chain = chain * f
            table[k] = RatFunc(num, chain)
        return table

    def __iter__(self) -> Iterator[Tuple[int, RatFunc]]:
        for n in range(3, self.max_even_degree + 1):
            H_num, f, V = _solve_degree(self._sigma, self._mu, n, *self._residual(n))
            self.H[n] = (H_num, f)
            if V is not None:
                yield n, V

    def _residual(self, n: int) -> Tuple[MPoly, MPoly]:
        """The degree-n part of the Lie derivative of H_2 + ... + H_(n-1)
        along the nonlinear terms, as (numerator, chain f_2*...*f_(n-1)).
        Horner's rule over the chain: acc <- acc*f_k + grad(num_k).(P, Q)_(n+1-k)."""
        vars = self.system.vars
        acc = MPoly.zero(vars)
        chain = MPoly.const(vars, 1)
        for k, (num, f) in self.H.items():
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
    s = run.system
    vars = s.vars
    h_table = run.h_table()
    D = MPoly.const(vars, 1)
    for h in (*h_table.values(), *constants.values()):
        D = poly_lcm(D, h.den)
    H_scaled = MPoly.zero(vars)
    for h in h_table.values():
        H_scaled = H_scaled + h.num * D.try_div(h.den)
    residual = lie_derivative(H_scaled, s)
    for n, V in constants.items():
        residual = residual - V.num * D.try_div(V.den) * _circle_power(vars, n // 2)
    return not any(d <= run.max_even_degree for d in residual.homogeneous_parts())
