"""Degree-by-degree construction of a formal first integral and the
obstruction constants for elliptic, perturbed-nilpotent and
perturbed-degenerate linear parts.

The engine seeds H_2 (``(x^2+y^2)/2``, or ``(mu*x^2+y^2)/2`` when the linear
part is (y, -mu*x)) and solves one homogeneous linear system per degree n so
that the derivative of H along the flow is a combination of powers of
(x^2+y^2).  Every supported linear part is (sigma*y, -mu*x), sigma and mu
eps-monomials, so the system splits into two bidiagonal recurrences, each a
prefix sum with separable integer weights.  At even degrees V is the unique
value making the degree-n equation solvable; the kernel ambiguity in H_n is
fixed by forcing the y^n coefficient to zero.  All arithmetic is exact.

:class:`DegreePass` is the engine's one entry: ``V = dict(DegreePass(s, N))``
runs the degree loop, which keeps H_n as a numerator over the chain
f_3*...*f_n of eps-monomials f_k = (mu*sigma)^ceil(k/2): a nonzero V_n enters
the table as the symbol V(n), so its eps-only denominator Delta_n never
does.  No gcd runs on the table, and parameters can be specialised between
degrees.  Only the values that leave the loop (each nonzero V, and the H
table of :meth:`DegreePass.h_table`) get the symbols' values and are
reduced to a :class:`RatFunc`.  Every denominator there depends on eps
alone, so it is kept as exponents over the pass's :class:`EpsBasis`, a
pairwise coprime basis refined by each new Delta_n: lcms are maxima of
exponents, and the reduction is one gcd per basis element against a few
eps-slices of the numerator, with no multivariate gcd.
:func:`verify_backsubstitution` (run, constants) is the exact oracle for a
finished pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from math import comb, lcm
from operator import mul
from typing import Dict, Iterator, Mapping, Tuple

from .mpoly import EngineError, MPoly, Rat, poly_lcm
from .realroots import product, quotient, univariate_gcd
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
    p1, q1 = (p.coefficients_in_vars(("x", "y")) for p in system.linear_part())
    return p1[0, 1], -q1[1, 0]


def _solve_plan(sigma: MPoly, mu: MPoly, n: int):
    """The sweeps and scales of :meth:`MPoly.prefix_sums` for
    :func:`_solve_degree` (output 0 is A, output 1 is ell at even n).  With
    sigma = sn/sd*eps^se, mu = mn/md*eps^me, a = sn*md and b = sd*mn, each
    weight X_k, Y_j there is an integer (powers of a and b times prefix
    products) times eps^e, e >= 0: the forward Y_j are multiplied by
    sigma^K*sd^K*md^K*P_K, the backward ones by mu^h*sd^(h-1)*md^h*U_h, and
    each output's scale divides the same back out."""
    if len(sigma) != 1 or len(mu) != 1 or {*sigma.variables_present(),
                                           *mu.variables_present()} - {"eps"}:
        raise EngineError(f"linear scalars {sigma}, {mu} are not eps-monomial terms")
    (sn, sd), (mn, md) = (p.leading_coefficient().as_integer_ratio() for p in (sigma, mu))
    se, me, a, b = sigma.degree_in("eps"), mu.degree_in("eps"), sn * md, sd * mn
    h, even = (n + 1) // 2, n % 2 == 0
    K = h - 1 + even  # the last forward step; at even n it reads row n into ell
    P = list(accumulate(range(n - 1, n - 2 * K, -2), mul, initial=1))
    Q = list(accumulate(range(1, 2 * K + 2, 2), mul, initial=1))
    U = list(accumulate(range(2 * h, 0, -2), mul, initial=1))  # s_j = 2h-2j+1
    N = list(accumulate(range(n - 2 * h + 2, n + 1, 2), mul, initial=1))
    # A's targets (row, num, den, e), over sd^(2h-1)*md^(2h)
    targets = [((n - 2 * k - 1, 2 * k + 1), a ** (h + k - K) * b ** (h - k - 1) * md * P[k],
                Q[k + 1] * P[K], (h + k - K) * se + (h - k - 1) * me) for k in range(h)]
    targets += [((n - 2 * h + 2 * j, 2 * h - 2 * j), a ** (h - j) * b ** j * U[j], N[j] * U[h],
                 (h - j) * se + j * me) for j in range(1, h + 1)]
    M = lcm(*(den for _, _, den, _ in targets))
    targets = [(row, num * (M // den), e, 0) for row, num, den, e in targets]
    forward = [((n - 2 * j, 2 * j), a ** (K - j) * b ** j * Q[j] * (P[K] // P[j]),
                (K - j) * se + j * me) for j in range(K + 1)]
    backward = [((n - 2 * h + 2 * j - 1, 2 * h - 2 * j + 1),
                 -md * a ** (j - 1) * b ** (h - j) * N[j - 1] * (U[h] // U[j]),
                 (j - 1) * se + (h - j) * me) for j in range(1, h + 1)]
    return ((tuple(zip(forward, targets[:h] + [((0, 0), 1, 0, 1)] * even)),
             tuple(zip(backward, targets[h:]))),
            ((1, M * sd ** (2 * h - 1) * md ** (2 * h)),
             *[(n + 1, Q[K + 1] * sd ** h * md ** h)] * even))


def _solve_degree(sigma: MPoly, mu: MPoly, n: int, R_num: MPoly, R_den: MPoly):
    """Core solve at degree n with residual R_num / R_den.

    With L(x^(n-t) y^t) = sigma*(n-t)*x^(n-t-1) y^(t+1) - mu*t*x^(n-t+1) y^(t-1),
    row s of L(H_n) = V*(x^2+y^2)^(n/2) - R reads

        sigma*(n-s+1)*h_(s-1) - mu*(s+1)*h_(s+1) = V*c_s - r_s,

    c_s the coefficient of x^(n-s) y^s in O = (x^2+y^2)^(n/2) (0 at odd n).
    The even rows fix the odd coefficients in a forward sweep, row n gives
    V, and the odd rows fix the even ones in a backward sweep from h_top = 0,
    top = 2h, h = ceil(n/2).  sigma and mu are eps-monomials (else
    EngineError), so each sweep is X_k * sum_(j<=k) Y_j*r_(s_j): forward
    (s_j = 2j, target x^(n-2k-1) y^(2k+1)) X_k = sigma^(h+k) mu^(h-k-1)
    P_k/Q_(k+1), Y_j = (mu/sigma)^j Q_j/P_j, P_k = prod_(i=1..k) (n-2i+1),
    Q_k = prod_(i<k) (2i+1); backward (s_j = top-2j+1, target
    x^(n-s_k+1) y^(s_k-1)) X_k = sigma^(h-k) mu^(h+k) U_k/N_k,
    Y_j = -sigma^(j-1) mu^(-j) N_(j-1)/U_j, U_j = prod_(l<=j) (s_l+1),
    N_j = prod_(l<=j) (n-s_l+1).  ell = sigma*(forward sum through row n-2)
    + mu^h*r_n.  On c_s the map gives C = -A(O)*R_den and Delta_n = ell(O),
    eps-only and zero exactly when the system is singular.  O has only the
    even rows c_2j = C(n/2, j), so Delta_n is the forward sweep's weights
    applied to those binomials, and A(O) is needed only for C: the circle
    and its column are built only for a nonzero ell.

    Returns (A, C, ell, delta): H_n = (A + V*C) / ((mu*sigma)^h * R_den) and
    at even n V = ell / (delta * R_den), delta = Delta_n; C is zero at odd n
    (ell and delta None) and when ell is zero.  ValueError unless R_num is
    x,y-homogeneous in n; EngineError when Delta_n is zero."""
    sweeps, scales = _solve_plan(sigma, mu, n)
    A, *ell = R_num.prefix_sums(("x", "y"), "eps", sweeps, scales)
    C = MPoly.zero(A.vars)
    if not ell:
        return A, C, None, None
    rows: Dict[int, int] = {}
    for ((_, t), w, e), _ in sweeps[0]:
        rows[e] = rows.get(e, 0) + w * comb(n // 2, t // 2)
    num, den = scales[1]
    delta = MPoly.from_coefficients(A.vars, ("eps",), {
        (e,): MPoly.const(A.vars, Rat(c * num, den)) for e, c in rows.items()})
    if delta.is_zero:
        raise EngineError(f"homological system at degree {n} is singular beyond the "
                          "expected one-dimensional obstruction")
    if ell[0]:
        x, y = MPoly.variable("x", A.vars), MPoly.variable("y", A.vars)
        circle = (x * x + y * y) ** (n // 2)
        C = -circle.prefix_sums(("x", "y"), "eps", sweeps, scales)[0] * R_den
    return A, C, ell[0], delta


# eps as an element of an EpsBasis: its coefficients, index = power
_E = (0, 1)


class EpsBasis:
    """A pairwise coprime basis of eps-only denominators: eps and primitive
    integer polynomials b in eps with b(0) != 0 and a positive leading
    coefficient, each its coefficient tuple (index = power).  A denominator
    is a constant times prod b^e, kept as exponents {b: e}.  The basis is
    refined (Bach, Driscoll and Shallit, "Factor refinement", J. Algorithms
    15, 1993) by each new denominator and by each gcd that splits an
    element, so it rests on no factorisation of its elements; exponents over
    an element that a refinement retired are re-expressed by
    :meth:`exponents`."""

    def __init__(self):
        self._elements: list = []  # all but eps
        self._split: Dict[tuple, list] = {}  # retired element -> [(element, power)]
        self._powers: Dict[tuple, tuple] = {}  # (element, k) -> its k-th power

    def factor(self, den: MPoly) -> Tuple[Rat, dict]:
        """``den``, nonzero and in eps alone, as (c, exponents) with
        den = c * prod b^e, after refining the basis by den's part."""
        coeffs = den.integer_coefficients("eps")
        v = den.lowest_degree_in("eps")
        sign = 1 if coeffs[-1] > 0 else -1
        u = tuple(sign * c for c in coeffs[v:])
        exps = {_E: v} if v else {}
        if len(u) > 1:
            self._refine(u)
            exps.update(self.exponents({u: 1}))
        return den.content() * sign, exps

    def exponents(self, exps: Mapping[tuple, int]) -> dict:
        """``exps`` over the current basis."""
        out: Dict[tuple, int] = {}
        for b, e in exps.items():
            for f, k in [(b, 1)] if b == _E or b in self._elements else self._split_of(b):
                out[f] = out.get(f, 0) + k * e
        return out

    def _split_of(self, b: tuple) -> list:
        """A retired element as powers of the current ones, by trial division."""
        got = self._split.get(b)
        if got is None:
            got, rest = [], b
            for f in self._elements:
                k = 0
                while (q := quotient(rest, f)) is not None:
                    rest, k = q, k + 1
                if k:
                    got.append((f, k))
            self._split[b] = got
        return got

    def _refine(self, u: tuple) -> None:
        """Make the basis and ``u`` pairwise coprime: a piece sharing a gcd g
        with an element is replaced, with that element, by both cofactors and
        g, until every piece is coprime to the rest."""
        clean = list(self._elements)
        dirty = [u]
        while dirty:
            a = dirty.pop()
            if len(a) < 2:
                continue
            for i, b in enumerate(clean):
                g = univariate_gcd(a, b)
                if len(g) > 1:
                    del clean[i]
                    dirty += [quotient(a, g), quotient(b, g), g]
                    break
            else:
                clean.append(a)
        if set(clean) != set(self._elements):
            self._split = {}
        self._elements = clean

    def _power(self, b: tuple, k: int) -> tuple:
        got = self._powers.get((b, k))
        if got is None:
            got = self._powers[b, k] = product(self._power(b, k - 1), b) if k else (1,)
        return got

    def poly(self, exps: Mapping[tuple, int], vars) -> MPoly:
        """prod b^e over the table ``vars``, for exponents over the current basis."""
        p = (1,)
        for b, e in exps.items():
            if b != _E:
                p = product(p, self._power(b, e))
        return MPoly.univariate(vars, "eps", p).shift("eps", exps.get(_E, 0))

    def reduce(self, num: MPoly, exps: Mapping[tuple, int]) -> Tuple[MPoly, dict]:
        """``num / prod b^e`` in lowest terms, as (numerator, exponents).  The
        gcd is eps^min(e, v) (v the eps-valuation of num) times, for each
        other element b, g_b = gcd(b^e, slice mod b^e) over the eps-slices
        of num, shortest first, stopping at 1: exact for any b, since the
        elements are pairwise coprime.  A g_b that is not a power of b
        refines the basis, and the reduction starts again."""
        exps = self.exponents(exps)
        if not num:
            return num, {}
        slices = sorted(num.coefficients_in_vars([v for v in num.vars if v != "eps"]).values(),
                        key=len)
        common = {}
        for b, e in exps.items():
            if b == _E:
                k = min(e, num.lowest_degree_in("eps"))
            elif len(slices[0]) == 1:  # c*eps^j is coprime to b
                continue
            else:
                g = self._power(b, e)
                for piece in slices:
                    g = univariate_gcd(piece.integer_coefficients("eps"), g)
                    if len(g) == 1:
                        break
                k = (len(g) - 1) // (len(b) - 1)
                if g != self._power(b, k):
                    self._refine(g)
                    return self.reduce(num, exps)
            if k:
                common[b] = k
        if common:
            num = num.try_div(self.poly(common, num.vars))
            if num is None:
                raise EngineError("a common factor of a reduction does not divide the numerator")
        return num, {b: e - common.get(b, 0) for b, e in exps.items() if e > common.get(b, 0)}


class DegreePass:
    """One pass over degrees 3..``max_even_degree`` (the bound floored to
    even: no odd degree has a constant): iterating solves each degree n once
    into the table ``H`` (degree -> num_n) and yields (n, V) at every even n.
    H_n is num_n over the chain f_2*...*f_n, f_2 = 1 and
    f_k = (mu*sigma)^ceil(k/2).  The table has one slot ``V(j)`` per even j
    besides the system's variables (no parsed name has parentheses): a
    nonzero V_n enters num_n as ``V(n)*C`` (see :func:`_solve_degree`), so
    the numerators are affine in the slots, and its value is kept beside the
    table.  Between yields the consumer may :meth:`specialise` parameters.
    sigma and mu carry no parameters, so H_k of the specialised family is
    the specialised H_k: the stored table is re-expressed, not recomputed,
    at its next read (the next degree, :meth:`h_table`, ``system``, ``H``).
    A zero V is yielded without assembly.  Each nonzero one is assembled
    once (:meth:`_assemble`), and its denominator is kept as exponents over
    the pass's :class:`EpsBasis`, which every Delta_n refines.
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
        self.max_even_degree = max_even_degree = max_even_degree - max_even_degree % 2
        self.convention = ConventionRecord(
            seed=("(mu*x^2+y^2)/2 with mu = " + str(system.eps_factor)
                  if system.linear_class == PERTURBED_NILPOTENT else "(x^2+y^2)/2"))
        self._slots = tuple(f"V({j})" for j in range(MIN_EVEN_DEGREE, max_even_degree + 1, 2))
        self._values: Dict[str, Tuple[MPoly, dict]] = {}  # slot -> (num, den exponents) of a nonzero V
        self._basis = EpsBasis()
        sigma, mu = _linear_scalars(system)  # parameter-free: specialise only re-embeds them
        self._scalars = (sigma, mu, *accumulate([sigma * mu] * ((max_even_degree + 1) // 2),
                                                MPoly.__mul__, initial=MPoly.const(sigma.vars, 1)))
        self._use(system)
        self._H: Dict[int, MPoly] = {2: _seed(system).embed(self._vars)}
        self._grads: Dict[int, Tuple[MPoly, MPoly]] = {}  # k -> (d/dx, d/dy) of num_k
        self._pending: list = []  # bindings that specialise recorded, not yet applied

    @property
    def system(self) -> PlaneSystem:
        self._apply_pending()
        return self._system

    @property
    def H(self) -> Dict[int, MPoly]:
        self._apply_pending()
        return self._H

    def _use(self, system: PlaneSystem) -> None:
        self._system = system
        vars = self._vars = system.vars + self._slots
        self._sigma, self._mu, *sm = (v.embed(vars) for v in self._scalars)
        self._parts = {d: (p.embed(vars), q.embed(vars))
                       for d, (p, q) in system.nonlinear_parts().items()}
        self._factors = {k: sm[(k + 1) // 2 if k > 2 else 0]
                         for k in range(2, self.max_even_degree + 1)}

    def specialise(self, bindings: Mapping[str, MPoly]) -> None:
        """Substitute ``bindings`` into the family (only its nonlinear parts
        are read again), the stored V numerators and, with one ``subs`` each,
        the table numerators, in which the slot of every V_j that the bindings
        make vanish is set to 0.  sigma, mu and the chain stay; no gcd runs.
        Deferred: recorded here, applied in order at the next read."""
        self._pending.append(bindings)

    def _apply_pending(self) -> None:
        pending, self._pending = self._pending, []
        for bindings in pending:
            self._use(substitute(self._system, bindings))
            values = {v: (num.subs(bindings, self._vars), exps)
                      for v, (num, exps) in self._values.items()}
            self._values = {v: value for v, value in values.items() if value[0]}
            bindings = {**bindings, **{v: 0 for v in values if v not in self._values}}
            self._H = {k: num.subs(bindings, self._vars) for k, num in self._H.items()}
            self._grads = {}

    def h_table(self) -> Dict[int, RatFunc]:
        """The stored H_k, slots set to their V, each reduced over its chain."""
        self._apply_pending()
        chain = MPoly.const(self._vars, 1)
        table = {}
        for k, num in self._H.items():
            chain = chain * self._factors[k]
            table[k] = self._assemble(num, chain)[0]
        return table

    def __iter__(self) -> Iterator[Tuple[int, RatFunc]]:
        for n in range(3, self.max_even_degree + 1):
            self._apply_pending()
            R_num, R_den = self._residual(n)
            A, C, ell, delta = _solve_degree(self._sigma, self._mu, n, R_num, R_den)
            if ell is None:
                V = None
            elif ell:
                V, exps = self._assemble(ell, delta * R_den)
            else:
                V = RatFunc.zero(self._system.vars)
            if V:
                slot = f"V({n})"
                self._values[slot] = (V.num.embed(self._vars), exps)
                A = A + MPoly.variable(slot, self._vars) * C
            self._H[n] = A
            if V is not None:
                yield n, V

    def _assemble(self, p: MPoly, den: MPoly) -> Tuple[RatFunc, dict]:
        """p / den with every slot set to its V, as one RatFunc over the
        system's table, for an eps-only den: for p = p_0 + sum_j p_j*V(j),
        V(j) = num_j/den_j and D the lcm of the den_j, (p_0*D + sum_j
        p_j*num_j*(D/den_j)) / (D*den).  Every denominator is kept as
        exponents over the pass's :class:`EpsBasis`, so D is their maximum,
        each D/den_j a product of basis powers, and the reduction is
        :meth:`EpsBasis.reduce`; no gcd of polynomials runs.  Returns the
        RatFunc and its denominator's exponents over the basis."""
        parts = p.coefficients_in_vars(self._slots)
        if any(sum(k) > 1 for k in parts):
            raise EngineError("a product of V slots reached the H table, which must "
                              "be affine in the constants")
        basis, vars = self._basis, self._vars
        c, exps = basis.factor(den)
        values = {}
        for k in parts:
            if any(k):
                num_j, exps_j = self._values[self._slots[k.index(1)]]
                values[k] = num_j, basis.exponents(exps_j)
        D: Dict[tuple, int] = {}
        for _, exps_j in values.values():
            for b, e in exps_j.items():
                D[b] = max(D.get(b, 0), e)
        total = parts.get((0,) * len(self._slots), MPoly.zero(vars))
        if D:
            total = total * basis.poly(D, vars)
        for k, (num_j, exps_j) in values.items():
            cofactor = basis.poly({b: e - exps_j.get(b, 0) for b, e in D.items()}, vars)
            total = total + parts[k] * (num_j * cofactor)
        for b, e in D.items():
            exps[b] = exps.get(b, 0) + e
        num, exps = basis.reduce(total, exps)
        return RatFunc.coprime((num * (1 / c)).embed(self._system.vars),
                               basis.poly(exps, self._system.vars)), exps

    def _residual(self, n: int) -> Tuple[MPoly, MPoly]:
        """The degree-n part of the Lie derivative of H_2 + ... + H_(n-1)
        along the nonlinear terms, as (numerator, chain f_2*...*f_(n-1)).
        Horner's rule over the chain: acc <- acc*f_k + grad(num_k).(P, Q)_(n+1-k),
        each grad(num_k) kept from its first read to its last (or specialise)."""
        acc = MPoly.zero(self._vars)
        chain = MPoly.const(self._vars, 1)
        for k, num in self._H.items():
            f = self._factors[k]
            acc, chain = acc * f, chain * f
            if n + 1 - k in self._parts:
                pd, qd = self._parts[n + 1 - k]
                grad = self._grads.pop(k, None) or (num.diff("x"), num.diff("y"))
                if n + 1 - k < max(self._parts):  # read again at a later degree
                    self._grads[k] = grad
                acc = acc + grad[0] * pd + grad[1] * qd
        return acc, chain


def verify_backsubstitution(run: DegreePass, constants: Mapping[int, RatFunc]) -> bool:
    """Exact check of the defining identity for a finished ``run`` and the
    constants it yielded (degree -> V): the Lie derivative of the summed H
    equals the combination of (x^2+y^2) powers through the truncation
    degree."""
    vars = run.system.vars
    h_table = run.h_table()
    D = reduce(poly_lcm, (h.den for h in (*h_table.values(), *constants.values())),
               MPoly.const(vars, 1))
    circle = _monomial_xy(vars, 2, 0) + _monomial_xy(vars, 0, 2)
    H_scaled = MPoly.zero(vars)
    for h in h_table.values():
        H_scaled = H_scaled + h.num * D.try_div(h.den)
    residual = lie_derivative(H_scaled, run.system)
    for n, V in constants.items():
        residual = residual - V.num * D.try_div(V.den) * circle ** (n // 2)
    return not any(d <= run.max_even_degree for d in residual.homogeneous_parts())
