"""Sparse multivariate polynomials with exact rational coefficients.

Polynomials carry a fixed, ordered variable table.  Two polynomials can be
combined only when their tables agree; use :func:`merge_tables` /
:meth:`MPoly.embed` to move a polynomial into a larger table first.  The
monomial order is graded lexicographic in the table order, which for system
polynomials is ``x > y > eps > parameters`` (parameters alphabetical).
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd
from operator import add
from typing import Iterable, Mapping, Optional, Sequence, Union

#: Exact scalar type: an arbitrary-precision rational (reduced, positive
#: denominator).
Rat = Fraction
ExactScalar = Rat

Scalar = Union[int, Fraction]

_ZERO = Rat(0)
_ONE = Rat(1)


class EngineError(RuntimeError):
    """Internal fault: an exact computation broke an invariant it relies on,
    such as a division that must be exact or a homological system singular
    beyond the expected one-dimensional obstruction.  Signals an
    implementation problem, not a bad input."""


def _as_rat(c: Scalar):
    return c if type(c) is Rat else Rat(c)


def rat_content(coeffs: Iterable) -> "ExactScalar":
    """gcd of a collection of rationals: gcd of numerators / lcm of denominators."""
    num = 0
    den = 1
    for c in coeffs:
        num = gcd(num, c.numerator)
        d = c.denominator
        den = den * d // gcd(den, d)
    if num == 0:
        return _ZERO
    return Rat(num, den)


def _int_numerators(terms: Mapping[tuple, Fraction]):
    """``([(expo, numerator), ...], den)``: the coefficients as integers over
    ``den``, the lcm of their denominators."""
    den = 1
    for c in terms.values():
        d = c.denominator
        if den % d:
            den = den // gcd(den, d) * d
    return [(e, c.numerator * (den // c.denominator)) for e, c in terms.items()], den


class MPoly:
    """A sparse multivariate polynomial over the rationals.

    ``vars`` is the ordered variable table; ``terms`` maps exponent tuples
    (one entry per table slot) to nonzero rational coefficients.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping[tuple, Scalar]):
        vs = tuple(vars)
        n = len(vs)
        cleaned = {}
        for expo, c in terms.items():
            if len(expo) != n:
                raise ValueError(f"exponent arity {len(expo)} != table size {n}")
            c = _as_rat(c)
            if c:
                cleaned[tuple(expo)] = c
        self.vars = vs
        self.terms = cleaned

    @classmethod
    def _of(cls, vars: tuple, terms: dict) -> "MPoly":
        """A polynomial from parts that are already canonical: a tuple table
        and nonzero ``Rat`` coefficients under tuple exponents of its arity.
        Nothing is checked or copied; use ``MPoly(vars, terms)`` otherwise."""
        out = cls.__new__(cls)
        out.vars = vars
        out.terms = terms
        return out

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "MPoly":
        return cls(vars, {})

    @classmethod
    def const(cls, vars: Sequence[str], c: Scalar) -> "MPoly":
        c = _as_rat(c)
        if not c:
            return cls(vars, {})
        return cls(vars, {(0,) * len(tuple(vars)): c})

    @classmethod
    def variable(cls, name: str, vars: Sequence[str]) -> "MPoly":
        vs = tuple(vars)
        i = vs.index(name)
        expo = [0] * len(vs)
        expo[i] = 1
        return cls(vs, {tuple(expo): _ONE})

    @classmethod
    def monomial(cls, vars: Sequence[str], expo: Sequence[int], c: Scalar = 1) -> "MPoly":
        return cls(vars, {tuple(expo): c})

    # -- predicates and views --------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        """The value of a constant polynomial (0 for the zero polynomial)."""
        if not self.terms:
            return _ZERO
        [(expo, c)] = self.terms.items()
        if any(expo):
            raise ValueError(f"not a constant polynomial: {self}")
        return c

    def degree_in(self, var: str) -> int:
        if not self.terms:
            return -1
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    def degree_in_state(self, state=("x", "y")) -> int:
        """Total degree counting only the listed variables; -1 if zero."""
        if not self.terms:
            return -1
        idx = [self.vars.index(v) for v in state if v in self.vars]
        return max(sum(e[i] for i in idx) for e in self.terms)

    def variables_present(self) -> tuple:
        present = [False] * len(self.vars)
        for e in self.terms:
            for i, p in enumerate(e):
                if p:
                    present[i] = True
        return tuple(v for v, p in zip(self.vars, present) if p)

    def coefficient(self, expo: Sequence[int]):
        return self.terms.get(tuple(expo), _ZERO)

    def __len__(self) -> int:
        return len(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.vars, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "MPoly"):
        if self.vars != other.vars:
            raise ValueError(
                f"variable-table mismatch: {self.vars} vs {other.vars}"
            )

    def _coerce(self, other) -> Optional["MPoly"]:
        if isinstance(other, MPoly):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return MPoly.const(self.vars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, _ZERO) + c
            if s:
                terms[e] = s
            elif e in terms:
                del terms[e]
        return MPoly._of(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._of(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_rat(other)
            return MPoly._of(self.vars, {e: v * c for e, v in self.terms.items()} if c else {})
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        # Integer numerators over each operand's common denominator: the
        # double loop runs on ints and each output coefficient is built once.
        (a, da), (b, db) = _int_numerators(a), _int_numerators(b)
        terms: dict = {}
        get = terms.get
        for ea, ca in a:
            for eb, cb in b:
                e = tuple(map(add, ea, eb))
                s = get(e, 0) + ca * cb
                if s:
                    terms[e] = s
                elif e in terms:
                    del terms[e]
        d = da * db
        return MPoly._of(self.vars, {e: Rat(n, d) for e, n in terms.items()})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"negative power: {k}")
        result = MPoly.const(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def diff(self, var: str) -> "MPoly":
        """Partial derivative with respect to ``var``."""
        i = self.vars.index(var)
        terms = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                terms[tuple(e2)] = c * e[i]
        return MPoly(self.vars, terms)

    # -- substitution and table management --------------------------------

    def embed(self, vars: Sequence[str]) -> "MPoly":
        """Re-express over another table, which must contain every variable
        actually present (unused table slots may be dropped)."""
        vs = tuple(vars)
        n = len(vs)
        posmap = {}
        for i, v in enumerate(self.vars):
            if v in vs:
                posmap[i] = vs.index(v)
        terms = {}
        for e, c in self.terms.items():
            e2 = [0] * n
            for i, k in enumerate(e):
                if k:
                    j = posmap.get(i)
                    if j is None:
                        raise ValueError(
                            f"variable {self.vars[i]} present; cannot re-express over {vs}")
                    e2[j] = k
            terms[tuple(e2)] = c
        return MPoly(vs, terms)

    def subs(self, bindings: Mapping[str, object], vars: Optional[Sequence[str]] = None) -> "MPoly":
        """Substitute values (scalars or MPoly over the target table) for variables.

        ``vars`` is the table of the result; by default the current table
        minus the substituted variables.
        """
        if vars is None:
            vars = tuple(v for v in self.vars if v not in bindings)
        vs = tuple(vars)
        values = {}
        for name, val in bindings.items():
            if name not in self.vars:
                continue
            if isinstance(val, MPoly):
                values[name] = val.embed(vs) if val.vars != vs else val
            else:
                values[name] = MPoly.const(vs, val)
        acc: dict = {}
        pow_cache: dict = {}
        for e, c in self.terms.items():
            term = MPoly.const(vs, c)
            dead = False
            e2 = [0] * len(vs)
            for i, k in enumerate(e):
                if not k:
                    continue
                name = self.vars[i]
                if name in values:
                    key = (name, k)
                    if key not in pow_cache:
                        pow_cache[key] = values[name] ** k
                    term = term * pow_cache[key]
                    if term.is_zero:
                        dead = True
                        break
                else:
                    e2[vs.index(name)] += k
            if dead:
                continue
            if any(e2):
                term = term * MPoly.monomial(vs, e2)
            # the add-or-delete step of __add__, on one accumulator
            for e3, c3 in term.terms.items():
                s = acc.get(e3, _ZERO) + c3
                if s:
                    acc[e3] = s
                elif e3 in acc:
                    del acc[e3]
        return MPoly._of(vs, acc)

    def eval_float(self, point: Mapping[str, float]) -> float:
        total = 0.0
        for e, c in self.terms.items():
            v = float(c)
            for i, k in enumerate(e):
                if k:
                    v *= point[self.vars[i]] ** k
            total += v
        return total

    # -- monomial order ----------------------------------------------------

    @staticmethod
    def _key(expo: tuple):
        return (sum(expo), expo)

    def leading_monomial(self) -> tuple:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=MPoly._key)

    def leading_coefficient(self):
        return self.terms[self.leading_monomial()]

    def sorted_terms(self):
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda t: MPoly._key(t[0]), reverse=True)

    # -- pieces ------------------------------------------------------------

    def homogeneous_part(self, degree: int, state=("x", "y")) -> "MPoly":
        """The part whose total degree in the state variables equals ``degree``."""
        idx = [self.vars.index(v) for v in state if v in self.vars]
        terms = {e: c for e, c in self.terms.items() if sum(e[i] for i in idx) == degree}
        return MPoly(self.vars, terms)

    def coefficients_in(self, var: str) -> dict:
        """View as univariate in ``var``: maps exponent -> MPoly (same table)."""
        i = self.vars.index(var)
        out: dict = {}
        for e, c in self.terms.items():
            k = e[i]
            e2 = list(e)
            e2[i] = 0
            out.setdefault(k, {})[tuple(e2)] = c
        return {k: MPoly._of(self.vars, t) for k, t in out.items()}

    # -- exact division, content, gcd ---------------------------------------

    def try_div(self, divisor: "MPoly") -> Optional["MPoly"]:
        """Exact quotient self/divisor, or None when the division is not exact."""
        self._check(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return MPoly.zero(self.vars)
        if divisor.is_constant:
            c = divisor.constant_value()
            return self * (_ONE / c)
        lm = divisor.leading_monomial()
        lc = divisor.terms[lm]
        tail = [(de, dc) for de, dc in divisor.terms.items() if de != lm]
        rem = dict(self.terms)
        # Max-heap of the remainder's monomials: the graded-lex key negated
        # for heapq, then the monomial itself.  Entries are deleted lazily:
        # one whose monomial has left ``rem`` is skipped when popped.  The
        # order is compatible with multiplication, so every monomial pushed
        # below sorts under the one just popped, and the terms leave in the
        # order of a full rescan of ``rem``.
        heap = [(-sum(e), tuple([-i for i in e]), e) for e in rem]
        heapq.heapify(heap)
        qterms = {}
        while heap:
            e = heapq.heappop(heap)[2]
            c = rem.pop(e, None)
            if c is None:
                continue
            qe = tuple([i - j for i, j in zip(e, lm)])
            if min(qe) < 0:
                return None
            qc = c / lc
            qterms[qe] = qc
            for de, dc in tail:
                te = tuple([i + j for i, j in zip(qe, de)])
                old = rem.get(te)
                if old is None:
                    rem[te] = -(qc * dc)
                    heapq.heappush(heap, (-sum(te), tuple([-i for i in te]), te))
                else:
                    s = old - qc * dc
                    if s:
                        rem[te] = s
                    else:
                        del rem[te]
        return MPoly._of(self.vars, qterms)

    def divides(self, other: "MPoly") -> bool:
        return other.try_div(self) is not None

    def primitive(self) -> "MPoly":
        """Divide out the rational content and fix the leading sign positive."""
        if self.is_zero:
            return self
        cont = rat_content(self.terms.values())
        if self.leading_coefficient() < 0:
            cont = -cont
        return self * (_ONE / cont)

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for e, c in self.sorted_terms():
            factors = []
            for name, k in zip(self.vars, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            neg = c < 0
            mag = -c if neg else c
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = f"{mag}*" + "*".join(factors)
            else:
                body = f"{mag}"
            if not pieces:
                pieces.append(("-" if neg else "") + body)
            else:
                pieces.append((" - " if neg else " + ") + body)
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"MPoly({self})"


def merge_tables(*tables: Sequence[str]) -> tuple:
    """Union of variable tables in canonical order: x, y, eps, then the rest
    alphabetically."""
    names = set()
    for t in tables:
        names.update(t)
    head = [v for v in ("x", "y", "eps") if v in names]
    tail = sorted(names - {"x", "y", "eps"})
    return tuple(head + tail)


def poly_gcd(a: MPoly, b: MPoly) -> MPoly:
    """Greatest common divisor, primitive with positive leading coefficient.

    Univariate pairs use a monic Euclidean sequence; otherwise content
    extraction plus a primitive pseudo-remainder sequence on the first table
    variable present in either argument.
    """
    a._check(b)
    if a.is_zero:
        return b.primitive()
    if b.is_zero:
        return a.primitive()
    if a.is_constant or b.is_constant:
        return MPoly.const(a.vars, 1)
    present = set(a.variables_present()) | set(b.variables_present())
    if len(present) == 1:
        return _univariate_gcd(a, b, next(iter(present)))
    var = next(v for v in a.vars if v in present)
    if a.degree_in(var) == 0 or b.degree_in(var) == 0:
        # One argument is free of the main variable: the gcd divides the
        # content of the other with respect to it.
        free, full = (a, b) if a.degree_in(var) == 0 else (b, a)
        cont = _coeff_gcd(list(full.coefficients_in(var).values()))
        return poly_gcd(free, cont)
    ca, pa = _content_primitive(a, var)
    cb, pb = _content_primitive(b, var)
    cg = poly_gcd(ca, cb)
    g = _primitive_prs(pa, pb, var)
    return (cg * g).primitive()


def _coeff_gcd(polys) -> MPoly:
    g = polys[0]
    for p in polys[1:]:
        if g.is_constant and not g.is_zero:
            break
        g = poly_gcd(g, p)
    return g


def _content_primitive(p: MPoly, var: str):
    coeffs = list(p.coefficients_in(var).values())
    cont = _coeff_gcd(coeffs)
    if cont.is_constant:
        cont = MPoly.const(p.vars, 1)
        return cont, p.primitive()
    pp = p.try_div(cont)
    if pp is None:
        raise EngineError(f"content in {var} does not divide the polynomial exactly")
    return cont, pp.primitive()


def _univariate_gcd(a: MPoly, b: MPoly, var: str) -> MPoly:
    """Monic Euclidean gcd for polynomials in a single variable."""
    i = a.vars.index(var)

    def as_dict(p):
        return {e[i]: c for e, c in p.terms.items()}

    fa, fb = as_dict(a), as_dict(b)
    while fb:
        da = max(fa) if fa else -1
        db = max(fb)
        if da < db:
            fa, fb = fb, fa
            continue
        lead = fb[db]
        if lead != 1:
            fb = {k: c / lead for k, c in fb.items()}
        while fa and max(fa) >= db:
            dr = max(fa)
            f = fa.pop(dr)
            for k, c in fb.items():
                if k == db:
                    continue
                key = k + dr - db
                s = fa.get(key, _ZERO) - f * c
                if s:
                    fa[key] = s
                elif key in fa:
                    del fa[key]
        fa, fb = fb, fa
    n = len(a.vars)
    g = MPoly(a.vars, {tuple(k if j == i else 0 for j in range(n)): c for k, c in fa.items()})
    return g.primitive()


def _primitive_prs(a: MPoly, b: MPoly, var: str) -> MPoly:
    """gcd of two primitive polynomials via a primitive pseudo-remainder chain."""
    if a.degree_in(var) < b.degree_in(var):
        a, b = b, a
    while True:
        r = _pseudo_rem(a, b, var)
        if r.is_zero:
            return b.primitive()
        if r.degree_in(var) <= 0:
            return MPoly.const(a.vars, 1)
        _, r = _content_primitive(r, var)
        a, b = b, r


def _pseudo_rem(a: MPoly, b: MPoly, var: str) -> MPoly:
    """Pseudo-remainder of a by b with respect to ``var``, up to a rational
    factor (the rational content is stripped each step to limit growth; only
    similarity classes matter inside the gcd chain)."""
    da, db = a.degree_in(var), b.degree_in(var)
    if da < db:
        return a
    i = a.vars.index(var)
    b_coeffs = b.coefficients_in(var)
    lc_b = b_coeffs[db]
    r = a
    while not r.is_zero and r.degree_in(var) >= db:
        dr = r.degree_in(var)
        r_coeffs = r.coefficients_in(var)
        lc_r = r_coeffs[dr]
        shift = MPoly.monomial(a.vars, tuple(dr - db if j == i else 0 for j in range(len(a.vars))))
        r = r * lc_b - b * (lc_r * shift)
        if r and len(r) > 8:
            c = rat_content(r.terms.values())
            if c != 1:
                r = r * (_ONE / c)
    return r


def poly_lcm(a: MPoly, b: MPoly) -> MPoly:
    if a.is_zero or b.is_zero:
        return MPoly.zero(a.vars)
    g = poly_gcd(a, b)
    q = a.try_div(g)
    if q is None:
        raise EngineError("lcm: the gcd does not divide its argument exactly")
    return (q * b).primitive()
