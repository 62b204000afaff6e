"""Sparse multivariate polynomials with exact rational coefficients.

Polynomials carry a fixed, ordered variable table.  Two polynomials can be
combined only when their tables agree; use :func:`merge_tables` /
:meth:`MPoly.embed` to move a polynomial into a larger table first.  The
monomial order is graded lexicographic in the table order, which for system
polynomials is ``x > y > eps > parameters`` (parameters alphabetical).

A polynomial is stored as one positive rational content times a primitive
integer polynomial: integer coefficients whose gcd is 1 and which carry the
signs; zero has no terms.  The form is fixed when a polynomial is built and
kept by every operation, so the kernels run on integers and never build a
``Fraction``.  By Gauss's lemma a product of primitive polynomials is
primitive, so a product multiplies the contents and needs no gcd, and an
exact quotient of primitive polynomials is integral.

Each monomial is one non-negative ``int`` key (packed exponent vectors, after
Monagan and Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007).  For a table of ``n`` variables the key
has ``n + 1`` fields of 16 bits: the total degree in the top field, then one
field per variable in table order.  Integer order of keys is therefore
graded-lex order, and a product of monomials is one integer ``+``.  The top
bit of each variable field is a guard bit: it is clear in every valid key, so
a key difference ``e - l`` has ``l`` dividing ``e`` exactly when it is
non-negative with no guard bit set (a borrow out of a field sets that field's
guard bit).  Every exponent and every total degree stays below ``2**15``; a
product whose degrees reach that limit raises :class:`EngineError` instead of
wrapping into the next field.  One check per product of ``deg a + deg b``
suffices, because no field exceeds its key's total degree.  A one-term
operand has integer coefficient +-1 (its term dict is primitive), so a
product by it is a key shift: each key of the other operand plus one key,
with the signs flipped for -1, and no term can cancel.  The layout of each
table length, with every field's shift and mask, is built once, as is the
plan that moves keys between two tables (:meth:`MPoly.embed`,
:meth:`MPoly.subs`), held in a bounded cache.

Exponent tuples and ``Rat`` appear only at the public edge: the
``MPoly(vars, terms)`` constructor, :meth:`MPoly.monomial`,
:meth:`MPoly.coefficient`, :meth:`MPoly.leading_monomial`,
:meth:`MPoly.integer_terms`, :meth:`MPoly.integer_terms_in`,
:meth:`MPoly.exponents_in` and the read-only :attr:`MPoly.terms` view, plus
the ``Rat`` accessors :meth:`MPoly.constant_value`,
:meth:`MPoly.leading_coefficient`, :meth:`MPoly.content` and
:meth:`MPoly.coefficient_list`.  :meth:`MPoly.integer_terms` lists each term
with its coefficient as an integer pair, in print order; it is the edge that
printing (:meth:`MPoly.render`, :func:`render_terms`) and the report writer
read.  :meth:`MPoly.integer_terms_in` lists the terms of a polynomial in a
few variables alone (the float right-hand sides of :mod:`centerlab.numeric`)
and :meth:`MPoly.exponents_in` the exponents of some variables that occur
(quasi-homogeneity detection), both straight from the keys.  No other module
reads exponent tuples by table position: the rest group terms through
:meth:`MPoly.coefficients_in` and
:meth:`MPoly.coefficients_in_vars`, map rows of terms by running sums with
:meth:`MPoly.prefix_sums` or take dense univariate lists from
:meth:`MPoly.coefficient_list` (``Rat``) or
:meth:`MPoly.integer_coefficients` (the integer part, which
:meth:`MPoly.univariate` builds back).  Dense univariate work (real roots,
univariate gcds) belongs to :mod:`centerlab.realroots`, which imports
nothing from the package.
"""

from __future__ import annotations

import heapq
import struct
from collections import defaultdict
from collections.abc import ItemsView, Mapping, ValuesView
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm
from operator import mul, or_
from typing import Iterable, Optional, Sequence, Union

from .realroots import univariate_gcd

#: Exact scalar type: an arbitrary-precision rational (reduced, positive
#: denominator).
Rat = Fraction
ExactScalar = Rat

Scalar = Union[int, Fraction]

_ZERO = Rat(0)
_ONE = Rat(1)

# 16-bit key fields, read and written with struct's "H"; the top bit of each
# variable field is its guard bit, so exponents and degrees stay below _CAP
_W = 16
_CAP = 1 << (_W - 1)
_MASK = (1 << _W) - 1
#: the highest total degree a packed key holds
MAX_DEGREE = _CAP - 1


class EngineError(RuntimeError):
    """Internal fault: an exact computation broke an invariant it relies on,
    such as a division that must be exact or a homological system singular
    beyond the expected one-dimensional obstruction.  Signals an
    implementation problem, not a bad input."""


class _Keys:
    """The packed-key layout for tables of ``n`` variables."""

    __slots__ = ("n", "top", "guard", "shifts", "masks", "_fields", "_slots", "_size")

    def __init__(self, n: int):
        self.n = n
        self.top = _W * n  # shift of the total-degree field
        self.guard = int.from_bytes(b"\x80\x00" * n, "big")
        # per table slot: the shift and the mask of its field
        self.shifts = tuple(_W * (n - 1 - i) for i in range(n))
        self.masks = tuple(_MASK << s for s in self.shifts)
        self._fields = struct.Struct(f">{n + 1}H")
        self._slots = struct.Struct(f">{n}H")
        self._size = 2 * (n + 1)

    def var(self, i: int, k: int) -> int:
        """Key of the ``k``-th power of the variable in slot ``i`` (for a
        negative ``k``, the amount to add to divide a key by ``var^-k``)."""
        return (k << self.shifts[i]) + (k << self.top)

    def pack(self, expo) -> int:
        """Key of an exponent tuple; ValueError unless it holds ``n``
        non-negative integers of total degree below the limit."""
        if len(expo) != self.n:
            raise ValueError(f"exponent arity {len(expo)} != table size {self.n}")
        for k in expo:
            if type(k) is not int or k < 0:
                raise ValueError(f"exponents must be non-negative integers: {tuple(expo)}")
        d = sum(expo)
        if d >= _CAP:
            raise ValueError(f"total degree {d} of {tuple(expo)} reaches the limit {_CAP}")
        return int.from_bytes(self._fields.pack(d, *expo), "big")

    def find(self, expo) -> Optional[int]:
        """Key to look an exponent tuple up with; None when it packs to no
        key (such a tuple is the exponent of no term)."""
        try:
            return int.from_bytes(self._fields.pack(sum(expo), *expo), "big")
        except (struct.error, TypeError):
            return None

    def unpack(self, key: int) -> tuple:
        return self._slots.unpack_from(key.to_bytes(self._size, "big"), 2)


# one layout per table length in use
_keys = lru_cache(maxsize=None)(_Keys)


@lru_cache(maxsize=256)
def _plan(old: tuple, new: tuple, skip: frozenset) -> tuple:
    """How keys over table ``old`` become keys over ``new``, for every
    polynomial: the shift of the degree field in each, (mask, left shift)
    and (mask, right shift) groups that move each variable of ``old`` not in
    ``skip`` to its slot in ``new``, and (name, field mask) for each such
    variable that ``new`` lacks."""
    ko, kn = _keys(len(old)), _keys(len(new))
    pos = {v: j for j, v in enumerate(new)}
    groups: dict = {}
    missing = []
    for v, s, m in zip(old, ko.shifts, ko.masks):
        if v in skip:
            continue
        j = pos.get(v)
        if j is None:
            missing.append((v, m))
            continue
        d = kn.shifts[j] - s
        groups[d] = groups.get(d, 0) | m
    left = tuple((m, d) for d, m in groups.items() if d >= 0)
    right = tuple((m, -d) for d, m in groups.items() if d < 0)
    return ko.top, kn.top, left, right, tuple(missing)


def _degree_limit(d: int):
    raise EngineError(f"monomial degree {d} reaches the packed-key limit {_CAP}")


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


def _ratio_mul(n1: int, d1: int, n2: int, d2: int):
    """(n1/d1) * (n2/d2) in lowest terms, for two fractions in lowest terms."""
    if d1 == d2 == 1:
        return n1 * n2, 1
    g1 = gcd(n1, d2)
    g2 = gcd(n2, d1)
    return (n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1)


def _mul_ints(a: dict, b: dict, top: int) -> dict:
    """Product of two nonzero integer term dicts whose keys carry the total
    degree from bit ``top`` up; smaller operand outside."""
    d = (max(a) >> top) + (max(b) >> top)
    if d >= _CAP:
        _degree_limit(d)
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        # a key shift: distinct keys stay distinct, so nothing cancels
        [(ea, ca)] = a.items()
        return {ea + eb: ca * cb for eb, cb in b.items()}
    inner = list(b.items())
    terms: dict = {}
    get = terms.get
    for ea, ca in a.items():
        for eb, cb in inner:
            e = ea + eb
            s = get(e, 0) + ca * cb
            if s:
                terms[e] = s
            elif e in terms:
                del terms[e]
    return terms


class _Terms(Mapping):
    """Read-only view of a polynomial's terms: exponent tuple -> ``Rat``,
    in the polynomial's term order; each tuple and coefficient is built
    when read."""

    __slots__ = ("_num", "_den", "_ints", "_keys")

    def __init__(self, p: "MPoly"):
        self._num, self._den, self._ints = p._num, p._den, p._ints
        self._keys = _keys(len(p.vars))

    def __getitem__(self, expo):
        n = self._ints.get(self._keys.find(expo))
        if n is None:
            raise KeyError(expo)
        return Rat(self._num * n, self._den)

    def __iter__(self):
        return map(self._keys.unpack, self._ints)

    def __len__(self):
        return len(self._ints)

    def __contains__(self, expo):
        return self._keys.find(expo) in self._ints

    def items(self):
        return _TermItems(self)

    def values(self):
        return _TermValues(self)


class _TermItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        t = self._mapping
        unpack, num, den = t._keys.unpack, t._num, t._den
        for e, n in t._ints.items():
            yield unpack(e), Rat(num * n, den)


class _TermValues(ValuesView):
    __slots__ = ()

    def __iter__(self):
        t = self._mapping
        num, den = t._num, t._den
        for n in t._ints.values():
            yield Rat(num * n, den)


class MPoly:
    """A sparse multivariate polynomial over the rationals.

    ``vars`` is the ordered variable table.  The value is the content
    ``_num/_den`` (positive, in lowest terms, 1 for zero) times ``_ints``,
    which maps packed monomial keys (see the module docstring) to nonzero
    integers whose gcd is 1.  Only this module reads or writes these
    attributes or the key layout; a term dict is never changed after
    construction, so polynomials may share one.
    """

    __slots__ = ("vars", "_num", "_den", "_ints")

    def __init__(self, vars: Sequence[str], terms: Mapping[tuple, Scalar]):
        vs = tuple(vars)
        pack = _keys(len(vs)).pack
        cleaned = {}
        for expo, c in terms.items():
            key = pack(expo)
            if type(c) is not int and type(c) is not Rat:
                c = Rat(c)
            if c:
                cleaned[key] = c
        self.vars = vs
        if not cleaned:
            self._num = self._den = 1
            self._ints = cleaned
            return
        content = rat_content(cleaned.values())
        num, den = content.numerator, content.denominator
        self._num, self._den = num, den
        self._ints = {e: c.numerator // num * (den // c.denominator)
                      for e, c in cleaned.items()}

    @classmethod
    def _of(cls, vars: tuple, num: int, den: int, ints: dict) -> "MPoly":
        """A polynomial from parts that are already canonical: a tuple table,
        a positive content num/den in lowest terms (1 when ``ints`` is empty)
        and a primitive integer term dict.  Nothing is checked or copied."""
        out = cls.__new__(cls)
        out.vars = vars
        out._num = num
        out._den = den
        out._ints = ints
        return out

    @classmethod
    def _reduced(cls, vars: tuple, num: int, den: int, ints: dict) -> "MPoly":
        """Like :meth:`_of` for a positive content not yet in lowest terms and
        integer terms whose gcd may exceed 1: that gcd moves into the content."""
        if not ints:
            return cls._of(vars, 1, 1, ints)
        g = gcd(*ints.values())
        if g != 1:
            ints = {e: c // g for e, c in ints.items()}
            num *= g
        h = gcd(num, den)
        if h != 1:
            num //= h
            den //= h
        return cls._of(vars, num, den, ints)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "MPoly":
        return cls._of(tuple(vars), 1, 1, {})

    @classmethod
    def const(cls, vars: Sequence[str], c: Scalar) -> "MPoly":
        vs = tuple(vars)
        c = _as_rat(c)
        if not c:
            return cls._of(vs, 1, 1, {})
        n = c.numerator
        return cls._of(vs, abs(n), c.denominator, {0: 1 if n > 0 else -1})

    @classmethod
    def variable(cls, name: str, vars: Sequence[str]) -> "MPoly":
        vs = tuple(vars)
        return cls._of(vs, 1, 1, {_keys(len(vs)).var(vs.index(name), 1): 1})

    @classmethod
    def monomial(cls, vars: Sequence[str], expo: Sequence[int], c: Scalar = 1) -> "MPoly":
        return cls(vars, {tuple(expo): c})

    @classmethod
    def univariate(cls, vars: Sequence[str], var: str, coeffs: Sequence[int]) -> "MPoly":
        """sum_k coeffs[k]*var^k over ``vars``, for integer ``coeffs``: the
        inverse of :meth:`integer_coefficients` up to the content."""
        vs = tuple(vars)
        if len(coeffs) > _CAP:
            _degree_limit(len(coeffs) - 1)
        ks, i = _keys(len(vs)), vs.index(var)
        return cls._reduced(vs, 1, 1, {ks.var(i, k): c for k, c in enumerate(coeffs) if c})

    @classmethod
    def from_coefficients(cls, vars: Sequence[str], names: Sequence[str],
                          coeffs: Mapping[tuple, "MPoly"]) -> "MPoly":
        """Inverse of :meth:`coefficients_in_vars`: the sum of ``coeffs[k]``
        times the monomial with exponents ``k`` in ``names``.  Each
        coefficient must be free of ``names``, so the parts do not overlap
        and their sum needs no gcd."""
        vs = tuple(vars)
        ks = _keys(len(vs))
        shifts = [ks.shifts[vs.index(v)] for v in names]
        parts = [(k, c) for k, c in coeffs.items() if c._ints]
        if not parts:
            return cls._of(vs, 1, 1, {})
        # the gcd of the contents; each content is an integer multiple of it
        num, den = 0, 1
        for _, c in parts:
            num = gcd(num, c._num)
            den = den // gcd(den, c._den) * c._den
        ints = {}
        for k, c in parts:
            if any(type(p) is not int or p < 0 for p in k):
                raise ValueError(f"exponents must be non-negative integers: {k}")
            d = sum(k) + (max(c._ints) >> ks.top)
            if d >= _CAP:
                _degree_limit(d)
            step = sum(p << s for p, s in zip(k, shifts)) + (sum(k) << ks.top)
            f = c._num // num * (den // c._den)
            for e, v in c._ints.items():
                ints[e + step] = f * v
        return cls._of(vs, num, den, ints)

    # -- predicates and views --------------------------------------------

    @property
    def terms(self) -> _Terms:
        """Read-only view of the terms: exponent tuple -> nonzero ``Rat``."""
        return _Terms(self)

    @property
    def is_zero(self) -> bool:
        return not self._ints

    @property
    def is_constant(self) -> bool:
        # the constant monomial is the only key 0
        return not any(self._ints)

    def content(self):
        """The positive rational gcd of the coefficients (0 for zero)."""
        return Rat(self._num, self._den) if self._ints else _ZERO

    def constant_value(self):
        """The value of a constant polynomial (0 for the zero polynomial)."""
        if not self._ints:
            return _ZERO
        [(key, c)] = self._ints.items()
        if key:
            raise ValueError(f"not a constant polynomial: {self}")
        return Rat(self._num * c, self._den)

    def _field(self, var: str) -> tuple:
        """The mask and the shift of ``var``'s key field."""
        ks, i = _keys(len(self.vars)), self.vars.index(var)
        return ks.masks[i], ks.shifts[i]

    def degree_in(self, var: str) -> int:
        if not self._ints:
            return -1
        m, s = self._field(var)
        return max(map(m.__and__, self._ints)) >> s

    def lowest_degree_in(self, var: str) -> int:
        """The least exponent of ``var`` over the terms; -1 if zero."""
        if not self._ints:
            return -1
        m, s = self._field(var)
        return min(map(m.__and__, self._ints)) >> s

    def variables_present(self) -> tuple:
        seen = reduce(or_, self._ints, 0)
        return tuple(v for v, m in zip(self.vars, _keys(len(self.vars)).masks) if seen & m)

    def coefficient(self, expo: Sequence[int]):
        n = self._ints.get(_keys(len(self.vars)).find(expo))
        return Rat(self._num * n, self._den) if n else _ZERO

    def __len__(self) -> int:
        return len(self._ints)

    def __bool__(self) -> bool:
        return bool(self._ints)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_constant and self.constant_value() == other
        if not isinstance(other, MPoly):
            return NotImplemented
        return (self.vars == other.vars and self._num == other._num
                and self._den == other._den and self._ints == other._ints)

    def __hash__(self):
        # a constant equals its value as a number, so it hashes like it
        if self.is_constant:
            return hash(self.constant_value())
        return hash((self.vars, self._num, self._den, frozenset(self._ints.items())))

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

    def _plus(self, other: "MPoly", sign: int) -> "MPoly":
        """self + sign*other for sign = 1 or -1."""
        a, b = self._ints, other._ints
        if not b:
            return self
        if not a:
            return other if sign > 0 else -other
        # both contents are integer multiples fa, fb of their gcd num/den
        na, da, nb, db = self._num, self._den, other._num, other._den
        num = gcd(na, nb)
        den = da // gcd(da, db) * db
        fa = na // num * (den // da)
        fb = sign * (nb // num) * (den // db)
        terms = dict(a) if fa == 1 else {e: fa * c for e, c in a.items()}
        get = terms.get
        for e, c in b.items():
            s = get(e, 0) + fb * c
            if s:
                terms[e] = s
            elif e in terms:
                del terms[e]
        return MPoly._reduced(self.vars, num, den, terms)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._of(self.vars, self._num, self._den,
                         {e: -c for e, c in self._ints.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, MPoly):
            self._check(other)
            if not self._ints or not other._ints:
                return MPoly._of(self.vars, 1, 1, {})
            # Gauss's lemma: the integer product is primitive again
            return MPoly._of(self.vars, *_ratio_mul(self._num, self._den, other._num, other._den),
                             _mul_ints(self._ints, other._ints, _W * len(self.vars)))
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        n = other.numerator
        if not n or not self._ints:
            return MPoly._of(self.vars, 1, 1, {})
        # a scalar changes only the content, and the signs when negative
        ints = self._ints
        if n < 0:
            n = -n
            ints = {e: -c for e, c in ints.items()}
        return MPoly._of(self.vars, *_ratio_mul(self._num, self._den, n, other.denominator),
                         ints)

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
        ks = _keys(len(self.vars))
        i = self.vars.index(var)
        s, step = ks.shifts[i], ks.var(i, 1)
        ints = {}
        for e, c in self._ints.items():
            k = (e >> s) & _MASK
            if k:
                ints[e - step] = c * k
        return MPoly._reduced(self.vars, self._num, self._den, ints)

    # -- substitution and table management --------------------------------

    def embed(self, vars: Sequence[str]) -> "MPoly":
        """Re-express over another table, which must contain every variable
        actually present (unused table slots may be dropped)."""
        vs = tuple(vars)
        if vs == self.vars:
            return self
        top, top2, left, right, missing = _plan(self.vars, vs, frozenset())
        seen = reduce(or_, self._ints, 0)
        for name, m in missing:
            if seen & m:
                raise ValueError(f"variable {name} present; cannot re-express over {vs}")
        ints = {}
        for e, c in self._ints.items():
            k = (e >> top) << top2
            for m, d in left:
                k |= (e & m) << d
            for m, d in right:
                k |= (e & m) >> d
            ints[k] = c
        return MPoly._of(vs, self._num, self._den, ints)

    def shift(self, var: str, k: int) -> "MPoly":
        """``self * var^k``; a negative ``k`` divides by ``var^-k``, which
        must divide every term."""
        i = self.vars.index(var)
        if k < 0 and self.lowest_degree_in(var) < -k:
            raise ValueError(f"{var}^{-k} does not divide {self}")
        ks = _keys(len(self.vars))
        if k > 0 and self._ints:
            d = (max(self._ints) >> ks.top) + k
            if d >= _CAP:
                _degree_limit(d)
        step = ks.var(i, k)
        return MPoly._of(self.vars, self._num, self._den,
                         {e + step: c for e, c in self._ints.items()})

    def subs(self, bindings: Mapping[str, object], vars: Optional[Sequence[str]] = None) -> "MPoly":
        """Substitute values (scalars or MPoly over the target table) for variables.

        ``vars`` is the table of the result; by default the current table
        minus the substituted variables.
        """
        if vars is None:
            vars = tuple(v for v in self.vars if v not in bindings)
        vs = tuple(vars)
        old = _keys(len(self.vars))
        seen = reduce(or_, self._ints, 0)
        # A value c*A (A primitive) to the power k is c^k * A^k, with A^k
        # primitive.  Every term is brought over den = prod(c_den^h), h the
        # highest exponent of the slot, so a term scales by the integer
        # prod(c_num^k) * den / prod(c_den^k).  ``subst`` holds (slot, value
        # over vs) for each substituted slot present in self, in table order.
        den = 1
        subst = []
        for i, name in enumerate(self.vars):
            if name in bindings:
                val = bindings[name]
                if not isinstance(val, MPoly):
                    val = MPoly.const(vs, val)
                elif val.vars != vs:
                    val = val.embed(vs)
                m = old.masks[i]
                if seen & m:
                    if val._den != 1:
                        den *= val._den ** (max(map(m.__and__, self._ints)) >> old.shifts[i])
                    subst.append((i, val))
        top_old, top, left, right, missing = _plan(self.vars, vs, frozenset(bindings))
        # only a variable present can make a term refuse the target table
        missing = [(name, m) for name, m in missing if seen & m]
        smask = sum(old.masks[i] for i, _ in subst)
        powers: dict = {}
        # per substituted part of a key: the product of the values' primitive
        # powers ({} when a value is zero), the integer the term scales by,
        # and the degree the substituted variables took out of the key
        combos: dict = {}
        acc: dict = {}
        get = acc.get
        for e, n in self._ints.items():
            part = e & smask
            combo = combos.get(part)
            if combo is None:
                expo = old.unpack(e)
                t = None
                f = dk = 1
                dropped = 0
                for i, val in subst:
                    k = expo[i]
                    if not k:
                        continue
                    dropped += k
                    key = (i, k)
                    pw = powers.get(key)
                    if pw is None:
                        pw = powers[key] = ((val ** k)._ints, val._num ** k, val._den ** k)
                    if not pw[0]:
                        t = {}
                        break
                    t = pw[0] if t is None else _mul_ints(t, pw[0], top)
                    f *= pw[1]
                    dk *= pw[2]
                if t is None:
                    t = {0: 1}
                combo = combos[part] = (t, f * (den // dk), dropped)
            t, f, dropped = combo
            if not t:
                continue
            for name, m in missing:
                if e & m:
                    raise ValueError(f"variable {name} present; not in {vs}")
            n *= f
            # the kept variables of the term, moved to their slots in vs
            shift = ((e >> top_old) - dropped) << top
            for m, d in left:
                shift |= (e & m) << d
            for m, d in right:
                shift |= (e & m) >> d
            # the add-or-delete step of __add__, on one accumulator
            for e3, c3 in t.items():
                e3 += shift
                v = get(e3, 0) + n * c3
                if v:
                    acc[e3] = v
                elif e3 in acc:
                    del acc[e3]
        if acc:
            d = max(acc) >> top
            if d >= _CAP:
                _degree_limit(d)
        return MPoly._reduced(vs, self._num, self._den * den, acc)

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

    def leading_monomial(self) -> tuple:
        if not self._ints:
            raise ValueError("zero polynomial has no leading monomial")
        return _keys(len(self.vars)).unpack(max(self._ints))

    def leading_coefficient(self):
        return Rat(self._num * self._ints[max(self._ints)], self._den)

    def integer_terms(self) -> list:
        """Each term as ``(exponents, num, den)`` in descending graded-lex
        order: the coefficient is ``num/den`` in lowest terms with
        ``den > 0``.  Builds no ``Fraction``."""
        num, den = self._num, self._den
        unpack = _keys(len(self.vars)).unpack
        # the content num/den is in lowest terms, so gcd(num*n, den) = gcd(n, den)
        return [(unpack(e), n // (g := gcd(n, den)) * num, den // g)
                for e, n in sorted(self._ints.items(), reverse=True)]

    def integer_terms_in(self, names: Sequence[str]) -> list:
        """:meth:`integer_terms` of a polynomial in ``names`` alone, each
        exponent tuple cut to ``names`` (one entry per name), in descending
        graded-lex order of those tuples; ValueError when another variable
        is present."""
        ks = _keys(len(self.vars))
        idx = [self.vars.index(v) for v in names]
        mask = sum(ks.masks[i] for i in idx)
        if reduce(or_, self._ints, 0) & (sum(ks.masks) - mask):
            raise ValueError(f"variables other than {tuple(names)} present")
        num, den = self._num, self._den
        out = []
        for e, n in self._ints.items():
            expo = ks.unpack(e)
            g = gcd(n, den)
            out.append((tuple([expo[i] for i in idx]), n // g * num, den // g))
        out.sort(key=lambda t: (sum(t[0]), t[0]), reverse=True)
        return out

    def exponents_in(self, names: Sequence[str]) -> set:
        """The exponent tuples of ``names`` (one entry per name) that the
        terms have, read from the keys alone."""
        ks = _keys(len(self.vars))
        idx = [self.vars.index(v) for v in names]
        mask = sum(ks.masks[i] for i in idx)
        return {tuple([expo[i] for i in idx])
                for expo in map(ks.unpack, {e & mask for e in self._ints})}

    # -- pieces ------------------------------------------------------------

    def homogeneous_parts(self, state=("x", "y")) -> dict:
        """Maps each total degree in the state variables, ascending, to the
        nonzero part of that degree; one pass over the terms."""
        ks = _keys(len(self.vars))
        fields = [(m, s) for v, m, s in zip(self.vars, ks.masks, ks.shifts) if v in state]
        split: dict = {}
        for e, c in self._ints.items():
            d = 0
            for m, s in fields:
                d += (e & m) >> s
            t = split.get(d)
            if t is None:
                t = split[d] = {}
            t[e] = c
        return {d: MPoly._reduced(self.vars, self._num, self._den, split[d])
                for d in sorted(split)}

    def coefficients_in(self, var: str) -> dict:
        """View as univariate in ``var``: maps exponent -> MPoly (same table)."""
        return {k: c for (k,), c in self.coefficients_in_vars((var,)).items()}

    def coefficients_in_vars(self, names: Sequence[str]) -> dict:
        """Group the terms by their exponents of ``names``: maps each exponent
        tuple (one entry per name) to its coefficient, a polynomial free of
        ``names`` over the same table."""
        ks = _keys(len(self.vars))
        idx = [self.vars.index(v) for v in names]
        mask = sum(ks.masks[i] for i in idx)
        # per part of a key in names: (its exponents of names, the terms
        # with that part, the amount that takes the part out of a key)
        groups: dict = {}
        for e, c in self._ints.items():
            part = e & mask
            g = groups.get(part)
            if g is None:
                expo = ks.unpack(part)
                k = tuple([expo[i] for i in idx])
                g = groups[part] = (k, {}, part + (sum(k) << ks.top))
            g[1][e - g[2]] = c
        return {k: MPoly._reduced(self.vars, self._num, self._den, t)
                for k, t, _ in groups.values()}

    def prefix_sums(self, names: Sequence[str], var: str, sweeps, scales) -> tuple:
        """Running sums over rows (exponents in ``names``): each sweep's steps
        ``(source, target)`` run in order on a sum ``S`` from 0; source ``(row,
        w, e)`` adds ``w*var^e`` times the coefficient of ``names^row`` to
        ``S``, then target ``(row, w, e, i)`` adds ``w*var^e*names^row*S`` to
        output ``i``, times ``num/den = scales[i]`` at the end.  Integer
        weights, exponents >= 0, rows distinct among the sources and among
        an output's targets; ValueError when no source reads a row."""
        ks = _keys(len(self.vars))
        idx = [self.vars.index(v) for v in names]
        # keys of the first powers: the key of names^row * var^e is linear
        units, unit = [ks.var(i, 1) for i in idx], ks.var(self.vars.index(var), 1)
        mask = sum(ks.masks[i] for i in idx)
        rows = defaultdict(list)
        for e, c in self._ints.items():
            rows[e & mask].append((e, c))
        outs = [{} for _ in scales]
        for sweep in sweeps:
            S: dict = {}
            get = S.get
            for (row, w, e), (trow, tw, te, i) in sweep:
                part = sum(map(mul, row, units))
                step = e * unit - part
                for k, c in rows.pop(part & mask, ()):
                    k += step
                    s = get(k, 0) + w * c
                    if s:
                        S[k] = s
                    elif k in S:
                        del S[k]
                if S:
                    tkey = sum(map(mul, trow, units)) + te * unit
                    outs[i].update(zip(map(tkey.__add__, S), map(tw.__mul__, S.values())))
        if rows:
            raise ValueError(f"terms outside the source rows in {tuple(names)}")
        d = max((max(out) >> ks.top for out in outs if out), default=0)
        if d >= _CAP:
            _degree_limit(d)
        return tuple(MPoly._reduced(self.vars, self._num * num, self._den * den, out)
                     for out, (num, den) in zip(outs, scales))

    def coefficient_list(self, var: str, at: Optional[Mapping[str, Scalar]] = None) -> list:
        """The coefficients in ``var`` as ``Rat`` (index = power, no trailing
        zeros), with each variable of ``at`` set to its number; ValueError
        when any other variable is present."""
        at = at or {}
        seen = reduce(or_, self._ints, 0)
        for v, m in zip(self.vars, _keys(len(self.vars)).masks):
            if v != var and v not in at and seen & m:
                raise ValueError(f"variable {v} present; not {var} or set in {sorted(at)}")
        # every term is brought over den = prod(d^h), h the highest exponent
        # of the slot, so a^k = n^k * d^(h-k) / den with an integer numerator
        den = 1
        slots = []
        for v, a in at.items():
            a = _as_rat(a)
            m, s = self._field(v)
            h = max(map(m.__and__, self._ints), default=0) >> s
            den *= a.denominator ** h
            slots.append((s, a.numerator, a.denominator, h))
        _, s = self._field(var)
        sums: dict = {}
        for e, n in self._ints.items():
            for t, an, ad, h in slots:
                k = (e >> t) & _MASK
                n *= an ** k * ad ** (h - k)
            k = (e >> s) & _MASK
            sums[k] = sums.get(k, 0) + n
        top = max((k for k, n in sums.items() if n), default=-1)
        return [Rat(self._num * sums.get(k, 0), self._den * den) for k in range(top + 1)]

    def integer_coefficients(self, var: str) -> list:
        """The coefficients in ``var`` of the primitive integer part (index =
        power, no trailing zeros): :meth:`coefficient_list` over the positive
        content, with no ``Fraction`` built; ValueError when another variable
        is present."""
        ks = _keys(len(self.vars))
        m, s = self._field(var)
        if reduce(or_, self._ints, 0) & (sum(ks.masks) - m):
            raise ValueError(f"variables other than {var} present")
        out = [0] * (self.degree_in(var) + 1)
        for e, c in self._ints.items():
            out[(e & m) >> s] = c
        return out

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
        # Both integer parts are primitive, so an exact quotient of them is
        # an integer polynomial (Gauss's lemma): a coefficient that does not
        # divide exactly already means the division is not exact.
        ints = divisor._ints
        lm = max(ints)
        lc = ints[lm]
        tail = [(de, dc) for de, dc in ints.items() if de != lm]
        guard = _keys(len(self.vars)).guard
        rem = dict(self._ints)
        # Max-heap of the remainder's keys, negated for heapq.  Entries are
        # deleted lazily: one whose monomial has left ``rem`` is skipped
        # when popped.  The order is compatible with multiplication, so
        # every key pushed below sorts under the one just popped, and the
        # terms leave in the order of a full rescan of ``rem``.
        heap = [-e for e in rem]
        heapq.heapify(heap)
        heappop, heappush = heapq.heappop, heapq.heappush
        qterms = {}
        while heap:
            e = -heappop(heap)
            c = rem.pop(e, None)
            if c is None:
                continue
            qe = e - lm
            # lm divides e iff no field borrowed: a borrow sets a guard bit,
            # or makes the difference negative
            if qe < 0 or qe & guard:
                return None
            qc, r = divmod(c, lc)
            if r:
                return None
            qterms[qe] = qc
            for de, dc in tail:
                te = qe + de
                old = rem.get(te)
                if old is None:
                    rem[te] = -(qc * dc)
                    heappush(heap, -te)
                else:
                    s = old - qc * dc
                    if s:
                        rem[te] = s
                    else:
                        del rem[te]
        return MPoly._of(self.vars, *_ratio_mul(self._num, self._den, divisor._den, divisor._num),
                         qterms)

    def remainder(self, divisors: Sequence["MPoly"]) -> "MPoly":
        """The remainder of ``self`` on division by ``divisors`` in graded-lex
        order: the leading term of what is left is cancelled by the first
        divisor whose leading monomial divides it, or else moved to the
        remainder; zero divisors are skipped.  Each step removes the leading
        term and adds only smaller ones, and graded-lex order is a
        well-order, so the loop ends.  It runs on the integer parts, with a
        max-heap of keys and the guard-bit test of :meth:`try_div`; a
        coefficient becomes a ``Fraction`` only where a leading coefficient
        does not divide it."""
        divs = []
        for d in divisors:
            self._check(d)
            if d._ints:
                lm = max(d._ints)
                divs.append((lm, d._ints[lm], [(e, c) for e, c in d._ints.items() if e != lm]))
        if not divs or not self._ints:
            return self
        guard = _keys(len(self.vars)).guard
        work = dict(self._ints)
        heap = [-e for e in work]
        heapq.heapify(heap)
        heappop, heappush = heapq.heappop, heapq.heappush
        rem = {}
        while heap:
            e = -heappop(heap)
            c = work.pop(e, None)
            if c is None:
                continue
            for lm, lc, tail in divs:
                qe = e - lm
                if qe < 0 or qe & guard:
                    continue
                if type(c) is int:
                    q = c // lc if c % lc == 0 else Rat(c, lc)
                else:
                    q = c / lc
                for de, dc in tail:
                    te = qe + de
                    old = work.get(te)
                    if old is None:
                        work[te] = -(q * dc)
                        heappush(heap, -te)
                    else:
                        s = old - q * dc
                        if s:
                            work[te] = s
                        else:
                            del work[te]
                break
            else:
                rem[e] = c
        den = lcm(1, *(c.denominator for c in rem.values() if type(c) is not int))
        return MPoly._reduced(self.vars, self._num, self._den * den,
                              {e: int(c * den) for e, c in rem.items()})

    def primitive(self) -> "MPoly":
        """Divide out the rational content and fix the leading sign positive."""
        if self.is_zero:
            return self
        inv = Rat(self._den, self._num)
        if self._ints[max(self._ints)] < 0:
            inv = -inv
        return self * inv

    # -- printing ------------------------------------------------------------

    def render(self, names: Optional[Mapping[str, str]] = None) -> str:
        """The polynomial as text, terms in descending graded-lex order;
        ``names`` maps a variable to the name it is shown as."""
        return render_terms(self.vars, self.integer_terms(), names)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"MPoly({self})"


def render_terms(vars: Sequence[str], terms: list,
                 names: Optional[Mapping[str, str]] = None) -> str:
    """The text of :meth:`MPoly.render` from the polynomial's table and its
    :meth:`MPoly.integer_terms` list."""
    if not terms:
        return "0"
    shown = [names.get(v, v) for v in vars] if names else vars
    pieces = []
    for e, num, den in terms:
        factors = "*".join([name if k == 1 else f"{name}^{k}"
                            for name, k in zip(shown, e) if k])
        mag = f"{abs(num)}" if den == 1 else f"{abs(num)}/{den}"
        if not factors:
            body = mag
        elif mag == "1":
            body = factors
        else:
            body = f"{mag}*{factors}"
        if pieces:
            pieces.append((" - " if num < 0 else " + ") + body)
        else:
            pieces.append(("-" if num < 0 else "") + body)
    return "".join(pieces)


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

    When one argument involves a single variable the gcd is built from
    univariate gcds (:func:`_single_var_gcd`), taken by the package's one
    univariate integer layer, :func:`realroots.univariate_gcd`.  Otherwise
    the main variable is the one of least higher degree in the pair, then
    of least lower degree, then first in the table: the gcd is the gcd of
    the two contents in it times the primitive part of the last nonzero
    term of the subresultant sequence of the two primitive parts
    (:func:`_subresultants`).
    """
    a._check(b)
    if a.is_zero:
        return b.primitive()
    if b.is_zero:
        return a.primitive()
    if a.is_constant or b.is_constant:
        return MPoly.const(a.vars, 1)
    pa, pb = a.variables_present(), b.variables_present()
    if len(pa) == 1 or len(pb) == 1:
        return _single_var_gcd(a, b, pa[0]) if len(pa) == 1 else _single_var_gcd(b, a, pb[0])
    present = set(pa) | set(pb)
    var = min((v for v in a.vars if v in present),
              key=lambda v: sorted((a.degree_in(v), b.degree_in(v)), reverse=True))
    ca, cb = _content(a, var), _content(b, var)
    a, b = _exact(a, ca), _exact(b, cb)
    if a.degree_in(var) < b.degree_in(var):
        a, b = b, a
    last, _ = _subresultants(a, b, var)
    return (poly_gcd(ca, cb) * _exact(last, _content(last, var))).primitive()


def _single_var_gcd(u: MPoly, other: MPoly, var: str) -> MPoly:
    """gcd of ``u``, which involves ``var`` alone, with ``other``.  ``var`` is
    irreducible, so the gcd is ``var^min(v(u), v(other))``, with ``v`` the
    lowest exponent of ``var``, times the gcd of ``u / var^v(u)`` with every
    univariate slice of ``other``, taken shortest first until it is constant;
    an eps-power denominator needs no gcd kernel at all."""
    low = min(u.lowest_degree_in(var), other.lowest_degree_in(var))
    g = u.shift(var, -u.lowest_degree_in(var))
    if not g.is_constant:
        others = [v for v in u.vars if v != var]
        for piece in sorted(other.coefficients_in_vars(others).values(), key=len):
            g = _univariate_gcd(g, piece, var)
            if g.is_constant:
                break
    if g.is_constant:
        g = MPoly.const(u.vars, 1)
    return g.shift(var, low)


def _univariate_gcd(a: MPoly, b: MPoly, var: str) -> MPoly:
    """gcd of two polynomials in ``var`` alone: the integer remainder
    sequence of :func:`realroots.univariate_gcd` on their dense integer
    coefficients."""
    return MPoly.univariate(a.vars, var, univariate_gcd(a.integer_coefficients(var),
                                                        b.integer_coefficients(var)))


def _content(p: MPoly, var: str) -> MPoly:
    """The content of nonzero ``p`` in ``var``: the gcd of its coefficients,
    shortest first, primitive; 1 as soon as it is constant."""
    g = None
    for c in sorted(p.coefficients_in(var).values(), key=len):
        g = c if g is None else poly_gcd(g, c)
        if g.is_constant:
            return MPoly.const(p.vars, 1)
    return g.primitive()


def _exact(p: MPoly, d: MPoly) -> MPoly:
    """``p / d``, which the algebra says is exact: a remainder is an engine
    fault."""
    q = p.try_div(d)
    if q is None:
        raise EngineError("an exact division of the gcd or resultant left a remainder")
    return q


def _pseudo_rem(a: MPoly, b: MPoly, var: str) -> MPoly:
    """The pseudo-remainder ``lc(b)^(deg a - deg b + 1) * a mod b`` in
    ``var``, for ``deg a >= deg b >= 0``."""
    db = b.degree_in(var)
    lc = b.coefficients_in(var)[db]
    tail = b - lc.shift(var, db)
    r, k = a, a.degree_in(var) - db + 1
    while r and (dr := r.degree_in(var)) >= db:
        # the leading terms cancel: neither product forms them
        lead = r.coefficients_in(var)[dr]
        r = (r - lead.shift(var, dr)) * lc - tail * lead.shift(var, dr - db)
        k -= 1
    return r * lc ** k if k else r


def _subresultants(a: MPoly, b: MPoly, var: str) -> tuple:
    """The subresultant sequence of nonzero ``a`` and ``b`` in ``var``, with
    ``deg a >= deg b``: its last nonzero term, which is the gcd of ``a`` and
    ``b`` times a factor free of ``var``, and the resultant of ``a`` and
    ``b`` in ``var``.  Every division is exact and no gcd runs between the
    steps (Collins, JACM 14, 1967; Brown and Traub, JACM 18, 1971)."""
    g = h = MPoly.const(a.vars, 1)
    sign = 1
    while True:
        da, db = a.degree_in(var), b.degree_in(var)
        if db == 0:
            res = h if da == 0 else _exact(b ** da, h ** (da - 1))
            return b, res * sign
        if da & db & 1:
            sign = -sign
        r = _pseudo_rem(a, b, var)
        if r.is_zero:
            return b, r
        delta = da - db
        a, b = b, _exact(r, g * h ** delta)
        g = a.coefficients_in(var)[db]
        if delta:
            h = _exact(g ** delta, h ** (delta - 1))


def resultant(a: MPoly, b: MPoly, var: str) -> MPoly:
    """Resultant of ``a`` and ``b`` in ``var``, a polynomial in the other
    variables: the determinant of their Sylvester matrix, read off the
    subresultant sequence.  It is 1 when neither argument involves ``var``;
    ValueError on a zero argument."""
    a._check(b)
    da, db = a.degree_in(var), b.degree_in(var)
    if da < 0 or db < 0:
        raise ValueError("resultant of a zero polynomial")
    if da < db:
        r = _subresultants(b, a, var)[1]
        return -r if da & db & 1 else r
    return _subresultants(a, b, var)[1]


def poly_lcm(a: MPoly, b: MPoly) -> MPoly:
    if a.is_zero or b.is_zero:
        return MPoly.zero(a.vars)
    return (_exact(a, poly_gcd(a, b)) * b).primitive()
