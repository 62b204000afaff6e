"""Fraction-free determinants over polynomial entries, and the Sylvester
resultant built on them.

Bareiss elimination keeps every intermediate entry a minor of the original
matrix, so each division by the previous pivot is exact.
"""

from __future__ import annotations

from typing import Sequence

from .mpoly import EngineError, MPoly


def bareiss_det(A: Sequence[Sequence[MPoly]]) -> MPoly:
    """Determinant by fraction-free forward elimination."""
    n = len(A)
    if n == 0:
        raise ValueError("empty matrix")
    one = MPoly.const(A[0][0].vars, 1)
    rows = [list(row) for row in A]
    prev = one
    sign = 1
    for k in range(n - 1):
        p = next((i for i in range(k, n) if not rows[i][k].is_zero), None)
        if p is None:
            return MPoly.zero(A[0][0].vars)
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        piv = rows[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                t = rows[i][j] * piv - rows[i][k] * rows[k][j]
                if prev is not one:
                    q = t.try_div(prev)
                    if q is None:
                        raise EngineError("fraction-free division by the previous pivot failed")
                    t = q
                rows[i][j] = t
        prev = piv
    d = rows[n - 1][n - 1]
    return d * sign if sign < 0 else d


def sylvester_resultant(a: MPoly, b: MPoly, var: str) -> MPoly:
    """Resultant of a and b with respect to ``var`` (entries stay polynomial
    in the remaining variables)."""
    da, db = a.degree_in(var), b.degree_in(var)
    if da < 0 or db < 0:
        raise ValueError("resultant of a zero polynomial")
    zero = MPoly.zero(a.vars)
    ca = a.coefficients_in(var)
    cb = b.coefficients_in(var)
    if da == 0 and db == 0:
        return MPoly.const(a.vars, 1)
    size = da + db
    rows = []
    for i in range(db):
        row = [zero] * size
        for k in range(da + 1):
            row[i + (da - k)] = ca.get(k, zero)
        rows.append(row)
    for i in range(da):
        row = [zero] * size
        for k in range(db + 1):
            row[i + (db - k)] = cb.get(k, zero)
        rows.append(row)
    return bareiss_det(rows)
