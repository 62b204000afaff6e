"""Test-only reference for the homological solve: the two bidiagonal sweeps
over ``MPoly`` rows that ``liapunov._solve_degree`` computed before its
prefix-sum form.  It is kept verbatim as a differential oracle; the package
does not import it."""

from itertools import accumulate
from math import comb

from centerlab.mpoly import EngineError, MPoly, Rat


def _xy_coefficients(p, n):
    """Decompose an x,y-homogeneous polynomial of degree n: maps t to the
    (x,y)-free coefficient of x^(n-t) y^t."""
    out = {}
    for (i, t), c in p.coefficients_in_vars(("x", "y")).items():
        if i + t != n:
            raise ValueError(f"polynomial is not x,y-homogeneous of degree {n}")
        out[t] = c
    return out


def two_sweep_solve(sigma, mu, n, R_num, R_den):
    """(A, C, ell, delta) with the meaning of ``liapunov._solve_degree``."""
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
