"""Independent reference implementations used by the test suite.

Everything here deliberately avoids the package's own recurrence / table /
pencil code paths: polynomial values come from numpy.polynomial, moment
sums from plain python loops, eigenvalues from determinant sign scans.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import laguerre as nplag
from numpy.polynomial import legendre as npleg

from psima import BasisId, MeasureKind

_VAL = {
    BasisId.LAGUERRE: lambda x, m: nplag.lagval(-np.asarray(x), _e(m)),
    BasisId.SHIFTED_LEGENDRE: lambda x, m: npleg.legval(2 * np.asarray(x) - 1, _e(m)),
    BasisId.CHEBYSHEV: lambda x, m: npcheb.chebval(2 * np.asarray(x) - 1, _e(m)),
}

_MUL = {
    BasisId.LAGUERRE: nplag.lagmul,
    BasisId.SHIFTED_LEGENDRE: npleg.legmul,
    BasisId.CHEBYSHEV: npcheb.chebmul,
}


def _e(m: int) -> np.ndarray:
    c = np.zeros(m + 1)
    c[m] = 1.0
    return c


def poly_value(basis: BasisId, m: int, x):
    """Q_m(x) via numpy.polynomial instead of our recurrences."""
    return _VAL[basis](x, m)


def linearization_row(basis: BasisId, j: int, k: int) -> np.ndarray:
    """c_m^{jk} via numpy.polynomial series multiplication."""
    prod = _MUL[basis](_e(j), _e(k))
    out = np.zeros(j + k + 1)
    out[:len(prod)] = prod
    return out


def laguerre_row_exact(j: int, k: int) -> np.ndarray:
    """c_m^{jk} of L_j L_k in exact rationals, each rounded once to float.

    Multiplies the monomial expansions L_j(y) = sum_i (-1)^i C(j, i) y^i / i!
    and re-expands each power with y^i = i! sum_m (-1)^m C(i, m) L_m(y),
    every step a Fraction.
    """
    def monomial(m):
        return [Fraction((-1) ** i * math.comb(m, i), math.factorial(i))
                for i in range(m + 1)]

    prod = [Fraction(0)] * (j + k + 1)
    for a, ca in enumerate(monomial(j)):
        for b, cb in enumerate(monomial(k)):
            prod[a + b] += ca * cb
    out = [Fraction(0)] * (j + k + 1)
    for i, ci in enumerate(prod):
        for m in range(i + 1):
            out[m] += ci * math.factorial(i) * (-1) ** m * math.comb(i, m)
    return np.array([float(c) for c in out])


def x_coord(basis: BasisId, t, t_now: float, tau: float):
    t = np.asarray(t, dtype=float)
    if basis is BasisId.LAGUERRE:
        return (t - t_now) / tau
    return np.exp((t - t_now) / tau)


def raw_moments(ticks, t_now: float, tau: float, basis: BasisId,
                orders: int, measure: MeasureKind,
                prune: bool = True) -> np.ndarray:
    """Plain-loop moment sums; the ground truth for resample_full."""
    out = np.zeros(orders)
    prev_t = ticks[0].t if ticks else 0.0
    for tk in ticks:
        if tk.t > t_now:
            break
        w = math.exp(-(t_now - tk.t) / tau)
        dt = tk.t - prev_t
        prev_t = tk.t
        # pruned past an age of -ln(1e-16) tau, where the weight is 1e-16
        if prune and t_now - tk.t > -math.log(1e-16) * tau:
            continue
        if measure is MeasureKind.TIME_DT:
            f = dt
        elif measure is MeasureKind.VOLUME_DV:
            f = tk.dV
        elif measure is MeasureKind.PRICE_VOLUME:
            f = tk.p * tk.dV
        else:
            f = (t_now - tk.t) * tk.dV
        x = x_coord(basis, tk.t, t_now, tau)
        for m in range(orders):
            out[m] += f * w * float(poly_value(basis, m, x))
    return out


def quad_matrix(ticks, t_now: float, tau: float, basis: BasisId, n: int,
                measure: MeasureKind) -> np.ndarray:
    """<Q_j| f |Q_k> summed tick by tick, bypassing linearization tables."""
    M = np.zeros((n, n))
    prev_t = ticks[0].t if ticks else 0.0
    for tk in ticks:
        if tk.t > t_now:
            break
        w = math.exp(-(t_now - tk.t) / tau)
        dt = tk.t - prev_t
        prev_t = tk.t
        if w < 1e-16:
            continue
        if measure is MeasureKind.TIME_DT:
            f = dt
        elif measure is MeasureKind.VOLUME_DV:
            f = tk.dV
        elif measure is MeasureKind.PRICE_VOLUME:
            f = tk.p * tk.dV
        else:
            f = (t_now - tk.t) * tk.dV
        x = x_coord(basis, tk.t, t_now, tau)
        q = np.array([float(poly_value(basis, m, x)) for m in range(n)])
        M += (f * w) * np.outer(q, q)
    return M


def det_sign(A: np.ndarray, B: np.ndarray, lam: float) -> float:
    sign, _ = np.linalg.slogdet(A - lam * B)
    return sign


def pencil_eigs_bisect(A: np.ndarray, B: np.ndarray,
                       iters: int = 100) -> np.ndarray:
    """Eigenvalues of A v = lambda B v by determinant sign bisection.

    Brackets come from the general (non-symmetric) eigensolver on B^-1 A,
    then each root is refined by pure sign bisection of det(A - lambda B);
    the refinement never trusts the bracketing solver's value beyond the
    initial interval choice.
    """
    approx = np.sort(np.linalg.eigvals(np.linalg.solve(B, A)).real)
    scale = max(float(np.max(np.abs(approx))), 1e-30)
    out = []
    for e in approx:
        d = max(1e-6 * scale, 1e-12)
        lo, hi = e - d, e + d
        while det_sign(A, B, lo) == det_sign(A, B, hi):
            d *= 2.0
            lo, hi = e - d, e + d
            if d > 10 * scale:
                raise RuntimeError("failed to bracket a pencil eigenvalue")
        slo = det_sign(A, B, lo)
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if det_sign(A, B, mid) == slo:
                lo = mid
            else:
                hi = mid
        out.append(0.5 * (lo + hi))
    return np.asarray(out)


def psi_weighted_average(ticks, t_now: float, tau: float, basis: BasisId,
                         alpha: np.ndarray, values) -> float:
    """Average of per-tick ``values`` under the weight psi(x)^2 omega dV."""
    num = 0.0
    den = 0.0
    for tk, v in zip(ticks, values):
        if tk.t > t_now:
            break
        w = math.exp(-(t_now - tk.t) / tau)
        if w < 1e-16:
            continue
        x = x_coord(basis, tk.t, t_now, tau)
        psi = sum(a * float(poly_value(basis, m, x))
                  for m, a in enumerate(alpha))
        num += v * psi * psi * w * tk.dV
        den += psi * psi * w * tk.dV
    return num / den


def laguerre_shift_recurrence(d: float, orders: int) -> np.ndarray:
    """Laguerre shift matrix G, L_m(y + d) = sum_i G[m,i] L_i(y), by rows.

    Runs the three-term recurrence L_{m+1} = ((2m+1-y')L_m - m L_{m-1})/(m+1)
    at y' = y + d on coefficient vectors in the L_i(y) basis, multiplying
    by y through y L_j = -j L_{j-1} + (2j+1) L_j - (j+1) L_{j+1}; no
    closed form is used.
    """
    G = np.zeros((orders, orders))
    G[0, 0] = 1.0
    if orders == 1:
        return G
    G[1, 0] = -d
    G[1, 1] = 1.0
    for m in range(1, orders - 1):
        gm, gp = G[m], G[m - 1]
        for j in range(m + 2):
            yv = (2 * j + 1) * gm[j]
            if j > 0:
                yv -= j * gm[j - 1]
            if j + 1 < orders:
                yv -= (j + 1) * gm[j + 1]
            G[m + 1, j] = ((2 * m + 1 - d) * gm[j] - yv - m * gp[j]) / (m + 1)
    return G


def exponential_shift_recurrence(basis: BasisId, d: float,
                                 orders: int) -> np.ndarray:
    """Legendre or Chebyshev shift matrix G, Q_m(s x) = sum_i G[m,i] Q_i(x).

    s = exp(-d). Runs the family's three-term recurrence at the scaled
    argument on coefficient vectors in the Q_i(x) basis: with u = 2x - 1,
    2 s x - 1 = s u + (s - 1), and u Q_j is re-expanded through
    u P_j = (j P_{j-1} + (j+1) P_{j+1}) / (2j+1) or
    u T_j = (T_{j-1} + T_{j+1}) / 2; no interpolation is used.
    """
    G = np.zeros((orders, orders))
    G[0, 0] = 1.0
    if orders == 1:
        return G
    legendre = basis is BasisId.SHIFTED_LEGENDRE
    s = math.exp(-d)
    G[1, 0] = s - 1.0
    G[1, 1] = s
    # (u*v)[j] = lo[j] v[j-1] + hi[j] v[j+1]
    if legendre:
        lo = [j / (2 * j - 1) if j > 0 else 0.0 for j in range(orders)]
        hi = [(j + 1) / (2 * j + 3) for j in range(orders)]
    else:
        lo = [1.0 if j == 1 else 0.5 for j in range(orders)]
        hi = [0.5] * orders
    for m in range(1, orders - 1):
        gm, gp = G[m], G[m - 1]
        for j in range(m + 2):
            uv = 0.0
            if j > 0:
                uv += lo[j] * gm[j - 1]
            if j + 1 < orders:
                uv += hi[j] * gm[j + 1]
            sv = s * uv + (s - 1.0) * gm[j]
            if legendre:
                G[m + 1, j] = ((2 * m + 1) * sv - m * gp[j]) / (m + 1)
            else:
                G[m + 1, j] = 2.0 * sv - gp[j]
    return G
