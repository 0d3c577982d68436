"""Hot kernels: tick accumulation and the shift-matrix recurrences.

Moment state is a (5, M) array whose rows are the window moments

    0: <Q_m 1>      against omega * dt      (time measure)
    1: <Q_m I>      against omega * dV      (volume)
    2: <Q_m p I>    against omega * p dV
    3: <Q_m a I>    against omega * a dV,   a = t_now - t  (age)
    4: <Q_m p^2 I>  against omega * p^2 dV  (variance column)

with M = 2n-1 polynomial orders. Ticks older than ~36.8 tau carry
omega < 1e-16 and are skipped.

shift_matrices works on one matrix per gap along the leading axis, so a
whole block of samples costs one call; shift_matrix builds a single one
and is the bit-for-bit reference for the stack.

The Laguerre shift needs no recurrence over matrix rows. By the addition
theorem (DLMF 18.18.12 with alpha = 0, beta = -1)

    L_m(y + d) = sum_i L_i(y) L^{(-1)}_{m-i}(d),

so G is lower-triangular Toeplitz: G[m, i] = g_{m-i} with g_0 = 1 and
g_j = L^{(-1)}_j(d) = -(d/j) L^{(1)}_{j-1}(d). The L^{(1)} values come
from their own three-term recurrence, which keeps its accuracy at small
d where the L^{(-1)} recurrence cancels, and G is one gather of g through
a cached lag-index matrix.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .basis import BasisId, evaluate_all

PRUNE_OMEGA = 1e-16


def accumulate_block(t, p, dV, i0, i1, t_prev0, t_now, tau, basis, out):
    """Add ticks i0..i1-1, weighted at reference time t_now, to ``out``.

    ``t_prev0`` is the time of the tick before i0, which sets the first
    tick's dt. Ticks past the prune horizon add nothing.
    """
    if i1 <= i0:
        return
    tt = t[i0:i1]
    age = t_now - tt
    w = np.exp(-age / tau)
    dt = np.empty(i1 - i0)
    dt[0] = tt[0] - t_prev0
    if i1 - i0 > 1:
        dt[1:] = tt[1:] - tt[:-1]
    keep = w >= PRUNE_OMEGA
    if not np.any(keep):
        return
    agek = age[keep]
    wk = w[keep]
    pk = p[i0:i1][keep]
    dVk = dV[i0:i1][keep]
    x = -agek / tau if basis is BasisId.LAGUERRE else wk
    Q = evaluate_all(basis, out.shape[1], x)
    wdV = wk * dVk
    out[0] += Q @ (wk * dt[keep])
    out[1] += Q @ wdV
    out[2] += Q @ (pk * wdV)
    out[3] += Q @ (agek * wdV)
    out[4] += Q @ (pk * pk * wdV)


def arrival_rows(dt, p, dV):
    """Moment rows each tick adds when absorbed at its own arrival time.

    There the age is 0 and the window weight 1, and Q_m = 1 for every
    family (L_m(0) = P_m(1) = T_m(1) = 1), so a tick adds one constant per
    row to every order: (dt, dV, p dV, 0, p^2 dV), the terms the general
    accumulate forms at age 0. Returns shape (5, K) for K ticks.
    """
    return np.stack([dt, dV, p * dV, 0.0 * dV, p * p * dV])


@lru_cache(maxsize=None)
def _lags(orders):
    """Lag m - i of each entry G[m, i]; above the diagonal, ``orders``.

    Gathering g_0..g_{orders-1} followed by one zero through this matrix
    gives the lower-triangular Toeplitz G.
    """
    m = np.arange(orders)
    lag = m[:, None] - m[None, :]
    lag[lag < 0] = orders
    lag.flags.writeable = False
    return lag


def shift_matrix(basis, d, orders):
    """G with Q_m(x') = sum_i G[m,i] Q_i(x) after the window ages by d*tau.

    Laguerre shifts its linear argument, y -> y + d, and G is the Toeplitz
    gather of the closed-form g. The exponential bases scale theirs by
    s = exp(-d); their rows follow the three-term recurrences with the
    argument substituted, so row m never reaches past column m. The
    values a loop reads are kept as Python floats, which the interpreter
    reads several times faster than array elements.
    """
    if basis is BasisId.LAGUERRE:
        g = [1.0] + [0.0] * orders
        a, b = 1.0, 0.0              # L^{(1)}_{j-1}(d), L^{(1)}_{j-2}(d)
        for j in range(1, orders):
            g[j] = -(d / j) * a
            a, b = ((2 * j - d) * a - j * b) / j, a
        return np.array(g)[_lags(orders)]
    G = np.zeros((orders, orders))
    G[0, 0] = 1.0
    if orders == 1:
        return G
    gp = [0.0] * orders
    gp[0] = 1.0
    gm = [0.0] * orders
    legendre = basis is BasisId.SHIFTED_LEGENDRE
    s = float(np.exp(-d))
    sm1 = s - 1.0
    gm[0] = sm1
    gm[1] = s
    G[1, 0] = gm[0]
    G[1, 1] = gm[1]
    # (u*v)[j] = lo[j] v[j-1] + hi[j] v[j+1]
    lo = [0.0] * orders
    hi = [0.0] * orders
    for j in range(orders):
        if legendre:
            lo[j] = j / (2 * j - 1) if j > 0 else 0.0
            hi[j] = (j + 1) / (2 * j + 3)
        else:
            lo[j] = 1.0 if j == 1 else 0.5
            hi[j] = 0.5
    for m in range(1, orders - 1):
        row = [0.0] * orders
        for j in range(m + 2):
            uv = 0.0
            if j > 0:
                uv += lo[j] * gm[j - 1]
            if j + 1 < orders:
                uv += hi[j] * gm[j + 1]
            if legendre:
                row[j] = ((2 * m + 1) * (s * uv + sm1 * gm[j])
                          - m * gp[j]) / (m + 1)
            else:
                row[j] = 2.0 * (s * uv + sm1 * gm[j]) - gp[j]
            G[m + 1, j] = row[j]
        gp = gm
        gm = row
    return G


# Below this many gaps a per-gap build beats the vectorized one, whose
# fixed cost is a few hundred numpy calls whatever the block size.
_FEW_GAPS = 2


def shift_matrices(basis, d, orders):
    """Stack of shift_matrix(basis, d[k], orders), one per gap.

    The same floating-point operations as the scalar builder, run over all
    gaps at once (and, for the exponential bases, over the columns of a
    row), so every matrix equals the scalar builder's bit for bit. Row
    m + 1 of an exponential basis is formed on columns 0..m+1 only, as the
    scalar loop forms it; terms that would read the zeros past column
    m + 1 of row m add nothing and are left out.
    """
    d = np.asarray(d, dtype=np.float64)
    if len(d) <= _FEW_GAPS:
        return np.array([shift_matrix(basis, dk, orders)
                         for dk in d.tolist()]).reshape(len(d), orders, orders)
    if basis is BasisId.LAGUERRE:
        g = np.zeros((len(d), orders + 1))
        g[:, 0] = 1.0
        a, b = np.ones(len(d)), np.zeros(len(d))
        for j in range(1, orders):
            g[:, j] = -(d / j) * a
            a, b = ((2 * j - d) * a - j * b) / j, a
        return g[:, _lags(orders)]
    G = np.zeros((len(d), orders, orders))
    G[:, 0, 0] = 1.0
    if orders == 1:
        return G
    j = np.arange(orders, dtype=np.float64)
    legendre = basis is BasisId.SHIFTED_LEGENDRE
    s = np.exp(-d)[:, None]
    sm1 = s - 1.0
    G[:, 1, 0] = sm1[:, 0]
    G[:, 1, 1] = s[:, 0]
    if legendre:
        # (u*v)[j] = j/(2j-1) v[j-1] + (j+1)/(2j+3) v[j+1]
        lo = j[1:] / (2.0 * j[1:] - 1.0)
        hi = j[1:] / (2.0 * j[:-1] + 3.0)
    else:
        # (u*v)[j] = c v[j-1] + 0.5 v[j+1], c = 1 at j = 1 else 0.5
        lo = np.full(orders - 1, 0.5)
        lo[0] = 1.0
        hi = np.full(orders - 1, 0.5)
    buf = np.zeros((len(d), orders))
    for m in range(1, orders - 1):
        w = m + 2
        gm = G[:, m, :w]
        uv = buf[:, :w]
        uv[:, 0] = 0.0
        np.add(0.0, lo[:w - 1] * gm[:, :-1], out=uv[:, 1:])
        uv[:, :-1] += hi[:w - 1] * gm[:, 1:]
        if legendre:
            G[:, m + 1, :w] = ((2 * m + 1) * (s * uv + sm1 * gm)
                               - m * G[:, m - 1, :w]) / (m + 1)
        else:
            G[:, m + 1, :w] = 2.0 * (s * uv + sm1 * gm) - G[:, m - 1, :w]
    return G
