"""Hot kernels: tick accumulation and the shift matrices.

Moment state is a (5, M) array whose rows are the window moments

    0: <Q_m 1>      against omega * dt      (time measure)
    1: <Q_m I>      against omega * dV      (volume)
    2: <Q_m p I>    against omega * p dV
    3: <Q_m a I>    against omega * a dV,   a = t_now - t  (age)
    4: <Q_m p^2 I>  against omega * p^2 dV  (variance column)

with M = 2n-1 polynomial orders. A tick older than PRUNE_HORIZON tau
(36.84 tau, where omega reaches 1e-16) is pruned; ``pruned`` is that age
test, and every site that prunes calls it.

shift_matrix takes one gap or a 1-d array of gaps, one matrix per gap
along the leading axis, so a whole block of samples costs one call; a
gap's matrix is the same bits alone and in a stack.

The exponential bases scale their argument by s = exp(-d), and Q_m(s x)
has degree m in x, so G = Q(s X) Q(X)^-1 at any ``orders`` distinct nodes
X; each entry of G is a polynomial of degree < orders in s. So
G(s) = sum_k T_k(2s - 1) C_k exactly, with C interpolated once per basis
and order count at the Chebyshev points of the first kind, in s and in x
alike (Trefethen, Approximation Theory and Approximation Practice, ch. 3,
15), every T from basis.chebyshev_values. A gap costs its T and one small
product with C, which holds orders^3 floats: 97 KB at 23 orders, 26 MB
at 149. No product runs over the whole stack of gaps at once, since the
BLAS would round a gap's entries differently for each stack size.

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

import math
from functools import lru_cache

import numpy as np

from .basis import BasisId, chebyshev_values, evaluate_all

PRUNE_HORIZON = -math.log(1e-16)


def pruned(age, tau):
    """Whether a tick ``age`` seconds old lies past the prune horizon: a
    Python bool for a float age, a boolean array for an array of ages."""
    return age > PRUNE_HORIZON * tau


def accumulate_block(t, p, dV, i0, i1, t_prev0, t_now, tau, basis, out):
    """Add ticks i0..i1-1, weighted at reference time t_now, to ``out``.

    ``t_prev0`` is the time of the tick before i0, which sets the first
    tick's dt. Pruned ticks add nothing.
    """
    if i1 <= i0:
        return
    tt = t[i0:i1]
    age = t_now - tt
    dt = np.empty(i1 - i0)
    dt[0] = tt[0] - t_prev0
    if i1 - i0 > 1:
        dt[1:] = tt[1:] - tt[:-1]
    keep = ~pruned(age, tau)
    if not np.any(keep):
        return
    agek = age[keep]
    wk = np.exp(-agek / tau)
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


@lru_cache(maxsize=None)
def _factors(orders):
    # (j, 2j), j = 1..orders-1, as floats: exact, so the Laguerre
    # recurrence rounds as it does on ints, with no conversion per step
    return tuple((float(j), 2.0 * j) for j in range(1, orders))


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

    ``d`` is one gap, a Python float, or a 1-d float64 array of gaps,
    giving a stack of matrices: the same operations run either way, so a
    gap gives the same bits alone and in a stack. Laguerre forms g by its
    recurrence. An exponential basis takes T_k(u), k < orders, from
    chebyshev_values at u = 2 exp(-d) - 1, in [-1, 1] for every d >= 0,
    and G = T C with the cached table C, one product per gap. Row m stops
    at column m, and row 0 is exactly e_0 (T_0 = 1), so every order-0
    moment shifts by the window decay alone.
    """
    if basis is not BasisId.LAGUERRE:
        u = 2.0 * np.exp(-d) - 1.0
        T = np.ascontiguousarray(chebyshev_values(orders, u).T)
        # rows of T.T as strided views round differently in the product
        G = np.matmul(T.reshape(-1, 1, orders), _table(basis, orders))
        return G.reshape(u.shape + (orders, orders))
    a, b = d * 0.0 + 1.0, d * 0.0  # L^{(1)}_{j-1}(d), L^{(1)}_{j-2}(d)
    g = [a]
    for j, j2 in _factors(orders):
        g.append(-(d / j) * a)
        a, b = ((j2 - d) * a - j * b) / j, a
    return np.array(g + [d * 0.0]).T.take(_lags(orders), axis=-1)


@lru_cache(maxsize=None)
def _table(basis, orders):
    """The table C, (orders, orders^2), whose row k is C_k row by row.

    The nodes X serve in s too: G(x_j) = Q(x_j X) Q(X)^-1, evaluated 32
    nodes at a time, and the inverse of Ts[j, k] = T_k(2 x_j - 1) turns
    each row m of G's node values into Chebyshev coefficients in place,
    so no temporary holds more than 32 nodes' worth. C_k is exactly 0
    above the diagonal and C's row 0 exactly e_0, so G's are too.
    """
    x = 0.5 + 0.5 * np.cos((np.arange(orders) + 0.5) * (np.pi / orders))
    inv = np.linalg.inv(evaluate_all(basis, orders, x))
    C = np.empty((orders, orders, orders))
    for j in range(0, orders, 32):
        Q = evaluate_all(basis, orders, x[j:j + 32, None] * x)
        np.matmul(Q.swapaxes(0, 1), inv, out=C[j:j + 32])
    Ts_inv = np.linalg.inv(chebyshev_values(orders, 2.0 * x - 1.0).T)
    for m in range(1, orders):
        C[:, m, :m + 1] = Ts_inv @ C[:, m, :m + 1]
    C[:, 0] = 0.0
    C[0, 0, 0] = 1.0
    C[:, ~np.tri(orders, dtype=bool)] = 0.0
    C = C.reshape(orders, orders * orders)
    C.flags.writeable = False
    return C
