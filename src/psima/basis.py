"""Polynomial weight families on the window coordinate.

Three families are supported, each orthogonal-ish against the exponential
window in its own coordinate:

* ``laguerre``        -- Q_m(x) = L_m(-x) on the linear coordinate
                         x = (t - t_now)/tau <= 0,
* ``legendre``        -- Q_m(x) = P_m(2x - 1) on the exponential coordinate
                         x = exp((t - t_now)/tau) in [0, 1],
* ``chebyshev``       -- Q_m(x) = T_m(2x - 1), same coordinate.

All downstream algebra needs two primitives: evaluating Q_0..Q_{n-1} at a
point and re-expanding a product Q_j*Q_k in the same family
(linearization). Products are what turn a moment vector of length 2n-1
into n-by-n operator matrices: one vector-matrix product with the table
flattened to (2n-1, n^2), cached per table and n. Laguerre values come
from their three-term recurrence. Both exponential bases come from one
table, T_k(u) = cos(k arccos u) (chebyshev_values): Chebyshev is the
table itself, and Legendre its image under the exact connection table
of legendre_in_chebyshev, P = c T.

Laguerre values grow like e^{|x|/2} away from the window edge, so its
usable order is much lower than for the bounded families; the bounds below
are enforced with CapabilityError rather than letting accuracy rot
silently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from math import comb

import numpy as np

from .errors import CapabilityError, InputError

__all__ = [
    "BasisId",
    "LinearizationTable",
    "chebyshev_values",
    "continuum_gram",
    "evaluate_all",
    "legendre_in_chebyshev",
    "linearization",
    "linearization_table",
    "matrix_from_moments",
    "max_model_order",
]


class BasisId(enum.Enum):
    LAGUERRE = "laguerre"
    SHIFTED_LEGENDRE = "legendre"
    CHEBYSHEV = "chebyshev"

    # members are singletons, so identity hashes them; Enum's own hash
    # reads the name in Python on every cache lookup keyed by a basis
    __hash__ = object.__hash__

    @classmethod
    def parse(cls, name: str) -> "BasisId":
        key = name.strip().lower() if isinstance(name, str) else None
        for member in cls:
            if member.value == key:
                return member
        raise InputError(f"unknown basis {name!r}; expected one of "
                         f"{[m.value for m in cls]}")


# Highest single polynomial order with dependable float64 behavior.
# Model dimension n may use orders up to n-1; moment vectors reach 2n-2.
_ORDER_BOUND = {
    BasisId.LAGUERRE: 24,
    BasisId.SHIFTED_LEGENDRE: 74,
    BasisId.CHEBYSHEV: 74,
}


def _order_bound(basis: BasisId) -> int:
    if not isinstance(basis, BasisId):
        raise InputError(f"basis must be one of "
                         f"{', '.join(map(str, BasisId))} (BasisId.parse "
                         f"reads their names), got {basis!r}")
    return _ORDER_BOUND[basis]


def max_model_order(basis: BasisId) -> int:
    """Largest model dimension n such that orders 0..n-1 stay usable."""
    return _order_bound(basis) + 1


def _integer(value, name: str) -> int:
    """``value`` as an int, or an InputError naming the argument ``name``.

    Ints, numpy integers and integral floats (3.0) pass; anything else,
    2.5, nan, inf and "3" among them, is refused. Every count and order
    a public entry point takes is read through here, most through _count.
    """
    if isinstance(value, (int, np.integer)) or (
            isinstance(value, float) and value.is_integer()):
        return int(value)
    raise InputError(f"{name} must be an integer, got {value!r}")


def _real(value, name: str) -> float:
    """``value`` as a float, or an InputError naming the argument ``name``:
    real scalars pass, nan and inf among them, but not strings, None,
    complex numbers or arrays."""
    if isinstance(value, (float, int, np.floating, np.integer)):
        return float(value)
    raise InputError(f"{name} must be a real number, got {value!r}")


def _reals(value, name: str) -> np.ndarray:
    """``value`` as a float64 array, or an InputError naming the argument
    ``name``: real numbers, and arrays and sequences of them, pass, nan
    and inf among them, but not strings, None or complex numbers."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError):  # a ragged sequence
        arr = None
    if arr is None or arr.dtype.kind not in "biuf":
        raise InputError(f"{name} must be real numbers, got {value!r}")
    return arr.astype(np.float64, copy=False)


def _count(value, name: str, lo: int, hi: int) -> int:
    """``value`` as an int in lo..hi, or an error naming the argument
    ``name``: InputError where it is no integer (_integer) or below
    ``lo``, CapabilityError above ``hi``, the most the numerics or the
    table at hand support. Every count, order and dimension with bounds
    is read here, in these words."""
    value = _integer(value, name)
    if value < lo:
        raise InputError(f"{name} must be >= {lo}, got {value}")
    if value > hi:
        raise CapabilityError(f"{name} must be <= {hi}, got {value}")
    return value


def _check_order_count(basis: BasisId, count, name: str) -> int:
    # count = number of polynomials requested, returned as an int; moment
    # vectors may need up to order 2*(n-1), hence the factor of two over
    # the model bound.
    return _count(count, name, 1, 2 * _order_bound(basis) + 1)


def _cache(build):
    """``build`` behind an unbounded cache. An unhashable argument misses
    the cache and reaches the build, which refuses it by name, where the
    cache alone would raise a bare TypeError."""
    cached = lru_cache(maxsize=None)(build)

    @wraps(build)
    def call(*args, **kwargs):
        try:
            return cached(*args, **kwargs)
        except TypeError:  # an unhashable argument
            return build(*args, **kwargs)
    return call


def evaluate_all(basis: BasisId, n: int, x):
    """Q_0(x)..Q_{n-1}(x): Laguerre by its three-term recurrence, and
    T = chebyshev_values(n, 2x - 1) for the exponential bases: Chebyshev
    is T, and Legendre c T, c = legendre_in_chebyshev(n), summed
    elementwise over k = 1..m in order as P_m = 1 + sum_k c[m, k] (T_k - 1)
    (each row of c sums to 1), so P_m(1) = 1 exactly at every order.

    ``x`` may be a scalar or an ndarray; the result has shape (n,) + x.shape.
    Domain is enforced: the linear coordinate must be finite and <= 0, the
    exponential one inside [0, 1]; nan is refused, and so is an ``x``
    that is not real numbers (a string, None, a complex number).
    Out-of-domain Laguerre arguments explode exponentially and have
    historically produced garbage matrices that *look* plausible, hence
    the hard error.
    """
    n = _check_order_count(basis, n, "n")
    xa = _reals(x, "x")
    lo, hi = (xa.min(), xa.max()) if xa.size else (0.0, 0.0)

    if basis is BasisId.LAGUERRE:
        if not -np.inf < lo <= hi <= 0.0:
            raise InputError("laguerre coordinate must be finite and <= 0 "
                             "(x = (t - t_now)/tau with t <= t_now)")
        y = -xa
        out = np.empty((n,) + xa.shape, dtype=np.float64)
        out[0] = 1.0
        if n > 1:
            out[1] = 1.0 - y
        for m in range(1, n - 1):
            out[m + 1] = ((2 * m + 1 - y) * out[m] - m * out[m - 1]) / (m + 1)
        return out

    if not 0.0 <= lo <= hi <= 1.0:
        raise InputError("exponential coordinate must lie in [0, 1] "
                         "(x = exp((t - t_now)/tau) with t <= t_now)")
    T = chebyshev_values(n, 2.0 * xa.reshape(-1) - 1.0)
    if basis is BasisId.SHIFTED_LEGENDRE:
        c = legendre_in_chebyshev(n)
        D = T - 1.0
        acc = np.zeros_like(T)
        for k in range(1, n):
            # rows m = k, k + 2, ...: c[m, k] is 0 where m - k is odd
            acc[k::2] += c[k::2, k, None] * D[k]
        T[2:] = acc[2:] + 1.0
    return T.reshape((n,) + xa.shape)


def chebyshev_values(n: int, u: np.ndarray) -> np.ndarray:
    """T_0(u)..T_{n-1}(u) = cos(k arccos u), shape (n,) + u.shape: the
    one Chebyshev evaluator, of evaluate_all and the shift matrices alike.

    T_0 = 1 and T_1 = u are exact, and so is T_k(1) = cos(0) = 1. Every
    operation is elementwise, so a point's values do not depend on the
    other points. ``u`` is not checked: callers pass 2x - 1, x in [0, 1].
    """
    out = np.cos(_orders_column(n, u.ndim) * np.arccos(u))
    if n > 1:
        out[1] = u
    return out


@lru_cache(maxsize=None)
def _orders_column(n: int, ndim: int) -> np.ndarray:
    # 0..n-1 as floats, shaped (n,) + (1,) * ndim to broadcast over u
    k = np.arange(n, dtype=np.float64).reshape((n,) + (1,) * ndim)
    k.flags.writeable = False
    return k


@_cache
def legendre_in_chebyshev(n: int) -> np.ndarray:
    """c with P_m = sum_k c[m, k] T_k for m, k < n, lower triangular.

    The connection coefficients (Alpert & Rokhlin, SIAM J. Sci. Stat.
    Comput. 12, 1991) are, for m - k even, with a = (m - k)/2 and
    b = (m + k)/2,

        c[m, k] = (2 - [k == 0]) C(2a, a) C(2b, b) / 4^m,

    and 0 otherwise. Each entry is formed as an exact rational and rounded
    once, so row 0 is exactly e_0, every entry is nonnegative and each row
    sums to 1 (P_m(1) = T_k(1) = 1) up to one rounding per entry. The
    affine shift to [0, 1] leaves the coefficients unchanged. ``n`` runs
    up to 149, the most orders a Legendre moment vector holds.
    """
    n = _check_order_count(BasisId.SHIFTED_LEGENDRE, n, "n")
    c = np.zeros((n, n))
    for m in range(n):
        for k in range(m % 2, m + 1, 2):
            a, b = (m - k) // 2, (m + k) // 2
            c[m, k] = (2 - (k == 0)) * comb(2 * a, a) * comb(2 * b, b) / 4 ** m
    c.flags.writeable = False
    return c


# ---------------------------------------------------------------------------
# linearization: Q_j * Q_k = sum_m c_m^{jk} Q_m
# ---------------------------------------------------------------------------

def _chebyshev_row(j: int, k: int) -> np.ndarray:
    # T_j T_k = (T_{j+k} + T_{|j-k|}) / 2; terms merge when |j-k| == j+k.
    out = np.zeros(j + k + 1)
    out[j + k] += 0.5
    out[abs(j - k)] += 0.5
    return out


def _legendre_row(j: int, k: int) -> np.ndarray:
    # Product formula for Legendre polynomials with A_m = (2m-1)!!/m!:
    #   P_j P_k = sum_s A_s A_{j-s} A_{k-s} / A_{j+k-s}
    #             * (2(j+k-2s)+1)/(2(j+k-s)+1) * P_{j+k-2s}
    # Expansion coefficients survive the affine shift to [0, 1] unchanged.
    jk = j + k
    A = np.empty(jk + 2)
    A[0] = 1.0
    for m in range(1, jk + 2):
        A[m] = A[m - 1] * (2 * m - 1) / m
    out = np.zeros(jk + 1)
    for s in range(min(j, k) + 1):
        m = jk - 2 * s
        out[m] = (A[s] * A[j - s] * A[k - s] / A[jk - s]
                  * (2 * m + 1) / (2 * (jk - s) + 1))
    return out


def _laguerre_row(j: int, k: int) -> np.ndarray:
    # With L_j(y) = sum_a (-1)^a C(j, a) y^a / a! and
    # y^i = i! sum_m (-1)^m C(i, m) L_m(y), every coefficient is an integer:
    #   c_m = (-1)^m sum_{i >= m} C(i, m) s_i,
    #   s_i = (-1)^i sum_{a+b=i} C(j, a) C(k, b) C(i, a).
    # Summed in Python integers and rounded once: the float64 route loses
    # ~10 digits to cancellation by order 40.
    deg = j + k
    s = [(-1) ** i * sum(comb(j, a) * comb(k, i - a) * comb(i, a)
                         for a in range(max(0, i - k), min(i, j) + 1))
         for i in range(deg + 1)]
    return np.array([float((-1) ** m * sum(comb(i, m) * s[i]
                                           for i in range(m, deg + 1)))
                     for m in range(deg + 1)])


def linearization(basis: BasisId, j: int, k: int) -> np.ndarray:
    """Coefficients c_m^{jk}, m = 0..j+k, of Q_j*Q_k in the same family."""
    bound = _order_bound(basis)
    j, k = _count(j, "j", 0, bound), _count(k, "k", 0, bound)
    if basis is BasisId.CHEBYSHEV:
        return _chebyshev_row(j, k)
    if basis is BasisId.SHIFTED_LEGENDRE:
        return _legendre_row(j, k)
    return _laguerre_row(j, k)


@dataclass(frozen=True)
class LinearizationTable:
    """Dense c_m^{jk} for all j,k <= n_max; m runs over 0..2*n_max."""
    basis: BasisId
    n_max: int
    coeffs: np.ndarray  # shape (n_max+1, n_max+1, 2*n_max+1)
    _flats: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def flat(self, n: int) -> np.ndarray:
        """F (2n-1, n*n), read-only and cached: F[m, j*n + k] = c_m^{jk}.

        A moment vector v of length 2n-1 assembles as v @ F, the n-by-n
        operator flattened row by row. ``n`` runs over 1..n_max+1; it is
        checked on a cache miss only, so a hit costs one dict lookup; an
        unhashable ``n`` misses.
        """
        try:
            F = self._flats.get(n)
        except TypeError:
            F = None
        if F is None:
            n = _count(n, "n", 1, self.n_max + 1)
            need = 2 * n - 1
            F = np.ascontiguousarray(
                self.coeffs[:n, :n, :need].reshape(n * n, need).T)
            F.flags.writeable = False
            self._flats[n] = F
        return F


@_cache
def linearization_table(basis: BasisId, n_max: int) -> LinearizationTable:
    """Every c_m^{jk}, j, k <= n_max, built once per basis and n_max."""
    n_max = _count(n_max, "n_max", 0, _order_bound(basis))
    size = n_max + 1
    coeffs = np.zeros((size, size, 2 * n_max + 1))
    for j in range(size):
        for k in range(j, size):
            coeffs[j, k, :j + k + 1] = coeffs[k, j, :j + k + 1] = (
                linearization(basis, j, k))
    return LinearizationTable(basis=basis, n_max=n_max, coeffs=coeffs)


def matrix_from_moments(moments, n: int, table: LinearizationTable) -> np.ndarray:
    """Assemble M[j,k] = sum_m c_m^{jk} <Q_m f> from a moment vector.

    ``moments`` is a MomentVector or a plain array of length >= 2n-1, or a
    stack of such arrays (..., >= 2n-1), which gives a stack of matrices
    (..., n, n). Each moment vector is one row-times-matrix product with
    the table's flattened coefficients (LinearizationTable.flat), its own
    BLAS call, so a matrix does not depend on the stack it came in. The
    result is exactly symmetric, since c^{jk} = c^{kj} entrywise and the
    product forms M[j,k] and M[k,j] from the same column. The product
    raises under np.errstate(over="raise") where moments overflow the
    assembly, as np.einsum, which this replaced, did not: it gave inf.
    Malformed arguments are refused with InputError naming them.
    """
    n = _integer(n, "n")
    need = 2 * n - 1
    try:
        F = table.flat(n)
    except (AttributeError, TypeError):
        raise InputError(f"table must be a LinearizationTable, "
                         f"got {table!r}") from None
    try:
        values = np.asarray(getattr(moments, "values", moments),
                            dtype=np.float64)
        if values.shape[-1] < need:
            raise InputError(f"moments too short: {values.shape[-1]} < {need}")
    except (TypeError, ValueError, IndexError):  # not real, or 0-d
        raise InputError(f"moments must be real moment vectors, "
                         f"got {moments!r}") from None
    out = values[..., None, :need] @ F
    return out.reshape(values.shape[:-1] + (n, n))


@_cache
def continuum_gram(basis: BasisId, n: int) -> np.ndarray:
    """Time-measure Gram matrix of an ideal infinitely deep window, per tau.

    This is the dense-data limit the discrete Gram approaches: for the
    exponential coordinates, integral_0^1 Q_j Q_k dx; for the linear
    coordinate, the e^-y orthogonality integral. Window conditioning
    measured against this matrix is the same number in every basis (it
    compares quadratic forms on one polynomial subspace), which is what
    makes it usable as a basis-independent resolution judge.
    """
    n = _count(n, "n", 1, _order_bound(basis) + 1)
    if basis is BasisId.LAGUERRE:
        out = np.eye(n)
    elif basis is BasisId.SHIFTED_LEGENDRE:
        out = np.diag([1.0 / (2 * j + 1) for j in range(n)])
    else:
        # int_{-1}^{1} T_m du = 2/(1-m^2) for even m, 0 for odd
        def ti(m: int) -> float:
            return 2.0 / (1.0 - m * m) if m % 2 == 0 else 0.0

        out = np.empty((n, n))
        for j in range(n):
            for k in range(j, n):
                out[j, k] = out[k, j] = 0.25 * (ti(j + k) + ti(j - k))
    out.setflags(write=False)
    return out
