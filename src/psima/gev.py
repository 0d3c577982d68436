"""Generalized eigenproblem on the flow pencil (A, B).

A alpha = lambda B alpha with A the volume (flow) operator and B the Gram
matrix. B is positive definite whenever the window holds enough spread
ticks; the solve reduces it by Cholesky, diagonalizes the congruent
symmetric matrix, and maps eigenvectors back. Eigenstates come out
B-orthonormal, so <psi|psi> = 1 without extra normalization.

Sparse windows make B numerically singular. Rather than regularize, the
solver drops the highest polynomial order and retries; the dimension that
finally solved is reported as effective_n so consumers can see degraded
resolution. Low orders carry the window's coarse structure, which is why
truncation beats ridging here.

solve_stack runs every gate over a stack of pencils at once, and only the
pencils that fail at a dimension try the next one down; solve_pencil is
solve_stack on a stack of one. The dimension search and the reduction
are the same code for a live stack of one and a block of many. After the
eigensolve nothing is searched: eigh returns the eigenvalues ascending,
so the bottom state is the first and the top state the last, unless the
last two are tied.

The first two gates, pivot and resolution, each pass on a prefix 1..r of
the dimensions. The pivot gate is a running minimum and maximum of the
Gram diagonal. The resolution gate bounds the condition number of the
window Gram whitened by the ideal window's inverse Cholesky factor W.
W is lower-triangular, so the whitened m-by-m Gram is the leading block
of the whitened n-by-n one, and by Cauchy interlacing (Horn & Johnson,
Matrix Analysis, 4.3) the extreme eigenvalues of a leading block lie
inside those of the whole: its conditioning can only fall as m falls.
So the search for r need not start at n. It starts where the caller's
last solve stopped, probes that dimension and the one above on the whole
stack, and walks on only for the pencils that bracket does not settle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .basis import BasisId, continuum_gram
from .errors import DegenerateStateError, EmptyWindowError, InputError

__all__ = ["WaveFunction", "SpectralDecomposition", "solve_pencil", "rayleigh"]

# Cholesky pivot acceptance relative to the largest Gram diagonal.
PIVOT_RTOL = 1e-13
# Eigenvalues within this relative band of the max are tied.
TIE_RTOL = 1e-10
# Largest accepted conditioning of the window Gram against the ideal
# window. Calibrated so accepted solves keep normalization error around
# 1e-11, an order under the published 1e-10 bound.
KAPPA_CAP = 1e5


@dataclass(frozen=True)
class WaveFunction:
    alpha: np.ndarray  # coefficients over Q_0..Q_{m-1}
    basis: BasisId


@dataclass(frozen=True)
class SpectralDecomposition:
    lambdas: np.ndarray            # ascending, length effective_n
    states: tuple[WaveFunction, ...]
    i_IH: int                      # index of the maximal eigenvalue
    i_IL: int                      # index of the minimal eigenvalue
    effective_n: int


class PencilStack(NamedTuple):
    """Solutions of a stack of pencils, one row per pencil.

    Row k is valid on its leading effective_n[k] entries: lambdas[k, :m]
    ascending, alphas[k, :m, :m] with the states as columns. effective_n
    is 0 where no dimension solves. The lambdas ascend, so i_IL is 0.
    """
    effective_n: np.ndarray   # (K,) int
    lambdas: np.ndarray       # (K, n)
    alphas: np.ndarray        # (K, n, n)
    i_IH: np.ndarray          # (K,) int
    i_IL: np.ndarray          # (K,) int


def _quad(alpha: np.ndarray, M: np.ndarray) -> float:
    return float(alpha @ M @ alpha)


def _entries(M) -> np.ndarray:
    """The matrix of an OperatorMatrix wrapper or of a bare array."""
    return np.asarray(getattr(M, "entries", M), dtype=np.float64)


def solve_pencil(A, B, tie_breaker=None) -> SpectralDecomposition:
    """Solve A alpha = lambda B alpha with dimension fallback.

    Accepts OperatorMatrix wrappers or bare square arrays. ``tie_breaker``
    (the age-weighted operator) resolves degenerate top eigenvalues: among
    states tied at lambda_max the one with the smallest age reading wins,
    keeping the indicator glued to the most recent flow structure instead
    of an arbitrary rotation of the eigenspace.
    """
    Af = _entries(A)
    Bf = _entries(B)
    if Af.shape != Bf.shape or Af.ndim != 2 or Af.shape[0] != Af.shape[1]:
        raise InputError("pencil operators must be square and same size")
    basis = getattr(A, "basis", None)
    if basis is not None and basis is not getattr(B, "basis", basis):
        raise InputError("pencil operators must share a basis")
    T = None if tie_breaker is None else _entries(tie_breaker)[None]
    sol = solve_stack(Af[None], Bf[None], T, basis)
    m = int(sol.effective_n[0])
    if m == 0:
        if not (float(Bf[0, 0]) > 0.0):
            raise EmptyWindowError("no usable mass in the window")
        raise DegenerateStateError(
            "no dimension admits a well-conditioned solve")
    alphas = sol.alphas[0]
    states = tuple(WaveFunction(alpha=alphas[:m, i].copy(), basis=basis)
                   for i in range(m))
    return SpectralDecomposition(lambdas=sol.lambdas[0, :m].copy(),
                                 states=states, i_IH=int(sol.i_IH[0]),
                                 i_IL=int(sol.i_IL[0]), effective_n=m)


def solve_stack(A: np.ndarray, B: np.ndarray, T: np.ndarray | None = None,
                basis: BasisId | None = None,
                start: int | None = None) -> PencilStack:
    """solve_pencil over a stack of (n, n) pencils, (K, n, n) each.

    Every pencil first tries the largest dimension its Gram passes the
    pivot and resolution gates at (_dims, searching from ``start``,
    default n); only those that fail a later gate there try one lower,
    and so on, each dimension solving its remaining pencils together.
    ``T`` stacks the tie-breakers and ``basis`` switches the resolution
    gate on, as the OperatorMatrix wrappers do for solve_pencil.
    """
    K, n = B.shape[0], B.shape[-1]
    effective_n = np.zeros(K, dtype=np.intp)
    lambdas = np.zeros((K, n))
    alphas = np.zeros((K, n, n))
    i_IH = np.zeros(K, dtype=np.intp)
    i_IL = np.zeros(K, dtype=np.intp)
    dims = _dims(B, basis, n if start is None else start)
    if K == 1:
        for m in range(int(dims[0]), 0, -1):
            passed, w, al, top = _solve_dim(
                A[:, :m, :m], B[:, :m, :m],
                None if T is None else T[:, :m, :m])
            if len(passed):
                effective_n[0] = m
                lambdas[0, :m] = w[0]
                alphas[0, :m, :m] = al[0]
                i_IH[0] = top[0]
                break
        return PencilStack(effective_n, lambdas, alphas, i_IH, i_IL)
    todo = np.flatnonzero(dims)
    for m in range(int(dims.max(initial=0)), 0, -1):
        cand = todo[dims[todo] >= m]
        if not len(cand):
            continue
        passed, w, al, top = _solve_dim(
            A[cand, :m, :m], B[cand, :m, :m],
            None if T is None else T[cand, :m, :m])
        if not len(passed):
            continue
        done = cand[passed]
        effective_n[done] = m
        lambdas[done, :m] = w
        alphas[done, :m, :m] = al
        i_IH[done] = top
        todo = todo[effective_n[todo] == 0]
        if not len(todo):
            break
    return PencilStack(effective_n, lambdas, alphas, i_IH, i_IL)


def _dims(B: np.ndarray, basis: BasisId | None, start: int) -> np.ndarray:
    """Largest dimension passing the pivot and resolution gates, per Gram.

    0 where even the 1-by-1 Gram fails. Both gates pass on a prefix of
    the dimensions (see the module docstring), so the resolution gate is
    probed on the whole stack at start + 1 and then upward while pencils
    pass, and at start and then downward for the pencils that fail; a
    dimension no searching pencil's pivot gate reaches is not probed.
    """
    n = B.shape[-1]
    # pivot gate of every leading dimension at once: column m-1 holds the
    # verdict on the m-by-m Gram's diagonal
    d = _diag(B)
    dmin = np.minimum.accumulate(d, axis=1)
    top = (~((dmin <= 0.0)
             | (dmin < PIVOT_RTOL * np.maximum.accumulate(d, axis=1)))
           ).sum(axis=1)
    if basis is None:
        return top
    # resolution gate: compare the window Gram against the ideal dense
    # window on the same polynomial subspace. The comparison is a pure
    # quadratic-form ratio, so all bases compute the same number and
    # reduce their dimension at the same samples.
    h = min(max(int(start), 1), n)
    # masks over the whole stack; count_nonzero is the cheapest test of
    # a small mask, and a live stack of one runs this walk on every tick
    dims = np.zeros(len(B), dtype=np.intp)
    up = top > h
    m = h
    while np.count_nonzero(up):
        m += 1
        up &= _resolved(B[:, :m, :m], basis, m)
        dims[up] = m
        up &= top > m
    down = (dims == 0) & (top > 0)
    for m in range(h, 0, -1):
        if not np.count_nonzero(down):
            break
        probe = down & (top >= m)
        if np.count_nonzero(probe):
            ok = probe & _resolved(B[:, :m, :m], basis, m)
            dims[ok] = m
            down &= ~ok
    return dims


def _swap(X: np.ndarray) -> np.ndarray:
    return X.swapaxes(-1, -2)


def _diag(X: np.ndarray) -> np.ndarray:
    return X.diagonal(axis1=-2, axis2=-1)


def _sqnorms(X: np.ndarray) -> np.ndarray:
    # squared Frobenius norm of each matrix as one dot product, as
    # np.linalg.norm forms it for a single matrix
    v = X.reshape(len(X), 1, -1)
    return (v @ _swap(v))[:, 0, 0]


def _keep(mask: np.ndarray, *stacks):
    """The pencils of each stack (or None) that ``mask`` keeps."""
    return tuple(None if a is None else a[mask] for a in stacks)


def _cholesky(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a stack and a mask of those that exist."""
    try:
        return np.linalg.cholesky(S), np.ones(len(S), dtype=bool)
    except np.linalg.LinAlgError:
        L = np.zeros_like(S)
        ok = np.zeros(len(S), dtype=bool)
        for k, Sk in enumerate(S):
            try:
                L[k] = np.linalg.cholesky(Sk)
                ok[k] = True
            except np.linalg.LinAlgError:
                pass
        return L, ok


def _solve_dim(A, B, T):
    """The gates after pivot and resolution, for a stack of (m, m) pencils.

    One whitening W = L^-1 D, with D B D = L L^T, reduces each pencil to
    the symmetric S = W A W^T; its eigenvectors map back as W^T U. Both
    triangular factors, L here and C of the straightening, are inverted
    once and applied as products. The normalization and orthogonality
    gates are one comparison of |alpha^T B alpha - I| against a cached
    cap matrix. Returns the stack positions of the pencils that pass
    every gate and, for those in order, the clamped eigenvalues
    (ascending, as eigh returns them), B-orthonormal states (columns)
    and the indices of the top states; the bottom state is always 0.
    """
    none = (np.zeros(0, dtype=np.intp),) + (None,) * 3
    idx = np.arange(len(B))
    # equilibrate to unit diagonal before factorizing; a congruence,
    # so eigenvalues are untouched and states map back through D
    D = 1.0 / np.sqrt(_diag(B))
    L, ok = _cholesky(B * (D[:, :, None] * D[:, None, :]))
    ok &= ~(_diag(L).min(axis=1) ** 2 < PIVOT_RTOL)
    if not ok.all():
        idx, A, B, T, L, D = _keep(ok, idx, A, B, T, L, D)
        if not len(idx):
            return none
    W = np.linalg.inv(L) * D[:, None, :]
    S = W @ A @ _swap(W)
    S = 0.5 * (S + _swap(S))
    w, U = np.linalg.eigh(S)
    alphas = _swap(W) @ U

    # straighten residual orthonormality drift with the Gram factor of
    # the computed states, then verify the quality bounds consumers rely
    # on; a dimension that still misses them is not solvable at working
    # precision and gets dropped
    C, ok = _cholesky(_swap(alphas) @ B @ alphas)
    if not ok.all():
        idx, A, B, T, C, w, alphas = _keep(ok, idx, A, B, T, C, w, alphas)
        if not len(idx):
            return none
    alphas = alphas @ _swap(np.linalg.inv(C))
    Balphas = B @ alphas
    eye, cap = _orthonormality_cap(alphas.shape[-1])
    ok = ~(np.abs(_swap(alphas) @ Balphas - eye) > cap).any(axis=(1, 2))
    normA = np.sqrt(_sqnorms(A))
    R = A @ alphas - Balphas * w[:, None, :]
    res_cap = 1e-8 * (normA[:, None]
                      + np.abs(w) * np.sqrt(_sqnorms(B))[:, None])
    ok &= ~(np.sqrt((R * R).sum(axis=1)) > res_cap).any(axis=1)
    if not ok.all():
        idx, A, T, w, alphas, normA = _keep(ok, idx, A, T, w, alphas, normA)
        if not len(idx):
            return none

    # flow is a nonnegative form; tiny negative lambdas are roundoff.
    # eigh's lambdas ascend, so only a row whose first is negative needs
    # the clamp, and the clamp keeps the order: the bottom state is 0.
    if w[:, 0].min() < 0.0:
        floor = -1e-12 * np.maximum(normA, 1.0)
        w = np.where((w < 0.0) & (w > floor[:, None]), 0.0, w)
    return idx, w, alphas, _pick_top(w, alphas, A, T)


@lru_cache(maxsize=None)
def _orthonormality_cap(m: int) -> tuple[np.ndarray, np.ndarray]:
    """I and the cap on |alpha^T B alpha - I|, both (m, m): 1e-10 on the
    diagonal (normalization), 1e-8 off it (orthogonality).
    """
    eye = np.eye(m)
    cap = np.where(eye > 0.0, 1e-10, 1e-8)
    for a in (eye, cap):
        a.flags.writeable = False
    return eye, cap


def _resolved(B: np.ndarray, basis: BasisId, m: int) -> np.ndarray:
    """Window Gram conditioning against the ideal window, capped.

    One flag per Gram matrix of the (K, m, m) stack.
    """
    if m == 1:
        return np.ones(len(B), dtype=bool)
    W = _ideal_whitener(basis, m)
    M = W @ B @ W.T
    M = 0.5 * (M + _swap(M))
    ev = np.linalg.eigvalsh(M)
    return (ev[:, 0] > 0.0) & (ev[:, -1] <= KAPPA_CAP * ev[:, 0])


@lru_cache(maxsize=None)
def _ideal_whitener(basis: BasisId, m: int) -> np.ndarray:
    # inverse Cholesky factor of the ideal Gram; small and well conditioned
    return np.linalg.inv(np.linalg.cholesky(continuum_gram(basis, m)))


def _pick_top(w: np.ndarray, alphas: np.ndarray, A: np.ndarray,
              T: np.ndarray | None) -> np.ndarray:
    """Index of the top state per pencil; ties go to the youngest state.

    ``w`` ascends along each row, so the top state is the last one, and a
    row has a tie only where its last two eigenvalues are tied.
    """
    K, m = w.shape
    out = np.full(K, m - 1, dtype=np.intp)
    if m == 1 or T is None:
        return out
    top = w[:, -1]
    floor = top - TIE_RTOL * np.abs(top)
    tie = w[:, -2] >= floor
    if not tie.any():
        return out
    rows = np.flatnonzero(tie)
    # age reading <psi|T|psi>/<psi|A|psi> of every state of those pencils
    V = np.ascontiguousarray(_swap(alphas[rows]))[:, :, None, :]
    Vc = _swap(V)
    num = (V @ T[rows][:, None] @ Vc)[..., 0, 0]
    den = (V @ A[rows][:, None] @ Vc)[..., 0, 0]
    has_volume = den > 0.0
    ages = np.where(has_volume, num / np.where(has_volume, den, 1.0), np.inf)
    # first tied state of least age; the first tied one if all read inf
    tied = w[rows] >= floor[rows, None]
    pick = np.where(tied, ages, np.inf).argmin(axis=1)
    out[rows] = np.where(tied[np.arange(len(rows)), pick], pick,
                         tied.argmax(axis=1))
    return out


def rayleigh(psi, A, B) -> float:
    """(alpha^T A alpha) / (alpha^T B alpha).

    ``psi`` may be a WaveFunction or a bare coefficient vector; A and B may
    be OperatorMatrix wrappers or bare arrays.
    """
    alpha = np.asarray(getattr(psi, "alpha", psi), dtype=np.float64)
    Af = _entries(A)
    Bf = _entries(B)
    if alpha.shape[0] != Af.shape[0] or Af.shape != Bf.shape:
        raise InputError("dimension mismatch in rayleigh quotient")
    den = _quad(alpha, Bf)
    if den == 0.0:
        raise DegenerateStateError("rayleigh denominator vanished")
    return _quad(alpha, Af) / den
