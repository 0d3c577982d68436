"""Generalized eigenproblem on the flow pencil (A, B).

A alpha = lambda B alpha with A the volume (flow) operator and B the Gram
matrix. B is positive definite whenever the window holds enough spread
ticks; the solve whitens it with the factors of one symmetric
eigensolve, diagonalizes the congruent symmetric matrix, and maps
eigenvectors back. Eigenstates come out B-orthonormal, so
<psi|psi> = 1 without extra normalization.

Sparse windows make B numerically singular. Rather than regularize, the
solver drops the highest polynomial order and retries; the dimension that
finally solved is reported as effective_n so consumers can see degraded
resolution. Low orders carry the window's coarse structure, which is why
truncation beats ridging here.

solve_stack runs every gate over a stack of pencils at once, and only the
pencils that fail at a dimension try the next one down; solve_pencil is
solve_stack on a stack of one. The dimension search and the reduction
are the same code for a live stack of one and a block of many. Each
pencil comes as a stack of operators: its Gram, its flow operator, the
tie-breaker and any operators the caller reads. One product of that
stack with the states serves the gates, the tie-break and the caller's
readings, which solve_stack returns as the top state's quadratic forms.
After the eigensolve nothing is searched: eigh returns the eigenvalues
ascending, so the bottom state is the first and the top state the last,
unless the last two are tied.

The first gate, resolution, passes on a prefix 1..r of the dimensions.
It bounds the condition number of the window Gram whitened by the ideal
window's inverse Cholesky factor W0, and its eigensolve is the one that
whitens the pencil. W0 is lower-triangular, so the whitened m-by-m Gram
is the leading block of the whitened n-by-n one, and by Cauchy
interlacing (Horn & Johnson, Matrix Analysis, 4.3) the extreme
eigenvalues of a leading block lie inside those of the whole: its
conditioning can only fall as m falls. So the search for r need not
start at n. It starts where the caller's last solve stopped: above that
dimension it walks up only while the gate passes, and below it each
dimension gates and solves in one step.

On a stream the walk's probes mostly fail: the dimension above the last
one resolved is still unresolved. A failure can be proved without the
eigensolve. The eigenvalues of M are those of the pencil (B, G), G the
ideal Gram, so by Courant-Fischer (Parlett, The Symmetric Eigenvalue
Problem, ch. 1) every vector x bounds them through its Rayleigh quotient
q = x^T B x / x^T G x: lambda_min <= q <= lambda_max. The walk keeps,
per dimension, the bottom and top states x_lo and x_hi of the last
pencil it probed there (rows 0 and -1 of that probe's V^T W0), which
for a window a few ticks on sit near the new extreme states. Where
q_lo <= 0, or q_hi >= KAPPA_CAP (1 + 1e-6) q_lo, the conditioning of M
is proved over the cap and the pencil is ruled out unprobed; the walk
keeps the states as two forms, so both tests are one product with the
Gram's entries, giving q_lo and KAPPA_CAP (1 + 1e-6) q_lo - q_hi. The
margin covers rounding. On a Gram the gate passes, lambda_max <=
KAPPA_CAP lambda_min, so q_lo >= lambda_max / KAPPA_CAP and the second
product is at least 1e-6 lambda_max, while the products err by about
m^2 u KAPPA_CAP lambda_max (the ideal Grams are conditioned under 25
at n = 12), and LAPACK's extreme eigenvalues by about m u lambda_max:
3e-9 lambda_max at n = 12. So a pencil the states rule out also fails
the gate: they decide how many eigensolves run, never which dimension
solves, and without them the walk probes the same dimensions to the
same result.

No pivot test on the Gram's diagonal is needed beside it. With
B = L M L^T, L = W0^-1 and G = L L^T the ideal Gram, each B_ii lies
between the extreme eigenvalues of M times G_ii, so a Gram that passes
has a positive diagonal whose smallest-to-largest ratio is at least
1/KAPPA_CAP times G's: over 6.7e-8 for Legendre at 75 orders. Only a
bare pencil, which whitens by its own diagonal, tests it (_resolved).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .basis import BasisId, _reals, continuum_gram
from .errors import DegenerateStateError, EmptyWindowError, InputError

__all__ = ["WaveFunction", "SpectralDecomposition", "solve_pencil", "rayleigh"]

# A bare pencil's resolution gate: the smallest entry of its Gram's
# diagonal relative to the largest, and the smallest eigenvalue of its
# equilibrated Gram relative to the largest. A pencil with a basis needs
# neither; KAPPA_CAP bounds both (see the module docstring).
PIVOT_RTOL = 1e-13
# Eigenvalues within this relative band of the max are tied.
TIE_RTOL = 1e-10
# Largest accepted conditioning of the window Gram against the ideal
# window. The gate's eigensolve also whitens the pencil, whose states
# are then B-orthonormal to about u * KAPPA_CAP: calibrated so accepted
# solves keep normalization error around 1e-11, under the published
# 1e-10 bound.
KAPPA_CAP = 1e5
# The walk's certificate rules a dimension out where the last probe's
# states read a conditioning at or above this: KAPPA_CAP with a margin
# far over the rounding of the forms and of the gate's extreme
# eigenvalues (see the module docstring).
_CERTIFIED_CAP = KAPPA_CAP * (1.0 + 1e-6)


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
    ascending, alphas[k, :m, :m] with the states as columns. forms[k, i]
    is the top state's quadratic form psi^T O_i psi with the i-th
    operator of the solved stack, Gram and flow operator first, so
    forms[k, 0] is 1 up to the normalization gate. effective_n is 0,
    and every other field 0, where no dimension solves. The lambdas
    ascend, so the bottom state is always the first.
    """
    effective_n: np.ndarray   # (K,) int
    lambdas: np.ndarray       # (K, n)
    alphas: np.ndarray        # (K, n, n)
    i_IH: np.ndarray          # (K,) int
    forms: np.ndarray         # (K, k)


def _quad(alpha: np.ndarray, M: np.ndarray) -> float:
    return float(alpha @ M @ alpha)


def _entries(M, name: str) -> np.ndarray:
    """The matrix of an OperatorMatrix wrapper or of a bare array, real
    numbers, or an InputError naming the argument ``name``."""
    return _reals(getattr(M, "entries", M), name)


def _pencil(A, B) -> tuple[np.ndarray, np.ndarray]:
    """The matrices of A and B, refused unless square and of one size."""
    Af, Bf = _entries(A, "A"), _entries(B, "B")
    if Af.shape != Bf.shape or Af.ndim != 2 or Af.shape[0] != Af.shape[1]:
        raise InputError("pencil operators A and B must be square and of "
                         "one size")
    return Af, Bf


def solve_pencil(A, B, tie_breaker=None) -> SpectralDecomposition:
    """Solve A alpha = lambda B alpha with dimension fallback.

    Accepts OperatorMatrix wrappers or bare square arrays. ``tie_breaker``
    (the age-weighted operator) resolves degenerate top eigenvalues: among
    states tied at lambda_max the one with the smallest age reading wins,
    keeping the indicator glued to the most recent flow structure instead
    of an arbitrary rotation of the eigenspace.
    """
    Af, Bf = _pencil(A, B)
    if not len(Af):
        raise InputError("pencil operators must not be empty")
    basis = getattr(A, "basis", None)
    if basis is not None and basis is not getattr(B, "basis", basis):
        raise InputError("pencil operators must share a basis")
    ops = [Bf, Af]
    if tie_breaker is not None:
        ops.append(_entries(tie_breaker, "tie_breaker"))
        if ops[-1].shape != Af.shape:
            raise InputError("tie_breaker must match the pencil's size")
    if not all(np.isfinite(X).all() for X in ops):
        raise InputError("pencil operators must be finite")
    sol = solve_stack(np.stack(ops)[None], basis)
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
                                 i_IL=0, effective_n=m)


def solve_stack(ops: np.ndarray, basis: BasisId | None = None,
                start: int | None = None,
                probes: list | None = None) -> PencilStack:
    """solve_pencil over a stack of operator stacks, (K, k, n, n).

    ops[:, 0] holds the Grams B and ops[:, 1] the flow operators A of the
    pencils; ops[:, 2], where k > 2, the tie-breakers; any further
    operators are only read: the solution carries each top state's
    quadratic form with every operator of its stack (PencilStack.forms).
    Every pencil first tries the largest dimension its Gram passes the
    resolution gate at, and each that fails a gate there tries one lower,
    each dimension solving its remaining pencils together. The resolution
    gate passes on a prefix of the dimensions (see the module docstring):
    every pencil tries ``start`` (default n) and those below it, and a
    dimension above ``start`` only once it has passed the gate at every
    dimension from ``start`` + 1 up. ``basis`` sets the gate, as the
    OperatorMatrix wrappers do for solve_pencil. While every pencil of
    the stack still walks, or is still unsolved, a dimension reads the
    leading blocks of the whole stack as views; a live stack of one
    always does.

    ``probes``, with a basis, is the caller's walk state: entry m holds
    the bottom and top states of the last pencil the walk above the start
    probed at m, as _probe_forms keeps them (None before the first), and
    each probe there refreshes it. A pencil those states prove to fail
    the resolution gate at m is ruled out without its eigensolve (see the
    module docstring), so they decide how many eigensolves run, not the
    result. Its length is n + 1.
    """
    K, k, n = ops.shape[0], ops.shape[1], ops.shape[-1]
    effective_n = np.zeros(K, dtype=np.intp)
    lambdas = np.zeros((K, n))
    alphas = np.zeros((K, n, n))
    i_IH = np.zeros(K, dtype=np.intp)
    forms = np.zeros((K, k))
    # reach: the largest dimension each unsolved pencil may still try, 0
    # once solved. Above the start it is walked up while the resolution
    # gate passes; top and least are its largest and smallest entries.
    h = min(max(n if start is None else int(start), 1), n)
    reach = effective_n + h
    top, least = h, None
    up = np.arange(K)
    certify = probes is not None and basis is not None
    for m in range(h + 1, n + 1):
        Bm = ops[:, 0, :m, :m] if len(up) == K else ops[up, 0, :m, :m]
        P = probes[m] if certify else None
        if P is not None:
            keep = ~_ruled_out(P, Bm)
            up = up[keep]
        if len(up):
            ok, _, X = _resolved(Bm if len(up) == len(Bm) else Bm[keep],
                                 basis, m)
            if certify:
                probes[m] = _probe_forms(X[-1], basis, m)
            up = up[ok]
        if least is None and len(up) < K:
            least = m - 1
        if not len(up):
            break
        reach[up] = top = m
    if least is None:
        least = top
    m = top if K else 0
    while m:
        if m <= least:
            # every pencil is unsolved and reaches m
            cand, sub = slice(None), ops[:, :, :m, :m]
        else:
            cand = np.flatnonzero(reach >= m)
            sub = ops[cand, :, :m, :m]
        passed, w, al, ih, f = _solve_dim(sub, basis)
        if w is None:
            m -= 1
            continue
        done = cand if passed is None else np.arange(K)[cand][passed]
        effective_n[done] = m
        lambdas[done, :m] = w
        alphas[done, :m, :m] = al
        i_IH[done] = ih
        forms[done] = f
        if passed is None and m <= least:
            break  # the whole stack solved
        reach[done] = 0
        least = 0
        m = min(m - 1, int(reach.max()))
    return PencilStack(effective_n, lambdas, alphas, i_IH, forms)


def _solve_dim(ops, basis):
    """Every gate, for a stack of (k, m, m) operators.

    The resolution gate's eigensolve M = V Lambda V^T, M = W0 B W0^T,
    also whitens: W = Lambda^-1/2 V^T W0 has W B W^T = I, and reduces
    each pencil to the symmetric S = W A W^T, whose eigenvectors map back
    as W^T U (Golub & Van Loan, Matrix Computations, 8.7.2). One product
    of every operator with the states, O alpha, serves the rest: with B
    alpha the normalization and orthogonality gates compare |alpha^T B
    alpha - I| with a cached cap matrix, with A alpha too the residual
    gate checks the eigenpairs, and the diagonal forms alpha_i^T O
    alpha_i of every state give the tie-break its age readings and the
    caller the top state's forms. The gate's cap on the conditioning of
    M bounds how far the states drift from B-orthonormality.

    Returns the mask of the pencils that pass every gate (None where all
    do) and, for those in order, the clamped eigenvalues (ascending, as
    eigh returns them), B-orthonormal states (columns), the indices of
    the top states (the scalar m - 1 where every top state is the last)
    and their forms (k,); the bottom state is always 0. Where none
    passes, the four are None.
    """
    m = ops.shape[-1]
    kept = None
    ok, lam, X = _resolved(ops[:, 0], basis, m)
    if np.count_nonzero(ok) < len(ok):
        if not np.count_nonzero(ok):
            return ok, None, None, None, None
        kept, ops, lam, X = ok, ops[ok], lam[ok], X[ok]
    W = X / np.sqrt(lam)[:, :, None]
    Wt = W.swapaxes(-1, -2)
    S = W @ ops[:, 1] @ Wt
    w, U = np.linalg.eigh(0.5 * (S + S.swapaxes(-1, -2)))
    alphas = Wt @ U

    # verify the quality bounds consumers rely on; a dimension that
    # misses them is not solvable at working precision and gets dropped
    a = alphas[:, None]
    P = ops @ a
    Balphas, Aalphas = P[:, 0], P[:, 1]
    eye, cap = _orthonormality_cap(m)
    # the Frobenius norms of B and A (K, 2, 1), each from one dot
    # product, as np.linalg.norm forms it for a single matrix
    v = ops[:, :2].reshape(len(ops), 2, 1, -1)
    norms = np.sqrt((v @ v.swapaxes(-1, -2))[..., 0])
    R = Aalphas - Balphas * w[:, None, :]
    orth = np.abs(alphas.swapaxes(-1, -2) @ Balphas - eye) <= cap
    res = (np.sqrt((R * R).sum(axis=1))
           <= 1e-8 * (norms[:, 1] + np.abs(w) * norms[:, 0]))
    # every state's form with every operator, (K, k, m); P is not read
    # again, so the products go in its place
    P *= a
    D = P.sum(axis=-2)
    # count_nonzero: one C call, where ndarray.all passes through Python
    if np.count_nonzero(orth) + np.count_nonzero(res) < orth.size + res.size:
        ok = orth.all(axis=(1, 2)) & res.all(axis=1)
        if kept is None:
            kept = ok
        else:
            kept[kept] = ok
        if not np.count_nonzero(ok):
            return kept, None, None, None, None
        w, D, alphas, norms = w[ok], D[ok], alphas[ok], norms[ok]

    # flow is a nonnegative form; tiny negative lambdas are roundoff.
    # eigh's lambdas ascend, so only a row whose first is negative needs
    # the clamp, and the clamp keeps the order: the bottom state is 0.
    if np.count_nonzero(w[:, 0] < 0.0):
        floor = -1e-12 * np.maximum(norms[:, 1], 1.0)
        w = np.where((w < 0.0) & (w > floor), 0.0, w)
    ih = _pick_top(w, D)
    if ih is None:
        return kept, w, alphas, m - 1, D[..., -1]
    return kept, w, alphas, ih, D[np.arange(len(ih)), :, ih]


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


def _resolved(B: np.ndarray, basis: BasisId | None, m: int):
    """The resolution gate on a (K, m, m) stack of Grams, and its factors.

    Whitens each Gram by W0, the ideal window's inverse Cholesky factor,
    or, for a bare pencil (``basis`` None), its own inverse square-root
    diagonal, and takes the eigensolve M = W0 B W0^T = V Lambda V^T,
    which reads M's lower triangle. Returns one flag per Gram, the
    eigenvalues Lambda (ascending) and V^T W0: Lambda^-1/2 V^T W0
    whitens B. Against the ideal window the gate caps the conditioning
    of M at KAPPA_CAP, a comparison of quadratic forms that every basis
    makes alike, so all bases reduce their dimension at the same
    samples. A bare pencil's M, and the diagonal its whitener divides
    by, only have to stay PIVOT_RTOL away from singular.
    """
    if basis is None:
        d = B.diagonal(axis1=-2, axis2=-1)
        W0 = np.eye(m) / np.sqrt(np.where(d > 0.0, d, 1.0))[:, None, :]
        dlo = d.min(axis=1)
        ok = (dlo > 0.0) & (dlo >= PIVOT_RTOL * d.max(axis=1))
    else:
        W0 = _ideal_whitener(basis, m)
    lam, V = np.linalg.eigh(W0 @ B @ W0.swapaxes(-1, -2))
    lo, hi = lam[:, 0], lam[:, -1]
    if basis is None:
        ok &= (lo > 0.0) & (lo >= PIVOT_RTOL * hi)
    else:
        ok = (lo > 0.0) & (hi <= KAPPA_CAP * lo)
    return ok, lam, V.swapaxes(-1, -2) @ W0


def _probe_forms(X: np.ndarray, basis: BasisId, m: int) -> np.ndarray:
    """The certificate's forms from V^T W0 factors (..., m, m), (..., m^2, 2).

    The bottom and top rows x_lo and x_hi, scaled to x^T G x = 1 in the
    ideal Gram, give the columns vec(x_lo x_lo^T) and vec(KAPPA_CAP
    (1 + 1e-6) x_lo x_lo^T - x_hi x_hi^T): a Gram's entries times them
    are q_lo and KAPPA_CAP (1 + 1e-6) q_lo - q_hi.
    """
    x = X[..., [0, -1], :]
    x = x / np.sqrt((x @ continuum_gram(basis, m) * x).sum(axis=-1))[..., None]
    lo, hi = (x[..., i, :, None] * x[..., i, None, :] for i in (0, 1))
    P = np.stack([lo, _CERTIFIED_CAP * lo - hi], axis=-1)
    return P.reshape(P.shape[:-3] + (m * m, 2))


def _ruled_out(P: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Where a stack of Grams (K, m, m) is proved to fail the resolution
    gate by the forms P of _probe_forms, (m^2, 2) for all or (K, m^2, 2)
    one per Gram: where q_lo <= 0 or q_hi >= KAPPA_CAP (1 + 1e-6) q_lo,
    q_lo and q_hi bounding the extreme eigenvalues of M.
    """
    return (B.reshape(len(B), 1, -1) @ P <= 0.0).any(axis=(1, 2))


@lru_cache(maxsize=None)
def _ideal_whitener(basis: BasisId, m: int) -> np.ndarray:
    # inverse Cholesky factor of the ideal Gram; small and well conditioned
    return np.linalg.inv(np.linalg.cholesky(continuum_gram(basis, m)))


def _pick_top(w: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Index of the top state per pencil; ties go to the youngest state.
    None where no pencil's top is tied, so every top state is the last.

    ``w`` ascends along each row, so the tied states of a row are its
    last ones, and the row has a tie only where its last two eigenvalues
    are tied. ``D`` holds every state's forms (K, k, m): with the flow
    operator in D[:, 1] and the tie-breaker in D[:, 2], a state's age
    reading is the ratio of the two.
    """
    m = w.shape[1]
    if m == 1 or D.shape[1] < 3:
        return None
    top = w[:, -1:]
    tied = w >= top - TIE_RTOL * np.abs(top)
    if not np.count_nonzero(tied[:, -2]):
        return None
    # age reading <psi|T|psi>/<psi|A|psi> of each state (column), inf for
    # a state that reads no volume. A row without a tie has one tied
    # state, its last, so every row is picked by the same steps.
    num, den = D[:, 2], D[:, 1]
    has_volume = den > 0.0
    ages = np.where(has_volume, num / np.where(has_volume, den, 1.0), np.inf)
    # first tied state of least age; the first tied one if all read inf,
    # where argmin gives the first state of the row
    pick = np.where(tied, ages, np.inf).argmin(axis=1)
    return np.maximum(pick, m - tied.sum(axis=1))


def rayleigh(psi, A, B) -> float:
    """(alpha^T A alpha) / (alpha^T B alpha).

    ``psi`` may be a WaveFunction or a bare coefficient vector; A and B may
    be OperatorMatrix wrappers or bare arrays.
    """
    alpha = _reals(getattr(psi, "alpha", psi), "psi")
    Af, Bf = _pencil(A, B)
    if alpha.shape != Af.shape[:1]:
        raise InputError("psi must hold one coefficient per row of A")
    den = _quad(alpha, Bf)
    if den == 0.0:
        raise DegenerateStateError("rayleigh denominator vanished")
    return _quad(alpha, Af) / den
