"""Observables per evaluation time: classical averages and spectral ones.

Classical row: P_tau = <pI>/<I> (the plain exponential moving average),
T_tau = <(t_now-t)I>/<I> (mean age of traded volume). Spectral row: solve
the flow pencil, take the top eigenstate psi, and read price and age
through its squared weight: X_IH = <psi|X I|psi>/<psi|I|psi>. P_aver
duplicates P_IH by construction (the weight-function form of the same
quadratic-form ratio) and is emitted separately because downstream
consumers treat it as the adaptive moving average output.

The engine carries moments; this module turns a stack of engine snapshots
into IndicatorSamples with one operator contraction and one stacked pencil
solve. run_over runs it on a whole tape in fixed blocks; evaluate_at reads
its one snapshot with the same arithmetic on Python scalars.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from math import floor, isfinite, sqrt
from typing import NamedTuple

import numpy as np

from .basis import BasisId, linearization_table, matrix_from_moments
from .errors import DegenerateStateError, InputError, NoVolumeError
from .gev import SpectralDecomposition, WaveFunction, _entries, solve_stack
from .measure import PRUNE_HORIZON, MomentEngine, tick_arrays

__all__ = [
    "IndicatorSample",
    "ema_price",
    "age_tau",
    "f_psi",
    "price_IH",
    "age_IH",
    "phi_average",
    "evaluate_at",
    "run_over",
]

log = logging.getLogger("psima")


@dataclass(frozen=True)
class IndicatorSample:
    t_now: float
    p_last: float
    P_tau: float
    P_IH: float
    lambda_IH: float
    lambda_IL: float
    T_IH: float
    T_tau: float
    P_aver: float
    effective_n: int
    p_std: float = float("nan")  # EMA deviation, optional CLI column


def ema_price(moments_price, moments_volume) -> float:
    """P_tau = <pI>/<I> from the zeroth-order moments."""
    num = np.asarray(getattr(moments_price, "values", moments_price))
    den = np.asarray(getattr(moments_volume, "values", moments_volume))
    if den[0] <= 0.0:
        raise NoVolumeError("window holds no traded volume")
    return float(num[0] / den[0])


def age_tau(moments_age, moments_volume) -> float:
    """T_tau = <(t_now - t) I>/<I>."""
    num = np.asarray(getattr(moments_age, "values", moments_age))
    den = np.asarray(getattr(moments_volume, "values", moments_volume))
    if den[0] <= 0.0:
        raise NoVolumeError("window holds no traded volume")
    return float(num[0] / den[0])


def f_psi(psi: WaveFunction, M_num, M_den) -> float:
    """<psi|f|psi>/<psi|I|psi> as a ratio of quadratic forms."""
    a = np.asarray(psi.alpha, dtype=np.float64)
    num = _entries(M_num)
    den = _entries(M_den)
    if a.shape[0] != num.shape[0] or num.shape != den.shape:
        raise InputError("dimension mismatch in f_psi")
    d = float(a @ den @ a)
    if d == 0.0:
        raise DegenerateStateError("f_psi denominator vanished")
    return float(a @ num @ a) / d


def price_IH(dec: SpectralDecomposition, M_pI, M_I) -> float:
    return f_psi(dec.states[dec.i_IH], M_pI, M_I)


def age_IH(dec: SpectralDecomposition, M_ageI, M_I) -> float:
    return f_psi(dec.states[dec.i_IH], M_ageI, M_I)


def phi_average(dec: SpectralDecomposition, M_pI, M_I) -> float:
    # The weight-function moving average; algebraically the same ratio as
    # price_IH, kept as its own output field.
    return price_IH(dec, M_pI, M_I)


# Samples per batched block of run_over: bounds the shift-matrix, moment
# and operator stacks to about 2 MB at n = 12.
_BLOCK = 256
# Most grid samples one run_over call takes. The sample times alone cost
# 8 bytes each, so a step far below the tape's span is refused before
# anything is allocated.
_MAX_GRID_SAMPLES = 10**8

_OK, _NO_VOLUME, _DEGENERATE = 0, 1, 2


class _Readings(NamedTuple):
    status: np.ndarray      # _OK, _NO_VOLUME or _DEGENERATE per sample
    P_tau: np.ndarray
    P_IH: np.ndarray
    lambda_IH: np.ndarray
    lambda_IL: np.ndarray
    T_IH: np.ndarray
    T_tau: np.ndarray
    effective_n: np.ndarray
    p_std: np.ndarray


def _readings(rows: np.ndarray, engine: MomentEngine) -> _Readings:
    """Indicator fields for a stack of the engine's snapshots, (K, 5, 2n-1).

    All four operators of every sample come from one contraction and all
    pencils from one stacked solve, whose dimension search starts at
    engine.resolved_n; the last solved pencil's dimension is written back
    there. A sample without window volume, or whose top state reads no
    volume, gets a nonzero status instead.
    """
    basis, n = engine.basis, engine.n
    vol0 = rows[:, 1, 0]
    novol = vol0 <= 0.0
    status = np.where(novol, _NO_VOLUME, _OK)
    vol0 = np.where(novol, 1.0, vol0)
    P_tau = rows[:, 2, 0] / vol0
    T_tau = rows[:, 3, 0] / vol0
    var = rows[:, 4, 0] / vol0 - P_tau * P_tau
    p_std = np.sqrt(np.where(var > 0.0, var, 0.0))
    # Where no dimension solves (a single tick, or every tick at one
    # timestamp: no time mass to resolve) the adaptive fields fall back to
    # the classical readings with effective_n = 0; lambda has no finite
    # value over a zero-length window and reads 0.
    P_IH = P_tau.copy()
    T_IH = T_tau.copy()
    lambda_IH = np.zeros(len(rows))
    lambda_IL = np.zeros(len(rows))
    effective_n = np.zeros(len(rows), dtype=np.intp)
    live = np.flatnonzero(~novol)
    if len(live):
        table = linearization_table(basis, n - 1)
        # time, volume, price and age operators: B, A, Mp, Ma
        ops = matrix_from_moments(rows[live, :4], n, table)
        sol = solve_stack(ops[:, 1], ops[:, 0], ops[:, 3], basis,
                          engine.resolved_n)
        engine.resolved_n = int(sol.effective_n[-1]) or engine.resolved_n
        for m in set(sol.effective_n.tolist()) - {0}:
            sel = np.flatnonzero(sol.effective_n == m)
            top, low = sol.i_IH[sel], sol.i_IL[sel]
            psi = sol.alphas[sel, :m, top]
            row, col = psi[:, None, :], psi[:, :, None]
            M = ops[sel][:, :, :m, :m]
            den = (row @ M[:, 1] @ col)[:, 0, 0]
            bad = den == 0.0
            den[bad] = 1.0
            at = live[sel]
            P_IH[at] = (row @ M[:, 2] @ col)[:, 0, 0] / den
            T_IH[at] = (row @ M[:, 3] @ col)[:, 0, 0] / den
            status[at[bad]] = _DEGENERATE
            lambda_IH[at] = sol.lambdas[sel, top]
            lambda_IL[at] = sol.lambdas[sel, low]
            effective_n[at] = m
    return _Readings(status, P_tau, P_IH, lambda_IH, lambda_IL, T_IH, T_tau,
                     effective_n, p_std)


def _samples(t_now, p_last, r: _Readings, which) -> list[IndicatorSample]:
    """IndicatorSamples for readings ``which``, stamped with t_now, p_last."""
    cols = [np.asarray(t_now, dtype=np.float64),
            np.asarray(p_last, dtype=np.float64), r.P_tau[which],
            r.P_IH[which], r.lambda_IH[which], r.lambda_IL[which],
            r.T_IH[which], r.T_tau[which],
            r.P_IH[which],  # P_aver: the same quadratic-form ratio
            r.effective_n[which], r.p_std[which]]
    return [IndicatorSample(*v) for v in zip(*(c.tolist() for c in cols))]


def evaluate_at(t_now: float, engine: MomentEngine) -> IndicatorSample:
    """One IndicatorSample from an engine positioned at t_now.

    The fields _readings gives for a stack of one snapshot, bit for bit,
    read without its per-stack bookkeeping.
    """
    if engine.t_now is None or engine.t_now != t_now:
        raise InputError(f"engine is at t_now={engine.t_now}, asked {t_now}")
    engine.check_window()
    rows = engine.raw_rows()
    vol0 = float(rows[1, 0])
    if vol0 <= 0.0:
        raise NoVolumeError("window holds no traded volume")
    P_tau = float(rows[2, 0]) / vol0
    T_tau = float(rows[3, 0]) / vol0
    var = float(rows[4, 0]) / vol0 - P_tau * P_tau
    p_std = sqrt(var if var > 0.0 else 0.0)
    basis, n = engine.basis, engine.n
    ops = matrix_from_moments(rows[None, :4], n,
                              linearization_table(basis, n - 1))
    sol = solve_stack(ops[:, 1], ops[:, 0], ops[:, 3], basis,
                      engine.resolved_n)
    m = int(sol.effective_n[0])
    engine.resolved_n = m or engine.resolved_n
    P_IH, T_IH, lambda_IH, lambda_IL = P_tau, T_tau, 0.0, 0.0
    if m:
        top, low = int(sol.i_IH[0]), int(sol.i_IL[0])
        psi = sol.alphas[0, :m, top].copy()
        M = ops[0, :, :m, :m]
        den = float(psi @ M[1] @ psi)
        if den == 0.0:
            raise DegenerateStateError("f_psi denominator vanished")
        P_IH = float(psi @ M[2] @ psi) / den
        T_IH = float(psi @ M[3] @ psi) / den
        lambda_IH = float(sol.lambdas[0, top])
        lambda_IL = float(sol.lambdas[0, low])
    return IndicatorSample(float(t_now), float(engine.p_last), P_tau, P_IH,
                           lambda_IH, lambda_IL, T_IH, T_tau,
                           P_IH,  # P_aver: the same quadratic-form ratio
                           m, p_std)


def run_over(ticks, basis: BasisId, n: int, tau: float,
             grid: float | None = None) -> tuple[list[IndicatorSample], int]:
    """Indicator series over a tape; returns (samples, degenerate_count).

    Sampling is per tick by default. With ``grid`` the samples fall at
    t0 + k*grid, k = 0, 1, ..., up to the last tick, t0 the first tick's
    time; each is formed from k, so no rounding accumulates along a long
    tape. A step giving more than _MAX_GRID_SAMPLES (10^8) samples raises
    InputError. Samples where the window is empty, volume-free, or
    spectrally degenerate are skipped and counted.

    The tape runs in blocks of _BLOCK samples: the engine steps through a
    block's sample times (MomentEngine.advance_steps), and the block's
    readings are solved together (_readings), with the arithmetic
    evaluate_at runs on one snapshot.
    """
    t, p, dV = tick_arrays(ticks)
    if len(t) == 0:
        raise InputError("empty tick stream")
    if np.any(np.diff(t) < 0):
        raise InputError("tick times must be nondecreasing")
    engine = MomentEngine(basis, n, tau)
    if grid is None:
        times = t
        ends = np.arange(1, len(t) + 1)
    else:
        t0, last = float(t[0]), float(t[-1])
        if not (isfinite(grid) and grid > 0 and last + grid > last):
            raise InputError(f"grid step must be finite, positive and "
                             f"advance the clock, got {grid!r}")
        steps = (last - t0) / grid
        if not steps < _MAX_GRID_SAMPLES:
            raise InputError(f"grid step {grid!r} asks for {steps + 1:.3g} "
                             f"samples, over the limit of "
                             f"{_MAX_GRID_SAMPLES:.0e}")
        times = t0 + np.arange(floor(steps) + 1) * grid
        times = times[times <= last]
        ends = np.searchsorted(t, times, side="right")
    horizon = PRUNE_HORIZON * engine.tau
    samples: list[IndicatorSample] = []
    degenerate = 0
    for b0 in range(0, len(times), _BLOCK):
        b1 = min(b0 + _BLOCK, len(times))
        rows = engine.advance_steps(times[b0:b1], t, p, dV,
                                    int(ends[b0 - 1]) if b0 else 0,
                                    ends[b0:b1])
        last_tick = ends[b0:b1] - 1
        # the window is empty once its last tick is past the horizon
        inside = np.flatnonzero(~(times[b0:b1] - t[last_tick] > horizon))
        r = _readings(rows[inside], engine)
        good = np.flatnonzero(r.status == _OK)
        degenerate += (b1 - b0) - len(good)
        keep = inside[good]
        samples += _samples(times[b0:b1][keep], p[last_tick[keep]], r, good)
    if degenerate:
        log.info("skipped %d degenerate samples of %d", degenerate,
                 degenerate + len(samples))
    return samples, degenerate
