"""Observables per evaluation time: classical averages and spectral ones.

Classical row: P_tau = <pI>/<I> (the plain exponential moving average),
T_tau = <(t_now-t)I>/<I> (mean age of traded volume). Spectral row: solve
the flow pencil, take the top eigenstate psi, and read price and age
through its squared weight: X_IH = <psi|X I|psi>/<psi|I|psi>. P_aver
duplicates P_IH by construction (the weight-function form of the same
quadratic-form ratio) and is emitted separately because downstream
consumers treat it as the adaptive moving average output.

The engine carries moments; this module reads every sample the same two
steps. _solve turns a stack of engine snapshots into pencil solutions with
one operator assembly and one stacked solve, which also returns each top
state's forms with the price, age and volume operators. _reading forms one
sample on Python floats: the classical fields from the order-0 moments,
and P_IH and T_IH as ratios of the top state's forms. evaluate_at takes
both steps on a stack of one. run_blocks takes them on a whole tape in
fixed blocks, one solve per block and one reading per sample, and yields
each block's samples as the block is solved, so a caller that writes them
out needs memory for one block, not for the series; run_over is that
iterator collected into one list.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from math import floor, isfinite, sqrt
from typing import Iterable, Iterator

import numpy as np

from .basis import (BasisId, _real, _reals, linearization_table,
                    matrix_from_moments)
from .errors import DegenerateStateError, InputError, NoVolumeError
from .gev import WaveFunction, rayleigh, solve_stack
from .measure import PRUNE_HORIZON, MomentEngine, tick_arrays

__all__ = [
    "IndicatorSample",
    "ema_price",
    "age_tau",
    "f_psi",
    "evaluate_at",
    "run_over",
    "run_blocks",
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


def _ratio0(num, den, names: tuple[str, str]) -> float:
    """The ratio of two moment vectors' order-0 entries. Each is a
    MomentVector or a nonempty 1-d sequence of real numbers; anything
    else is refused with InputError naming its argument."""
    first = []
    for moments, name in zip((num, den), names):
        values = _reals(getattr(moments, "values", moments), name)
        if values.ndim != 1 or not len(values):
            raise InputError(f"{name} must be a moment vector (nonempty, "
                             f"1-d), got shape {values.shape}")
        first.append(float(values[0]))
    if first[1] <= 0.0:
        raise NoVolumeError("window holds no traded volume")
    return first[0] / first[1]


def ema_price(moments_price, moments_volume) -> float:
    """P_tau = <pI>/<I> from the zeroth-order moments."""
    return _ratio0(moments_price, moments_volume,
                   ("moments_price", "moments_volume"))


def age_tau(moments_age, moments_volume) -> float:
    """T_tau = <(t_now - t) I>/<I>."""
    return _ratio0(moments_age, moments_volume,
                   ("moments_age", "moments_volume"))


def f_psi(psi: WaveFunction, M_num, M_den) -> float:
    """<psi|f|psi>/<psi|I|psi> as a ratio of quadratic forms."""
    return rayleigh(psi, M_num, M_den)


# Samples per batched block of run_over: bounds the shift-matrix, moment
# and operator stacks to about 2 MB at n = 12.
_BLOCK = 256
# Most grid samples one run_over call takes. The sample times alone cost
# 8 bytes each, so a step far below the tape's span is refused before
# anything is allocated.
_MAX_GRID_SAMPLES = 10**8

# Readings compute with float errors raised, so a tape whose values
# overflow the moment arithmetic is refused, not read as inf or nan.
_RAISE = dict(over="raise", invalid="raise", divide="raise")
_OVERFLOWS = (FloatingPointError, np.linalg.LinAlgError)


def _overflow(first: float, last: float, exc: Exception) -> InputError:
    at = repr(first) if first == last else f"{first!r} to {last!r}"
    return InputError(f"values at sample time {at} overflow the moment "
                      f"arithmetic ({exc})")


# Engine rows in the order solve_stack reads operators: the Gram (time),
# the flow operator (volume), the tie-breaker (age), then price.
_SOLVE_ROWS = np.array([0, 1, 3, 2])


def _solve(rows: np.ndarray, engine: MomentEngine) -> Iterable[tuple]:
    """The pencils of a stack of the engine's snapshots, (K, 5, 2n-1).

    All four operators of every snapshot come from one assembly and all
    pencils from one stacked solve, whose dimension search starts at
    engine.resolved_n and reads and refreshes engine.probe_states; the
    last solved pencil's dimension is written back to resolved_n. Gives
    per snapshot (effective_n, i_IH, lambdas, forms) as Python values,
    forms being the top state's with the Gram, flow, age and price
    operators; an unsolved pencil's fields read 0, as do those of a
    snapshot with no time mass (its window spans no time), whose zero
    Gram no dimension resolves.
    """
    if not len(rows):
        return ()
    basis, n = engine.basis, engine.n
    ops = matrix_from_moments(rows.take(_SOLVE_ROWS, axis=1), n,
                              linearization_table(basis, n - 1))
    sol = solve_stack(ops, basis, engine.resolved_n, engine.probe_states)
    engine.resolved_n = int(sol.effective_n[-1]) or engine.resolved_n
    return zip(sol.effective_n.tolist(), sol.i_IH.tolist(),
               sol.lambdas.tolist(), sol.forms.tolist())


def _reading(t_now: float, p_last: float, moments: list[float],
             pencil: tuple) -> IndicatorSample:
    """The sample of one snapshot with window volume, on Python floats.

    ``moments`` holds its order-0 volume, price, age and p^2 moments, and
    ``pencil`` its solution as _solve gives it. Raises
    DegenerateStateError where the top state reads no volume, and
    FloatingPointError where a field overflows.
    """
    vol0, price0, age0, sq0 = moments
    m, i_IH, lambdas, forms = pencil
    P_tau = price0 / vol0
    T_tau = age0 / vol0
    var = sq0 / vol0 - P_tau * P_tau
    p_std = sqrt(var if var > 0.0 else 0.0)
    # Where no dimension solves (a single tick, or every tick at one
    # timestamp: no time mass to resolve) the adaptive fields fall back to
    # the classical readings with effective_n = 0; lambda has no finite
    # value over a zero-length window and reads 0.
    P_IH, T_IH = P_tau, T_tau
    if m:
        _, f_flow, f_age, f_price = forms
        if f_flow == 0.0:
            raise DegenerateStateError("top state reads no volume")
        P_IH = f_price / f_flow
        T_IH = f_age / f_flow
    # Python floats overflow to inf without a floating-point error
    if not all(map(isfinite, (P_tau, T_tau, var, P_IH, T_IH))):
        raise FloatingPointError("overflow in the readings")
    return IndicatorSample(t_now, p_last, P_tau, P_IH, lambdas[i_IH],
                           lambdas[0], T_IH, T_tau,
                           P_IH,  # P_aver: the same quadratic-form ratio
                           m, p_std)


def evaluate_at(t_now: float, engine: MomentEngine) -> IndicatorSample:
    """One IndicatorSample from an engine positioned at t_now.

    The engine's snapshot goes through _solve as a stack of one and its
    fields through _reading, the two steps run_over takes for every
    sample, so both give the same bits; the moments overflowing that
    arithmetic are refused as run_over refuses them.
    """
    try:
        at = engine.t_now
    except AttributeError:  # a reading pays for no type check
        raise InputError(f"engine must be a MomentEngine, got "
                         f"{engine!r}") from None
    if at is None or at != t_now:
        raise InputError(f"engine is at t_now={at}, asked {t_now}")
    engine.check_window()
    t_now = float(t_now)
    rows = engine.raw_rows()
    moments = rows[1:, 0].tolist()
    if moments[0] <= 0.0:
        raise NoVolumeError("window holds no traded volume")
    try:
        with np.errstate(**_RAISE):
            (pencil,) = _solve(rows[None], engine)
            return _reading(t_now, float(engine.p_last), moments, pencil)
    except _OVERFLOWS as exc:
        raise _overflow(t_now, t_now, exc) from None


def run_over(ticks, basis: BasisId, n: int, tau: float,
             grid: float | None = None) -> tuple[list[IndicatorSample], int]:
    """Indicator series over a tape; returns (samples, degenerate_count).

    run_blocks collected into one list, with its skipped counts summed;
    see run_blocks for the sampling, the skipped samples and the errors.
    """
    samples: list[IndicatorSample] = []
    degenerate = 0
    for block, skipped in run_blocks(ticks, basis, n, tau, grid):
        samples += block
        degenerate += skipped
    if degenerate:
        log.info("skipped %d degenerate samples of %d", degenerate,
                 degenerate + len(samples))
    return samples, degenerate


def run_blocks(ticks, basis: BasisId, n: int, tau: float,
               grid: float | None = None
               ) -> Iterator[tuple[list[IndicatorSample], int]]:
    """Indicator series over a tape, yielded as (samples, skipped) per block.

    Sampling is per tick by default. With ``grid`` the samples fall at
    t0 + k*grid, k = 0, 1, ..., up to the last tick, t0 the first tick's
    time; each is formed from k, so no rounding accumulates along a long
    tape. A step giving more than _MAX_GRID_SAMPLES (10^8) samples raises
    InputError, as do malformed ticks; both are refused by this call,
    before the first block. Samples where the window is empty,
    volume-free, or spectrally degenerate are skipped and counted in their
    block's ``skipped``. Values that overflow the moment arithmetic raise
    InputError naming the block's times, from the block that meets them;
    the blocks before it have been yielded.

    The tape runs in blocks of _BLOCK samples: the engine steps through a
    block's sample times (MomentEngine.advance_steps), the block's pencils
    are solved together (_solve), and each sample is formed by _reading,
    the two steps evaluate_at takes for its one snapshot. Only the engine
    and the tick columns are kept from one block to the next.
    """
    t, p, dV = tick_arrays(ticks)
    if len(t) == 0:
        raise InputError("empty tick stream")
    engine = MomentEngine(basis, n, tau)
    first, last = float(t[0]), float(t[-1])
    count = len(t)
    if grid is not None:
        grid = _real(grid, "grid")
        if not (isfinite(grid) and grid > 0 and last + grid > last):
            raise InputError(f"grid step must be finite, positive and "
                             f"advance the clock, got {grid!r}")
        steps = (last - first) / grid
        if not steps < _MAX_GRID_SAMPLES:
            raise InputError(f"grid step {grid!r} asks for {steps + 1:.3g} "
                             f"samples, over the limit of "
                             f"{_MAX_GRID_SAMPLES:.0e}")
        count = floor(steps) + 1
    return _blocks(engine, t, p, dV, grid, count)


def _blocks(engine: MomentEngine, t, p, dV, grid: float | None,
            count: int) -> Iterator[tuple[list[IndicatorSample], int]]:
    """run_blocks' loop over at most ``count`` samples.

    Float errors are raised block by block, never across a yield: numpy's
    error state belongs to the running context, and a suspended generator
    would leave it set in its caller's.
    """
    horizon = PRUNE_HORIZON * engine.tau
    # the span of sample times an overflow is reported in; each block
    # narrows it to its own
    first, last = float(t[0]), float(t[-1])
    i0 = 0  # the first tick the engine has not absorbed
    for b0 in range(0, count, _BLOCK):
        b1 = min(b0 + _BLOCK, count)
        try:
            with np.errstate(**_RAISE):
                if grid is None:
                    times, ends = t[b0:b1], np.arange(b0 + 1, b1 + 1)
                else:
                    # first + k*grid rises with k, so the times past the
                    # last tick are the tail of the last block
                    times = t[0] + np.arange(b0, b1) * grid
                    times = times[times <= t[-1]]
                    if not len(times):
                        return
                    ends = np.searchsorted(t, times, side="right")
                first, last = float(times[0]), float(times[-1])
                rows = engine.advance_steps(times, t, p, dV, i0, ends)
                last_tick = ends - 1
                # the window is empty once its last tick is past the horizon
                inside = np.flatnonzero(~(times - t[last_tick] > horizon))
                keep = inside[rows[inside, 1, 0] > 0.0]
                # rows[keep] is bound to no name: a copy held across the
                # yield doubled a whole-tape run's page faults
                samples = []
                for ts, p_last, moments, pencil in zip(
                        times[keep].tolist(), p[last_tick[keep]].tolist(),
                        rows[keep, 1:, 0].tolist(),
                        _solve(rows[keep], engine)):
                    try:
                        samples.append(_reading(ts, p_last, moments, pencil))
                    except DegenerateStateError:
                        pass
        except _OVERFLOWS as exc:
            raise _overflow(first, last, exc) from None
        i0 = int(ends[-1])
        yield samples, len(times) - len(samples)
