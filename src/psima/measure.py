"""Window measures and the streaming moment engine.

Every indicator in this package is a ratio of moments

    <Q_m f> = sum_l f(t_l) Q_m(x(t_l)) omega(t_l) w_l

taken over the trade tape against the exponential window
omega(t) = exp(-(t_now - t)/tau). The per-tick weight w_l is dt for the
time measure (first tick of a stream counts as a zero-length interval) and
dV for the volume family. Four public measures exist; a fifth internal row
carries p^2 dV so the CLI can emit a variance column without a second pass.

Two ways to obtain moments at a timestamp:

* ``resample_full`` walks the whole tape; the reference path.
* ``MomentEngine`` shifts its moment state from t_now to a later
  timestamp without touching old ticks. Shifting the reference time
  rescales every omega by s = exp(-delta/tau) and moves the window
  coordinate affinely (x' = s*x for the exponential coordinate,
  y' = y + delta/tau for the linear one), so Q_m at the new coordinate is an
  exact linear combination of Q_0..Q_m at the old one. The combination
  matrix G comes from the addition theorem in closed form for Laguerre,
  and for the exponential bases as a Chebyshev series in exp(-delta/tau)
  with a cached coefficient table (see _kernels); no per-tick history is
  needed. The age measure additionally couples to volume since
  (t_new - t) = (t_old_now - t) + delta. A shift longer than the prune
  horizon leaves no unpruned mass, so it clears the state instead.

Every engine step runs one body (``MomentEngine._step``). A tick absorbed
at its own arrival time has age 0 and Q_m = 1 in every family, so it adds
one constant per row and needs no polynomial evaluation. ``advance_steps``
builds the shift matrices of many steps in one vectorized call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from math import isfinite
from typing import NamedTuple

import numpy as np

from . import _kernels
from .basis import BasisId, _check_order_count, _integer, max_model_order
from .errors import CapabilityError, EmptyWindowError, InputError

__all__ = [
    "Tick",
    "MeasureKind",
    "MomentVector",
    "MomentEngine",
    "x_of_t",
    "omega",
    "resample_full",
    "tick_arrays",
    "PRUNE_HORIZON",
]

# Ticks older than this many tau carry omega < 1e-16 and are dropped.
PRUNE_HORIZON = -np.log(_kernels.PRUNE_OMEGA)


class Tick(NamedTuple):
    t: float   # seconds, nondecreasing across a stream
    p: float   # execution price, positive
    dV: float  # shares traded, nonnegative


class MeasureKind(enum.Enum):
    TIME_DT = "time_dt"
    VOLUME_DV = "volume_dv"
    PRICE_VOLUME = "price_volume"
    AGE_VOLUME = "age_volume"


_ROW = {
    MeasureKind.TIME_DT: 0,
    MeasureKind.VOLUME_DV: 1,
    MeasureKind.PRICE_VOLUME: 2,
    MeasureKind.AGE_VOLUME: 3,
}
_ROW_P2 = 4


@dataclass(frozen=True)
class MomentVector:
    basis: BasisId
    tau: float
    t_now: float
    measure: MeasureKind
    values: np.ndarray  # <Q_m f>, m = 0..order_count-1

    @property
    def order_count(self) -> int:
        return len(self.values)


def tick_arrays(ticks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, p, dV) float64 arrays from a Tick sequence or an array triple.

    A tuple is read as columns only where all three items are numpy arrays;
    any other sequence, a tuple of three Ticks among them, is read as rows.
    """
    try:
        if (isinstance(ticks, tuple) and len(ticks) == 3
                and all(isinstance(c, np.ndarray) for c in ticks)):
            t, p, dV = (np.asarray(a, dtype=np.float64) for a in ticks)
        else:
            if len(ticks) == 0:
                return (np.empty(0), np.empty(0), np.empty(0))
            arr = np.asarray(ticks, dtype=np.float64)
            if arr.ndim != 2 or arr.shape[1] != 3:
                raise InputError(_SHAPE)
            t, p, dV = arr[:, 0].copy(), arr[:, 1].copy(), arr[:, 2].copy()
    except (TypeError, ValueError):
        raise InputError(_SHAPE) from None
    if not t.ndim == p.ndim == dV.ndim == 1:
        raise InputError(_SHAPE)
    _check_range(t, p, dV, 0, len(t))
    _check_ticks(t, p, dV)
    return t, p, dV


_SHAPE = ("ticks must be rows of exactly 3 numbers (t, p, dV) or three "
          "1-d columns")
_NOT_FINITE = "tick times, prices and shares must be finite"
_OVERFLOW = "price * price * shares of a tick must be finite"


def _overflow_at(ts: float) -> str:
    return f"values at sample time {ts!r} overflow the moment arithmetic"


def _check_finite(*columns: np.ndarray) -> None:
    if not all(np.isfinite(c).all() for c in columns):
        raise InputError(_NOT_FINITE)


# ticks per slice of _check_ticks, so its temporaries stay near 1 MB
# however long the tape
_CHECK_SLICE = 1 << 16


def _check_ticks(t: np.ndarray, p: np.ndarray, dV: np.ndarray) -> None:
    """Refuse ticks with a non-finite field or a non-finite p^2 dV.

    p^2 dV is the largest term a tick adds to the moment rows; where it
    overflows, the rows and every reading after them would be inf or nan.
    Both checks run over fixed slices of the columns, every slice's
    fields before any p^2 dV, so a tape with both faults gets the same
    refusal as from one check over the whole tape.
    """
    cuts = range(0, len(t), _CHECK_SLICE)
    for a in cuts:
        b = a + _CHECK_SLICE
        _check_finite(t[a:b], p[a:b], dV[a:b])
    with np.errstate(over="ignore", invalid="ignore"):
        for a in cuts:
            b = a + _CHECK_SLICE
            if not np.isfinite(p[a:b] * p[a:b] * dV[a:b]).all():
                raise InputError(_OVERFLOW)


def _check_range(t, p, dV, a: int, b: int) -> None:
    """Refuse a tick range a..b-1 that the tick columns do not hold."""
    if not (isinstance(t, np.ndarray) and isinstance(p, np.ndarray)
            and isinstance(dV, np.ndarray)
            and t.ndim == p.ndim == dV.ndim == 1):
        raise InputError("tick columns must be 1-d numpy arrays, as "
                         "tick_arrays returns")
    if not len(t) == len(p) == len(dV):
        raise InputError("tick columns differ in length")
    if a < 0 or b > len(t):
        raise InputError(f"tick range {a}:{b} lies outside the "
                         f"{len(t)} ticks")


def _check_tau(tau: float) -> None:
    if not (isfinite(tau) and tau > 0):
        raise InputError(f"tau must be finite and positive, got {tau!r}")


def x_of_t(basis: BasisId, t, t_now: float, tau: float):
    """Window coordinate of a timestamp; linear for laguerre, else exponential."""
    _check_tau(tau)
    t = np.asarray(t, dtype=np.float64)
    if basis is BasisId.LAGUERRE:
        return (t - t_now) / tau
    return np.exp((t - t_now) / tau)


def omega(t, t_now: float, tau: float):
    _check_tau(tau)
    return np.exp(-(t_now - np.asarray(t, dtype=np.float64)) / tau)


def _row(measure: MeasureKind) -> int:
    if not isinstance(measure, MeasureKind):
        raise InputError(f"measure must be one of "
                         f"{', '.join(map(str, MeasureKind))}, "
                         f"got {measure!r}")
    return _ROW[measure]


def resample_full(ticks, t_now: float, tau: float, basis: BasisId,
                  orders: int, measure: MeasureKind) -> MomentVector:
    """Moments at t_now computed from scratch over the whole tape.

    Only ticks with t <= t_now participate; older ticks than the pruning
    horizon contribute nothing. Raises EmptyWindowError when no tick lies
    at or before t_now, and InputError when t_now is not finite or
    ``measure`` is not a MeasureKind.
    """
    row = _row(measure)
    orders = _check_order_count(basis, orders, "orders")
    _check_tau(tau)
    if not isfinite(t_now):
        raise InputError(_NOT_FINITE)
    t, p, dV = tick_arrays(ticks)
    if len(t) > 1 and np.any(np.diff(t) < 0):
        raise InputError("tick times must be nondecreasing")
    idx = int(np.searchsorted(t, t_now, side="right"))
    if idx == 0:
        raise EmptyWindowError(f"no ticks at or before t_now={t_now}")
    out = np.zeros((5, orders))
    _kernels.accumulate_block(t, p, dV, 0, idx, t[0], t_now, tau, basis, out)
    return MomentVector(basis=basis, tau=tau, t_now=float(t_now),
                        measure=measure, values=out[row].copy())


# ---------------------------------------------------------------------------
# reference-time shift
# ---------------------------------------------------------------------------

@lru_cache(maxsize=512)
def _single_shift(basis: BasisId, delta_over_tau: float,
                  orders: int) -> np.ndarray:
    # A live stream advances one gap at a time, and its gaps repeat when
    # timestamps come at a fixed resolution (HH:MM:SS.fff: 1 ms steps).
    G = _kernels.shift_matrix(basis, delta_over_tau, orders)
    G.flags.writeable = False
    return G


class MomentEngine:
    """Streaming accumulator for all five moment rows of one (basis, n, tau).

    Feed it tick arrays in time order via advance_to(), or many sample
    times at once via advance_steps(); read moments() or hand the whole
    engine to indicators.evaluate_at. State advances are O(orders^2) per
    step plus O(orders) per tick, independent of history length.
    """

    def __init__(self, basis: BasisId, n: int, tau: float):
        n = _integer(n, "model dimension n")
        if n < 1:
            raise InputError("model dimension n must be >= 1")
        if n > max_model_order(basis):
            raise CapabilityError(
                f"{basis.value}: n={n} exceeds the stable model order "
                f"{max_model_order(basis)}")
        _check_tau(tau)
        self.basis = basis
        self.n = n
        self.tau = float(tau)
        self.orders = 2 * self.n - 1
        self.state = np.zeros((5, self.orders))
        self.t_now: float | None = None
        self.last_t: float | None = None
        self.p_last: float | None = None
        self.tick_count = 0
        # dimension the last solved reading resolved; the next reading's
        # dimension search starts here (indicators.evaluate_at, run_over)
        self.resolved_n = self.n

    def advance_to(self, t_new: float, t: np.ndarray | None = None,
                   p: np.ndarray | None = None, dV: np.ndarray | None = None,
                   i0: int = 0, i1: int = 0) -> None:
        """Move the reference time to t_new, absorbing ticks i0..i1-1.

        The checks of advance_steps on Python scalars, so a live caller
        pays for one step only; the state bits equal advance_steps'.
        """
        ts, a, b = float(t_new), int(i0), int(i1)
        if not isfinite(ts):
            raise InputError(_NOT_FINITE)
        gap = 0.0 if self.t_now is None else ts - self.t_now
        if gap < 0:
            raise InputError("engine time must be nondecreasing")
        if b < a:
            raise InputError("tick ranges must not run backwards")
        if b > a:
            _check_range(t, p, dV, a, b)
            if b - a == 1:
                ta, pa, va = float(t[a]), float(p[a]), float(dV[a])
                if not (isfinite(ta) and isfinite(pa) and isfinite(va)):
                    raise InputError(_NOT_FINITE)
                if not isfinite(pa * pa * va):
                    raise InputError(_OVERFLOW)
            else:
                _check_ticks(t[a:b], p[a:b], dV[a:b])
            if t[b - 1] > ts:
                raise InputError("cannot absorb ticks after t_new")
        if gap > PRUNE_HORIZON * self.tau:
            G, fade = None, 0.0
        else:
            G = _single_shift(self.basis, gap / self.tau, self.orders)
            fade = float(np.exp(-gap / self.tau))
        with np.errstate(over="ignore", invalid="ignore"):
            self._step(ts, gap, fade, G, t, p, dV, a, b)

    def advance_steps(self, times, t, p, dV, i0: int, ends) -> np.ndarray:
        """Step through sample times; the moment rows at each, (K, 5, orders).

        Step k moves the reference time to times[k] and absorbs the ticks
        before index ends[k] that no earlier step absorbed, starting from
        tick i0. The whole block is checked first, and the shift matrices
        of all its steps come from one vectorized build; then _step
        advances the state step by step. The rows are checked for
        overflow once, after the last step, and a refused block leaves the
        engine as it was, naming the first step whose rows overflow.
        """
        times = np.asarray(times, dtype=np.float64)
        ends = np.asarray(ends, dtype=np.intp)
        if not len(times):
            return np.empty((0, 5, self.orders))
        _check_finite(times)
        starts = np.concatenate(([i0], ends[:-1]))
        gaps = np.diff(times, prepend=times[0] if self.t_now is None
                       else self.t_now)
        if (gaps < 0).any():
            raise InputError("engine time must be nondecreasing")
        if (ends < starts).any():
            raise InputError("tick ranges must not run backwards")
        lo, hi = int(i0), int(ends[-1])
        if hi > lo:
            _check_range(t, p, dV, lo, hi)
            _check_ticks(t[lo:hi], p[lo:hi], dV[lo:hi])
            busy = ends > starts
            if (t[ends[busy] - 1] > times[busy]).any():
                raise InputError("cannot absorb ticks after t_new")
        far = gaps > PRUNE_HORIZON * self.tau
        near = iter(_kernels.shift_matrices(self.basis, gaps[~far] / self.tau,
                                            self.orders))
        # a far step's decay is never used, and its gap / tau may overflow
        decay = np.exp(-np.where(far, 0.0, gaps) / self.tau)
        out = np.empty((len(times), 5, self.orders))
        saved = dict(vars(self))
        steps = zip(times.tolist(), gaps.tolist(), decay.tolist(),
                    far.tolist(), starts.tolist(), ends.tolist())
        with np.errstate(over="ignore", invalid="ignore"):
            for k, (ts, gap, fade, gone, a, b) in enumerate(steps):
                self._step(ts, gap, fade, None if gone else next(near),
                           t, p, dV, a, b, check=False)
                out[k] = self.state
        finite = np.isfinite(out).all(axis=(1, 2))
        if not finite.all():
            vars(self).update(saved)
            raise InputError(_overflow_at(float(times[finite.argmin()])))
        return out

    def _step(self, ts: float, gap: float, fade: float, G, t, p, dV,
              a: int, b: int, check: bool = True) -> None:
        """The step body of advance_to and advance_steps, after their checks.

        Shifts the state by ``gap`` to time ts with the window decay
        ``fade`` and shift matrix G, or clears it where G is None (a step
        past the prune horizon), then absorbs ticks a..b-1. A tick that
        arrives at ts has age 0 and Q_m = 1 in every family (L_m(0) =
        P_m(1) = T_m(1) = 1), so it adds one constant per row, the terms
        accumulate_block forms at age 0. The step works on a copy and,
        with ``check``, refuses rows that overflow, so a refused step
        changes nothing; the callers turn overflow warnings off.
        """
        if G is None:
            st = np.zeros_like(self.state)
        else:
            st = self.state.copy()
            if gap > 0 and self.tick_count > 0:
                st[3] += gap * st[1]            # ages grow with the shift
                st = fade * (st @ G.T)
        if b - a == 1 and t[a] == ts:
            pa, va = float(p[a]), float(dV[a])
            dt = ts - (ts if self.last_t is None else self.last_t)
            st += np.array([dt, va, pa * va, 0.0 * va, pa * pa * va])[:, None]
        elif b > a:
            _kernels.accumulate_block(t, p, dV, a, b,
                                      t[a] if self.last_t is None
                                      else self.last_t, ts,
                                      self.tau, self.basis, st)
        if check and not np.isfinite(st).all():
            raise InputError(_overflow_at(ts))
        self.state = st
        self.t_now = ts
        if b > a:
            self.last_t = float(t[b - 1])
            self.p_last = float(p[b - 1])
            self.tick_count += b - a

    def window_empty(self) -> bool:
        if self.tick_count == 0 or self.t_now is None:
            return True
        return (self.t_now - self.last_t) > PRUNE_HORIZON * self.tau

    def check_window(self) -> None:
        if self.window_empty():
            raise EmptyWindowError(
                f"no unpruned ticks at t_now={self.t_now}")

    def moments(self, measure: MeasureKind) -> MomentVector:
        self.check_window()
        return MomentVector(basis=self.basis, tau=self.tau, t_now=self.t_now,
                            measure=measure,
                            values=self.state[_row(measure)].copy())

    def raw_rows(self) -> np.ndarray:
        """All five moment rows (time, volume, price, age, p^2); no copy."""
        return self.state
