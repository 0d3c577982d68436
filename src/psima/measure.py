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
* ``MomentEngine`` / ``advance_incremental`` shift an existing moment state
  from t_now to a later timestamp without touching old ticks. Shifting the
  reference time rescales every omega by s = exp(-delta/tau) and moves the
  window coordinate affinely (x' = s*x for the exponential coordinate,
  y' = y + delta/tau for the linear one), so Q_m at the new coordinate is an
  exact linear combination of Q_0..Q_m at the old one. The combination
  matrix G comes from the three-term recurrences (for Laguerre, from the
  addition theorem in closed form); no per-tick history is needed. The age
  measure additionally couples to volume since
  (t_new - t) = (t_old_now - t) + delta. A shift longer than the prune
  horizon leaves no unpruned mass, so it clears the state instead.

The engine absorbs a tick at its own arrival time when it can: there the
age is 0 and Q_m = 1 in every family, so the tick adds one constant per
row and needs no polynomial evaluation. The shift matrices of many steps
are built in one vectorized recurrence (``MomentEngine.advance_steps``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from math import isfinite
from typing import NamedTuple

import numpy as np

from . import _kernels
from .basis import BasisId, max_model_order
from .errors import CapabilityError, EmptyWindowError, InputError

__all__ = [
    "Tick",
    "MeasureKind",
    "MomentVector",
    "MomentEngine",
    "x_of_t",
    "omega",
    "resample_full",
    "advance_incremental",
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
    """(t, p, dV) float64 arrays from a Tick sequence or an array triple."""
    if isinstance(ticks, tuple) and len(ticks) == 3:
        t, p, dV = (np.asarray(a, dtype=np.float64) for a in ticks)
    else:
        if len(ticks) == 0:
            return (np.empty(0), np.empty(0), np.empty(0))
        arr = np.asarray(ticks, dtype=np.float64)
        t, p, dV = arr[:, 0].copy(), arr[:, 1].copy(), arr[:, 2].copy()
    if not (len(t) == len(p) == len(dV)):
        raise InputError("tick columns differ in length")
    _check_ticks(t, p, dV)
    return t, p, dV


_NOT_FINITE = "tick times, prices and shares must be finite"
_OVERFLOW = "price * price * shares of a tick must be finite"


def _check_finite(*columns: np.ndarray) -> None:
    if not all(np.isfinite(c).all() for c in columns):
        raise InputError(_NOT_FINITE)


def _check_ticks(t: np.ndarray, p: np.ndarray, dV: np.ndarray) -> None:
    """Refuse ticks with a non-finite field or a non-finite p^2 dV.

    p^2 dV is the largest term a tick adds to the moment rows; where it
    overflows, the rows and every reading after them would be inf or nan.
    """
    _check_finite(t, p, dV)
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(p * p * dV).all():
            raise InputError(_OVERFLOW)


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


def _check_orders(basis: BasisId, orders: int) -> None:
    if orders < 1:
        raise InputError("order_count must be >= 1")
    limit = 2 * max_model_order(basis) - 1
    if orders > limit:
        raise CapabilityError(
            f"{basis.value}: {orders} moment orders exceed the stable "
            f"limit {limit}")


def resample_full(ticks, t_now: float, tau: float, basis: BasisId,
                  orders: int, measure: MeasureKind) -> MomentVector:
    """Moments at t_now computed from scratch over the whole tape.

    Only ticks with t <= t_now participate; older ticks than the pruning
    horizon contribute nothing. Raises EmptyWindowError when no tick lies
    at or before t_now.
    """
    _check_orders(basis, orders)
    _check_tau(tau)
    t, p, dV = tick_arrays(ticks)
    if len(t) > 1 and np.any(np.diff(t) < 0):
        raise InputError("tick times must be nondecreasing")
    idx = int(np.searchsorted(t, t_now, side="right"))
    if idx == 0:
        raise EmptyWindowError(f"no ticks at or before t_now={t_now}")
    out = np.zeros((5, orders))
    _kernels.accumulate_block(t, p, dV, 0, idx, t[0], t_now, tau, basis, out)
    return MomentVector(basis=basis, tau=tau, t_now=float(t_now),
                        measure=measure, values=out[_ROW[measure]].copy())


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


def advance_incremental(state: MomentVector, new_ticks, new_t_now: float, *,
                        volume: MomentVector | None = None,
                        t_prev: float | None = None) -> MomentVector:
    """Shift a moment vector to a later reference time and absorb new ticks.

    The age measure needs the volume moments taken at the same old t_now
    (``volume=``) because ages of existing mass grow by the shift. For the
    time measure, ``t_prev`` supplies the timestamp of the last tick already
    absorbed so the first new tick gets its true interval; without it the
    first new interval counts as zero.
    """
    delta = float(new_t_now) - state.t_now
    if delta < 0:
        raise InputError("new_t_now must not precede the state's t_now")
    orders = state.order_count
    rows = np.zeros((5, orders))
    rows[_ROW[state.measure]] = state.values
    if state.measure is MeasureKind.AGE_VOLUME:
        if volume is None:
            raise InputError("age advance needs the companion volume moments")
        if volume.t_now != state.t_now or volume.measure is not MeasureKind.VOLUME_DV:
            raise InputError("companion volume moments must share t_now")
        rows[_ROW[MeasureKind.VOLUME_DV]] = volume.values
    t, p, dV = tick_arrays(new_ticks)
    if len(t) and (np.any(np.diff(t) < 0) or t[-1] > new_t_now):
        raise InputError("new ticks must be nondecreasing and <= new_t_now")
    # one engine step over a state holding this measure's row (and, for
    # age, the volume row it couples to); its order count may be even
    engine = MomentEngine(state.basis, (orders + 1) // 2, state.tau)
    engine.orders = orders
    engine.state = rows
    engine.t_now = state.t_now
    engine.last_t = None if t_prev is None else float(t_prev)
    engine.tick_count = 1  # the state holds mass, so the step shifts it
    engine.advance_to(new_t_now, t, p, dV, 0, len(t))
    return MomentVector(basis=state.basis, tau=state.tau,
                        t_now=float(new_t_now), measure=state.measure,
                        values=engine.state[_ROW[state.measure]].copy())


def _after(first, a: np.ndarray) -> np.ndarray:
    """``first`` followed by all but the last entry of ``a``."""
    out = np.empty_like(a)
    out[0] = first
    out[1:] = a[:-1]
    return out


class MomentEngine:
    """Streaming accumulator for all five moment rows of one (basis, n, tau).

    Feed it tick arrays in time order via advance_to(), or many sample
    times at once via advance_steps(); read moments() or hand the whole
    engine to indicators.evaluate_at. State advances are O(orders^2) per
    step plus O(orders) per tick, independent of history length.
    """

    def __init__(self, basis: BasisId, n: int, tau: float):
        if n < 1:
            raise InputError("model dimension n must be >= 1")
        if n > max_model_order(basis):
            raise CapabilityError(
                f"{basis.value}: n={n} exceeds the stable model order "
                f"{max_model_order(basis)}")
        _check_tau(tau)
        self.basis = basis
        self.n = int(n)
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
        """Move the reference time to t_new, absorbing ticks t[i0:i1]."""
        self._step(float(t_new), t, p, dV, int(i0), max(int(i0), int(i1)))

    def advance_steps(self, times, t, p, dV, i0: int, ends) -> np.ndarray:
        """Step through sample times; the moment rows at each, (K, 5, orders).

        Step k moves the reference time to times[k] and absorbs the ticks
        before index ends[k] that no earlier step absorbed, starting from
        tick i0. A step whose one new tick arrives at times[k] adds that
        tick's arrival rows (_kernels.arrival_rows); any other step runs
        the general accumulate. The shift matrices of all steps come from
        one vectorized build, then the state advances step by step. A step
        longer than the prune horizon leaves no unpruned mass, as
        accumulate_block and resample_full count it: it sets the state to
        zero and builds no shift matrix (the matrix would overflow).

        One sample time takes _step, the same step on Python scalars.
        """
        times = np.asarray(times, dtype=np.float64)
        ends = np.asarray(ends, dtype=np.intp)
        if len(times) == 1:
            self._step(float(times[0]), t, p, dV, int(i0), int(ends[0]))
            return self.state[None].copy()
        if not len(times):
            return np.empty((0, 5, self.orders))
        _check_finite(times)
        starts = _after(i0, ends)
        gaps = times - _after(times[0] if self.t_now is None else self.t_now,
                              times)
        if (gaps < 0).any():
            raise InputError("engine time must be nondecreasing")
        new = ends - starts
        if (new < 0).any():
            raise InputError("tick ranges must not run backwards")
        lo, hi = int(i0), int(ends[-1])
        arrival = np.zeros(len(times), dtype=bool)
        if hi > lo:
            _check_ticks(t[lo:hi], p[lo:hi], dV[lo:hi])
            busy = new > 0
            if (t[ends[busy] - 1] > times[busy]).any():
                raise InputError("cannot absorb ticks after t_new")
            one = np.flatnonzero(new == 1)
            arrival[one] = t[starts[one]] == times[one]
            # the arrival ticks, each with the time of the tick before it
            l = starts[arrival]
            before = np.where(l > lo, t[l - 1],
                              t[lo] if self.last_t is None else self.last_t)
            added = _kernels.arrival_rows(t[l] - before, p[l], dV[l])
        far = gaps > PRUNE_HORIZON * self.tau
        G = _kernels.shift_matrices(self.basis, gaps[~far] / self.tau,
                                    self.orders)
        # a far step's decay is never used, and its gap / tau may overflow
        decay = np.exp(-np.where(far, 0.0, gaps) / self.tau)

        out = np.empty((len(times), 5, self.orders))
        st = self.state
        last = self.last_t
        has_ticks = self.tick_count > 0
        n_arrived = 0
        g = 0                           # next near step's matrix in G
        steps = zip(times.tolist(), gaps.tolist(), decay.tolist(),
                    far.tolist(), starts.tolist(), ends.tolist(),
                    arrival.tolist())
        for k, (ts, gap, fade, gone, a, b, arrives) in enumerate(steps):
            if gone:
                st = np.zeros_like(st)
            else:
                if gap > 0 and has_ticks:
                    st[3] += gap * st[1]        # ages grow with the shift
                    st = fade * (st @ G[g].T)
                g += 1
            if arrives:
                st += added[:, n_arrived, None]
                n_arrived += 1
            elif b > a:
                _kernels.accumulate_block(t, p, dV, a, b,
                                          t[a] if last is None else last, ts,
                                          self.tau, self.basis, st)
            if b > a:
                has_ticks = True
                last = float(t[b - 1])
            out[k] = st
        self.state = st
        self.t_now = float(times[-1])
        if hi > lo:
            self.last_t = float(t[hi - 1])
            self.p_last = float(p[hi - 1])
            self.tick_count += hi - lo
        return out

    def _step(self, ts: float, t, p, dV, a: int, b: int) -> None:
        """One step of advance_steps: to time ts, absorbing ticks a..b-1.

        The checks, gates and arithmetic of the block path, on Python
        scalars and without its index arrays, so a live caller pays for
        one step only. The state bits equal the block path's.
        """
        if not isfinite(ts):
            raise InputError(_NOT_FINITE)
        gap = 0.0 if self.t_now is None else ts - self.t_now
        if gap < 0:
            raise InputError("engine time must be nondecreasing")
        if b < a:
            raise InputError("tick ranges must not run backwards")
        arrives = False
        if b > a:
            if b - a == 1:
                ta, pa, va = float(t[a]), float(p[a]), float(dV[a])
                if not (isfinite(ta) and isfinite(pa) and isfinite(va)):
                    raise InputError(_NOT_FINITE)
                if not isfinite(pa * pa * va):
                    raise InputError(_OVERFLOW)
                arrives = ta == ts
            else:
                _check_ticks(t[a:b], p[a:b], dV[a:b])
            if t[b - 1] > ts:
                raise InputError("cannot absorb ticks after t_new")
        st = self.state
        if gap > PRUNE_HORIZON * self.tau:
            st = np.zeros_like(st)
        elif gap > 0 and self.tick_count > 0:
            st[3] += gap * st[1]        # ages grow with the shift
            G = _single_shift(self.basis, gap / self.tau, self.orders)
            st = float(np.exp(-gap / self.tau)) * (st @ G.T)
        if arrives:
            dt = ta - (ta if self.last_t is None else self.last_t)
            st += np.array([[dt], [va], [pa * va], [0.0 * va],
                            [pa * pa * va]])
        elif b > a:
            _kernels.accumulate_block(t, p, dV, a, b,
                                      t[a] if self.last_t is None
                                      else self.last_t, ts,
                                      self.tau, self.basis, st)
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
                            values=self.state[_ROW[measure]].copy())

    def raw_rows(self) -> np.ndarray:
        """All five moment rows (time, volume, price, age, p^2); no copy."""
        return self.state
