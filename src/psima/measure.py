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
one constant per row and needs no polynomial evaluation. ``advance_to``
is the engine's one public step and checks what it is given; run_blocks
steps whole blocks through the private ``_advance_block``, which builds
the shift matrices of all a block's steps in one vectorized call and
checks nothing run_blocks has already checked.

The tick rules are written once, in ``_tick_fault``: the CSV reader and
the engine's one-tick step call it per tick, and ``_check_ticks`` finds
the first bad tick of whole columns and names it by the same call, so
every path refuses a tape for its first bad tick, in the same words.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import isfinite
from typing import NamedTuple

import numpy as np

from . import _kernels
from ._kernels import PRUNE_HORIZON, pruned
from .basis import (BasisId, _check_order_count, _count, _integer,
                    _order_bound, _real, _reals, max_model_order)
from .errors import EmptyWindowError, InputError

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
    Ticks are checked as an engine checks them, time order included.
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
_SIGN = "tick prices must be positive and shares nonnegative"
_OVERFLOW = "price * price * shares of a tick must be finite"
_UNSORTED = "tick times must be nondecreasing"
_STEP = "the time step from one tick to the next must be finite"
_SAMPLE_TIME = "sample time t_new must be finite"


def _overflow_at(ts: float) -> str:
    return f"values at sample time {ts!r} overflow the moment arithmetic"


def _tick_fault(t: float, p: float, dV: float,
                prev: float | None) -> str | None:
    """The message of the first tick rule that the tick (t, p, dV) breaks
    after a tick at time ``prev`` (None for a tape's first), or None.

    The rules: finite fields, a price > 0 and shares >= 0, a finite p^2 dV
    (the largest term a tick adds to the moment rows), a time not before
    ``prev`` and a finite step from it.
    """
    if not (isfinite(t) and isfinite(p) and isfinite(dV)):
        return _NOT_FINITE
    if not (p > 0.0 and dV >= 0.0):
        return _SIGN
    if not isfinite(p * p * dV):
        return _OVERFLOW
    if prev is not None:
        if t < prev:
            return _UNSORTED
        if not isfinite(t - prev):
            return _STEP
    return None


# ticks per slice of _check_ticks, so its temporaries stay near 2 MB
# however long the tape
_CHECK_SLICE = 1 << 16


def _check_ticks(t: np.ndarray, p: np.ndarray, dV: np.ndarray,
                 last_t: float | None = None) -> None:
    """Refuse the first tick, in tape order, that breaks a rule of
    _tick_fault, with its message; ``last_t`` is the time of the tick
    before t[0], if any. One pass over fixed slices finds the tick.
    """
    prev = last_t
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, len(t), _CHECK_SLICE):
            ts, ps, vs = (c[a:a + _CHECK_SLICE] for c in (t, p, dV))
            before = np.concatenate(([ts[0] if prev is None else prev],
                                     ts[:-1]))
            step = ts - before
            ok = ((ps > 0.0) & (vs >= 0.0) & (step >= 0.0)
                  & np.isfinite(ps * ps * vs) & np.isfinite(step))
            if not ok.all():
                i = int(ok.argmin())
                raise InputError(_tick_fault(
                    *map(float, (ts[i], ps[i], vs[i], before[i]))))
            prev = ts[-1]


def _check_range(t, p, dV, a: int, b: int) -> None:
    """Refuse a tick range a..b-1 that the tick columns do not hold."""
    if not (isinstance(t, np.ndarray) and isinstance(p, np.ndarray)
            and isinstance(dV, np.ndarray)
            and t.ndim == p.ndim == dV.ndim == 1):
        name = next(k for k, c in (("t", t), ("p", p), ("dV", dV))
                    if not (isinstance(c, np.ndarray) and c.ndim == 1))
        raise InputError(f"tick column {name} must be a 1-d numpy array, "
                         f"as tick_arrays returns")
    if not len(t) == len(p) == len(dV):
        raise InputError("tick columns differ in length")
    if a < 0 or b > len(t):
        raise InputError(f"tick range {a}:{b} lies outside the "
                         f"{len(t)} ticks")


def _check_tau(tau) -> float:
    tau = _real(tau, "tau")
    if not (isfinite(tau) and tau > 0):
        raise InputError(f"tau must be finite and positive, got {tau!r}")
    return tau


def x_of_t(basis: BasisId, t, t_now: float, tau: float):
    """Window coordinate of a timestamp; linear for laguerre, else exponential.

    ``t`` is real numbers (a scalar or an array), ``t_now`` and ``tau``
    real scalars; anything else is refused with InputError.
    """
    _order_bound(basis)
    tau = _check_tau(tau)
    t, t_now = _reals(t, "t"), _real(t_now, "t_now")
    if basis is BasisId.LAGUERRE:
        return (t - t_now) / tau
    return np.exp((t - t_now) / tau)


def omega(t, t_now: float, tau: float):
    """Window weight exp(-(t_now - t)/tau), read as x_of_t reads them."""
    tau = _check_tau(tau)
    t, t_now = _reals(t, "t"), _real(t_now, "t_now")
    return np.exp(-(t_now - t) / tau)


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
    at or before t_now, and InputError when t_now is not a finite real
    number or ``measure`` is not a MeasureKind.
    """
    row = _row(measure)
    orders = _check_order_count(basis, orders, "orders")
    tau = _check_tau(tau)
    t_now = _real(t_now, "t_now")
    if not isfinite(t_now):
        raise InputError(f"t_now must be finite, got {t_now!r}")
    t, p, dV = tick_arrays(ticks)
    idx = int(np.searchsorted(t, t_now, side="right"))
    if idx == 0:
        raise EmptyWindowError(f"no ticks at or before t_now={t_now}")
    out = np.zeros((5, orders))
    _kernels.accumulate_block(t, p, dV, 0, idx, t[0], t_now, tau, basis, out)
    return MomentVector(basis=basis, tau=tau, t_now=t_now,
                        measure=measure, values=out[row].copy())


# ---------------------------------------------------------------------------
# the streaming engine
# ---------------------------------------------------------------------------

class MomentEngine:
    """Streaming accumulator for all five moment rows of one (basis, n, tau).

    Feed it tick arrays in time order via advance_to(); read moments() or
    hand the whole engine to indicators.evaluate_at. run_blocks and
    run_over step a whole tape through one. State advances are
    O(orders^2) per step plus O(orders) per tick, independent of history
    length.
    """

    def __init__(self, basis: BasisId, n: int, tau: float):
        n = _count(n, "n", 1, max_model_order(basis))
        self.tau = _check_tau(tau)
        self.basis = basis
        self.n = n
        self.orders = 2 * self.n - 1
        self.state = np.zeros((5, self.orders))
        self.t_now: float | None = None
        self.last_t: float | None = None
        self.p_last: float | None = None
        self.tick_count = 0
        # dimension the last solved reading resolved; the next reading's
        # dimension search starts here (indicators.evaluate_at, run_over)
        self.resolved_n = self.n
        # per dimension m, the bottom and top states of the last pencil
        # that search probed above its start (gev.solve_stack): they rule
        # out most probes there without an eigensolve
        self.probe_states: list = [None] * (self.n + 1)

    def advance_to(self, t_new: float, t: np.ndarray | None = None,
                   p: np.ndarray | None = None, dV: np.ndarray | None = None,
                   i0: int = 0, i1: int = 0) -> None:
        """Move the reference time to t_new, absorbing ticks i0..i1-1.

        Every argument is checked, on Python scalars where it can be, so a
        live caller pays for one step only; a refused step changes
        nothing. The state bits equal those of a block step (run_blocks).
        """
        ts = _real(t_new, "t_new")
        a, b = _integer(i0, "i0"), _integer(i1, "i1")
        if not isfinite(ts):
            raise InputError(_SAMPLE_TIME)
        gap = 0.0 if self.t_now is None else ts - self.t_now
        if gap < 0:
            raise InputError("engine time must be nondecreasing")
        if b < a:
            raise InputError("tick ranges must not run backwards")
        if b > a:
            _check_range(t, p, dV, a, b)
            if b - a == 1:
                ta = float(t[a])
                fault = _tick_fault(ta, float(p[a]), float(dV[a]),
                                    self.last_t)
                if fault:
                    raise InputError(fault)
            else:
                _check_ticks(t[a:b], p[a:b], dV[a:b], self.last_t)
                ta = t[b - 1]
            if ta > ts:
                raise InputError("cannot absorb ticks after t_new")
        if pruned(gap, self.tau):
            G, fade = None, 0.0
        else:
            G = _kernels.shift_matrix(self.basis, gap / self.tau,
                                      self.orders)
            fade = float(np.exp(-gap / self.tau))
        with np.errstate(over="ignore", invalid="ignore"):
            self._step(ts, gap, fade, G, t, p, dV, a, b)

    def _advance_block(self, times, t, p, dV, i0: int, ends) -> np.ndarray:
        """Step through sample times; the moment rows at each, (K, 5, orders).

        Step k moves the reference time to times[k] and absorbs the ticks
        before index ends[k] that no earlier step absorbed, starting from
        tick i0. Nothing is checked but overflow: the caller (run_blocks)
        hands checked tick columns (tick_arrays), nonempty float64 times,
        nondecreasing from t_now, and intp ends, nondecreasing from i0,
        with no tick after its step's time. The shift matrices of all the
        steps come from one vectorized build; then _step advances the
        state step by step. The rows are checked for overflow once, after
        the last step, and a refused block leaves the engine as it was,
        naming the first step whose rows overflow.
        """
        starts = np.concatenate(([i0], ends[:-1]))
        gaps = np.diff(times, prepend=times[0] if self.t_now is None
                       else self.t_now)
        far = pruned(gaps, self.tau)
        near = iter(_kernels.shift_matrix(self.basis, gaps[~far] / self.tau,
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
        """The step body of advance_to and _advance_block.

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
                age = st[3]
                age += gap * st[1]              # ages grow with the shift
                st = st @ G.T
                st *= fade
        if b > a:
            tb, pb = float(t[b - 1]), float(p[b - 1])
        if b - a == 1 and tb == ts:
            va = float(dV[a])
            dt = ts - (ts if self.last_t is None else self.last_t)
            st += np.array([dt, va, pb * va, 0.0 * va, pb * pb * va])[:, None]
        elif b > a:
            _kernels.accumulate_block(t, p, dV, a, b,
                                      t[a] if self.last_t is None
                                      else self.last_t, ts,
                                      self.tau, self.basis, st)
        if check and np.count_nonzero(np.isfinite(st)) < st.size:
            raise InputError(_overflow_at(ts))
        self.state = st
        self.t_now = ts
        if b > a:
            self.last_t, self.p_last = tb, pb
            self.tick_count += b - a

    def window_empty(self) -> bool:
        return (self.last_t is None
                or pruned(self.t_now - self.last_t, self.tau))

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
