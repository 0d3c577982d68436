"""Deterministic synthetic trade tapes for tests and demos.

Arrival times follow a Poisson process; trade sizes integrate a piecewise
flow profile between arrivals, so total volume tracks integral(flow dt) to
within one trade regardless of seed. Randomness comes from a counter-based
splitmix64 generator (documented in the README as integer arithmetic) so
any implementation language reproduces identical tapes bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import count
from math import isfinite, log

from .basis import _integer, _real
from .errors import InputError
from .measure import Tick

__all__ = ["steady", "spike", "uniform01"]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def uniform01(seed: int, counter: int) -> float:
    """splitmix64 output for integral (seed, counter), mapped to [0, 1)."""
    return _splitmix(_integer(seed, "seed"), _integer(counter, "counter"))


def _splitmix(seed: int, counter: int) -> float:
    z = (seed + (counter + 1) * _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    z ^= z >> 31
    return (z >> 11) * 2.0 ** -53


def _finite(**args) -> list[float]:
    """Each argument as a float, or an InputError naming it: a value that
    is not a real number, or not a finite one."""
    out = [_real(value, name) for name, value in args.items()]
    for name, value in zip(args, out):
        if not isfinite(value):
            raise InputError(f"{name} must be finite, got {value!r}")
    return out


def steady(rate: float, flow: float, price: float, duration: float,
           seed: int) -> list[Tick]:
    """Poisson arrivals at ``rate``/s carrying constant ``flow`` shares/s.

    Each trade's size is the flow integrated since the previous arrival,
    so sum(dV) = flow * t_last = integral(flow dt) up to the unfinished
    final gap (one trade's worth).
    """
    rate, flow, price, duration = _finite(rate=rate, flow=flow,
                                          price=price, duration=duration)
    seed = _integer(seed, "seed")
    if rate <= 0 or flow < 0 or price <= 0 or duration <= 0:
        raise InputError("steady needs positive rate, price, duration "
                         "and nonnegative flow")
    ticks: list[Tick] = []
    t = prev = 0.0
    for counter in count():
        gap = -log(1.0 - _splitmix(seed, counter)) / rate
        t += gap
        if t >= duration:
            break
        ticks.append(Tick(t=t, p=price, dV=flow * (t - prev)))
        prev = t
    return ticks


def spike(base: list[Tick], at: float, magnitude: float, width: float,
          price_shift: float = 0.0) -> list[Tick]:
    """Multiply the flow by ``magnitude`` inside [at, at+width).

    Trade sizes integrate flow over the gap preceding each tick, so a gap
    partially covering the spike window is scaled by its covered fraction;
    total added volume is exactly (magnitude-1) * base_flow * width when
    the window is interior. magnitude == 1 returns an identical stream.
    Stacked spikes that would drive flow negative are rejected.
    """
    at, magnitude, width, price_shift = _finite(
        at=at, magnitude=magnitude, width=width, price_shift=price_shift)
    if not (isinstance(base, Sequence)
            and all(isinstance(tk, Tick) for tk in base)):
        raise InputError(f"base must be a sequence of Ticks, got "
                         f"{type(base).__name__}")
    if width <= 0:
        raise InputError("spike width must be positive")
    lo, hi = at, at + width
    out: list[Tick] = []
    prev = base[0].t if base else 0.0
    for k, tk in enumerate(base):
        t0 = prev if k > 0 else tk.t
        gap = tk.t - t0
        if gap > 0.0:
            covered = max(0.0, min(tk.t, hi) - max(t0, lo))
            frac = covered / gap
        else:
            frac = 1.0 if lo <= tk.t < hi else 0.0
        dV = tk.dV * (1.0 + (magnitude - 1.0) * frac)
        if dV < 0.0:
            raise InputError(
                f"resultant flow negative at t={tk.t} (magnitude {magnitude})")
        p = tk.p + price_shift if lo <= tk.t < hi else tk.p
        out.append(Tick(t=tk.t, p=p, dV=dV))
        prev = tk.t
    return out
