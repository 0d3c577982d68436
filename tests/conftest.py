import os
from pathlib import Path

import numpy as np
import pytest

import psima
from psima import Tick
from psima.synth import uniform01


@pytest.fixture(scope="session", autouse=True)
def _children_import_this_psima():
    # child processes (the CLI tests run `python -m psima.cli`) import the
    # psima these tests import, also from a checkout with nothing installed
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(Path(psima.__file__).parents[1]),
                  prepend=os.pathsep)
        yield


@pytest.fixture(scope="session")
def benchmark_tapes():
    """The tick columns of the benchmark's two tapes."""
    return {
        # acceptance criterion 10 (psima synth --seed 7 --rate 1 --flow 100
        # --price 100 --duration 10000)
        "criterion10": psima.tick_arrays(
            psima.steady(1.0, 100.0, 100.0, 10000.0, 7)),
        # the live_laguerre benchmark workload at seed 0
        "live": psima.tick_arrays(
            psima.spike(psima.steady(2.0, 100.0, 50.0, 3000.0, 5),
                        1500.0, 8.0, 30.0, 1.25)),
    }


def make_stream(seed: int, n_ticks: int, *, dt_lo=0.2, dt_hi=1.8,
                p0=100.0, p_amp=4.0, dv_lo=10.0, dv_hi=100.0,
                t0=0.0) -> list[Tick]:
    """Deterministic irregular tick stream driven by the counter RNG."""
    ticks = []
    t = t0
    for i in range(n_ticks):
        t += dt_lo + (dt_hi - dt_lo) * uniform01(seed, 3 * i)
        p = p0 + p_amp * (uniform01(seed, 3 * i + 1) - 0.5)
        dV = dv_lo + (dv_hi - dv_lo) * uniform01(seed, 3 * i + 2)
        ticks.append(Tick(t=t, p=p, dV=dV))
    return ticks


def regular_stream(gap: float, duration: float, flow: float,
                   price=100.0) -> list[Tick]:
    """Evenly spaced ticks; each trade integrates the flow over one gap."""
    ts = np.arange(gap, duration, gap)
    return [Tick(t=float(t), p=float(price), dV=float(flow * gap))
            for t in ts]


@pytest.fixture
def stream400():
    return make_stream(11, 400)


def rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    return np.max(np.abs(a - b) / scale)
