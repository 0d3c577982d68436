import numpy as np
import pytest

from psima import BasisId, tick_arrays
from psima._kernels import PRUNE_HORIZON, accumulate_block


def _accumulate(ticks, t_now, tau, basis, orders):
    t, p, dV = tick_arrays(ticks)
    out = np.zeros((5, orders))
    accumulate_block(t, p, dV, 0, len(t), 0.0, t_now, tau, basis, out)
    return out


def test_prune_skips_ticks_past_horizon(stream400):
    tau = 4.0
    t_now = stream400[-1].t + 200.0 * tau
    got = _accumulate(stream400, t_now, tau, BasisId.CHEBYSHEV, 9)
    assert np.all(got == 0.0)
    # just inside the cutoff the weight survives
    t_now = stream400[-1].t + PRUNE_HORIZON * tau * 0.99
    got = _accumulate(stream400, t_now, tau, BasisId.CHEBYSHEV, 9)
    assert got[0, 0] > 0.0


def test_prune_threshold_boundary():
    from psima import Tick
    tau = 8.0
    edge = PRUNE_HORIZON * tau
    ticks = [Tick(t=0.0, p=100.0, dV=5.0), Tick(t=1.0, p=100.0, dV=5.0)]
    t, p, dV = tick_arrays(ticks)
    out = np.zeros((5, 3))
    # first tick beyond the horizon, second inside: only one contributes
    accumulate_block(t, p, dV, 0, 2, 0.0, edge + 0.5, tau,
                     BasisId.SHIFTED_LEGENDRE, out)
    only_second = np.exp(-(edge + 0.5 - 1.0) / tau) * 5.0
    assert out[1, 0] == pytest.approx(only_second, rel=1e-12)
