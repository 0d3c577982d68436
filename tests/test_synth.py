import pytest

from psima import InputError
from psima.synth import spike, steady, uniform01


def test_uniform01_golden_values():
    # frozen splitmix64 outputs; any change here breaks cross-run tapes
    assert uniform01(0, 0) == 0.8833108082136426
    assert uniform01(0, 1) == 0.43152799704850997
    assert uniform01(7, 0) == 0.3898297483912715
    assert uniform01(7, 1) == 0.01678829452815611
    assert uniform01(123456789, 98765) == 0.9298945812788324


def test_uniform01_range():
    vals = [uniform01(s, c) for s in range(4) for c in range(500)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert min(vals) < 0.05 and max(vals) > 0.95


def test_steady_seed7_accounting():
    ticks = steady(rate=1.0, flow=100.0, price=10.0, duration=1000.0, seed=7)
    assert abs(len(ticks) - 1000) <= 50
    total = sum(tk.dV for tk in ticks)
    assert abs(total - 100000.0) <= 200.0
    assert all(tk.p == 10.0 for tk in ticks)
    assert all(b.t > a.t for a, b in zip(ticks, ticks[1:]))
    assert ticks[-1].t < 1000.0


def test_steady_volume_tracks_integral_to_one_trade():
    for seed in (1, 2, 9):
        ticks = steady(rate=2.0, flow=50.0, price=5.0, duration=400.0,
                       seed=seed)
        total = sum(tk.dV for tk in ticks)
        # sum(dV) = flow * t_last exactly; shortfall vs flow*duration is the
        # unfinished final gap, under one expected trade's worth
        assert total == pytest.approx(50.0 * ticks[-1].t, rel=1e-12)
        assert 0.0 <= 50.0 * 400.0 - total <= 50.0 * 4.0


def test_steady_same_seed_bit_identical():
    a = steady(rate=1.5, flow=80.0, price=20.0, duration=500.0, seed=42)
    b = steady(rate=1.5, flow=80.0, price=20.0, duration=500.0, seed=42)
    assert a == b


def test_steady_different_seeds_differ():
    a = steady(rate=1.0, flow=10.0, price=1.0, duration=100.0, seed=0)
    b = steady(rate=1.0, flow=10.0, price=1.0, duration=100.0, seed=1)
    assert a != b


def test_steady_rejects_bad_arguments():
    for kw in ({"rate": 0.0}, {"price": -1.0}, {"duration": 0.0},
               {"flow": -5.0}):
        args = dict(rate=1.0, flow=10.0, price=1.0, duration=10.0, seed=0)
        args.update(kw)
        with pytest.raises(InputError):
            steady(**args)


def test_spike_magnitude_one_is_identity():
    base = steady(rate=1.0, flow=100.0, price=10.0, duration=300.0, seed=7)
    assert spike(base, at=100.0, magnitude=1.0, width=20.0) == base


def test_spike_interior_volume_accounting():
    base = steady(rate=4.0, flow=100.0, price=10.0, duration=600.0, seed=11)
    boosted = spike(base, at=200.0, magnitude=5.0, width=30.0)
    added = sum(tk.dV for tk in boosted) - sum(tk.dV for tk in base)
    # interior window: added volume is exactly (magnitude-1)*flow*width
    assert added == pytest.approx(4.0 * 100.0 * 30.0, rel=1e-9)


def test_spike_partial_gap_scales_by_covered_fraction():
    from psima import Tick
    base = [Tick(t=0.0, p=10.0, dV=0.0), Tick(t=10.0, p=10.0, dV=100.0)]
    out = spike(base, at=4.0, magnitude=3.0, width=2.0)
    # gap [0,10] covers [4,6]: fraction 0.2, dV 100*(1+2*0.2)
    assert out[1].dV == pytest.approx(140.0, rel=1e-12)


def test_spike_price_shift_applies_inside_window_only():
    base = steady(rate=2.0, flow=50.0, price=10.0, duration=400.0, seed=3)
    out = spike(base, at=100.0, magnitude=2.0, width=25.0, price_shift=1.5)
    for tk in out:
        want = 11.5 if 100.0 <= tk.t < 125.0 else 10.0
        assert tk.p == want
    assert any(tk.p == 11.5 for tk in out)


def test_stacked_spikes_negative_flow_rejected():
    base = steady(rate=2.0, flow=100.0, price=10.0, duration=400.0, seed=5)
    dimmed = spike(base, at=100.0, magnitude=0.25, width=40.0)
    with pytest.raises(InputError, match="negative"):
        spike(dimmed, at=110.0, magnitude=-4.0, width=10.0)


def test_spike_rejects_nonpositive_width():
    base = steady(rate=1.0, flow=10.0, price=1.0, duration=50.0, seed=0)
    with pytest.raises(InputError):
        spike(base, at=10.0, magnitude=2.0, width=0.0)


@pytest.mark.parametrize("name", ["rate", "flow", "price", "duration"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_steady_rejects_non_finite_arguments(name, value):
    args = dict(rate=1.0, flow=10.0, price=1.0, duration=10.0, seed=0)
    args[name] = value
    with pytest.raises(InputError, match=name):
        steady(**args)


@pytest.mark.parametrize("name", ["at", "magnitude", "width", "price_shift"])
def test_spike_rejects_non_finite_arguments(name):
    base = steady(rate=1.0, flow=10.0, price=1.0, duration=50.0, seed=0)
    args = dict(at=10.0, magnitude=2.0, width=5.0, price_shift=0.5)
    args[name] = float("nan")
    with pytest.raises(InputError, match=name):
        spike(base, **args)
