import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import laguerre as nplag

import oracles
from conftest import make_stream, rel_err
from psima import (BasisId, CapabilityError, EmptyWindowError, InputError,
                   MeasureKind, MomentEngine, Tick, omega, resample_full,
                   run_over, tick_arrays, x_of_t)
from psima import _kernels
from psima._kernels import _table, accumulate_block, shift_matrix
from psima.basis import evaluate_all, max_model_order
from psima.measure import _CHECK_SLICE, _ROW, PRUNE_HORIZON
from psima.synth import steady

ALL_BASES = list(BasisId)
EXP_BASES = [BasisId.SHIFTED_LEGENDRE, BasisId.CHEBYSHEV]
ALL_MEASURES = list(MeasureKind)


def test_coordinate_maps():
    assert x_of_t(BasisId.LAGUERRE, 90.0, 100.0, 10.0) == -1.0
    assert x_of_t(BasisId.LAGUERRE, 100.0, 100.0, 10.0) == 0.0
    assert x_of_t(BasisId.SHIFTED_LEGENDRE, 100.0, 100.0, 10.0) == 1.0
    assert abs(x_of_t(BasisId.CHEBYSHEV, 90.0, 100.0, 10.0)
               - np.exp(-1.0)) < 1e-16
    assert omega(100.0, 100.0, 10.0) == 1.0
    assert abs(omega(80.0, 100.0, 10.0) - np.exp(-2.0)) < 1e-16
    with pytest.raises(InputError):
        x_of_t(BasisId.LAGUERRE, 0.0, 0.0, 0.0)
    with pytest.raises(InputError):
        omega(0.0, 0.0, -1.0)


@pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
def test_non_finite_tau_is_refused(tau):
    ticks = [Tick(1.0, 100.0, 5.0)]
    with pytest.raises(InputError, match="tau"):
        x_of_t(BasisId.CHEBYSHEV, 0.0, 1.0, tau)
    with pytest.raises(InputError, match="tau"):
        omega(0.0, 1.0, tau)
    with pytest.raises(InputError, match="tau"):
        resample_full(ticks, 1.0, tau, BasisId.CHEBYSHEV, 3,
                      MeasureKind.VOLUME_DV)
    with pytest.raises(InputError, match="tau"):
        MomentEngine(BasisId.CHEBYSHEV, 2, tau)


@pytest.mark.parametrize("basis", ALL_BASES)
@pytest.mark.parametrize("measure", ALL_MEASURES)
def test_resample_matches_raw_sums(stream400, basis, measure):
    t_now = stream400[-1].t
    orders = 19 if basis is BasisId.LAGUERRE else 23
    mom = resample_full(stream400, t_now, 64.0, basis, orders, measure)
    ref = oracles.raw_moments(stream400, t_now, 64.0, basis, orders, measure)
    scale = max(np.max(np.abs(ref)), 1e-30)
    assert np.max(np.abs(mom.values - ref)) < 1e-11 * scale
    assert mom.t_now == t_now and mom.measure is measure
    assert mom.order_count == orders


def test_resample_prunes_like_the_oracle():
    # stream long enough that the horizon is active
    ticks = make_stream(5, 3000)
    t_now = ticks[-1].t
    assert t_now - ticks[0].t > PRUNE_HORIZON * 64.0
    mom = resample_full(ticks, t_now, 64.0, BasisId.SHIFTED_LEGENDRE, 9,
                        MeasureKind.VOLUME_DV)
    ref = oracles.raw_moments(ticks, t_now, 64.0, BasisId.SHIFTED_LEGENDRE,
                              9, MeasureKind.VOLUME_DV, prune=True)
    assert rel_err(mom.values, ref) < 1e-12


def test_first_tick_counts_zero_interval():
    ticks = [Tick(10.0, 100.0, 5.0), Tick(13.0, 101.0, 7.0)]
    mom = resample_full(ticks, 13.0, 50.0, BasisId.CHEBYSHEV, 1,
                        MeasureKind.TIME_DT)
    # only the second tick contributes dt = 3
    assert abs(mom.values[0] - 3.0 * np.exp(0.0)) < 1e-15
    single = resample_full(ticks[:1], 10.0, 50.0, BasisId.CHEBYSHEV, 1,
                           MeasureKind.TIME_DT)
    assert single.values[0] == 0.0


def test_future_ticks_excluded_and_empty_window():
    ticks = [Tick(10.0, 100.0, 5.0), Tick(20.0, 101.0, 7.0)]
    mom = resample_full(ticks, 15.0, 50.0, BasisId.CHEBYSHEV, 1,
                        MeasureKind.VOLUME_DV)
    assert abs(mom.values[0] - 5.0 * np.exp(-5.0 / 50.0)) < 1e-15
    with pytest.raises(EmptyWindowError):
        resample_full(ticks, 9.0, 50.0, BasisId.CHEBYSHEV, 1,
                      MeasureKind.VOLUME_DV)


def test_resample_rejects_disorder_and_bad_orders():
    ticks = [Tick(10.0, 100.0, 5.0), Tick(9.0, 101.0, 7.0)]
    with pytest.raises(InputError):
        resample_full(ticks, 10.0, 50.0, BasisId.CHEBYSHEV, 1,
                      MeasureKind.VOLUME_DV)
    good = [Tick(1.0, 100.0, 5.0)]
    with pytest.raises(CapabilityError):
        resample_full(good, 1.0, 50.0, BasisId.LAGUERRE, 50,
                      MeasureKind.VOLUME_DV)


@pytest.mark.parametrize("t_now", [np.nan, np.inf, -np.inf])
def test_a_non_finite_sample_time_is_refused_by_its_name(t_now):
    # once refused with the bad-tick words "tick times, prices and shares
    # must be finite", on an engine that had absorbed no tick
    eng = MomentEngine(BasisId.CHEBYSHEV, 2, 10.0)
    message = r"^sample time t_new must be finite$"
    with pytest.raises(InputError, match=message):
        eng.advance_to(t_now)
    with pytest.raises(InputError, match=rf"^t_now must be finite, got "
                                         rf"{t_now!r}$"):
        resample_full([Tick(1.0, 100.0, 5.0)], t_now, 50.0,
                      BasisId.CHEBYSHEV, 3, MeasureKind.VOLUME_DV)


@pytest.mark.parametrize("t_now", [np.nan, np.inf, -np.inf])
def test_resample_refuses_a_non_finite_t_now(t_now):
    # nan and +inf once read as empty windows past the horizon (all-zero
    # moments), -inf as a window before the first tick
    ticks = [Tick(1.0, 100.0, 5.0), Tick(2.0, 101.0, 7.0)]
    with pytest.raises(InputError, match="must be finite"):
        resample_full(ticks, t_now, 50.0, BasisId.CHEBYSHEV, 3,
                      MeasureKind.VOLUME_DV)


@pytest.mark.parametrize("basis,n", [(BasisId.SHIFTED_LEGENDRE, 12),
                                     (BasisId.CHEBYSHEV, 12),
                                     (BasisId.LAGUERRE, 10)])
@pytest.mark.parametrize("measure", ALL_MEASURES)
def test_incremental_equals_resample(basis, n, measure):
    # the engine absorbs the tape in two steps, the second one shifting
    # the first 350 ticks' moments and absorbing the rest
    ticks = make_stream(23, 1000)
    t, p, dV = tick_arrays(ticks)
    tau = 64.0
    cut = 350
    eng = MomentEngine(basis, n, tau)
    eng.advance_to(t[cut - 1], t, p, dV, 0, cut)
    eng.advance_to(t[-1], t, p, dV, cut, len(t))
    ref = resample_full(ticks, t[-1], tau, basis, 2 * n - 1, measure)
    tol = 1e-7 if basis is not BasisId.LAGUERRE else 1e-6
    assert rel_err(eng.moments(measure).values, ref.values) < tol


def _engine_at_end(ticks, basis, n, tau) -> MomentEngine:
    t, p, dV = tick_arrays(ticks)
    eng = MomentEngine(basis, n, tau)
    eng.advance_to(t[-1], t, p, dV, 0, len(t))
    return eng


def test_incremental_pure_shift_decays_zeroth_moment_exactly():
    ticks = make_stream(2, 50)
    tau = 32.0
    for delta in (1.0, 17.3, 400.0):
        eng = _engine_at_end(ticks, BasisId.SHIFTED_LEGENDRE, 3, tau)
        mom = eng.moments(MeasureKind.VOLUME_DV)
        eng.advance_to(mom.t_now + delta)
        shifted = eng.moments(MeasureKind.VOLUME_DV)
        assert shifted.values[0] == pytest.approx(
            np.exp(-delta / tau) * mom.values[0], rel=1e-14)
        assert shifted.t_now == mom.t_now + delta


def test_incremental_rejects_time_regression():
    eng = _engine_at_end(make_stream(2, 50), BasisId.CHEBYSHEV, 3, 32.0)
    before = eng.raw_rows().copy()
    with pytest.raises(InputError):
        eng.advance_to(eng.t_now - 1.0)
    assert np.array_equal(eng.raw_rows(), before)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 399), st.sampled_from(ALL_BASES))
def test_incremental_split_invariance(cut, basis):
    # absorbing the tape in two chunks must equal one chunk
    ticks = make_stream(7, 400)
    t, p, dV = tick_arrays(ticks)
    tau = 64.0
    eng = MomentEngine(basis, 5, tau)
    eng.advance_to(t[cut - 1], t, p, dV, 0, cut)
    eng.advance_to(t[-1], t, p, dV, cut, len(t))
    for measure in ALL_MEASURES:
        one = resample_full(ticks, t[-1], tau, basis, 9, measure)
        assert rel_err(eng.moments(measure).values, one.values) < 1e-11


def test_scale_covariance():
    # doubling all times and tau doubles time-like moments exactly and
    # leaves volume-like moments untouched
    ticks = make_stream(31, 300)
    scaled = [Tick(2.0 * tk.t, tk.p, tk.dV) for tk in ticks]
    t_now = ticks[-1].t
    for basis in ALL_BASES:
        for measure, factor in ((MeasureKind.TIME_DT, 2.0),
                                (MeasureKind.VOLUME_DV, 1.0),
                                (MeasureKind.PRICE_VOLUME, 1.0),
                                (MeasureKind.AGE_VOLUME, 2.0)):
            a = resample_full(ticks, t_now, 64.0, basis, 7, measure)
            b = resample_full(scaled, 2.0 * t_now, 128.0, basis, 7, measure)
            assert rel_err(factor * a.values, b.values) < 1e-15


def test_engine_streaming_matches_resample():
    ticks = make_stream(13, 600)
    t, p, dV = tick_arrays(ticks)
    tau = 64.0
    eng = MomentEngine(BasisId.SHIFTED_LEGENDRE, 8, tau)
    for l in range(len(t)):
        eng.advance_to(t[l], t, p, dV, l, l + 1)
    for measure in ALL_MEASURES:
        ref = resample_full(ticks, ticks[-1].t, tau, BasisId.SHIFTED_LEGENDRE,
                            15, measure)
        assert rel_err(eng.moments(measure).values, ref.values) < 1e-10
    assert eng.p_last == ticks[-1].p
    assert eng.tick_count == 600


def test_engine_window_empties_past_horizon():
    eng = MomentEngine(BasisId.CHEBYSHEV, 4, 10.0)
    t = np.array([5.0])
    p = np.array([100.0])
    dV = np.array([3.0])
    eng.advance_to(5.0, t, p, dV, 0, 1)
    assert not eng.window_empty()
    eng.advance_to(5.0 + 40.0 * 10.0)
    assert eng.window_empty()
    with pytest.raises(EmptyWindowError):
        eng.moments(MeasureKind.VOLUME_DV)


@pytest.mark.parametrize("basis", ALL_BASES)
def test_engine_after_a_quiet_spell_past_the_horizon(basis):
    # a gap longer than the prune horizon leaves no unpruned mass; the
    # engine clears its state rather than shifting it, which would carry
    # a residue of the pruned ticks that resample_full does not count
    tau = 8.0
    ticks = make_stream(41, 120)
    ticks[60:] = [Tick(tk.t + 1.1 * PRUNE_HORIZON * tau, tk.p, tk.dV)
                  for tk in ticks[60:]]
    t, p, dV = tick_arrays(ticks)
    for n in (1, 60, 61, 90, 120):   # before, at and after the spell
        eng = MomentEngine(basis, 6, tau)
        eng._advance_block(t[:n], t, p, dV, 0, np.arange(1, n + 1))
        assert np.all(np.isfinite(eng.raw_rows()))
        for measure in ALL_MEASURES:
            ref = resample_full(ticks, t[n - 1], tau, basis, 11,
                                measure).values
            got = eng.moments(measure).values
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_engine_validation():
    with pytest.raises(CapabilityError):
        MomentEngine(BasisId.LAGUERRE, 26, 10.0)
    with pytest.raises(InputError):
        MomentEngine(BasisId.LAGUERRE, 5, 0.0)
    eng = MomentEngine(BasisId.CHEBYSHEV, 4, 10.0)
    t = np.array([5.0, 4.0])
    with pytest.raises(InputError):
        eng.advance_to(3.0, t, t, t, 0, 2)  # ticks after t_new


_MEASURES = (r"MeasureKind\.TIME_DT, MeasureKind\.VOLUME_DV, "
             r"MeasureKind\.PRICE_VOLUME, MeasureKind\.AGE_VOLUME")


@pytest.mark.parametrize("bad", ["volume_dv", None, 1])
def test_a_measure_that_is_not_a_measure_kind_is_refused(bad, monkeypatch):
    ticks = [Tick(0.0, 100.0, 5.0), Tick(1.0, 101.0, 3.0)]
    eng = MomentEngine(BasisId.LAGUERRE, 2, 8.0)
    eng.advance_to(1.0, *tick_arrays(ticks), 0, 2)
    with pytest.raises(InputError, match=_MEASURES):
        eng.moments(bad)

    # refused before the tape is summed
    def summed(*args):
        raise AssertionError("the tape was summed")

    monkeypatch.setattr(_kernels, "accumulate_block", summed)
    with pytest.raises(InputError, match=_MEASURES):
        resample_full(ticks, 1.0, 8.0, BasisId.LAGUERRE, 3, bad)


@pytest.mark.parametrize("n", [2.5, float("nan"), float("inf"), "2"])
def test_engine_refuses_a_dimension_that_is_not_an_integer(n):
    with pytest.raises(InputError, match="must be an integer"):
        MomentEngine(BasisId.LAGUERRE, n, 64.0)


@pytest.mark.parametrize("n", [2, 2.0, np.int64(2), np.float64(2.0)])
def test_engine_takes_an_integral_dimension(n):
    eng = MomentEngine(BasisId.LAGUERRE, n, 64.0)
    assert type(eng.n) is int and eng.n == 2 and eng.orders == 3


def test_moment_decay_is_monotone_without_new_mass():
    eng = _engine_at_end(make_stream(3, 80), BasisId.CHEBYSHEV, 1, 32.0)
    prev = eng.moments(MeasureKind.VOLUME_DV).values[0]
    for _ in range(20):
        eng.advance_to(eng.t_now + 7.0)
        cur = eng.moments(MeasureKind.VOLUME_DV).values[0]
        assert 0.0 < cur < prev
        prev = cur


@pytest.mark.parametrize("basis", ALL_BASES)
def test_block_shift_builder_is_the_scalar_builder_bit_for_bit(basis):
    # gaps in tau units: none, tiny, about one tau, past the prune horizon,
    # then a stack of 256 as run_blocks builds: a product taken over the
    # whole stack at once would round each gap by the stack's size
    d = np.array([0.0, 1e-9, 0.73, 1.0, 1.37, 36.9, 41.5])
    assert d[-1] > PRUNE_HORIZON
    d = np.concatenate((d, np.random.default_rng(8).exponential(0.01, 249)))
    block = shift_matrix(basis, d, 23)
    assert block.shape == (256, 23, 23)
    for k, dk in enumerate(d):
        ref = shift_matrix(basis, float(dk), 23)
        assert np.all(np.isfinite(ref))
        assert np.array_equal(block[k], ref)
        assert np.array_equal(np.signbit(block[k]), np.signbit(ref))
    # and so does a stack of every size up to 17, and a larger one
    for a, b in [(7, 7 + k) for k in range(1, 18)] + [(0, 7), (100, 229)]:
        assert np.array_equal(shift_matrix(basis, d[a:b], 23), block[a:b])
    # tape-like gaps, one and two ticks a second at tau 256, in the blocks
    # of 256 that run_over builds
    rng = np.random.default_rng(9)
    d = np.concatenate((rng.exponential(1 / 256, 5120),
                        rng.exponential(1 / 512, 5120)))
    for a in range(0, len(d), 256):
        block = shift_matrix(basis, d[a:a + 256], 23)
        for k, dk in enumerate(d[a:a + 256].tolist()):
            assert block[k].tobytes() == shift_matrix(basis, dk, 23).tobytes()


# gaps in tau units: none, tiny, under one tau, past the prune horizon
SHIFT_GAPS = [0.0, 1e-9, 0.73, 36.9, 41.5]


def _shift_recurrence(basis, d, orders):
    if basis is BasisId.LAGUERRE:
        return oracles.laguerre_shift_recurrence(d, orders)
    return oracles.exponential_shift_recurrence(basis, d, orders)


@pytest.mark.parametrize("basis", ALL_BASES)
@pytest.mark.parametrize("orders", [1, 2, 3, 23, 149])
@pytest.mark.parametrize("d", SHIFT_GAPS)
def test_shift_matrix_is_the_row_recurrence(basis, orders, d):
    orders = min(orders, 2 * max_model_order(basis) - 1)  # laguerre: 49
    G = shift_matrix(basis, d, orders)
    ref = _shift_recurrence(basis, d, orders)
    # interpolation loses a little more for the exponential bases past
    # one tau, where the fade e^-d scales the shifted moments down
    tol = 1e-13 if d <= 1.0 or basis is BasisId.LAGUERRE else 1e-11
    assert np.max(np.abs(G - ref)) <= tol * np.max(np.abs(G))
    # row m never reaches past column m, and Q_0 = 1 shifts to itself
    assert np.array_equal(G, np.tril(G))
    assert np.array_equal(G[0], np.eye(orders)[0])
    if basis is BasisId.LAGUERRE:
        # lower-triangular Toeplitz with a unit diagonal
        for lag in range(orders):
            assert len(set(np.diagonal(G, -lag).tolist())) == 1
        assert np.all(np.diagonal(G) == 1.0)


@pytest.mark.parametrize("basis", EXP_BASES)
@pytest.mark.parametrize("orders", [1, 2, 3, 23, 149])
def test_exponential_shift_structure_is_exact(basis, orders):
    # over the gaps the engine shifts by, 0 to the prune horizon, G is
    # finite, row 0 is exactly e_0 and the upper triangle exactly 0, with
    # no pin applied per call: the cached table carries that structure
    d = np.concatenate(([0.0, PRUNE_HORIZON],
                        np.random.default_rng(5).uniform(0.0, PRUNE_HORIZON,
                                                         30)))
    G = shift_matrix(basis, d, orders)
    assert np.all(np.isfinite(G))
    assert np.all(G[:, 0] == np.eye(orders)[0])
    assert not np.triu(G, 1).any()
    C = _table(basis, orders)
    assert C.shape == (orders, orders * orders)
    assert not C.flags.writeable
    assert _table(basis, orders) is C


@pytest.mark.parametrize("basis", ALL_BASES)
@pytest.mark.parametrize("d", SHIFT_GAPS)
def test_shift_matrix_moves_the_polynomials(basis, d):
    # Q_m at the aged coordinate is the G-combination of Q_i at the old one
    orders = 23
    y = np.random.default_rng(17).uniform(0.0, 6.0, 40)   # age / tau
    if basis is BasisId.LAGUERRE:
        old, new = -y, -(y + d)
    else:
        old, new = np.exp(-y), np.exp(-y) * np.exp(-d)
    Q = evaluate_all(basis, orders, old)
    G = shift_matrix(basis, d, orders)
    terms = G[:, :, None] * Q[None, :, :]
    err = np.abs(terms.sum(axis=1) - evaluate_all(basis, orders, new))
    # the recurrences lose digits near a root of Q_m, so each point is
    # judged against its largest term over all orders
    scale = np.abs(terms).max(axis=(0, 1))
    assert np.all(err <= 1e-12 * scale)


@pytest.mark.parametrize("basis", ALL_BASES)
def test_arrival_rows_are_the_accumulate_at_age_zero(basis):
    # each tick absorbed at its own arrival time, including a repeated
    # timestamp and zero-share prints, as the engine absorbs a tape
    ticks = make_stream(47, 40)
    ticks[6] = Tick(ticks[5].t, 101.0, ticks[6].dV)
    ticks[9] = Tick(ticks[9].t, ticks[9].p, 0.0)
    ticks[10] = Tick(ticks[10].t, ticks[10].p, 0.0)
    t, p, dV = tick_arrays(ticks)
    # at the basis's largest order count: 49 for laguerre, 149 for the others
    n = max_model_order(basis)
    for l in range(len(t)):
        out = np.zeros((5, 2 * n - 1))
        accumulate_block(t, p, dV, l, l + 1, t[l - 1] if l else t[0], t[l],
                         64.0, basis, out)
        # an empty engine that has seen the tick before l: the step adds
        # tick l's arrival rows to a zero state
        eng = MomentEngine(basis, n, 64.0)
        eng.last_t = float(t[l - 1]) if l else None
        eng.advance_to(t[l], t, p, dV, l, l + 1)
        assert np.array_equal(eng.raw_rows(), out)


def _step_schedule(tau):
    """A tape and (time, end) steps covering every kind of engine step.

    The first tick; a repeated timestamp; zero-share prints; steps of
    several ticks, one of them a late tick absorbed after its arrival; a
    pure shift with no tick; and a gap past the prune horizon.
    """
    ticks = make_stream(61, 60)
    ticks[5] = Tick(ticks[4].t, 101.5, ticks[5].dV)          # equal times
    ticks[8] = Tick(ticks[8].t, ticks[8].p, 0.0)              # zero shares
    ticks[9] = Tick(ticks[9].t, ticks[9].p, 0.0)
    ticks[40:] = [Tick(tk.t + 1.2 * PRUNE_HORIZON * tau, tk.p, tk.dV)
                  for tk in ticks[40:]]                       # quiet spell
    t, p, dV = tick_arrays(ticks)
    steps = [(t[k], k + 1) for k in range(20)]
    steps += [(t[20] + 0.25, 21)]              # one tick, after its arrival
    steps += [(t[20] + 0.5, 21)]               # no tick: a pure shift
    steps += [(t[24], 25), (t[29] + 0.5, 30)]  # four ticks, then five
    steps += [(t[k], k + 1) for k in range(30, 45)]
    steps += [(t[47] + 0.1, 48), (t[-1], 60)]
    return t, p, dV, steps


def _one_by_one(basis, tau, t, p, dV, times, ends):
    """Two engines over one schedule: one stepped as a single block, one
    by advance_to, step by step; fails where their rows differ in a bit."""
    block = MomentEngine(basis, 6, tau)
    rows = block._advance_block(times, t, p, dV, 0, ends)
    one = MomentEngine(basis, 6, tau)
    prev = 0
    for k, (ts, b) in enumerate(zip(times.tolist(), ends.tolist())):
        one.advance_to(ts, t, p, dV, prev, b)
        assert one.raw_rows().tobytes() == rows[k].tobytes(), k
        prev = b
    assert (one.t_now, one.last_t, one.p_last, one.tick_count) == (
        block.t_now, block.last_t, block.p_last, block.tick_count)
    return rows


@pytest.mark.parametrize("basis", ALL_BASES)
def test_one_step_advance_is_the_block_step_bit_for_bit(basis):
    tau = 4.0
    t, p, dV, steps = _step_schedule(tau)
    times = np.array([ts for ts, _ in steps])
    ends = np.array([b for _, b in steps])
    rows = _one_by_one(basis, tau, t, p, dV, times, ends)
    # the schedule holds every kind of step
    seen = {"arrival": 0, "accumulate": 0, "far": 0}
    prev_t, prev = times[0], 0
    for ts, b in steps:
        seen["far"] += ts - prev_t > PRUNE_HORIZON * tau
        seen["arrival"] += b - prev == 1 and t[prev] == ts
        seen["accumulate"] += b - prev > 1 or (b - prev == 1 and t[prev] < ts)
        prev_t, prev = ts, b
    assert all(seen.values()), seen
    # blocks of one step each give the same rows
    again = MomentEngine(basis, 6, tau)
    for k in range(len(steps)):
        got = again._advance_block(times[k:k + 1], t, p, dV,
                                   int(ends[k - 1]) if k else 0,
                                   ends[k:k + 1])
        assert got.shape == (1, 5, 11)
        assert got.tobytes() == rows[k].tobytes()
    # and so do the per-tick and grid blocks that run_blocks builds
    t0 = t[0]
    for grid in (None, 0.75, 3.0):
        if grid is None:
            times, ends = t, np.arange(1, len(t) + 1)
        else:
            times = t0 + np.arange(int((t[-1] - t0) // grid) + 1) * grid
            ends = np.searchsorted(t, times, side="right")
        _one_by_one(basis, tau, t, p, dV, times, ends)


def _bad_steps(t):
    """(name, i0, time, end, column patch) steps the engine must refuse.

    A patch (columns, k, value) sets entry k of each named column to
    value, or with value None cuts it to its first k entries; with k None
    it replaces the whole column by value(column).
    """
    return [
        ("nan time", 3, np.nan, 4, None),
        ("inf time", 3, np.inf, 4, None),
        ("time backwards", 3, t[1], 4, None),
        ("range backwards", 3, t[3], 2, None),
        ("range before the ticks", -1, t[3], 4, None),
        ("range past the ticks", 3, t[9], 11, None),
        ("columns differ in length", 3, t[3], 4, ("p", 9, None)),
        ("tick after time", 3, t[3], 5, None),
        ("nan price", 3, t[3], 4, ("p", 3, np.nan)),
        ("inf shares", 3, t[4], 5, ("dV", 4, np.inf)),
        ("nan time in a block", 3, t[5], 6, ("t", 4, np.nan)),
        ("zero price", 3, t[3], 4, ("p", 3, 0.0)),
        ("negative shares in a block", 3, t[5], 6, ("dV", 4, -3.0)),
        ("p*p*dV overflows", 3, t[3], 4, ("p", 3, 1e200)),
        ("p*p*dV overflows in a block", 3, t[5], 6, ("dV", 4, 1e306)),
        ("columns are None", 3, t[3], 4, ("t p dV", None, lambda c: None)),
        # a one-tick range of lists was once absorbed
        ("columns are lists", 3, t[3], 4, ("t p dV", None, list)),
        ("a column is a list", 3, t[5], 6, ("p", None, list)),
        ("a column is 2-d", 3, t[5], 6, ("dV", None, lambda c: c[:, None])),
        # the engine has absorbed ticks 0..2: a tick older than tick 2, and
        # a range whose times fall, are refused as tick_arrays refuses them
        ("tick before the last absorbed", 3, t[3], 4, ("t", 3, t[1])),
        ("range out of order", 3, t[6], 7, ("t", 5, t[3])),
        ("i0 not an integer", 2.5, t[3], 4, None),
        ("i0 is text", "3", t[3], 4, None),
    ]


@pytest.mark.parametrize("name", [c[0] for c in _bad_steps(np.zeros(10))])
def test_one_step_advance_refuses_what_the_block_refuses(name):
    # the block stepper takes run_blocks' checked arguments on trust;
    # advance_to, the one public step, refuses each bad step itself and
    # leaves the engine as it was
    base = tick_arrays(make_stream(67, 10))
    _, i0, ts, b, patch = next(c for c in _bad_steps(base[0]) if c[0] == name)
    cols = dict(zip("t p dV".split(), (c.copy() for c in base)))
    if patch:
        columns, k, value = patch
        for column in columns.split():
            if k is None:
                cols[column] = value(cols[column])
            elif value is None:
                cols[column] = cols[column][:k]
            else:
                cols[column][k] = value
    t, p, dV = cols["t"], cols["p"], cols["dV"]
    eng = MomentEngine(BasisId.CHEBYSHEV, 4, 16.0)
    eng.advance_to(base[0][2], *base, 0, 3)
    before = eng.raw_rows().copy()
    with pytest.raises(InputError) as err:
        eng.advance_to(ts, t, p, dV, i0, b)
    assert np.array_equal(eng.raw_rows(), before), name
    assert eng.t_now == base[0][2] and eng.tick_count == 3, name
    if "order" in name or "absorbed" in name:
        assert str(err.value) == "tick times must be nondecreasing"


@pytest.mark.parametrize("ticks", [
    [(1, 2, 3, 4)],                     # a fourth field
    [(1.0, 2.0)],                       # a field short
    [[1, 2, "x"]],                      # not a number
    [1.0, 2.0, 3.0],                    # one row, not a list of rows
    (np.zeros((3, 2)),) * 3,            # 2-d columns
    (np.zeros(3), np.zeros(3), "abc"),  # a column of text
    5,                                  # not a sequence
])
def test_tick_arrays_refuses_malformed_ticks(ticks):
    with pytest.raises(InputError, match="exactly 3 numbers"):
        tick_arrays(ticks)


@pytest.mark.parametrize("ticks", [
    [(0, 100, 10), (1, -5, 10), (2, 100, -3)],
    [(0, 100, 10), (1, 0.0, 10)],
    [(0, 100, 10), (1, 100, -1e-300)],
])
def test_ticks_with_a_price_not_above_zero_or_negative_shares_are_refused(
        ticks):
    # as psima run refuses such a line; read, they once gave a flow
    # operator with a negative eigenvalue
    message = "prices must be positive and shares nonnegative"
    with pytest.raises(InputError, match=message):
        tick_arrays(ticks)
    with pytest.raises(InputError, match=message):
        run_over(ticks, BasisId.SHIFTED_LEGENDRE, 3, 16.0)
    t, p, dV = (np.array(c, dtype=float) for c in zip(*ticks))
    eng = MomentEngine(BasisId.SHIFTED_LEGENDRE, 3, 16.0)
    eng.advance_to(t[0], t, p, dV, 0, 1)
    with pytest.raises(InputError, match=message):
        for k in range(1, len(t)):
            eng.advance_to(t[k], t, p, dV, k, k + 1)


@pytest.mark.parametrize("rows", [
    [Tick(1.0, 2.0, 3.0), Tick(4.0, 5.0, 6.0), Tick(7.0, 8.0, 9.0)],
    [Tick(1.0, 2.0, 3.0), Tick(1.5, 5.0, 6.0), Tick(2.0, 8.0, 9.0)],
])
def test_tick_arrays_reads_a_tuple_of_ticks_as_rows(rows):
    # only three numpy arrays are read as columns
    got = tick_arrays(tuple(rows))
    want = tick_arrays(rows)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert got[0].tolist() == [tk.t for tk in rows]
    # read as columns, these rows' times would fall and run_over refuse them
    assert (run_over(tuple(rows), BasisId.CHEBYSHEV, 2, 4.0)
            == run_over(rows, BasisId.CHEBYSHEV, 2, 4.0))


@pytest.mark.parametrize("bad", ["nan time", "inf price", "overflow",
                                 "overflow then nan", "time backwards",
                                 "backwards then overflow", "negative price"])
def test_tick_checks_refuse_a_bad_tick_past_a_slice_boundary(bad):
    # the checks run slice by slice; the bad tick is the first of the
    # second slice, and a tape with several faults is refused for its
    # first bad tick, as the CSV reader refuses it
    n = _CHECK_SLICE + 5
    t, p, dV = np.arange(n, dtype=float), np.full(n, 50.0), np.ones(n)
    if bad == "nan time":
        t[_CHECK_SLICE] = np.nan
    elif bad == "inf price":
        p[_CHECK_SLICE] = np.inf
    elif bad == "overflow":
        dV[_CHECK_SLICE] = 1e306
    elif bad == "overflow then nan":
        dV[_CHECK_SLICE - 1] = 1e306
        t[_CHECK_SLICE] = np.nan
    elif bad == "time backwards":
        # falls below the last tick of the slice before it only
        t[_CHECK_SLICE] -= 1.5
    elif bad == "negative price":
        p[_CHECK_SLICE] = -50.0
    else:
        t[1] = -1.0
        dV[_CHECK_SLICE] = 1e306
    message = {"overflow": "price \\* price",
               "overflow then nan": "price \\* price",
               "backwards then overflow": "nondecreasing",
               "time backwards": "nondecreasing",
               "negative price": "must be positive"}.get(bad, "must be finite")
    with pytest.raises(InputError, match=message):
        tick_arrays((t, p, dV))
    with pytest.raises(InputError, match=message):
        MomentEngine(BasisId.CHEBYSHEV, 2, 10.0).advance_to(
            float(n), t, p, dV, 0, n)
    # the ticks before the bad one pass, where the first slice is sound
    if bad != "backwards then overflow":
        assert len(tick_arrays((t[:_CHECK_SLICE - 1], p[:_CHECK_SLICE - 1],
                                dV[:_CHECK_SLICE - 1]))[0]) == _CHECK_SLICE - 1


@pytest.mark.parametrize("bad", ["16", None, 16 + 0j, np.array(16.0),
                                 np.array([16.0])])
def test_real_arguments_refuse_what_is_not_a_real_number(bad):
    ticks = [Tick(1.0, 100.0, 5.0), Tick(2.0, 100.0, 5.0)]
    calls = {
        "tau": [lambda: MomentEngine(BasisId.CHEBYSHEV, 2, bad),
                lambda: resample_full(ticks, 2.0, bad, BasisId.CHEBYSHEV, 3,
                                      MeasureKind.VOLUME_DV),
                lambda: x_of_t(BasisId.CHEBYSHEV, 0.0, 1.0, bad),
                lambda: omega(0.0, 1.0, bad),
                lambda: run_over(ticks, BasisId.CHEBYSHEV, 2, bad)],
        "t_now": [lambda: resample_full(ticks, bad, 8.0, BasisId.CHEBYSHEV,
                                        3, MeasureKind.VOLUME_DV)],
        "t_new": [lambda: MomentEngine(BasisId.CHEBYSHEV, 2,
                                       8.0).advance_to(bad)],
        # no grid is a per-tick run
        "grid": [lambda: run_over(ticks, BasisId.CHEBYSHEV, 2, 8.0,
                                  grid=bad)] if bad is not None else [],
    }
    for name, entries in calls.items():
        for call in entries:
            with pytest.raises(InputError,
                               match=f"^{name} must be a real number"):
                call()


@pytest.mark.parametrize("tau", [16, np.int64(16), np.float32(16.0)])
def test_real_arguments_take_any_real_scalar(tau):
    eng = MomentEngine(BasisId.CHEBYSHEV, 2, tau)
    assert type(eng.tau) is float and eng.tau == 16.0
    eng.advance_to(np.float32(0.5))
    assert eng.t_now == 0.5


@pytest.mark.parametrize("basis", ALL_BASES)
def test_a_tick_at_the_prune_horizon_is_inside_the_window(basis):
    # every site prunes by one rule, age > PRUNE_HORIZON * tau: a tick
    # exactly that old is kept, though its weight lies just under 1e-16
    tau = 16.0
    t, p, dV = tick_arrays([Tick(0.0, 100.0, 5.0), Tick(1.0, 100.0, 5.0)])
    t_now = 1.0 + PRUNE_HORIZON * tau
    assert t_now - t[1] == PRUNE_HORIZON * tau
    held = np.exp(-(t_now - t[1]) / tau) * dV[1]
    assert 0.0 < held < 1e-16 * dV[1]
    live = MomentEngine(basis, 2, tau)
    live.advance_to(t_now, t, p, dV, 0, 2)
    block = MomentEngine(basis, 2, tau)
    block._advance_block(np.array([t_now]), t, p, dV, 0, np.array([2]))
    full = resample_full((t, p, dV), t_now, tau, basis, 3,
                         MeasureKind.VOLUME_DV)
    for eng in (live, block):
        assert not eng.window_empty()
        assert eng.moments(MeasureKind.VOLUME_DV).values[0] == held
    # tick 0 lies past the horizon and is pruned
    assert full.values[0] == held


def test_every_tape_reader_refuses_ticks_out_of_time_order():
    ticks = [Tick(ts, 100.0, 5.0) for ts in (0.0, 5.0, 3.0, 6.0, 7.0, 8.0)]
    for call in (lambda: tick_arrays(ticks),
                 lambda: resample_full(ticks, 8.0, 16.0, BasisId.CHEBYSHEV,
                                       3, MeasureKind.VOLUME_DV),
                 lambda: run_over(ticks, BasisId.CHEBYSHEV, 2, 16.0)):
        with pytest.raises(InputError,
                           match="^tick times must be nondecreasing$"):
            call()


@pytest.mark.parametrize("basis", ALL_BASES)
def test_a_step_whose_moments_overflow_is_refused(basis):
    # at tau 1e300 a gap of 1e300 s lies inside the prune horizon, and the
    # ages it adds, 1e300 s on 1e300 shares, overflow the age row
    t, p, dV = np.array([0.0, 1e300]), np.ones(2), np.array([1e300, 1.0])
    live = MomentEngine(basis, 4, 1e300)
    live.advance_to(0.0, t, p, dV, 0, 1)
    rows = live.raw_rows().copy()
    with pytest.raises(InputError, match=r"sample time 1e\+300 overflow"):
        live.advance_to(1e300, t, p, dV, 1, 2)
    assert live.raw_rows().tobytes() == rows.tobytes()
    assert (live.t_now, live.last_t, live.p_last, live.tick_count) == (
        0.0, 0.0, 1.0, 1)
    # a refused block leaves the engine as it was before the block
    block = MomentEngine(basis, 4, 1e300)
    with pytest.raises(InputError, match=r"sample time 1e\+300 overflow"):
        block._advance_block(t, t, p, dV, 0, np.array([1, 2]))
    assert not block.raw_rows().any()
    assert (block.t_now, block.last_t, block.p_last, block.tick_count) == (
        None, None, None, 0)


@pytest.mark.parametrize("basis", EXP_BASES)
def test_exponential_engine_drift_is_bounded_over_many_horizons(basis):
    # a tape over five prune horizons long, stepped tick by tick in
    # blocks, as run_blocks steps it: the shifted state never leaves the
    # whole-tape sum by more than 1e-12 of a row's largest moment (under
    # 1e-13 is seen, on the age row). Laguerre is left out: resample_full
    # prunes its ticks too early to serve as the reference (see the test
    # below).
    ticks = steady(2.0, 100.0, 100.0, 12000.0, 3)
    t, p, dV = tick_arrays(ticks)
    n, tau = 12, 64.0
    orders = 2 * n - 1
    assert t[-1] - t[0] > 5 * PRUNE_HORIZON * tau
    eng = MomentEngine(basis, n, tau)
    block = 4096
    for a in range(0, len(t), block):
        b = min(a + block, len(t))
        got = eng._advance_block(t[a:b], t, p, dV, a,
                                 np.arange(a + 1, b + 1))[-1]
        ref = np.zeros((5, orders))
        for measure in ALL_MEASURES:
            ref[_ROW[measure]] = resample_full(ticks, t[b - 1], tau, basis,
                                               orders, measure).values
        # the p^2 row, which resample_full does not return
        p2 = np.zeros((5, orders))
        accumulate_block(t, p, dV, 0, b, t[0], t[b - 1], tau, basis, p2)
        ref[4] = p2[4]
        scale = np.abs(ref).max(axis=1)
        assert np.all(np.abs(got - ref).max(axis=1) <= 1e-12 * scale), a


def test_laguerre_engine_is_the_unpruned_sum_and_resample_drops_the_prune():
    # criterion-10 tape, laguerre, n 12, tau 256: by the last tick the
    # first ticks lie past the prune horizon. Their weight e^{-y} is under
    # 1e-16, but a Laguerre moment weighs them by e^{-y} L_m(y), and L_m
    # grows like e^{y/2}: pruning them drops ~2.6e-9 of the moments. The
    # engine never prunes a shifted state, so it is the unpruned sum.
    ticks = steady(1.0, 100.0, 100.0, 10000.0, 7)
    t, p, dV = tick_arrays(ticks)
    n, tau = 12, 256.0
    orders = 2 * n - 1
    eng = MomentEngine(BasisId.LAGUERRE, n, tau)
    eng._advance_block(t, t, p, dV, 0, np.arange(1, len(t) + 1))
    # the float sum over every tick, with numpy's own Laguerre values
    age = t[-1] - t
    w = np.exp(-age / tau)
    pruned = age > PRUNE_HORIZON * tau
    assert pruned.sum() > 500
    terms = np.stack([np.diff(t, prepend=t[0]), dV, p * dV, age * dV,
                      p * p * dV]) * w
    V = nplag.lagvander(age / tau, orders - 1)
    unpruned = terms @ V
    pruned_mass = (terms * pruned) @ V
    scale = np.abs(unpruned).max(axis=1)
    engine_gap = np.abs(eng.raw_rows() - unpruned).max(axis=1) / scale
    assert np.all(engine_gap < 1e-13)
    mass = np.abs(pruned_mass).max(axis=1) / scale
    assert np.all((mass > 1e-9) & (mass < 1e-7))
    for measure in ALL_MEASURES:
        row = _ROW[measure]
        full = resample_full(ticks, t[-1], tau, BasisId.LAGUERRE, orders,
                             measure).values
        # resample_full is the unpruned sum less the pruned mass
        assert np.abs(full - unpruned[row]).max() > 1e-9 * scale[row]
        assert (np.abs(full - (unpruned[row] - pruned_mass[row])).max()
                < 1e-13 * scale[row])


@pytest.mark.parametrize("basis", ALL_BASES)
def test_a_block_names_its_first_overflowing_step(basis):
    # the block's rows are checked once, after its last step: the refusal
    # names the first step whose rows overflow, though the steps after it
    # overflow too, and the engine is left as it was before the block
    t = np.array([0.0, 1e300, 1.5e300])
    p, dV = np.ones(3), np.array([1e300, 1.0, 1.0])
    block = MomentEngine(basis, 4, 1e300)
    block.advance_to(0.0, t, p, dV, 0, 1)
    rows = block.raw_rows().copy()
    with pytest.raises(InputError, match=r"sample time 1e\+300 overflow"):
        block._advance_block(t[1:], t, p, dV, 1, np.array([2, 3]))
    assert block.raw_rows().tobytes() == rows.tobytes()
    assert (block.t_now, block.last_t, block.p_last, block.tick_count) == (
        0.0, 0.0, 1.0, 1)
