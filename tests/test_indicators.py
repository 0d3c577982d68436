import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_stream, regular_stream, rel_err
from psima import (BasisId, DegenerateStateError, EmptyWindowError,
                   InputError, MeasureKind, MomentEngine, NoVolumeError, Tick,
                   WaveFunction, ema_price, age_tau, evaluate_at, f_psi, flow,
                   gram, parse_csv, resample_full, run_blocks,
                   run_over, solve_pencil, tick_arrays, weighted)
from psima import indicators, measure
from psima.measure import PRUNE_HORIZON
from psima.synth import steady


def _run_engine(ticks, basis=BasisId.SHIFTED_LEGENDRE, n=8, tau=64.0):
    t, p, dV = tick_arrays(ticks)
    eng = MomentEngine(basis, n, tau)
    eng.advance_to(t[-1], t, p, dV, 0, len(t))
    return eng


def test_scalar_averages_match_raw_sums(stream400):
    tau = 64.0
    t_now = stream400[-1].t
    basis = BasisId.CHEBYSHEV
    mats = {k: resample_full(stream400, t_now, tau, basis, 1, k)
            for k in MeasureKind}
    p_ref = oracles.raw_moments(stream400, t_now, tau, basis, 1,
                                MeasureKind.PRICE_VOLUME)[0]
    v_ref = oracles.raw_moments(stream400, t_now, tau, basis, 1,
                                MeasureKind.VOLUME_DV)[0]
    a_ref = oracles.raw_moments(stream400, t_now, tau, basis, 1,
                                MeasureKind.AGE_VOLUME)[0]
    assert ema_price(mats[MeasureKind.PRICE_VOLUME],
                     mats[MeasureKind.VOLUME_DV]) == pytest.approx(
                         p_ref / v_ref, rel=1e-10)
    assert age_tau(mats[MeasureKind.AGE_VOLUME],
                   mats[MeasureKind.VOLUME_DV]) == pytest.approx(
                       a_ref / v_ref, rel=1e-10)


def test_scalar_averages_need_volume(stream400):
    tau = 64.0
    t_now = stream400[-1].t
    pv = resample_full(stream400, t_now, tau, BasisId.CHEBYSHEV, 1,
                       MeasureKind.PRICE_VOLUME)
    zero = resample_full([Tick(t_now, 100.0, 0.0)], t_now, tau,
                         BasisId.CHEBYSHEV, 1, MeasureKind.VOLUME_DV)
    with pytest.raises(NoVolumeError):
        ema_price(pv, zero)


@pytest.mark.parametrize("basis", list(BasisId))
def test_f_psi_on_first_axis_is_the_ema(stream400, basis):
    n = 6
    tau = 64.0
    t_now = stream400[-1].t
    orders = 2 * n - 1
    vol = resample_full(stream400, t_now, tau, basis, orders,
                        MeasureKind.VOLUME_DV)
    pv = resample_full(stream400, t_now, tau, basis, orders,
                       MeasureKind.PRICE_VOLUME)
    psi0 = WaveFunction(alpha=np.eye(n)[0], basis=basis)
    got = f_psi(psi0, weighted(pv, n), flow(vol, n))
    assert got == pytest.approx(pv.values[0] / vol.values[0], rel=1e-13)
    # identical numerator and denominator read exactly one
    assert f_psi(psi0, flow(vol, n), flow(vol, n)) == 1.0


def test_top_state_reading_matches_pointwise_weights(stream400):
    # psi^2-weighted price, recomputed tick by tick from the raw window
    n = 8
    tau = 64.0
    basis = BasisId.SHIFTED_LEGENDRE
    t_now = stream400[-1].t
    orders = 2 * n - 1
    tim = resample_full(stream400, t_now, tau, basis, orders,
                        MeasureKind.TIME_DT)
    vol = resample_full(stream400, t_now, tau, basis, orders,
                        MeasureKind.VOLUME_DV)
    pv = resample_full(stream400, t_now, tau, basis, orders,
                       MeasureKind.PRICE_VOLUME)
    dec = solve_pencil(flow(vol, n), gram(tim, n))
    m = dec.effective_n
    psi = dec.states[dec.i_IH]
    got = f_psi(psi, weighted(pv, n).entries[:m, :m],
                flow(vol, n).entries[:m, :m])
    ref = oracles.psi_weighted_average(stream400, t_now, tau, basis,
                                       psi.alpha,
                                       [tk.p for tk in stream400])
    assert got == pytest.approx(ref, rel=1e-8)


def test_spike_price_dominates_the_top_state():
    # overwhelming recent burst at a shifted price: P_IH locks onto it
    # while the EMA still blends the old level
    base = regular_stream(1.0, 2000.0, 10.0, 100.0)
    t, p, dV = tick_arrays(base)
    sel = (t >= 1950.0) & (t < 1960.0)
    dV = np.where(sel, dV * 400.0, dV)
    p = np.where(sel, 105.0, p)
    eng = MomentEngine(BasisId.SHIFTED_LEGENDRE, 12, 256.0)
    eng.advance_to(t[-1], t, p, dV, 0, len(t))
    s = evaluate_at(t[-1], eng)
    assert abs(s.P_IH - 105.0) < 0.01 * 105.0
    # the top state tracks the burst far tighter than the blended EMA
    assert abs(s.P_tau - 105.0) > 5.0 * abs(s.P_IH - 105.0)


def test_isolated_spike_age_is_read_back():
    # a lone burst of age a on quiet background: T_IH reports a
    tau = 256.0
    a = 2.0 * tau
    base = regular_stream(1.0, 4000.0, 1.0, 100.0)
    t, p, dV = tick_arrays(base)
    t_end = t[-1]
    sel = (t >= t_end - a - 8.0) & (t < t_end - a)
    dV = np.where(sel, dV * 3000.0, dV)
    eng = MomentEngine(BasisId.SHIFTED_LEGENDRE, 12, tau)
    eng.advance_to(t_end, t, p, dV, 0, len(t))
    s = evaluate_at(t_end, eng)
    assert abs(s.T_IH - a) < 0.05 * tau


def test_steady_flow_age_settles_at_tau():
    ticks = regular_stream(0.5, 4000.0, 20.0, 100.0)
    eng = _run_engine(ticks, n=10, tau=128.0)
    s = evaluate_at(ticks[-1].t, eng)
    assert abs(s.T_tau - 128.0) < 0.03 * 128.0


def test_average_price_column_mirrors_top_state(stream400):
    eng = _run_engine(stream400)
    s = evaluate_at(stream400[-1].t, eng)
    assert s.P_aver == s.P_IH


def test_single_tick_history_degrades_gracefully():
    eng = MomentEngine(BasisId.SHIFTED_LEGENDRE, 8, 64.0)
    t = np.array([5.0]); p = np.array([101.5]); dV = np.array([30.0])
    eng.advance_to(5.0, t, p, dV, 0, 1)
    s = evaluate_at(5.0, eng)
    assert s.effective_n == 0
    assert s.P_IH == s.P_tau == 101.5
    assert s.T_IH == s.T_tau == 0.0
    assert s.lambda_IH == s.lambda_IL == 0.0


def test_a_window_with_no_time_mass_reads_the_classical_fields():
    # every tick at the first timestamp: the time row's order-0 moment is
    # exactly 0, so the Gram is zero and no dimension can resolve; the
    # reading falls back to the classical fields, live and in a block
    ticks = [Tick(5.0, 101.0 + k, 10.0 * (k + 1)) for k in range(3)]
    ticks += make_stream(7, 40, t0=6.0)
    t, p, dV = tick_arrays(ticks)
    eng = MomentEngine(BasisId.LAGUERRE, 8, 64.0)
    live = []
    for k in range(len(t)):
        eng.advance_to(t[k], t, p, dV, k, k + 1)
        live.append(evaluate_at(float(t[k]), eng))
    for s in live[:3]:
        assert s.effective_n == 0 and s.lambda_IH == s.lambda_IL == 0.0
        assert s.P_IH == s.P_tau and s.T_IH == s.T_tau == 0.0
    samples, skipped = run_over(ticks, BasisId.LAGUERRE, 8, 64.0)
    assert samples == live and skipped == 0

def test_run_over_per_tick_and_grid():
    ticks = make_stream(19, 500)
    samples, dropped = run_over(ticks, BasisId.SHIFTED_LEGENDRE, 8, 64.0)
    assert dropped == 0
    assert len(samples) == 500
    assert [s.t_now for s in samples] == [tk.t for tk in ticks]
    gs, gdrop = run_over(ticks, BasisId.SHIFTED_LEGENDRE, 8, 64.0, grid=10.0)
    times = np.array([s.t_now for s in gs])
    assert np.allclose(np.diff(times), 10.0)
    assert times[0] == ticks[0].t
    assert times[-1] <= ticks[-1].t + 10.0


def _grid_times(t, grid):
    """t0 + k*grid for k = 0, 1, ... while at or before the last tick."""
    t0, k, times = float(t[0]), 0, []
    while t0 + k * grid <= t[-1]:
        times.append(t0 + k * grid)
        k += 1
    return times


def _stream_samples(ticks, basis, n, tau, grid=None):
    """advance_to + evaluate_at, one sample at a time, as a live caller."""
    t, p, dV = tick_arrays(ticks)
    if grid is None:
        plan = [(float(t[l]), l, l + 1) for l in range(len(t))]
    else:
        plan, i = [], 0
        for ts in _grid_times(t, grid):
            j = int(np.searchsorted(t, ts, side="right"))
            plan.append((ts, i, j))
            i = j
    eng = MomentEngine(basis, n, tau)
    samples, skipped = [], 0
    for ts, i, j in plan:
        eng.advance_to(ts, t, p, dV, i, j)
        try:
            samples.append(evaluate_at(ts, eng))
        except (EmptyWindowError, NoVolumeError, DegenerateStateError):
            skipped += 1
    return samples, skipped


def _samples_bytes(samples) -> bytes:
    return np.array([dataclasses.astuple(s) for s in samples]).tobytes()


@pytest.mark.parametrize("basis", list(BasisId))
@pytest.mark.parametrize("tape", ["criterion10", "live"])
def test_live_readings_equal_run_over_to_the_bit(benchmark_tapes, tape,
                                                 basis):
    # the first 1,500 ticks of both benchmark tapes: a live caller's
    # samples and the batch's have the same bytes, signed zeros included
    t, p, dV = (c[:1500] for c in benchmark_tapes[tape])
    samples, skipped = run_over((t, p, dV), basis, 12, 256.0)
    ref, ref_skipped = _stream_samples((t, p, dV), basis, 12, 256.0)
    assert (skipped, len(samples)) == (ref_skipped, len(ref))
    assert _samples_bytes(samples) == _samples_bytes(ref)


def _engine_state(eng) -> tuple:
    probes = [None if x is None else x.tobytes() for x in eng.probe_states]
    return (eng.state.tobytes(), eng.t_now, eng.last_t, eng.p_last,
            eng.tick_count, eng.resolved_n, probes)


@pytest.mark.parametrize("basis", list(BasisId))
def test_a_refused_live_step_changes_no_engine_state(benchmark_tapes,
                                                     basis):
    # 300 live readings, then a tick whose p^2 dV fits but whose sum with
    # the one before it at the same time overflows
    t, p, dV = (c[:300] for c in benchmark_tapes["live"])
    t = np.append(t, [t[-1] + 1.0] * 2)
    p = np.append(p, [1e154] * 2)
    dV = np.append(dV, [1.5] * 2)
    eng = MomentEngine(basis, 12, 256.0)
    for k in range(300):
        eng.advance_to(t[k], t, p, dV, k, k + 1)
        evaluate_at(float(t[k]), eng)
    assert any(x is not None for x in eng.probe_states)
    eng.advance_to(t[300], t, p, dV, 300, 301)
    state = _engine_state(eng)
    refusals = [
        ((t[301], t, p, dV, 301, 302), "overflow the moment arithmetic"),
        ((t[300] - 1.0,), "nondecreasing"),
        ((t[301] + 1.0, t, p, dV, 301, 303), "outside the 302 ticks"),
    ]
    for args, why in refusals:
        with pytest.raises(InputError, match=why):
            eng.advance_to(*args)
        assert _engine_state(eng) == state, why


@pytest.mark.parametrize("basis", list(BasisId))
def test_rows_read_before_a_step_keep_their_values(benchmark_tapes, basis):
    # raw_rows() hands out the engine's rows uncopied and moments() a
    # copy; a later step, with ticks or without, writes neither
    t, p, dV = benchmark_tapes["live"]
    eng = MomentEngine(basis, 12, 256.0)
    eng.advance_to(t[99], t, p, dV, 0, 100)
    rows = eng.raw_rows()
    vol = eng.moments(MeasureKind.VOLUME_DV).values
    kept = rows.tobytes(), vol.tobytes()
    eng.advance_to(t[100], t, p, dV, 100, 101)
    eng.advance_to(0.5 * (t[100] + t[101]))
    eng.advance_to(t[102], t, p, dV, 101, 103)
    assert (rows.tobytes(), vol.tobytes()) == kept
    assert eng.raw_rows().tobytes() != kept[0]


@pytest.mark.parametrize("basis", list(BasisId))
@pytest.mark.parametrize("grid", [None, 1.5])
def test_run_over_equals_live_streaming(basis, grid):
    # the whole-tape batch and a live caller run one path: every field of
    # every sample agrees exactly, across several internal blocks
    ticks = make_stream(53, 700, dt_lo=0.05, dt_hi=1.5)
    for k in (3, 4, 150, 151, 152, 400):   # repeated timestamps
        ticks[k] = Tick(ticks[k - 1].t, ticks[k].p, ticks[k].dV)
    for k in (1, 2, 60, 61, 300, 500):     # zero-share prints
        ticks[k] = Tick(ticks[k].t, ticks[k].p, 0.0)
    n, tau = 12, 32.0
    # a quiet spell past the prune horizon empties the grid's window
    ticks[550:] = [Tick(tk.t + 1.1 * PRUNE_HORIZON * tau, tk.p, tk.dV)
                   for tk in ticks[550:]]
    samples, skipped = run_over(ticks, basis, n, tau, grid=grid)
    ref, ref_skipped = _stream_samples(ticks, basis, n, tau, grid)
    assert len(samples) > 256  # more than one internal block
    assert skipped == ref_skipped
    assert samples == ref
    assert samples[0].effective_n == 0  # first tick: classical fallback
    if grid is not None:
        assert skipped > 0  # empty windows in the quiet spell
    if basis is BasisId.LAGUERRE:
        assert any(0 < s.effective_n < n for s in samples)


@pytest.mark.parametrize("basis", list(BasisId))
def test_live_millisecond_tape_equals_batch(basis):
    # HH:MM:SS.fff timestamps step by whole milliseconds, so the gaps of a
    # live stream repeat, and many ticks share a timestamp
    lines = []
    for tk in make_stream(71, 300, dt_lo=0.0, dt_hi=0.02, t0=34200.0):
        ms = round(tk.t * 1000)
        h, ms = divmod(ms, 3_600_000)
        m, ms = divmod(ms, 60_000)
        lines.append(f"{h:02d}:{m:02d}:{ms // 1000:02d}.{ms % 1000:03d},"
                     f"{tk.p},{tk.dV}")
    ticks = parse_csv(lines, date="2024-03-05")
    ref, ref_skipped = _stream_samples(ticks, basis, 6, 0.5)
    samples, skipped = run_over(ticks, basis, 6, 0.5)
    assert skipped == ref_skipped
    assert samples == ref


def test_long_grid_times_are_exact_multiples():
    # summing the step would drift off t0 + k*grid over 10,000 samples
    grid = 0.1
    ticks = regular_stream(0.05, 1000.0, 100.0, price=50.0)
    t0 = ticks[0].t
    samples, skipped = run_over(ticks, BasisId.CHEBYSHEV, 3, 8.0, grid=grid)
    assert skipped == 0
    assert [s.t_now for s in samples] == [t0 + k * grid
                                          for k in range(len(samples))]
    assert len(samples) == len(_grid_times([t0, ticks[-1].t], grid))
    acc = t0
    for _ in range(len(samples) - 1):
        acc += grid
    assert acc != samples[-1].t_now  # a summed schedule ends elsewhere


@pytest.mark.parametrize("grid", [0.0, -1.0, np.nan, np.inf, 1e-300, 1e-12])
def test_bad_grid_steps_are_refused(grid):
    ticks = make_stream(5, 20)
    with pytest.raises(InputError, match="grid"):
        run_over(ticks, BasisId.SHIFTED_LEGENDRE, 3, 8.0, grid=grid)


@pytest.mark.parametrize("bad", [(2, np.nan, 10.0), (2, 100.0, np.inf),
                                 (np.nan, 100.0, 10.0),
                                 (2, 1e200, 1e200)])  # p * p * dV overflows
def test_non_finite_ticks_are_refused(bad):
    # a NaN share would otherwise reach every later sample as NaN readings
    ticks = [Tick(1.0, 100.0, 10.0), Tick(*bad), Tick(3.0, 100.0, 10.0)]
    with pytest.raises(InputError):
        run_over(ticks, BasisId.SHIFTED_LEGENDRE, 4, 32.0)
    t = np.array([tk.t for tk in ticks])
    p = np.array([tk.p for tk in ticks])
    dV = np.array([tk.dV for tk in ticks])
    eng = MomentEngine(BasisId.SHIFTED_LEGENDRE, 4, 32.0)
    eng.advance_to(1.0, t, p, dV, 0, 1)
    with pytest.raises(InputError):
        eng.advance_to(3.0, t, p, dV, 1, 3)
    with pytest.raises(InputError):
        eng.advance_to(np.nan)


def test_zero_volume_stream_yields_no_samples():
    ticks = [Tick(float(i), 100.0, 0.0) for i in range(1, 40)]
    samples, dropped = run_over(ticks, BasisId.CHEBYSHEV, 6, 32.0)
    assert samples == []
    assert dropped == len(ticks)


def test_readings_stay_inside_the_window_hull():
    # every price indicator is a convex combination of window prices and
    # every age lies inside [0, window span]
    ticks = make_stream(29, 4000, dt_lo=0.05, dt_hi=1.2, p_amp=9.0)
    tau = 32.0
    horizon = 36.85 * tau
    samples, _ = run_over(ticks, BasisId.SHIFTED_LEGENDRE, 8, tau)
    t, p, _ = tick_arrays(ticks)
    j0 = 0
    for s in samples:
        while t[j0] < s.t_now - horizon:
            j0 += 1
        j1 = int(np.searchsorted(t, s.t_now, side="right"))
        lo = float(np.min(p[j0:j1])) - 1e-9
        hi = float(np.max(p[j0:j1])) + 1e-9
        for val in (s.P_tau, s.P_IH, s.P_aver):
            assert lo <= val <= hi
        span = s.t_now - t[j0] + 1e-9
        assert -1e-9 <= s.T_tau <= span
        assert -1e-9 <= s.T_IH <= span
        assert s.lambda_IL <= s.lambda_IH + 1e-12


def test_extreme_flows_bracket_the_plain_rate():
    # lambda_IH >= total flow / total time >= lambda_IL, all EMA weighted
    ticks = make_stream(31, 1500)
    eng = _run_engine(ticks, n=10, tau=96.0)
    rows = eng.raw_rows()
    mean_rate = rows[1][0] / rows[0][0]
    s = evaluate_at(ticks[-1].t, eng)
    assert s.lambda_IL <= mean_rate * (1 + 1e-9)
    assert s.lambda_IH >= mean_rate * (1 - 1e-9)


def test_exponential_bases_agree_on_every_field():
    ticks = make_stream(37, 1200)
    tau = 64.0
    out = {}
    for basis in (BasisId.SHIFTED_LEGENDRE, BasisId.CHEBYSHEV):
        samples, _ = run_over(ticks, basis, 8, tau)
        out[basis] = samples
    a, b = out[BasisId.SHIFTED_LEGENDRE], out[BasisId.CHEBYSHEV]
    assert len(a) == len(b)
    skip = 50  # early sparse windows may solve at different effective_n
    for sa, sb in zip(a[skip:], b[skip:]):
        if sa.effective_n != sb.effective_n:
            continue
        for field in ("P_tau", "P_IH", "lambda_IH", "lambda_IL", "T_IH",
                      "T_tau", "P_aver"):
            va, vb = getattr(sa, field), getattr(sb, field)
            assert rel_err(np.array([va]), np.array([vb])) < 1e-7, field


def test_deviation_column_for_constant_price_is_zero():
    ticks = regular_stream(1.0, 500.0, 10.0, 100.0)
    eng = _run_engine(ticks, n=6, tau=64.0)
    s = evaluate_at(ticks[-1].t, eng)
    assert s.p_std == pytest.approx(0.0, abs=1e-5)


# Worst moves the quiet-spell identity allows, relative, about ten times
# the largest seen on the live_laguerre benchmark tape at n 12, tau 256:
# lambda_IH and P_IH held there to 1.7e-11 and T_IH + gap to 6.0e-9 for
# the exponential bases, and to 9.1e-9 and 6.8e-8 for Laguerre, whose
# pencils are conditioned worse. lambda_IL is held to lambda_IH's bound,
# relative to lambda_IH.
QUIET_TOL = {BasisId.LAGUERRE: (1e-7, 7e-7),
             BasisId.SHIFTED_LEGENDRE: (2e-10, 6e-8),
             BasisId.CHEBYSHEV: (2e-10, 6e-8)}


@pytest.mark.parametrize("basis", list(BasisId))
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(100, 1500),
       gap=st.floats(-1.0, np.log2(300.0)).map(np.exp2))
def test_a_quiet_spell_keeps_the_spectrum(basis, seed, k, gap):
    # a step with no tick maps every operator by one congruence, G(.)G^T
    # times the window decay, and adds gap * A to the age operator: the
    # pencil keeps its eigenvalues, its top state reads the same price
    # and an age older by the gap. The resolution gate compares against
    # a fixed ideal window, so this holds where effective_n does: for the
    # exponential bases mostly in gaps under about 30 s, hence gaps
    # log-uniform over 0.5-300 s.
    t, p, dV = tick_arrays(make_stream(seed, k))
    eng = MomentEngine(basis, 12, 256.0)
    eng.advance_to(t[-1], t, p, dV, 0, k)
    before = evaluate_at(t[-1], eng)
    t_now = float(t[-1] + gap)
    eng.advance_to(t_now)
    after = evaluate_at(t_now, eng)
    assume(after.effective_n == before.effective_n)
    tol, tol_age = QUIET_TOL[basis]
    scale = abs(before.lambda_IH)
    assert abs(after.lambda_IH - before.lambda_IH) <= tol * scale
    assert abs(after.lambda_IL - before.lambda_IL) <= tol * scale
    assert abs(after.P_IH - before.P_IH) <= tol * abs(before.P_IH)
    assert (abs(after.T_IH - (before.T_IH + gap))
            <= tol_age * (before.T_IH + gap))


# tapes whose readings overflow float64: a time step of 1e300 s puts
# 1e300 into the time moments, and the pencil's products overflow
OVERFLOW_TAPES = {
    "0,100,0 / 1e300,100,5": [Tick(0.0, 100.0, 0.0), Tick(1e300, 100.0, 5.0)],
    "1e300,100,5 / 2e300,100,5": [Tick(1e300, 100.0, 5.0),
                                  Tick(2e300, 100.0, 5.0)],
}


@pytest.mark.parametrize("tape", OVERFLOW_TAPES)
@pytest.mark.parametrize("n", [12, 1])
def test_overflowing_tapes_are_refused(tape, n):
    ticks = OVERFLOW_TAPES[tape]
    with pytest.raises(InputError, match="overflow the moment arithmetic"):
        run_over(ticks, BasisId.LAGUERRE, n, 2.0)
    t, p, dV = tick_arrays(ticks)
    eng = MomentEngine(BasisId.LAGUERRE, n, 2.0)
    refused = []
    for l in range(len(t)):
        eng.advance_to(t[l], t, p, dV, l, l + 1)
        try:
            evaluate_at(t[l], eng)
        except NoVolumeError:
            pass
        except InputError as exc:
            assert repr(float(t[l])) in str(exc)
            refused.append(l)
    assert refused


@pytest.mark.parametrize("basis", list(BasisId))
def test_run_blocks_yields_the_blocks_before_an_overflowing_one(basis):
    # the second block meets a 1e300 s step: the first block's samples are
    # out before the refusal, which names the second block's span
    head = steady(1, 100, 100, 320, 3)[:300]
    blocks = run_blocks(head + [Tick(1e300, 100, 5)], basis, 12, 32.0)
    samples, skipped = next(blocks)
    assert (len(samples), skipped) == (256, 0)
    assert samples == run_over(head, basis, 12, 32.0)[0][:256]
    with pytest.raises(InputError,
                       match=r"243\.04002175408917 to 1e\+300 overflow"):
        next(blocks)


@pytest.mark.parametrize("grid", [None, 0.75])
def test_run_blocks_checks_the_ticks_once(monkeypatch, grid):
    # tick_arrays checks the whole tape before the first block; the block
    # stepper takes the checked tape on trust, so blocks add no pass
    checked = []
    check = measure._check_ticks

    def counted(t, *rest):
        checked.append(len(t))
        return check(t, *rest)

    monkeypatch.setattr(measure, "_check_ticks", counted)
    monkeypatch.setattr(indicators, "_BLOCK", 4)
    ticks = make_stream(71, 10)
    blocks = list(run_blocks(ticks, BasisId.CHEBYSHEV, 3, 16.0, grid))
    assert len(blocks) >= 3
    assert checked == [10]
