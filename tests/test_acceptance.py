"""End-to-end acceptance checks.

Each test prints one summary line with its measured numbers; the pytest
verdict on the test is the pass/fail verdict on the criterion.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

import oracles
from conftest import make_stream
from psima import (BasisId, MeasureKind, MomentEngine, Tick, WaveFunction,
                   flow, gram, rayleigh, resample_full, solve_pencil,
                   tick_arrays, weighted)
from psima.basis import linearization_table
from psima.indicators import evaluate_at, f_psi, run_over
from psima.synth import spike, steady

TAU = 256.0
N = 12
EXPONENTIAL = (BasisId.SHIFTED_LEGENDRE, BasisId.CHEBYSHEV)


def _sample_series(ticks, times, basis, n, tau):
    """Indicator samples at explicit timestamps, streaming once through."""
    t, p, dV = tick_arrays(ticks)
    engine = MomentEngine(basis, n, tau)
    i = 0
    out = []
    for ts in times:
        j = int(np.searchsorted(t, ts, side="right"))
        engine.advance_to(float(ts), t, p, dV, i, j)
        i = j
        out.append(evaluate_at(float(ts), engine))
    return out


# ---------------------------------------------------------------------------
# 1. product-table closed form
# ---------------------------------------------------------------------------

def test_criterion_01_chebyshev_table_exact():
    t0 = time.perf_counter()
    builder = linearization_table.__wrapped__  # bypass the cache for timing
    tbl = builder(BasisId.CHEBYSHEV, 24)
    bad = 0
    for j in range(25):
        for k in range(25):
            expect = np.zeros(49)
            expect[j + k] += 0.5
            expect[abs(j - k)] += 0.5
            if not np.array_equal(tbl.coeffs[j, k], expect):
                bad += 1
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: {bad} of 625 entries off closed form, "
          f"{elapsed:.3f}s")
    assert bad == 0
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. basis invariance of the indicator series
# ---------------------------------------------------------------------------

_FIELDS = ["P_tau", "P_IH", "lambda_IH", "lambda_IL", "T_IH", "T_tau",
           "P_aver", "p_std"]


def test_criterion_02_basis_invariance():
    t0 = time.perf_counter()
    base = steady(rate=2.5, flow=100.0, price=100.0, duration=2000.0,
                  seed=12)
    ticks = spike(base, at=500.0, magnitude=6.0, width=30.0, price_shift=2.5)
    ticks = spike(ticks, at=1500.0, magnitude=3.0, width=60.0,
                  price_shift=-1.5)
    series = {}
    for basis in BasisId:
        samples, _ = run_over(ticks, basis, N, TAU)
        series[basis] = samples
    elapsed = time.perf_counter() - t0

    results = []
    for a, b in ((BasisId.SHIFTED_LEGENDRE, BasisId.CHEBYSHEV),
                 (BasisId.LAGUERRE, BasisId.SHIFTED_LEGENDRE),
                 (BasisId.LAGUERRE, BasisId.CHEBYSHEV)):
        sa, sb = series[a], series[b]
        desync = sum(x.effective_n != y.effective_n for x, y in zip(sa, sb))
        worst = 0.0
        for x, y in zip(sa, sb):
            for f in _FIELDS:
                u, v = getattr(x, f), getattr(y, f)
                worst = max(worst, abs(u - v) / max(1.0, abs(u), abs(v)))
        ok = desync == 0 and worst <= 1e-7
        results.append((a.value, b.value, desync, worst, ok))

    print(f"criterion 2: {len(ticks)} ticks in {elapsed:.1f}s")
    for a, b, desync, worst, ok in results:
        print(f"  {'PASS' if ok else 'FAIL'} {a} vs {b}: "
              f"effective_n mismatches {desync}, worst field gap {worst:.3g}")
    assert elapsed < 30.0
    for a, b, desync, worst, ok in results:
        assert ok, (f"{a} vs {b}: desync={desync}, worst={worst:.3g} "
                    "(see notes on the linear-argument family's resolvable "
                    "order)")


# ---------------------------------------------------------------------------
# 3 + 4. pencil solves vs the determinant oracle; Rayleigh bounds
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pencils():
    rng = np.random.default_rng(99)
    out = []
    for _ in range(100):
        R = rng.standard_normal((8, 8))
        B = R @ R.T + 0.1 * np.eye(8)
        S = rng.standard_normal((8, 8))
        out.append((0.5 * (S + S.T), B))
    return out


def test_criterion_03_pencils_vs_determinant_oracle(pencils):
    t0 = time.perf_counter()
    worst_eig = worst_res = worst_orth = 0.0
    for A, B in pencils:
        dec = solve_pencil(A, B)
        assert dec.effective_n == 8
        ref = oracles.pencil_eigs_bisect(A, B)
        scale = max(np.max(np.abs(ref)), 1e-30)
        worst_eig = max(worst_eig,
                        float(np.max(np.abs(dec.lambdas - ref))) / scale)
        V = np.column_stack([st.alpha for st in dec.states])
        R = A @ V - (B @ V) * dec.lambdas[None, :]
        cap = np.linalg.norm(A) + np.abs(dec.lambdas) * np.linalg.norm(B)
        worst_res = max(worst_res, float(np.max(
            np.linalg.norm(R, axis=0) / cap)))
        G = V.T @ B @ V
        worst_orth = max(worst_orth,
                         float(np.max(np.abs(G - np.eye(8)))))
    elapsed = time.perf_counter() - t0
    print(f"criterion 3: 100 pencils in {elapsed:.2f}s, worst eig err "
          f"{worst_eig:.3g}, residual {worst_res:.3g}, "
          f"orthonormality {worst_orth:.3g}")
    assert worst_eig <= 1e-8
    assert worst_res <= 1e-8
    assert worst_orth <= 1e-8
    assert elapsed < 10.0


def test_criterion_04_rayleigh_bounds(pencils):
    rng = np.random.default_rng(7)
    worst = 0.0
    for A, B in pencils:
        dec = solve_pencil(A, B)
        lo, hi = float(dec.lambdas[0]), float(dec.lambdas[-1])
        alphas = rng.standard_normal((1000, 8))
        for a in alphas:
            r = rayleigh(WaveFunction(alpha=a, basis=None), A, B)
            worst = max(worst, lo - r, r - hi)
    print(f"criterion 4: worst bound excursion {worst:.3g}")
    assert worst <= 1e-9


# ---------------------------------------------------------------------------
# 5. constant flow collapses the spectrum
# ---------------------------------------------------------------------------

def test_criterion_05_constant_flow_degeneracy():
    tau, n, flow_rate = 32.0, 8, 100.0
    ticks = steady(rate=2.0, flow=flow_rate, price=42.0, duration=1300.0,
                   seed=5)
    assert ticks[-1].t > 37.0 * tau  # deeper than the pruning horizon
    t_now = ticks[-1].t
    mt = resample_full(ticks, t_now, tau, BasisId.SHIFTED_LEGENDRE,
                       2 * n - 1, MeasureKind.TIME_DT)
    mv = resample_full(ticks, t_now, tau, BasisId.SHIFTED_LEGENDRE,
                       2 * n - 1, MeasureKind.VOLUME_DV)
    dec = solve_pencil(flow(mv, n), gram(mt, n))
    spread = float(dec.lambdas[-1] - dec.lambdas[0])

    t, p, dV = tick_arrays(ticks)
    engine = MomentEngine(BasisId.SHIFTED_LEGENDRE, n, tau)
    engine.advance_to(t_now, t, p, dV, 0, len(t))
    s = evaluate_at(t_now, engine)
    gap = abs(s.P_IH - s.P_tau) / 42.0
    print(f"criterion 5: spread {spread:.3g} (cap {1e-3 * flow_rate}), "
          f"price gap {gap:.3g} rel")
    assert spread <= 1e-3 * flow_rate
    assert gap <= 1e-6


# ---------------------------------------------------------------------------
# 6. switch happens on one tick; the classical window lags by design
# ---------------------------------------------------------------------------

def test_criterion_06_switch_vs_lag():
    t_star = 20 * TAU
    base = [Tick(t=float(k), p=100.0, dV=100.0) for k in range(1, 6001)]
    aged = spike(base, at=t_star - 10 * TAU - 64.0, magnitude=400.0,
                 width=64.0)
    full = spike(aged, at=t_star, magnitude=5.0, width=4.0)
    counterfactual = spike(base, at=t_star, magnitude=5.0, width=4.0)

    samples, _ = run_over(full, BasisId.SHIFTED_LEGENDRE, N, TAU)
    by_t = {s.t_now: s for s in samples}
    onset = t_star + 1.0  # first trade carrying the boosted flow
    prev, now = by_t[onset - 1.0], by_t[onset]
    drop = (prev.T_IH - now.T_IH) / TAU
    move = abs(now.T_tau - prev.T_tau) / TAU

    times = np.arange(t_star + 8.0, t_star + 3 * TAU + 8.0, 8.0)
    with_old = _sample_series(full, times, BasisId.SHIFTED_LEGENDRE, N, TAU)
    without = _sample_series(counterfactual, times, BasisId.SHIFTED_LEGENDRE,
                             N, TAU)
    delta = np.array([a.T_tau - b.T_tau for a, b in zip(with_old, without)])
    assert np.all(delta > 0)
    slope, _ = np.polyfit(times, np.log(delta), 1)
    fitted = -1.0 / slope / TAU
    print(f"criterion 6: T_IH drop {drop:.3f} tau on one tick, T_tau move "
          f"{move:.4f} tau, relaxation constant {fitted:.4f} tau")
    assert drop > 5.0
    assert move < 0.2
    assert 0.8 <= fitted <= 1.2


# ---------------------------------------------------------------------------
# 7. the top state's age drifts linearly in quiet markets
# ---------------------------------------------------------------------------

def test_criterion_07_linear_drift():
    t_end = 2000.0
    base = [Tick(t=float(k), p=100.0, dV=10.0) for k in range(1, 3301)]
    ticks = spike(base, at=t_end - 64.0, magnitude=100.0, width=64.0)
    times = np.arange(t_end + 0.5 * TAU, t_end + 3 * TAU, 8.0)
    samples = _sample_series(ticks, times, BasisId.SHIFTED_LEGENDRE, N, TAU)
    slope, _ = np.polyfit(times, [s.T_IH for s in samples], 1)
    print(f"criterion 7: T_IH drift slope {slope:.4f} over {len(times)} "
          "samples")
    assert abs(slope - 1.0) <= 0.05


# ---------------------------------------------------------------------------
# 8. incremental advance equals recomputation from raw ticks
# ---------------------------------------------------------------------------

def test_criterion_08_incremental_equivalence():
    # advance tick by tick so 600 shift matrices compound, as in live use
    ticks = make_stream(31, 1000)
    t, p, dV = tick_arrays(ticks)
    cut = 400
    worst = {}
    for basis, n, tol in ((BasisId.SHIFTED_LEGENDRE, 12, 1e-7),
                          (BasisId.CHEBYSHEV, 12, 1e-7),
                          (BasisId.LAGUERRE, 10, 1e-6)):
        eng = MomentEngine(basis, n, 64.0)
        eng.advance_to(t[cut - 1], t, p, dV, 0, cut)
        for i in range(cut, len(t)):
            eng.advance_to(t[i], t, p, dV, i, i + 1)
        gap = 0.0
        for m in MeasureKind:
            ref = resample_full(ticks, t[-1], 64.0, basis, 2 * n - 1, m)
            scale = max(float(np.max(np.abs(ref.values))), 1e-30)
            gap = max(gap, float(np.max(np.abs(eng.moments(m).values
                                               - ref.values))) / scale)
        worst[basis.value] = (gap, tol)
    line = ", ".join(f"{k} {g:.3g} (cap {tol})"
                     for k, (g, tol) in worst.items())
    print(f"criterion 8: {line}")
    for gap, tol in worst.values():
        assert gap <= tol


# ---------------------------------------------------------------------------
# 9. constant wavefunction reduces to the plain moving average
# ---------------------------------------------------------------------------

def test_criterion_09_constant_state_is_the_ema():
    ticks = make_stream(17, 900)
    t, _, _ = tick_arrays(ticks)
    worst = 0.0
    for basis in BasisId:
        n = 6
        e0 = np.zeros(n)
        e0[0] = 1.0
        psi = WaveFunction(alpha=e0, basis=basis)
        for frac in (0.35, 0.6, 0.85, 1.0):
            t_now = float(t[int(frac * len(t)) - 1])
            live = [tk for tk in ticks if tk.t <= t_now]
            w = np.array([np.exp(-(t_now - tk.t) / 64.0) for tk in live])
            num = sum(wi * tk.p * tk.dV for wi, tk in zip(w, live))
            den = sum(wi * tk.dV for wi, tk in zip(w, live))
            mp = resample_full(live, t_now, 64.0, basis, 2 * n - 1,
                               MeasureKind.PRICE_VOLUME)
            mv = resample_full(live, t_now, 64.0, basis, 2 * n - 1,
                               MeasureKind.VOLUME_DV)
            got = f_psi(psi, weighted(mp, n), flow(mv, n))
            worst = max(worst, abs(got - num / den) / abs(num / den))
    print(f"criterion 9: worst gap to the raw weighted sum {worst:.3g}")
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# 10. end-to-end determinism and throughput
# ---------------------------------------------------------------------------

def test_criterion_10_end_to_end_determinism():
    synth_cmd = [sys.executable, "-m", "psima.cli", "synth", "--seed", "7",
                 "--rate", "1", "--flow", "100", "--price", "100",
                 "--duration", "10000"]
    run_cmd = [sys.executable, "-m", "psima.cli", "run", "--input", "-"]

    def piped():
        tape = subprocess.run(synth_cmd, capture_output=True, check=True)
        t0 = time.perf_counter()
        out = subprocess.run(run_cmd, input=tape.stdout,
                             capture_output=True, check=True)
        return out.stdout, time.perf_counter() - t0

    first, _ = piped()  # warm pass: file cache and bytecode
    second, elapsed = piped()
    n_ticks = len(first.splitlines()) - 1
    print(f"criterion 10: {n_ticks} ticks, identical={first == second}, "
          f"run stage {elapsed:.2f}s")
    assert n_ticks > 9000
    assert first == second
    assert elapsed < 5.0
