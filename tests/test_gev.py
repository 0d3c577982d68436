import numpy as np
import pytest

import oracles
from conftest import make_stream, regular_stream
from psima import (BasisId, DegenerateStateError, EmptyWindowError,
                   MeasureKind, MomentEngine, flow, gram, rayleigh,
                   solve_pencil, tick_arrays)
from psima.basis import linearization_table, matrix_from_moments
from psima.gev import _resolved, solve_stack
from psima.synth import spike, steady


def _random_pencil(rng, n, b_floor=0.1):
    R = rng.standard_normal((n, n))
    B = R @ R.T + b_floor * np.eye(n)
    S = rng.standard_normal((n, n))
    A = 0.5 * (S + S.T)
    return A, B


def _stream_pencil(ticks, basis, n, tau=64.0, bare=True):
    t_now = ticks[-1].t
    orders = 2 * n - 1
    from psima import resample_full
    tim = resample_full(ticks, t_now, tau, basis, orders, MeasureKind.TIME_DT)
    vol = resample_full(ticks, t_now, tau, basis, orders,
                        MeasureKind.VOLUME_DV)
    A, B = flow(vol, n), gram(tim, n)
    return (A.entries, B.entries) if bare else (A, B)


@pytest.mark.parametrize("trial", range(40))
def test_solver_matches_determinant_bisection(trial):
    rng = np.random.default_rng(1000 + trial)
    n = int(rng.integers(3, 11))
    A, B = _random_pencil(rng, n)
    dec = solve_pencil(A, B)
    ref = oracles.pencil_eigs_bisect(A, B)
    assert dec.effective_n == n
    scale = max(np.max(np.abs(ref)), 1.0)
    assert np.max(np.abs(np.sort(dec.lambdas) - ref)) < 1e-9 * scale


@pytest.mark.parametrize("trial", range(20))
def test_residual_and_b_orthonormality(trial):
    rng = np.random.default_rng(2000 + trial)
    n = 8
    A, B = _random_pencil(rng, n)
    dec = solve_pencil(A, B)
    alphas = np.column_stack([s.alpha for s in dec.states])
    G = alphas.T @ B @ alphas
    assert np.max(np.abs(G - np.eye(n))) < 1e-8
    norm = np.linalg.norm(A) + np.linalg.norm(B)
    for lam, s in zip(dec.lambdas, dec.states):
        r = A @ s.alpha - lam * B @ s.alpha
        assert np.linalg.norm(r) < 1e-8 * norm * max(1.0, abs(lam))


def test_lambdas_sorted_and_extremes_flagged():
    rng = np.random.default_rng(99)
    A, B = _random_pencil(rng, 7)
    dec = solve_pencil(A, B)
    assert np.all(np.diff(dec.lambdas) >= 0)
    assert dec.i_IH == np.argmax(dec.lambdas)
    assert dec.i_IL == np.argmin(dec.lambdas)
    assert dec.lambdas[dec.i_IL] <= dec.lambdas[dec.i_IH]


@pytest.mark.parametrize("basis", list(BasisId))
def test_stream_built_pencils_solve_cleanly(basis, stream400):
    n = 10 if basis is BasisId.LAGUERRE else 12
    A, B = _stream_pencil(stream400, basis, n, bare=False)
    dec = solve_pencil(A, B)
    if basis is BasisId.LAGUERRE:
        # the linear coordinate resolves fewer orders on a finite window
        assert 4 <= dec.effective_n <= n
    else:
        assert dec.effective_n == n
    # execution flow is nonnegative: the whole spectrum sits above zero
    assert dec.lambdas[dec.i_IL] > -1e-9 * abs(dec.lambdas[dec.i_IH])
    m = dec.effective_n
    alphas = np.column_stack([s.alpha for s in dec.states])
    G = alphas.T @ B.entries[:m, :m] @ alphas
    assert np.max(np.abs(np.diag(G) - 1.0)) < 1e-10
    assert np.max(np.abs(G - np.diag(np.diag(G)))) < 1e-8


def test_rank_deficient_history_reduces_dimension():
    # three ticks cannot support an 8-state model
    ticks = make_stream(41, 3)
    A, B = _stream_pencil(ticks, BasisId.SHIFTED_LEGENDRE, 8, tau=32.0)
    dec = solve_pencil(A, B)
    assert 1 <= dec.effective_n < 8
    m = dec.effective_n
    alphas = np.column_stack([s.alpha for s in dec.states])
    G = alphas.T @ B[:m, :m] @ alphas
    assert np.max(np.abs(G - np.eye(m))) < 1e-8


def test_zero_pencil_reports_empty_window():
    Z = np.zeros((5, 5))
    with pytest.raises(EmptyWindowError):
        solve_pencil(Z, Z)


def test_tie_break_prefers_younger_state():
    # proportional pencil: every eigenvalue equals c, well inside the
    # 1e-10 tie band, so the age reading has to decide
    rng = np.random.default_rng(3)
    n = 6
    R = rng.standard_normal((n, n))
    B = R @ R.T + n * np.eye(n)
    c = 50.0
    A = c * B
    S = rng.standard_normal((n, n))
    Ma = S @ S.T
    dec = solve_pencil(A, B, tie_breaker=Ma)
    lam = dec.lambdas
    assert np.max(lam) - np.min(lam) < 1e-10 * c
    ages = np.array([(s.alpha @ Ma @ s.alpha) / (s.alpha @ A @ s.alpha)
                     for s in dec.states])
    assert dec.i_IH == np.argmin(ages)
    # without the breaker the pick is still deterministic
    dec2 = solve_pencil(A, B)
    assert dec2.i_IH == solve_pencil(A, B).i_IH


def test_constant_flow_collapses_spectrum():
    # regular ticks at fixed flow: eigenvalues crowd around the rate, the
    # residual spread is set by the Gram conditioning
    ticks = regular_stream(1.0, 4000.0, 50.0, 100.0)
    n = 6
    tau = 256.0
    t, p, dV = tick_arrays(ticks)
    eng = MomentEngine(BasisId.SHIFTED_LEGENDRE, n, tau)
    eng.advance_to(t[-1], t, p, dV, 0, len(t))
    A = flow(eng.moments(MeasureKind.VOLUME_DV), n).entries
    B = gram(eng.moments(MeasureKind.TIME_DT), n).entries
    dec = solve_pencil(A, B)
    lam = dec.lambdas
    assert np.max(lam) - np.min(lam) < 1e-3 * 50.0
    assert abs(lam[dec.i_IH] - 50.0) < 0.05 * 50.0


def test_rayleigh_reproduces_eigenvalues_and_bounds():
    rng = np.random.default_rng(7)
    A, B = _random_pencil(rng, 8)
    dec = solve_pencil(A, B)
    lo, hi = dec.lambdas[dec.i_IL], dec.lambdas[dec.i_IH]
    for lam, s in zip(dec.lambdas, dec.states):
        assert abs(rayleigh(s.alpha, A, B) - lam) < 1e-10 * max(1.0, abs(lam))
    span = max(1.0, abs(hi), abs(lo))
    for _ in range(1000):
        alpha = rng.standard_normal(8)
        q = rayleigh(alpha, A, B)
        assert lo - 1e-9 * span <= q <= hi + 1e-9 * span


def test_rayleigh_on_first_axis_is_plain_average():
    # e_0 weighting reduces the quotient to the ratio of zeroth moments
    ticks = make_stream(8, 300)
    A, B = _stream_pencil(ticks, BasisId.CHEBYSHEV, 6)
    e0 = np.eye(6)[0]
    from psima import resample_full
    t_now = ticks[-1].t
    tim = resample_full(ticks, t_now, 64.0, BasisId.CHEBYSHEV, 11,
                        MeasureKind.TIME_DT)
    vol = resample_full(ticks, t_now, 64.0, BasisId.CHEBYSHEV, 11,
                        MeasureKind.VOLUME_DV)
    assert rayleigh(e0, A, B) == pytest.approx(vol.values[0] / tim.values[0],
                                               rel=1e-14)


def test_rayleigh_rejects_null_direction():
    A = np.eye(3)
    B = np.eye(3)
    with pytest.raises(DegenerateStateError):
        rayleigh(np.zeros(3), A, B)


def test_sign_flip_changes_nothing_downstream():
    rng = np.random.default_rng(55)
    A, B = _random_pencil(rng, 6)
    dec = solve_pencil(A, B)
    for s in dec.states:
        assert rayleigh(-s.alpha, A, B) == pytest.approx(
            rayleigh(s.alpha, A, B), rel=1e-14)


@pytest.fixture(scope="module")
def benchmark_tapes():
    return {
        # acceptance criterion 10 (psima synth --seed 7 --rate 1 --flow 100
        # --price 100 --duration 10000)
        "criterion10": tick_arrays(steady(1.0, 100.0, 100.0, 10000.0, 7)),
        # the live_laguerre benchmark workload at seed 0
        "live": tick_arrays(spike(steady(2.0, 100.0, 50.0, 3000.0, 5),
                                  1500.0, 8.0, 30.0, 1.25)),
    }


@pytest.mark.parametrize("basis", list(BasisId))
@pytest.mark.parametrize("tape", ["criterion10", "live"])
def test_dimension_search_start_changes_nothing(benchmark_tapes, tape, basis):
    n = 12
    t, p, dV = benchmark_tapes[tape]
    eng = MomentEngine(basis, n, 256.0)
    rows = eng.advance_steps(t, t, p, dV, 0, np.arange(1, len(t) + 1))
    ops = matrix_from_moments(rows[:, :4], n,
                              linearization_table(basis, n - 1))
    A, B, T = ops[:, 1], ops[:, 0], ops[:, 3]
    # the resolution gate passes on a prefix of the dimensions of every
    # pencil on the tape (interlacing), so any start finds the same one
    flags = np.stack([_resolved(B[:, :m, :m], basis, m)
                      for m in range(1, n + 1)], axis=1)
    assert not (flags[:, 1:] & ~flags[:, :-1]).any()
    assert not flags[:, -1].all()
    # every start gives the same solutions bit for bit; every 8th pencil
    # keeps the thirteen solves quick
    A, B, T = A[::8], B[::8], T[::8]
    ref = solve_stack(A, B, T, basis)
    assert len(set(ref.effective_n.tolist())) > 2
    # a stack of one walks the dimensions on its own path; every 10th of
    # those pencils, and each whose dimension differs from the one before
    # (where the probes around the start disagree), must match its row
    dims = ref.effective_n
    one = sorted(set(range(0, len(B), 10))
                 | set(np.flatnonzero(dims[1:] != dims[:-1]) + 1))
    assert len(set(dims[one].tolist())) > 2
    for start in range(1, n + 1):
        got = solve_stack(A, B, T, basis, start)
        for a, b in zip(got, ref):
            assert a.tobytes() == b.tobytes()
        for k in one:
            got = solve_stack(A[k:k + 1], B[k:k + 1], T[k:k + 1], basis,
                              start)
            for a, b in zip(got, ref):
                assert a.tobytes() == b[k:k + 1].tobytes(), (start, k)
