import types

import numpy as np
import pytest

import oracles
from conftest import make_stream, regular_stream
from psima import (BasisId, DegenerateStateError, EmptyWindowError,
                   InputError, MeasureKind, MomentEngine, PsimaError,
                   evaluate_at, flow, gram, rayleigh, run_blocks,
                   solve_pencil, tick_arrays)
from psima.basis import (continuum_gram, linearization_table,
                         matrix_from_moments, max_model_order)
from psima import gev
from psima.gev import _resolved, solve_stack


def _random_pencil(rng, n, b_floor=0.1):
    R = rng.standard_normal((n, n))
    B = R @ R.T + b_floor * np.eye(n)
    S = rng.standard_normal((n, n))
    A = 0.5 * (S + S.T)
    return A, B


def _solve(A, B, T, *args):
    # solve_stack on the pencils (A, B) with tie-breakers T
    return solve_stack(np.stack([B, A, T], axis=1), *args)


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


@pytest.mark.parametrize("which, bad", [("A", np.nan), ("B", np.inf),
                                        ("B", -np.inf), ("T", np.nan)])
def test_non_finite_operators_are_refused(which, bad):
    rng = np.random.default_rng(4)
    ops = dict(zip("AB", _random_pencil(rng, 5)), T=np.eye(5))
    ops[which][2, 1] = bad
    with pytest.raises(InputError, match="must be finite"):
        solve_pencil(ops["A"], ops["B"], tie_breaker=ops["T"])


def test_empty_operators_are_refused():
    Z = np.zeros((0, 0))
    with pytest.raises(InputError, match="must not be empty"):
        solve_pencil(Z, Z)


def test_tie_breaker_of_another_size_is_refused():
    A, B = _random_pencil(np.random.default_rng(5), 5)
    with pytest.raises(InputError, match="tie_breaker"):
        solve_pencil(A, B, tie_breaker=np.eye(4))


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


@pytest.mark.parametrize("basis", list(BasisId))
@pytest.mark.parametrize("tape", ["criterion10", "live"])
def test_dimension_search_start_changes_nothing(benchmark_tapes, tape, basis):
    n = 12
    t, p, dV = benchmark_tapes[tape]
    eng = MomentEngine(basis, n, 256.0)
    rows = eng._advance_block(t, t, p, dV, 0, np.arange(1, len(t) + 1))
    ops = matrix_from_moments(rows[:, :4], n,
                              linearization_table(basis, n - 1))
    A, B, T = ops[:, 1], ops[:, 0], ops[:, 3]
    # the resolution gate passes on a prefix of the dimensions of every
    # pencil on the tape (interlacing), so any start finds the same one
    flags = np.stack([_resolved(B[:, :m, :m], basis, m)[0]
                      for m in range(1, n + 1)], axis=1)
    assert not (flags[:, 1:] & ~flags[:, :-1]).any()
    assert not flags[:, -1].all()
    # every start gives the same solutions bit for bit; every 8th pencil
    # keeps the thirteen solves quick
    A, B, T = A[::8], B[::8], T[::8]
    ref = _solve(A, B, T, basis)
    assert len(set(ref.effective_n.tolist())) > 2
    # a stack of one walks the dimensions on its own path; every 10th of
    # those pencils, and each whose dimension differs from the one before
    # (where the probes around the start disagree), must match its row
    dims = ref.effective_n
    one = sorted(set(range(0, len(B), 10))
                 | set(np.flatnonzero(dims[1:] != dims[:-1]) + 1))
    assert len(set(dims[one].tolist())) > 2
    for start in range(1, n + 1):
        got = _solve(A, B, T, basis, start)
        for a, b in zip(got, ref):
            assert a.tobytes() == b.tobytes()
        for k in one:
            got = _solve(A[k:k + 1], B[k:k + 1], T[k:k + 1], basis,
                              start)
            for a, b in zip(got, ref):
                assert a.tobytes() == b[k:k + 1].tobytes(), (start, k)


def _tape_ops(tape, basis, n=12):
    # the time, volume, price and age operators at every tick of a tape
    t, p, dV = tape
    eng = MomentEngine(basis, n, 256.0)
    rows = eng._advance_block(t, t, p, dV, 0, np.arange(1, len(t) + 1))
    return matrix_from_moments(rows[:, :4], n,
                               linearization_table(basis, n - 1))


def _resolved_tops(B, basis):
    # the largest dimension of each Gram's prefix of dimensions passing
    # the resolution gate
    n = B.shape[-1]
    flags = np.stack([_resolved(B[:, :m, :m], basis, m)[0]
                      for m in range(1, n + 1)], axis=1)
    return np.logical_and.accumulate(flags, axis=1).sum(axis=1)


@pytest.mark.parametrize("basis", [BasisId.LAGUERRE,
                                   BasisId.SHIFTED_LEGENDRE])
def test_dimension_search_probes_only_where_a_pencil_can_pass(
        benchmark_tapes, basis, monkeypatch):
    n = 12
    ops = _tape_ops(benchmark_tapes["live"], basis, n)
    # the first pencil of each dimension from 1 the tape resolves, so
    # every start has pencils that walk up and pencils that walk down; one
    # whose Gram is singular above dimension 3 (scaled, so that its Gram's
    # first entry names it among the others), and a zero pencil, which
    # stands for the tape's first one (a single tick has no time mass)
    r = _resolved_tops(ops[:, 0], basis)
    assert not ops[0, 0].any() and r[0] == 0
    ops = ops[[int(np.flatnonzero(r == m)[0]) for m in np.unique(r) if m]]
    cut = 2.0 * ops[-1]
    cut[:, 3, :] = cut[:, :, 3] = 0.0
    ops = np.concatenate([ops, cut[None], np.zeros((1,) + cut.shape)])
    A, B, T = ops[:, 1], ops[:, 0], ops[:, 3]
    r = _resolved_tops(B, basis)
    assert r[-2:].tolist() == [3, 0]
    name = {float(B[k, 0, 0]): k for k in range(len(B))}
    assert len(name) == len(B)
    probes = []
    resolved = gev._resolved

    def counted(Bm, basis, m):
        probes.append((m, sorted(name[float(b)] for b in Bm[:, 0, 0])))
        return resolved(Bm, basis, m)

    monkeypatch.setattr(gev, "_resolved", counted)
    ref = _solve(A, B, T, basis)
    e = ref.effective_n
    assert len(set(e.tolist())) > 6
    assert e[-2:].tolist() == [3, 0]
    cut_k, zero_k = len(B) - 2, len(B) - 1
    for start in range(1, n + 1):
        probes.clear()
        got = _solve(A, B, T, basis, start)
        for a, b in zip(got, ref):
            assert a.tobytes() == b.tobytes()
        # the walk above the start probes m on the pencils that passed
        # the resolution gate at m - 1 (all of them at start + 1), until
        # none is left
        want = []
        for m in range(start + 1, n + 1):
            walk = (r >= m - 1) | (m == start + 1)
            if not walk.any():
                break
            want.append((m, np.flatnonzero(walk).tolist()))
        # then each dimension, from the highest one reached, gates the
        # pencils not yet solved that reach it: above the start, those
        # the walk passed there; up to the start, all of them. A dimension
        # no such pencil reaches is skipped.
        reach = np.maximum(r, start)
        for m in range(n, 0, -1):
            cand = np.flatnonzero((reach >= m) & (e <= m))
            if len(cand):
                want.append((m, cand.tolist()))
        assert probes == want, start
        # the zero pencil is probed and rejected at every dimension up to
        # the start, and the cut one at every dimension from 4 up to it
        assert [m for m, ks in probes if zero_k in ks] == (
            [start + 1] * (start < n) + list(range(start, 0, -1)))
        assert {m for m, ks in probes if cut_k in ks} >= set(
            range(4, start + 1))
        for k in range(len(B)):
            alone = _solve(A[k:k + 1], B[k:k + 1], T[k:k + 1], basis,
                                start)
            assert alone.effective_n.tolist() == [e[k]]


@pytest.mark.parametrize("basis", list(BasisId))
@pytest.mark.parametrize("tape", ["criterion10", "live"])
def test_later_gates_drop_no_dimension_on_the_benchmark_tapes(
        benchmark_tapes, tape, basis):
    # every pencil solves at the top of its resolved prefix: the whitening
    # by the resolution gate's own factors is accurate enough that no
    # pencil on these tapes drops a dimension at the normalization,
    # orthogonality or residual gate
    ops = _tape_ops(benchmark_tapes[tape], basis)[::8]
    A, B, T = ops[:, 1], ops[:, 0], ops[:, 3]
    r = _resolved_tops(B, basis)
    sol = _solve(A, B, T, basis)
    assert (sol.effective_n == r).all()
    assert len(set(r.tolist())) > 2


@pytest.mark.parametrize("basis", list(BasisId))
@pytest.mark.parametrize("tape", ["criterion10", "live"])
def test_a_resolved_gram_has_a_clear_diagonal(benchmark_tapes, tape,
                                              basis):
    # B = L M L^T with G = L L^T the ideal Gram, so each B_ii is a
    # quadratic form of M over a vector of squared length G_ii and lies
    # in [lambda_min, lambda_max] of M times G_ii (Horn & Johnson, Matrix
    # Analysis, 4.3): a Gram the resolution gate passes has a positive
    # diagonal whose smallest ratio is at least 1/KAPPA_CAP times the
    # ideal Gram's, so no pivot gate is needed where a basis is given
    B = _tape_ops(benchmark_tapes[tape], basis)[::8, 0]
    passed = 0
    for m in range(1, B.shape[-1] + 1):
        ok, lam, _ = _resolved(B[:, :m, :m], basis, m)
        d = (np.diagonal(B[ok, :m, :m], axis1=1, axis2=2)
             / np.diag(continuum_gram(basis, m)))
        lo, hi = lam[ok, :1], lam[ok, -1:]
        slack = 1e-12 * hi
        assert ((lo - slack <= d) & (d <= hi + slack)).all(), m
        assert (d.min(axis=1) > 0.0).all()
        assert (d.min(axis=1) >= d.max(axis=1) / gev.KAPPA_CAP
                * (1.0 - 1e-12)).all()
        passed += ok.sum()
    assert passed > len(B)
    # the smallest diagonal ratio of the ideal Gram is that of its largest
    # block, whose leading blocks only narrow the range
    g = np.diag(continuum_gram(basis, max_model_order(basis)))
    assert g.min() / g.max() / gev.KAPPA_CAP > gev.PIVOT_RTOL


@pytest.mark.parametrize("basis", list(BasisId))
@pytest.mark.parametrize("tape", ["criterion10", "live"])
def test_probe_states_rule_out_only_dimensions_the_gate_fails(
        benchmark_tapes, tape, basis):
    # by Courant-Fischer any x bounds the extreme eigenvalues of the
    # pencil (B, G) by its Rayleigh quotient, so wherever a pair of
    # states rules a Gram out at m, the resolution gate fails it there.
    # The pairs: the probe states of the pencil one tick before, as a
    # stream's walk keeps them; seeded random vectors; and those states
    # perturbed by the random vectors at three scales
    B = _tape_ops(benchmark_tapes[tape], basis)[:, 0]
    every = np.arange(8, len(B), 8)
    rng = np.random.default_rng(41)
    failed = ruled = 0
    for m in range(2, B.shape[-1] + 1):
        Bm = B[every, :m, :m]
        ok = _resolved(Bm, basis, m)[0]
        near = _resolved(B[every - 1, :m, :m], basis, m)[2][:, [0, -1]]
        noise = rng.standard_normal(near.shape)
        noise /= np.linalg.norm(noise, axis=-1, keepdims=True)
        pairs = [near, noise] + [near + s * noise for s in (1e-6, 1e-3, 1e-1)]
        for pair in pairs:
            cut = gev._ruled_out(gev._probe_forms(pair, basis, m), Bm)
            assert not (cut & ok).any(), m
        failed += (~ok).sum()
        ruled += gev._ruled_out(gev._probe_forms(near, basis, m), Bm).sum()
    # and the neighbour's states prove nearly every failure
    assert ruled >= 0.95 * failed > 0


@pytest.mark.parametrize("basis", list(BasisId))
@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_probe_states_abstain_at_the_cap(benchmark_tapes, basis, side):
    # a Gram whose conditioning against the ideal window sits 1e-7 under
    # or over KAPPA_CAP: its own extreme states read that conditioning to
    # rounding, inside the certificate's margin, so they rule it out on
    # neither side of the cap, while the gate passes it only below
    m = 8
    B = _tape_ops(benchmark_tapes["live"], basis)[-1, 0, :m, :m]
    L = np.linalg.cholesky(continuum_gram(basis, m))
    V = (_resolved(B[None], basis, m)[2][0] @ L).T
    lam = np.geomspace(1.0, gev.KAPPA_CAP * (1.0 + side * 1e-7), m)
    B = (L @ V * lam) @ V.T @ L.T
    ok, w, X = _resolved(B[None], basis, m)
    assert ok[0] == (side < 0.0)
    assert abs(w[0, -1] / w[0, 0] / gev.KAPPA_CAP - 1.0) < 2e-7
    P = gev._probe_forms(X[0], basis, m)
    assert not gev._ruled_out(P, B[None]).any()


def _counted_probes(monkeypatch):
    # the number of Grams of every resolution-gate call from here on
    calls = []
    resolved = gev._resolved

    def counted(Bm, basis, m):
        calls.append(len(Bm))
        return resolved(Bm, basis, m)

    monkeypatch.setattr(gev, "_resolved", counted)
    return calls


@pytest.mark.parametrize("basis", list(BasisId))
@pytest.mark.parametrize("tape", ["criterion10", "live"])
def test_probe_states_change_no_solution(benchmark_tapes, tape, basis,
                                         monkeypatch):
    # the states a walk keeps decide how many Grams the gate eigensolves,
    # not what they give: in blocks of 256 and in a stream of stacks of
    # one, each started as a caller starts it, a solve with the states
    # equals the solve without them bit for bit
    n = 12
    ops = _tape_ops(benchmark_tapes[tape], basis, n)
    calls = _counted_probes(monkeypatch)
    for size, count in ((256, len(ops)), (1, 2000)):
        probes, start = [None] * (n + 1), n
        warm = cold = 0
        for b0 in range(0, count, size):
            sub = ops[b0:b0 + size]
            del calls[:]
            got = solve_stack(sub, basis, start, probes)
            warm += sum(calls)
            del calls[:]
            ref = solve_stack(sub, basis, start)
            cold += sum(calls)
            for a, b in zip(got, ref):
                assert a.tobytes() == b.tobytes(), (size, b0)
            start = int(ref.effective_n[-1]) or start
        assert warm <= cold
        if basis is BasisId.LAGUERRE:
            assert warm < cold and any(x is not None for x in probes)


def test_a_live_laguerre_reading_pays_about_one_gate_eigensolve(
        benchmark_tapes, monkeypatch):
    # the live_laguerre benchmark stream resolves 2-9 of its 12
    # dimensions: without the engine's probe states each reading paid a
    # second gate eigensolve above its dimension (2.005 a reading)
    t, p, dV = benchmark_tapes["live"]
    calls = _counted_probes(monkeypatch)
    eng = MomentEngine(BasisId.LAGUERRE, 12, 256.0)
    dims = set()
    for k in range(len(t)):
        eng.advance_to(t[k], t, p, dV, k, k + 1)
        dims.add(evaluate_at(float(t[k]), eng).effective_n)
    assert len(calls) <= 1.02 * len(t)
    assert len(dims) > 6


@pytest.mark.parametrize("entry", [0.0, -1.0, 1e-20])
def test_a_bare_pencil_without_a_clear_diagonal_drops_below_it(entry):
    # a bare pencil whitens by its own diagonal, so an entry that is not
    # clearly positive caps its dimension below that index, and the gate
    # reads no square root of it
    rng = np.random.default_rng(31)
    A, B = _random_pencil(rng, 5, b_floor=5.0)
    B[3, :] = B[:, 3] = 0.0
    B[3, 3] = entry
    with np.errstate(all="raise"):
        dec = solve_pencil(A, B)
    assert dec.effective_n == 3


def _pencil_with_spectrum(rng, lam):
    # A = B V diag(lam) V^T B with V B-orthonormal, so the pencil's
    # eigenvalues are lam
    n = len(lam)
    R = rng.standard_normal((n, n))
    B = R @ R.T + n * np.eye(n)
    Qo = np.linalg.qr(rng.standard_normal((n, n)))[0]
    V = np.linalg.solve(np.linalg.cholesky(B).T, Qo)
    A = B @ V @ np.diag(lam) @ V.T @ B
    return 0.5 * (A + A.T), B


def _brute_force_pick(lam, alphas, A, T):
    # the top and bottom states by a walk over every state: ties at the
    # top go to the first of least age, or the first tied one if none
    # reads volume
    m = len(lam)
    top = max(lam)
    tied = [i for i in range(m) if lam[i] >= top - gev.TIE_RTOL * abs(top)]
    low = min(range(m), key=lambda i: (lam[i], i))
    if len(tied) == 1:
        return tied[0], low
    ages = []
    for i in tied:
        a = alphas[:, i]
        den = a @ A @ a
        ages.append((a @ T @ a) / den if den > 0.0 else np.inf)
    if np.all(np.isinf(ages)):
        return tied[0], low
    return tied[int(np.argmin(ages))], low


def test_picks_match_a_brute_force_pick_on_a_mixed_stack():
    rng = np.random.default_rng(12)
    n = 5
    spectra = [[1.0, 2.0, 3.0, 4.0, 5.0],          # no tie
               [0.5, 1.0, 2.0, 2.0, 2.0],          # tied top
               [3.0] * 5,                          # every state tied
               [-1e-13, -1e-13, 0.0, 1.0, 4.0],    # clamped to 0
               [-1e-13, 0.0, 2.0, 2.0, 2.0]]       # both
    pencils = [_pencil_with_spectrum(rng, lam) for lam in spectra]
    pencils.append((np.zeros((n, n)), pencils[0][1]))   # every age inf
    one = np.diag([2.0] + [1e-20] * (n - 1))            # solves at m = 1
    pencils.append((3.0 * one, one))
    pencils.append((np.zeros((n, n)), np.zeros((n, n))))  # no dimension
    A = np.stack([a for a, _ in pencils])
    B = np.stack([b for _, b in pencils])
    S = rng.standard_normal((len(A), n, n))
    T = S @ S.swapaxes(1, 2)
    sol = _solve(A, B, T)
    assert sol.effective_n.tolist() == [n] * 6 + [1, 0]
    # the clamp made exact zeros, and the lambdas still ascend
    assert (sol.lambdas[3, :2] == 0.0).all() and sol.lambdas[4, 0] == 0.0
    for k in range(len(A)):
        m = int(sol.effective_n[k])
        lam = sol.lambdas[k, :m]
        assert np.all(np.diff(lam) >= 0.0)
        top, low = ((0, 0) if m == 0 else
                    _brute_force_pick(lam.tolist(), sol.alphas[k, :m, :m],
                                      A[k, :m, :m], T[k, :m, :m]))
        assert sol.i_IH[k] == top and low == 0, k
        alone = _solve(A[k:k + 1], B[k:k + 1], T[k:k + 1])
        for a, b in zip(alone, sol):
            assert a.tobytes() == b[k:k + 1].tobytes(), k
    # the tied rows went to the tie-break, and not all to the last state
    assert sol.i_IH[[1, 2, 4]].tolist() != [n - 1] * 3
    assert sol.i_IH[5] == 0


def _symmetric_stacks(rng, K, m):
    # random symmetric matrices, and the same with tied spectra: three
    # equal eigenvalues at the top and two at the bottom
    R = rng.standard_normal((K, m, m))
    Q = np.linalg.qr(rng.standard_normal((K, m, m)))[0]
    lam = np.sort(rng.standard_normal((K, m)), axis=1)
    lam[:, -3:] = lam[:, -1:]
    lam[:, :2] = lam[:, :1]
    tied = (Q * lam[:, None, :]) @ Q.swapaxes(-1, -2)
    return R + R.swapaxes(-1, -2), tied


@pytest.mark.parametrize("K", [0, 1, 7, 256])
def test_eigh_is_numpys_eigh_bit_for_bit(K):
    # the readings' eigensolves skip np.linalg.eigh's wrapper, not its
    # LAPACK call; eigh reads the lower triangle, so junk above it is read
    # by neither
    rng = np.random.default_rng(K)
    for m in range(1, 13):
        for S in _symmetric_stacks(rng, K, m) + (
                np.tril(rng.standard_normal((K, m, m))),):
            w, V = gev._eigh(S)
            want = np.linalg.eigh(S)
            for got, ref in zip((w, V), want):
                assert got.shape == ref.shape and got.dtype == ref.dtype
                assert got.tobytes() == ref.tobytes(), (K, m)


def test_eigh_fails_where_numpys_eigh_fails():
    # finite matrices scaled entry by entry over the whole float range:
    # LAPACK fails on a few (row 15 of this stack under OpenBLAS), where
    # np.linalg.eigh raises LinAlgError and _eigh gives nan with the
    # invalid flag set; every other row has the same bits
    rng = np.random.default_rng(68)
    M = (rng.uniform(-1.0, 1.0, (64, 12, 12))
         * 10.0 ** rng.uniform(-308.0, 308.0, (64, 12, 12)))
    M = np.tril(M) + np.tril(M, -1).swapaxes(-1, -2)
    assert np.isfinite(M).all()
    with np.errstate(invalid="ignore"):
        w, V = gev._eigh(M)
    failed = []
    for k in range(len(M)):
        try:
            ref = np.linalg.eigh(M[k])
        except np.linalg.LinAlgError:
            failed.append(k)
            continue
        assert w[k].tobytes() == ref[0].tobytes()
        assert V[k].tobytes() == ref[1].tobytes()
    assert np.flatnonzero(np.isnan(w).any(axis=1)).tolist() == failed
    assert np.isnan(w[failed]).all() and np.isnan(V[failed]).all()
    # a success clears the flags, so raised float errors stop only a failure
    ok = np.delete(M, failed, axis=0)
    with np.errstate(all="raise"):
        gev._eigh(ok)
        if failed:
            with pytest.raises(FloatingPointError):
                gev._eigh(M)


def _tape(n_ticks=300):
    return tick_arrays(make_stream(21, n_ticks))


def test_a_reading_and_a_block_call_no_numpy_eigh(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    t, p, dV = _tape()
    for basis in BasisId:
        samples, _ = next(run_blocks((t, p, dV), basis, 4, 64.0))
        assert len(samples) > 200
        eng = MomentEngine(basis, 4, 64.0)
        eng.advance_to(t[-1], t, p, dV, 0, len(t))
        assert evaluate_at(float(t[-1]), eng).effective_n == 4


def _failing_eigh(monkeypatch, fails):
    """Make the eigensolves whose call numbers ``fails`` holds (all where
    None) fail as LAPACK does: nan out, and the invalid flag set."""
    eigh_lo = gev._umath_linalg.eigh_lo
    calls = []

    def failing(a, signature):
        w, V = eigh_lo(a, signature=signature)
        calls.append(len(calls))
        if fails is None or calls[-1] in fails:
            w[...] = V[...] = np.nan
            np.subtract(np.inf, np.inf)  # raises or warns as errstate says
        return w, V

    monkeypatch.setattr(gev, "_umath_linalg",
                        types.SimpleNamespace(eigh_lo=failing))
    return calls


def test_a_failed_eigensolve_refuses_the_reading(monkeypatch):
    t, p, dV = _tape()
    eng = MomentEngine(BasisId.SHIFTED_LEGENDRE, 4, 64.0)
    eng.advance_to(t[-1], t, p, dV, 0, len(t))
    _failing_eigh(monkeypatch, None)
    with pytest.raises(InputError, match="overflow the moment arithmetic"):
        evaluate_at(float(t[-1]), eng)
    with pytest.raises(InputError, match="overflow the moment arithmetic"):
        next(run_blocks((t, p, dV), BasisId.SHIFTED_LEGENDRE, 4, 64.0))


@pytest.mark.parametrize("fails", [{0}, {1}, {0, 2}, {1, 3}, None])
def test_solve_pencil_drops_a_dimension_whose_eigensolve_fails(
        monkeypatch, fails):
    # call 0 is the gate's eigensolve at n = 5, call 1 the pencil's; a
    # failure warns, and the pencil solves one dimension lower, or not at
    # all, never with nan fields
    A, B = _random_pencil(np.random.default_rng(4), 5, b_floor=5.0)
    calls = _failing_eigh(monkeypatch, fails)
    with pytest.warns(RuntimeWarning, match="invalid value"):
        try:
            dec = solve_pencil(A, B)
        except PsimaError:
            assert fails is None
            return
    assert dec.effective_n == 5 - len(fails) and len(calls) > 2
    assert np.isfinite(dec.lambdas).all()
    assert all(np.isfinite(s.alpha).all() for s in dec.states)
