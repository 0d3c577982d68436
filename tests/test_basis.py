from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from psima import (BasisId, CapabilityError, InputError, MeasureKind,
                   MomentEngine, Tick, evaluate_all, flow, linearization,
                   linearization_table, matrix_from_moments, max_model_order,
                   resample_full, run_over)
from psima.basis import continuum_gram, legendre_in_chebyshev

ALL_BASES = list(BasisId)

DOMAIN_GRID = {
    BasisId.LAGUERRE: np.linspace(-36.0, 0.0, 41),
    BasisId.SHIFTED_LEGENDRE: np.linspace(0.0, 1.0, 41),
    BasisId.CHEBYSHEV: np.linspace(0.0, 1.0, 41),
}


@pytest.mark.parametrize("basis", ALL_BASES)
def test_recurrence_matches_reference_polynomials(basis):
    xs = DOMAIN_GRID[basis]
    n = 2 * max_model_order(basis) - 1
    Q = evaluate_all(basis, n, xs)
    assert Q.shape == (n, len(xs))
    for m in (0, 1, 2, 5, n // 2, n - 1):
        ref = oracles.poly_value(basis, m, xs)
        scale = np.maximum(np.abs(ref), 1.0)
        assert np.max(np.abs(Q[m] - ref) / scale) < 1e-11, m


@pytest.mark.parametrize("orders", [1, 2, 3, 4, 5, 9, 23, 64, 149])
def test_chebyshev_values_match_the_recurrence_and_clenshaw(orders):
    x = np.concatenate(([0.0, 1.0, 0.5], np.linspace(0.0, 1.0, 201),
                        np.random.default_rng(5).uniform(0.0, 1.0, 200)))
    u = 2.0 * x - 1.0
    T = evaluate_all(BasisId.CHEBYSHEV, orders, x)
    # rounding of the cosine and of either reference grows like m^2 eps
    tol = 1e-16 * orders ** 2 + 1e-15
    # T_{m+1} = 2u T_m - T_{m-1}, written out here
    recurrence = [np.ones_like(u), u]
    while len(recurrence) < orders:
        recurrence.append(2.0 * u * recurrence[-1] - recurrence[-2])
    assert np.max(np.abs(T - np.array(recurrence[:orders]))) <= tol
    clenshaw = np.array([oracles.poly_value(BasisId.CHEBYSHEV, m, x)
                         for m in range(orders)])
    assert np.max(np.abs(T - clenshaw)) <= tol
    # T_m(1) = 1, T_m(-1) = (-1)^m and T_1(u) = u are exact
    assert np.all(T[:, 1] == 1.0)
    assert np.array_equal(T[:, 0], (-1.0) ** np.arange(orders))
    assert orders < 2 or np.array_equal(T[1], u)


def test_exponential_basis_values_do_not_depend_on_the_other_points():
    # both exponential bases, at every order the engine uses
    x = np.random.default_rng(6).uniform(0.0, 1.0, (7, 33))
    for basis in (BasisId.SHIFTED_LEGENDRE, BasisId.CHEBYSHEV):
        Q = evaluate_all(basis, 149, x)
        assert Q.shape == (149, 7, 33)
        for i, j in ((0, 0), (3, 17), (6, 32)):
            alone = evaluate_all(basis, 149, x[i, j:j + 1])
            assert np.array_equal(Q[:, i, j], alone[:, 0])
            assert np.array_equal(Q[:, i, j], evaluate_all(basis, 149,
                                                           x[i, j]))


def _legendre_in_chebyshev_exact(n):
    # P_{m+1} = ((2m+1) u P_m - m P_{m-1}) / (m+1) on Chebyshev coefficient
    # vectors in exact rationals, with u T_k = (T_{k-1} + T_{k+1}) / 2
    # (u T_0 = T_1)
    rows = [[Fraction(1)] + [Fraction(0)] * (n - 1)]
    if n > 1:
        rows.append([Fraction(0), Fraction(1)] + [Fraction(0)] * (n - 2))
    for m in range(1, n - 1):
        cur, prev = rows[m], rows[m - 1]
        u = [Fraction(0)] * n
        for k, ck in enumerate(cur):
            if ck:
                if k == 0:
                    u[1] += ck
                else:
                    u[k - 1] += ck / 2
                    if k + 1 < n:
                        u[k + 1] += ck / 2
        rows.append([((2 * m + 1) * a - m * b) / (m + 1)
                     for a, b in zip(u, prev)])
    return rows


@pytest.mark.parametrize("n", [1, 2, 5, 23, 149])
def test_legendre_in_chebyshev_table_is_exact(n):
    c = legendre_in_chebyshev(n)
    exact = _legendre_in_chebyshev_exact(n)
    # every entry is its exact value rounded once
    assert c.tolist() == [[float(v) for v in row] for row in exact]
    assert all(sum(row) == 1 for row in exact)
    assert np.array_equal(c[0], np.eye(n)[0])
    assert np.all(c >= 0.0)
    assert np.array_equal(c, np.tril(c))
    m, k = np.indices((n, n))
    assert not c[(m - k) % 2 == 1].any()
    assert np.all(np.abs(c.sum(axis=1) - 1.0) <= n * 2.0 ** -52)
    assert not c.flags.writeable
    assert legendre_in_chebyshev(n) is c


@pytest.mark.parametrize("orders", [1, 2, 23, 64, 149])
def test_table_times_chebyshev_is_legendre(orders):
    x = np.linspace(0.0, 1.0, 101)
    P = legendre_in_chebyshev(orders) @ evaluate_all(BasisId.CHEBYSHEV,
                                                     orders, x)
    tol = 1e-16 * orders ** 2 + 1e-15
    assert np.max(np.abs(P - evaluate_all(BasisId.SHIFTED_LEGENDRE,
                                          orders, x))) <= tol
    ref = np.array([oracles.poly_value(BasisId.SHIFTED_LEGENDRE, m, x)
                    for m in range(orders)])
    assert np.max(np.abs(P - ref)) <= tol


def test_known_low_order_values():
    # closed forms at hand-picked points
    q = evaluate_all(BasisId.LAGUERRE, 3, -2.0)  # L_m(2)
    assert q[0] == 1.0
    assert q[1] == -1.0                      # 1 - y at y=2
    assert abs(q[2] - (1 - 2 * 2 + 2 * 2 / 2.0)) < 1e-15
    q = evaluate_all(BasisId.SHIFTED_LEGENDRE, 3, 0.75)  # P_m(0.5)
    assert q[1] == 0.5
    assert abs(q[2] - 0.5 * (3 * 0.25 - 1)) < 1e-15
    q = evaluate_all(BasisId.CHEBYSHEV, 4, 1.0)  # T_m(1) = 1
    assert np.all(q == 1.0)


def test_scalar_and_array_shapes():
    q = evaluate_all(BasisId.CHEBYSHEV, 5, 0.3)
    assert q.shape == (5,)
    q = evaluate_all(BasisId.CHEBYSHEV, 5, np.zeros((2, 7)) + 0.3)
    assert q.shape == (5, 2, 7)


@pytest.mark.parametrize("basis", ALL_BASES)
def test_non_finite_coordinates_are_refused(basis):
    inside = -0.5 if basis is BasisId.LAGUERRE else 0.5
    bad = [np.nan, np.array([inside, np.nan]), np.inf, np.array([np.inf])]
    if basis is BasisId.LAGUERRE:
        bad += [-np.inf, np.array([inside, -np.inf])]
    for x in bad:
        with pytest.raises(InputError, match="coordinate must"):
            evaluate_all(basis, 3, x)
    # valid coordinates keep their values; an empty array stays empty
    xs = DOMAIN_GRID[basis]
    assert evaluate_all(basis, 4, xs[:0]).shape == (4, 0)
    for k in (0, 17, 40):
        assert evaluate_all(basis, 4, xs[k]).tobytes() == \
            evaluate_all(basis, 4, xs)[:, k].tobytes()


def test_domain_enforcement():
    with pytest.raises(InputError):
        evaluate_all(BasisId.LAGUERRE, 4, 0.5)
    with pytest.raises(InputError):
        evaluate_all(BasisId.SHIFTED_LEGENDRE, 4, -0.01)
    with pytest.raises(InputError):
        evaluate_all(BasisId.CHEBYSHEV, 4, 1.5)
    # edge points are inside
    evaluate_all(BasisId.LAGUERRE, 4, 0.0)
    evaluate_all(BasisId.CHEBYSHEV, 4, np.array([0.0, 1.0]))


def test_order_capability_limits():
    with pytest.raises(CapabilityError):
        evaluate_all(BasisId.LAGUERRE, 2 * 24 + 2, -1.0)
    with pytest.raises(CapabilityError):
        linearization(BasisId.LAGUERRE, 25, 0)
    with pytest.raises(CapabilityError):
        linearization_table(BasisId.SHIFTED_LEGENDRE, 75)
    with pytest.raises(InputError):
        evaluate_all(BasisId.CHEBYSHEV, 0, 0.5)


@pytest.mark.parametrize("bad", [None, 3, BasisId.LAGUERRE, b"legendre"])
def test_parse_refuses_a_name_that_is_not_a_string(bad):
    with pytest.raises(InputError, match=r"expected one of \['laguerre', "
                       r"'legendre', 'chebyshev'\]"):
        BasisId.parse(bad)
    assert BasisId.parse(" Legendre ") is BasisId.SHIFTED_LEGENDRE


@pytest.mark.parametrize("bad", ["legendre", None, 3])
@pytest.mark.parametrize("call", [
    lambda b: MomentEngine(b, 4, 8.0),
    lambda b: run_over([Tick(0.0, 100.0, 5.0)], b, 4, 8.0),
    lambda b: resample_full([Tick(0.0, 100.0, 5.0)], 0.0, 8.0, b, 3,
                            MeasureKind.VOLUME_DV),
    lambda b: evaluate_all(b, 4, 0.5),
    lambda b: max_model_order(b),
    lambda b: linearization(b, 1, 1),
    lambda b: linearization_table(b, 3),
    lambda b: continuum_gram(b, 3),
], ids=["MomentEngine", "run_over", "resample_full", "evaluate_all",
        "max_model_order", "linearization", "linearization_table",
        "continuum_gram"])
def test_a_basis_that_is_not_a_basis_id_is_refused(call, bad):
    with pytest.raises(InputError, match=r"BasisId\.LAGUERRE, "
                       r"BasisId\.SHIFTED_LEGENDRE, BasisId\.CHEBYSHEV"):
        call(bad)


_TWO_TICKS = [Tick(0.0, 100.0, 5.0), Tick(1.0, 101.0, 3.0)]


@pytest.mark.parametrize("call,name", [
    (lambda c: resample_full(_TWO_TICKS, 1.0, 8.0, BasisId.CHEBYSHEV, c,
                             MeasureKind.AGE_VOLUME).values, "orders"),
    (lambda c: evaluate_all(BasisId.SHIFTED_LEGENDRE, c, 0.5), "n"),
    (lambda c: linearization(BasisId.LAGUERRE, c, 2), "j"),
    (lambda c: linearization(BasisId.LAGUERRE, 2, c), "k"),
    (lambda c: linearization_table(BasisId.LAGUERRE, c).coeffs, "n_max"),
    (lambda c: matrix_from_moments(np.arange(1.0, 8.0), c,
                                   linearization_table(BasisId.CHEBYSHEV, 3)),
     "n"),
    (lambda c: continuum_gram(BasisId.CHEBYSHEV, c), "n"),
    (legendre_in_chebyshev, "n"),
    (lambda c: flow(resample_full(_TWO_TICKS, 1.0, 8.0, BasisId.LAGUERRE, 5,
                                  MeasureKind.VOLUME_DV), c).entries, "n"),
], ids=["resample_full", "evaluate_all", "linearization_j",
        "linearization_k", "linearization_table", "matrix_from_moments",
        "continuum_gram", "legendre_in_chebyshev", "flow"])
def test_counts_must_be_integers(call, name):
    # one rule in basis._integer: integral values pass as int, anything
    # else is an InputError naming the argument, never a TypeError;
    # MomentEngine's n, read by the same rule, has its own tests
    for bad in (2.5, float("nan"), "3"):
        with pytest.raises(InputError, match=f"^{name} must be an integer"):
            call(bad)
    want = call(3)
    for same in (3.0, np.int64(3)):
        got = call(same)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("basis", ALL_BASES)
def test_linearization_against_series_multiplication(basis):
    top = 24 if basis is BasisId.LAGUERRE else 40
    for j, k in ((0, 0), (1, 0), (3, 4), (7, 7), (top, 2), (top, top)):
        row = linearization(basis, j, k)
        ref = oracles.linearization_row(basis, j, k)
        scale = max(np.max(np.abs(ref)), 1.0)
        assert np.max(np.abs(row - ref)) < 1e-9 * scale, (j, k)


@pytest.mark.parametrize("basis", ALL_BASES)
def test_product_identity_full_table(basis):
    # sum_m c_m^{jk} Q_m(x) must reproduce Q_j(x) Q_k(x) at every probe
    # point, for every pair the table holds
    n_max = 24 if basis is BasisId.LAGUERRE else 74
    tbl = linearization_table(basis, n_max)
    xs = DOMAIN_GRID[basis]
    Q = evaluate_all(basis, 2 * n_max + 1, xs)
    recon = np.einsum("jkm,mp->jkp", tbl.coeffs, Q)
    direct = np.einsum("jp,kp->jkp", Q[:n_max + 1], Q[:n_max + 1])
    err = np.abs(recon - direct)
    tol = 1e-10 * np.maximum(1.0, np.abs(direct))
    if basis is BasisId.LAGUERRE:
        # Laguerre values reach ~1e15 at the window's far edge, so the
        # float64 sum cancels: measured error is <= 4.1e-16 of the
        # absolute term mass (the table itself is exact integer
        # arithmetic, see the exact-rational test). Assert the
        # plain tolerance where cancellation cannot bite (j+k <= 14,
        # measured clean) and a summation-noise-aware bound everywhere.
        mass = np.einsum("jkm,mp->jkp", np.abs(tbl.coeffs), np.abs(Q))
        assert np.all(err <= tol + 1e-12 * mass)
        low = np.add.outer(np.arange(n_max + 1), np.arange(n_max + 1)) <= 14
        assert np.all(err[low] <= tol[low])
    else:
        assert np.all(err <= tol)


def test_laguerre_rows_are_the_exact_rationals_rounded_once():
    # every coefficient of L_j L_k is an integer, summed exactly and
    # rounded once, so rows and tables equal the Fraction reference's bits
    rows = {}
    for j in range(25):
        for k in range(j, 25):
            rows[j, k] = rows[k, j] = oracles.laguerre_row_exact(j, k)
    for (j, k), want in rows.items():
        assert linearization(BasisId.LAGUERRE, j, k).tobytes() == \
            want.tobytes(), (j, k)
    for n_max in (11, 24):
        want = np.zeros((n_max + 1, n_max + 1, 2 * n_max + 1))
        for j in range(n_max + 1):
            for k in range(n_max + 1):
                want[j, k, :j + k + 1] = rows[j, k]
        got = linearization_table(BasisId.LAGUERRE, n_max).coeffs
        assert got.tobytes() == want.tobytes(), n_max


def test_table_symmetry_and_row_consistency():
    for basis in ALL_BASES:
        tbl = linearization_table(basis, 10)
        assert np.array_equal(tbl.coeffs, np.swapaxes(tbl.coeffs, 0, 1))
        for j, k in ((2, 9), (5, 5)):
            row = linearization(basis, j, k)
            assert np.array_equal(tbl.coeffs[j, k, :j + k + 1], row)


def test_chebyshev_closed_form_structure():
    row = linearization(BasisId.CHEBYSHEV, 5, 3)
    expect = np.zeros(9)
    expect[8] = 0.5
    expect[2] = 0.5
    assert np.array_equal(row, expect)
    assert np.array_equal(linearization(BasisId.CHEBYSHEV, 4, 4)[0], 0.5)
    assert linearization(BasisId.CHEBYSHEV, 0, 0)[0] == 1.0


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_BASES), st.data())
def test_product_identity_random_pairs(basis, data):
    top = 24 if basis is BasisId.LAGUERRE else 74
    j = data.draw(st.integers(0, top))
    k = data.draw(st.integers(0, top))
    if basis is BasisId.LAGUERRE:
        x = data.draw(st.floats(-36.0, 0.0))
    else:
        x = data.draw(st.floats(0.0, 1.0))
    row = linearization(basis, j, k)
    Q = evaluate_all(basis, j + k + 1, x)
    direct = Q[j] * Q[k]
    # same summation-noise allowance as the full-table test
    noise = 1e-12 * float(np.abs(row) @ np.abs(Q))
    assert abs(row @ Q - direct) <= 1e-10 * max(1.0, abs(direct)) + noise


def test_matrix_from_moments_against_tickwise_sums(stream400):
    from psima import MeasureKind, resample_full
    t_now = stream400[-1].t
    for basis in ALL_BASES:
        n = 6
        tbl = linearization_table(basis, n - 1)
        mom = resample_full(stream400, t_now, 64.0, basis, 2 * n - 1,
                            MeasureKind.VOLUME_DV)
        M = matrix_from_moments(mom, n, tbl)
        ref = oracles.quad_matrix(stream400, t_now, 64.0, basis, n,
                                  MeasureKind.VOLUME_DV)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(M - ref)) < 1e-10 * scale
        assert np.array_equal(M, M.T)


def test_matrix_from_moments_validation():
    tbl = linearization_table(BasisId.CHEBYSHEV, 4)
    with pytest.raises(InputError):
        matrix_from_moments(np.ones(3), 3, tbl)   # needs 2n-1 = 5
    with pytest.raises(CapabilityError):
        matrix_from_moments(np.ones(13), 7, tbl)  # table too small
    M = matrix_from_moments(np.ones(9), 5, tbl)
    assert M.shape == (5, 5)


def test_flat_checks_the_dimension_on_a_miss():
    table = linearization_table(BasisId.LAGUERRE, 3)
    with pytest.raises(CapabilityError, match="have 3$"):
        table.flat(6)
    for bad in (0, -1):
        with pytest.raises(InputError, match="must be >= 1"):
            table.flat(bad)
    # unhashable values miss the cache and are read as any other miss
    for bad in (2.5, np.array(4), [4]):
        with pytest.raises(InputError, match="^n must be an integer"):
            table.flat(bad)
    F = table.flat(4)
    assert F.shape == (7, 16)
    assert table.flat(np.int64(4)) is F and table.flat(4.0) is F
    other = linearization_table(BasisId.CHEBYSHEV, 3)
    assert other.flat(4.0) is other.flat(4) is other.flat(np.int64(4))


@pytest.mark.parametrize("basis", ALL_BASES)
@pytest.mark.parametrize("n", [1, 6, 12])
def test_assembly_does_not_depend_on_the_stack(basis, n):
    # a stack of 256 moment rows, longer than 2n - 1 and spanning many
    # magnitudes, assembles to the matrices each row gives alone, bit for
    # bit, and every matrix is exactly symmetric
    rng = np.random.default_rng(n)
    rows = (rng.standard_normal((256, 2 * n + 2))
            * 10.0 ** rng.integers(-8, 9, (256, 1)))
    table = linearization_table(basis, n - 1)
    stack = matrix_from_moments(rows, n, table)
    assert stack.shape == (256, n, n)
    for k, row in enumerate(rows):
        assert matrix_from_moments(row, n, table).tobytes() == \
            stack[k].tobytes(), k
    assert np.array_equal(stack, stack.swapaxes(1, 2))
    # the flattened table is cached and read-only
    assert table.flat(n) is table.flat(n)
    assert not table.flat(n).flags.writeable
