"""One refusal contract: a malformed argument raises a PsimaError naming it.

Each row is one valid call of a public callable, the engine's methods on
an engine that has absorbed a tape. Every argument is then replaced in
turn by junk: a string, None, a complex number, nan, an array of the
wrong shape and an enum member of the wrong kind. Each such call must
raise a PsimaError subclass whose message names the argument, or succeed
as it does with the junk the row lists as a value the argument takes (nan
is a real number; a string names a path; None asks for per-tick
sampling). Where a junk kind is a valid value of the argument, the row
gives a stand-in of that kind: a path for a string, and for a tape a
(2, 4) array, since a (2, 3) one is a tape of two ticks.
"""

import inspect
import io
import re

import numpy as np
import pytest

import psima
from psima import (BasisId, InputError, MeasureKind, MomentEngine,
                   PsimaError, Tick, age_tau, ema_price, evaluate_all,
                   evaluate_at, f_psi, flow, gram, linearization,
                   linearization_table, matrix_from_moments,
                   max_model_order, omega, parse_csv, rayleigh,
                   resample_full, run_blocks, run_over, serialize_csv,
                   solve_pencil, spike, steady, tick_arrays, uniform01,
                   weighted, x_of_t)

JUNK = {
    "string": "abc",
    "none": None,
    "complex": 1 + 2j,
    "nan": float("nan"),
    "shape": np.zeros((2, 3)),
    "enum": MeasureKind.TIME_DT,
}

TAPE = "09:30:00,100.0,10\n09:30:01,101.0,5\n"
TICKS = [Tick(0.125, 100.0625, 50.0), Tick(1.5, 99.5, 0.0)]
A, B = np.array([[2.0, 0.5], [0.5, 1.0]]), np.eye(2)
# a tape's wrong shape: a (2, 3) array is two ticks
NOT_A_TAPE = {"shape": np.zeros((2, 4))}


def _positioned():
    # an engine that has absorbed TICKS, at the last one's time
    engine = MomentEngine(BasisId.CHEBYSHEV, 2, 10.0)
    t, p, dV = tick_arrays(TICKS)
    engine.advance_to(1.5, t, p, dV, 0, 2)
    return engine


def _rows(tmp_path):
    tape = tmp_path / "tape.csv"
    tape.write_text(TAPE, encoding="utf-8")
    path = str(tmp_path / "out.csv")
    moments = {kind: resample_full(TICKS, 1.5, 10.0, BasisId.CHEBYSHEV, 5,
                                   kind) for kind in MeasureKind}
    # the columns of TICKS and one more tick, which the engine rows absorb
    t, p, dV = tick_arrays(TICKS + [Tick(2.0, 101.0, 3.0)])
    cols = dict(t=t, p=p, dV=dV)
    # (callable, valid arguments, per argument the junk it takes, and per
    # argument the stand-ins for junk kinds that are valid values of it)
    return [
        (x_of_t, dict(basis=BasisId.LAGUERRE, t=90.0, t_now=100.0, tau=10.0),
         dict(t={"nan", "shape"}, t_now={"nan"}), {}),
        (omega, dict(t=80.0, t_now=100.0, tau=10.0),
         dict(t={"nan", "shape"}, t_now={"nan"}), {}),
        (ema_price, dict(moments_price=[2.0, 1.0],
                         moments_volume=[4.0, 3.0]), {}, {}),
        (age_tau, dict(moments_age=[8.0, 1.0], moments_volume=[4.0, 3.0]),
         {}, {}),
        (evaluate_all, dict(basis=BasisId.CHEBYSHEV, n=3, x=0.5),
         dict(x={"shape"}), {}),
        (parse_csv, dict(source=io.StringIO(TAPE), date="2024-03-05"),
         dict(source={"string"}), dict(source={"string": str(tape)})),
        (serialize_csv, dict(ticks=TICKS, dest=io.StringIO()),
         dict(dest={"string"}), dict(dest={"string": path})),
        (matrix_from_moments,
         dict(moments=moments[MeasureKind.VOLUME_DV].values, n=3,
              table=linearization_table(BasisId.CHEBYSHEV, 2)), {}, {}),
        (gram, dict(moments_time=moments[MeasureKind.TIME_DT], n=3), {}, {}),
        (flow, dict(moments_volume=moments[MeasureKind.VOLUME_DV], n=3),
         {}, {}),
        (weighted, dict(moments_any=moments[MeasureKind.PRICE_VOLUME], n=3),
         {}, {}),
        (solve_pencil, dict(A=A, B=B, tie_breaker=np.eye(2)),
         dict(tie_breaker={"none"}), {}),
        (rayleigh, dict(psi=np.array([1.0, 0.5]), A=A, B=B), {}, {}),
        (steady, dict(rate=1.0, flow=100.0, price=50.0, duration=10.0,
                      seed=0), {}, {}),
        (spike, dict(base=TICKS, at=0.5, magnitude=2.0, width=1.0,
                     price_shift=0.0), {}, {}),
        (f_psi, dict(psi=np.array([1.0, 0.5]), M_num=A, M_den=B), {}, {}),
        (linearization, dict(basis=BasisId.SHIFTED_LEGENDRE, j=2, k=3),
         {}, {}),
        (linearization_table, dict(basis=BasisId.CHEBYSHEV, n_max=3), {},
         {}),
        (max_model_order, dict(basis=BasisId.LAGUERRE), {}, {}),
        (resample_full, dict(ticks=TICKS, t_now=1.5, tau=10.0,
                             basis=BasisId.CHEBYSHEV, orders=5,
                             measure=MeasureKind.VOLUME_DV),
         dict(measure={"enum"}), dict(ticks=NOT_A_TAPE)),
        (tick_arrays, dict(ticks=TICKS), {}, dict(ticks=NOT_A_TAPE)),
        (run_over, dict(ticks=TICKS, basis=BasisId.CHEBYSHEV, n=2, tau=10.0,
                        grid=0.5),
         dict(grid={"none"}), dict(ticks=NOT_A_TAPE)),
        (run_blocks, dict(ticks=TICKS, basis=BasisId.CHEBYSHEV, n=2,
                          tau=10.0, grid=0.5),
         dict(grid={"none"}), dict(ticks=NOT_A_TAPE)),
        (uniform01, dict(seed=3, counter=4), {}, {}),
        (MomentEngine, dict(basis=BasisId.CHEBYSHEV, n=2, tau=10.0), {}, {}),
        (evaluate_at, dict(t_now=1.5, engine=_positioned()), {}, {}),
        (_positioned().advance_to, dict(t_new=2.0, **cols, i0=2, i1=3), {},
         {}),
        (_positioned().moments, dict(measure=MeasureKind.VOLUME_DV),
         dict(measure={"enum"}), {}),
    ]


NAMES = ["x_of_t", "omega", "ema_price", "age_tau", "evaluate_all",
         "parse_csv", "serialize_csv", "matrix_from_moments", "gram", "flow",
         "weighted", "solve_pencil", "rayleigh", "steady", "spike", "f_psi",
         "linearization", "linearization_table", "max_model_order",
         "resample_full", "tick_arrays", "run_over", "run_blocks",
         "uniform01", "MomentEngine", "evaluate_at", "advance_to",
         "moments"]


def test_every_public_callable_has_a_row(tmp_path):
    # the table is written by hand: every function the package exports,
    # and every public engine method that takes arguments, has a row
    want = {name for name in psima.__all__
            if inspect.isfunction(getattr(psima, name))}
    want |= {name for name, fn in vars(MomentEngine).items()
             if inspect.isfunction(fn) and not name.startswith("_")
             and len(inspect.signature(fn).parameters) > 1}
    assert want <= set(NAMES), want - set(NAMES)
    assert sorted(r[0].__name__ for r in _rows(tmp_path)) == sorted(NAMES)


def _row(tmp_path, name):
    (row,) = [r for r in _rows(tmp_path) if r[0].__name__ == name]
    return row


@pytest.mark.parametrize("name", NAMES)
def test_the_row_names_every_argument(tmp_path, name):
    fn, valid, takes, stand_ins = _row(tmp_path, name)
    assert list(valid) == list(inspect.signature(fn).parameters)
    assert set(takes) | set(stand_ins) <= set(valid)
    assert all(set(kinds) <= set(JUNK) for kinds in stand_ins.values())


@pytest.mark.parametrize("name", NAMES)
def test_each_malformed_argument_is_refused_by_name(tmp_path, name):
    fn, valid, takes, stand_ins = _row(tmp_path, name)
    fn(**valid)
    for arg in valid:
        for kind, junk in JUNK.items():
            junk = stand_ins.get(arg, {}).get(kind, junk)
            args = dict(valid, **{arg: junk})
            for k, v in args.items():  # a stream is read once
                if isinstance(v, io.StringIO):
                    args[k] = io.StringIO(v.getvalue())
            if kind in takes.get(arg, ()):
                fn(**args)
                continue
            with pytest.raises(PsimaError) as info:
                fn(**args)
            assert re.search(rf"\b{arg}\b", str(info.value)), (
                arg, kind, str(info.value))


@pytest.mark.parametrize("kind", JUNK)
def test_f_psi_refuses_junk_as_rayleigh_does(kind):
    # f_psi is rayleigh by another name: junk in any place is refused,
    # and a junk state is named psi
    for k in range(3):
        args = [np.array([1.0, 0.5]), A, B]
        args[k] = JUNK[kind]
        with pytest.raises(InputError) as info:
            f_psi(*args)
        assert k or re.search(r"\bpsi\b", str(info.value))


@pytest.mark.parametrize("kind", JUNK)
def test_evaluate_at_refuses_an_engine_that_is_not_one(kind):
    engine = MomentEngine(BasisId.CHEBYSHEV, 2, 10.0)
    t, p, dV = tick_arrays(TICKS)
    engine.advance_to(1.5, t, p, dV, 0, 2)
    evaluate_at(1.5, engine)
    with pytest.raises(InputError, match=r"\bengine\b"):
        evaluate_at(1.5, JUNK[kind])


def test_a_complex_operator_is_refused_not_cast():
    # the imaginary part was dropped, with only a warning
    with pytest.raises(InputError, match=r"\bA\b"):
        solve_pencil(A + 1j, B)
    with pytest.raises(InputError, match=r"\bB\b"):
        rayleigh(np.array([1.0, 0.5]), A, B + 1j)
