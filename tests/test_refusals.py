"""One refusal contract: a malformed argument raises a PsimaError naming it.

Each row is one valid call of a public callable. Every argument is then
replaced in turn by junk: a string, None, a complex number, nan, an array
of the wrong shape and an enum member of the wrong kind. Each such call
must raise a PsimaError subclass whose message names the argument, or
succeed as it does with the junk the row lists as a value the argument
takes (nan is a real number; a string names a path).
"""

import inspect
import io
import re

import numpy as np
import pytest

from psima import (BasisId, InputError, MeasureKind, MomentEngine,
                   PsimaError, Tick, age_tau, ema_price, evaluate_all,
                   evaluate_at, f_psi, flow, gram, linearization_table,
                   matrix_from_moments, omega, parse_csv, rayleigh,
                   resample_full, serialize_csv, solve_pencil, spike, steady,
                   tick_arrays, weighted, x_of_t)

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


def _rows(tmp_path):
    tape = tmp_path / "tape.csv"
    tape.write_text(TAPE, encoding="utf-8")
    path = str(tmp_path / "out.csv")
    moments = {kind: resample_full(TICKS, 1.5, 10.0, BasisId.CHEBYSHEV, 5,
                                   kind) for kind in MeasureKind}
    # (callable, valid arguments, per argument the junk it takes, and the
    # string that stands for it where a string is a valid value)
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
         dict(source={"string"}), dict(source=str(tape))),
        (serialize_csv, dict(ticks=TICKS, dest=io.StringIO()),
         dict(dest={"string"}), dict(dest=path)),
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
    ]


NAMES = ["x_of_t", "omega", "ema_price", "age_tau", "evaluate_all",
         "parse_csv", "serialize_csv", "matrix_from_moments", "gram", "flow",
         "weighted", "solve_pencil", "rayleigh", "steady", "spike"]


def _row(tmp_path, name):
    (row,) = [r for r in _rows(tmp_path) if r[0].__name__ == name]
    return row


@pytest.mark.parametrize("name", NAMES)
def test_the_row_names_every_argument(tmp_path, name):
    fn, valid, takes, strings = _row(tmp_path, name)
    assert list(valid) == list(inspect.signature(fn).parameters)
    assert set(takes) | set(strings) <= set(valid)


@pytest.mark.parametrize("name", NAMES)
def test_each_malformed_argument_is_refused_by_name(tmp_path, name):
    fn, valid, takes, strings = _row(tmp_path, name)
    fn(**valid)
    for arg in valid:
        for kind, junk in JUNK.items():
            if kind == "string":
                junk = strings.get(arg, junk)
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
