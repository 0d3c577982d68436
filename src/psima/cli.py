"""Command-line front end.

Subcommands:

* ``run``      read a tick CSV, stream the engine over it, emit indicators
* ``synth``    generate a deterministic synthetic tape
* ``selftest`` quick numerical cross-checks against independent oracles

Exit codes for ``run``: 0 success, 1 usage, 2 bad input data,
3 numerical degeneracy at every sample. ``selftest`` exits 1 when a check
fails. The PSIMA_LOG environment variable (debug/info/warning) controls
log verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from .basis import BasisId, evaluate_all, linearization, linearization_table
from .errors import InputError
from .gev import solve_pencil
from .indicators import run_over
from .ingest import parse_csv, serialize_csv
from .measure import (MeasureKind, Tick, advance_incremental, resample_full)
from .operators import flow, gram
from .synth import spike, steady, uniform01

log = logging.getLogger("psima")

_COLUMNS = ["t", "p_last", "P_tau", "P_IH", "lambda_IH", "lambda_IL",
            "T_IH", "T_tau", "P_aver", "effective_n"]


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    p = _Parser(prog="psima", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="compute indicator series over a tick CSV")
    run.add_argument("--input", required=True,
                     help="tick CSV path, or - for stdin")
    run.add_argument("--output", default="-", help="output CSV path (default stdout)")
    run.add_argument("--tau", type=float, default=256.0,
                     help="window time scale, seconds (default 256)")
    run.add_argument("--n", type=int, default=12,
                     help="model dimension (default 12)")
    run.add_argument("--basis", default="legendre",
                     choices=[b.value for b in BasisId],
                     help="polynomial family (default legendre)")
    run.add_argument("--grid", type=float, default=None,
                     help="sample on a fixed step instead of per tick")
    run.add_argument("--date", default=None,
                     help="YYYY-MM-DD for HH:MM:SS.fff time columns")
    run.add_argument("--std", action="store_true",
                     help="append an EMA standard-deviation column p_std")
    run.set_defaults(func=_cmd_run)

    syn = sub.add_parser("synth", help="emit a deterministic synthetic tape")
    syn.add_argument("--seed", type=int, default=0)
    syn.add_argument("--rate", type=float, default=1.0, help="trades per second")
    syn.add_argument("--flow", type=float, default=100.0, help="shares per second")
    syn.add_argument("--price", type=float, default=100.0)
    syn.add_argument("--duration", type=float, default=1000.0, help="seconds")
    syn.add_argument("--spike", action="append", default=[],
                     metavar="AT:MAG:WIDTH[:PSHIFT]",
                     help="flow spike; repeatable")
    syn.add_argument("--output", default="-")
    syn.set_defaults(func=_cmd_synth)

    st = sub.add_parser("selftest", help="run quick oracle cross-checks")
    st.set_defaults(func=_cmd_selftest)
    return p


def main(argv=None) -> int:
    level = os.environ.get("PSIMA_LOG")
    if level:
        logging.basicConfig(level=getattr(logging, level.upper(), logging.WARNING))
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"psima: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"psima: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"psima: input values overflow the moment arithmetic ({exc})",
              file=sys.stderr)
        return 2


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _cmd_run(args) -> int:
    if args.input == "-":
        source = sys.stdin
        if hasattr(source, "reconfigure"):
            # as parse_csv reads a file: bad bytes name their line
            source.reconfigure(encoding="utf-8", errors="surrogateescape")
    else:
        source = args.input
    ticks = parse_csv(source, date=args.date)
    if not ticks:
        raise InputError("input holds no ticks")
    basis = BasisId.parse(args.basis)
    # a tape whose values overflow the moment arithmetic is bad input,
    # not a run that prints inf or nan readings
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        samples, degenerate = run_over(ticks, basis, args.n, args.tau,
                                       grid=args.grid)
    if not samples:
        print(f"psima: all {degenerate} samples numerically degenerate",
              file=sys.stderr)
        return 3

    columns = _COLUMNS + (["p_std"] if args.std else [])
    lines = [",".join(columns)]
    for s in samples:
        row = [_fmt(s.t_now), _fmt(s.p_last), _fmt(s.P_tau), _fmt(s.P_IH),
               _fmt(s.lambda_IH), _fmt(s.lambda_IL), _fmt(s.T_IH),
               _fmt(s.T_tau), _fmt(s.P_aver), str(s.effective_n)]
        if args.std:
            row.append(_fmt(s.p_std))
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    if degenerate:
        log.info("degenerate samples skipped: %d", degenerate)
    return 0


def _cmd_synth(args) -> int:
    ticks = steady(args.rate, args.flow, args.price, args.duration, args.seed)
    for spec_str in args.spike:
        parts = spec_str.split(":")
        if len(parts) not in (3, 4):
            raise InputError(f"bad --spike {spec_str!r}, want AT:MAG:WIDTH[:PSHIFT]")
        try:
            nums = [float(x) for x in parts]
        except ValueError:
            raise InputError(f"bad --spike {spec_str!r}") from None
        shift = nums[3] if len(nums) == 4 else 0.0
        ticks = spike(ticks, nums[0], nums[1], nums[2], shift)
    if args.output == "-":
        serialize_csv(ticks, sys.stdout)
    else:
        serialize_csv(ticks, args.output)
    return 0


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def _det_sign(A: np.ndarray, B: np.ndarray, lam: float) -> float:
    sign, _ = np.linalg.slogdet(A - lam * B)
    return sign


def _bisect_eigs(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """det(A - lambda B) sign-scan + bisection; independent of solve_pencil."""
    approx = np.sort(np.linalg.eigvals(np.linalg.solve(B, A)).real)
    scale = max(np.max(np.abs(approx)), 1e-30)
    out = []
    for e in approx:
        d = max(1e-6 * scale, 1e-9)
        lo, hi = e - d, e + d
        while _det_sign(A, B, lo) == _det_sign(A, B, hi) and d < scale:
            d *= 2.0
            lo, hi = e - d, e + d
        slo = _det_sign(A, B, lo)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if _det_sign(A, B, mid) == slo:
                lo = mid
            else:
                hi = mid
        out.append(0.5 * (lo + hi))
    return np.asarray(out)


def _selftest_stream(n_ticks: int = 400, seed: int = 3) -> list[Tick]:
    ticks = []
    t = 0.0
    for i in range(n_ticks):
        t += 0.2 + 1.6 * uniform01(seed, 2 * i)
        p = 100.0 + 4.0 * (uniform01(seed, 2 * i + 1) - 0.5)
        ticks.append(Tick(t=t, p=p, dV=10.0 + 90.0 * uniform01(seed + 1, i)))
    return ticks


def _check_chebyshev_table() -> None:
    tbl = linearization_table(BasisId.CHEBYSHEV, 24)
    for j in range(25):
        for k in range(25):
            expect = np.zeros(49)
            expect[j + k] += 0.5
            expect[abs(j - k)] += 0.5
            assert np.array_equal(tbl.coeffs[j, k], expect), (j, k)


def _check_product_identity() -> None:
    for basis, xs in ((BasisId.LAGUERRE, np.linspace(-30.0, 0.0, 7)),
                      (BasisId.SHIFTED_LEGENDRE, np.linspace(0.0, 1.0, 7)),
                      (BasisId.CHEBYSHEV, np.linspace(0.0, 1.0, 7))):
        for j, k in ((3, 4), (7, 7), (10, 2)):
            c = linearization(basis, j, k)
            Q = evaluate_all(basis, j + k + 1, xs)
            lhs = Q[j] * Q[k]
            rhs = c @ Q
            tol = 1e-10 * np.maximum(1.0, np.abs(lhs))
            assert np.all(np.abs(lhs - rhs) <= tol), (basis, j, k)


def _check_pencil_oracle() -> None:
    ticks = _selftest_stream()
    t_now = ticks[-1].t
    n = 6
    mt = resample_full(ticks, t_now, 64.0, BasisId.SHIFTED_LEGENDRE,
                       2 * n - 1, MeasureKind.TIME_DT)
    mv = resample_full(ticks, t_now, 64.0, BasisId.SHIFTED_LEGENDRE,
                       2 * n - 1, MeasureKind.VOLUME_DV)
    B = gram(mt, n)
    A = flow(mv, n)
    dec = solve_pencil(A, B)
    ref = _bisect_eigs(A.entries, B.entries)
    rel = np.max(np.abs(dec.lambdas - ref) / np.max(np.abs(ref)))
    assert rel < 1e-8, rel


def _check_ema_oracle() -> None:
    ticks = _selftest_stream()
    t_now = ticks[-1].t
    tau = 64.0
    w = np.array([np.exp(-(t_now - tk.t) / tau) for tk in ticks])
    num = sum(wi * tk.p * tk.dV for wi, tk in zip(w, ticks))
    den = sum(wi * tk.dV for wi, tk in zip(w, ticks))
    mp = resample_full(ticks, t_now, tau, BasisId.CHEBYSHEV, 3,
                       MeasureKind.PRICE_VOLUME)
    mv = resample_full(ticks, t_now, tau, BasisId.CHEBYSHEV, 3,
                       MeasureKind.VOLUME_DV)
    from .indicators import ema_price
    got = ema_price(mp, mv)
    assert abs(got - num / den) <= 1e-10 * abs(num / den), got


def _check_incremental() -> None:
    ticks = _selftest_stream(300)
    tau = 64.0
    n = 8
    for basis in BasisId:
        state = resample_full(ticks[:100], ticks[99].t, tau, basis,
                              2 * n - 1, MeasureKind.VOLUME_DV)
        state = advance_incremental(state, ticks[100:], ticks[-1].t,
                                    t_prev=ticks[99].t)
        ref = resample_full(ticks, ticks[-1].t, tau, basis, 2 * n - 1,
                            MeasureKind.VOLUME_DV)
        err = np.max(np.abs(state.values - ref.values))
        assert err <= 1e-9 * np.max(np.abs(ref.values)), (basis, err)


def _check_synth_accounting() -> None:
    ticks = steady(1, 100, 10, 1000, 7)
    total = sum(tk.dV for tk in ticks)
    assert 950 <= len(ticks) <= 1050, len(ticks)
    assert 99800 <= total <= 100200, total


def _cmd_selftest(args) -> int:
    checks = [
        ("chebyshev-table-closed-form", _check_chebyshev_table),
        ("product-linearization-identity", _check_product_identity),
        ("pencil-vs-determinant-bisection", _check_pencil_oracle),
        ("ema-vs-raw-sum", _check_ema_oracle),
        ("incremental-vs-resample", _check_incremental),
        ("synth-volume-accounting", _check_synth_accounting),
    ]
    failed = 0
    for name, fn in checks:
        try:
            fn()
        except Exception as exc:  # report and keep going
            failed += 1
            print(f"FAIL {name}: {exc!r}")
        else:
            print(f"ok {name}")
    if failed:
        print(f"{failed} of {len(checks)} checks failed")
        return 1
    print(f"all {len(checks)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
