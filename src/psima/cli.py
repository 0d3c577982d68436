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
import dataclasses
import logging
import os
import sys
from array import array
from operator import attrgetter

import numpy as np

from ._kernels import shift_matrix
from .basis import (BasisId, evaluate_all, linearization,
                    linearization_table, matrix_from_moments)
from .errors import InputError
from .gev import _probe_forms, _resolved, _ruled_out, solve_pencil
from .indicators import IndicatorSample, evaluate_at, run_blocks
from .ingest import parse_rows, serialize_csv
from .measure import (MeasureKind, MomentEngine, Tick, resample_full,
                      tick_arrays)
from .operators import flow, gram
from .synth import spike, steady, uniform01

log = logging.getLogger("psima")

_COLUMNS = ["t", "p_last", "P_tau", "P_IH", "lambda_IH", "lambda_IL",
            "T_IH", "T_tau", "P_aver", "effective_n"]
_FIELDS = [f.name for f in dataclasses.fields(IndicatorSample)]


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


def _cmd_run(args) -> int:
    if args.input == "-":
        source = sys.stdin
        if hasattr(source, "reconfigure"):
            # as parse_rows reads a file: bad bytes name their line
            source.reconfigure(encoding="utf-8", errors="surrogateescape")
    else:
        source = args.input
    # the whole tape is parsed before the first block runs, so a bad line
    # exits 2 with nothing written
    ticks = _columns(parse_rows(source, date=args.date))
    if not len(ticks[0]):
        raise InputError("input holds no ticks")
    basis = BasisId.parse(args.basis)
    blocks = run_blocks(ticks, basis, args.n, args.tau, grid=args.grid)
    if args.output == "-":
        rows, degenerate = _write_rows(sys.stdout, blocks, args.std)
    else:
        rows, degenerate = _write_file(args.output, blocks, args.std)
    if not rows:
        print(f"psima: all {degenerate} samples numerically degenerate",
              file=sys.stderr)
        return 3
    if degenerate:
        log.info("degenerate samples skipped: %d", degenerate)
    return 0


def _columns(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, p, dV) float64 columns of parsed rows: 24 bytes a tick."""
    t, p, dV = array("d"), array("d"), array("d")
    for a, b, c in rows:
        t.append(a)
        p.append(b)
        dV.append(c)
    return tuple(np.frombuffer(c, dtype=np.float64) for c in (t, p, dV))


def _write_rows(fh, blocks, std: bool) -> tuple[int, int]:
    """Write each block's rows as it comes; (rows, skipped) written.

    The header goes out with the first row, so a run without rows writes
    nothing.
    """
    columns = _COLUMNS + (["p_std"] if std else [])
    # IndicatorSample's fields run in column order, p_std last
    values = attrgetter(*_FIELDS[:len(columns)])
    line = "%.17g," * 9 + "%d" + (",%.17g" if std else "") + "\n"
    rows = degenerate = 0
    for samples, skipped in blocks:
        degenerate += skipped
        if samples and not rows:
            fh.write(",".join(columns) + "\n")
        rows += len(samples)
        fh.write("".join([line % values(s) for s in samples]))
    return rows, degenerate


def _write_file(path: str, blocks, std: bool) -> tuple[int, int]:
    """_write_rows into a new file beside ``path``, renamed onto it if the
    run wrote rows; on an error or no rows, ``path`` is left as it was.

    A path that is not a regular file (a device such as /dev/null, or a
    pipe) cannot be replaced and is written as the rows come.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", encoding="utf-8") as fh:
            return _write_rows(fh, blocks, std)
    folder, name = os.path.split(target)
    tmp = os.path.join(folder, f".{name}.{os.urandom(6).hex()}.tmp")
    # O_EXCL: never write through a file someone else made; 0o666 under
    # the umask, as open(path, "w") would create it
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the path asked for, not the new file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            rows, degenerate = _write_rows(fh, blocks, std)
        if rows:
            os.replace(tmp, target)
    finally:
        if os.path.lexists(tmp):
            os.unlink(tmp)
    return rows, degenerate


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


def _require(ok, *detail) -> None:
    # raised explicitly: python -O strips assert statements, and every
    # check would pass
    if not ok:
        raise AssertionError(*detail)


def _check_chebyshev_table() -> None:
    tbl = linearization_table(BasisId.CHEBYSHEV, 24)
    for j in range(25):
        for k in range(25):
            expect = np.zeros(49)
            expect[j + k] += 0.5
            expect[abs(j - k)] += 0.5
            _require(np.array_equal(tbl.coeffs[j, k], expect), j, k)


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
            _require(np.all(np.abs(lhs - rhs) <= tol), basis, j, k)


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
    _require(rel < 1e-8, rel)


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
    _require(abs(got - num / den) <= 1e-10 * abs(num / den), got)


def _check_incremental() -> None:
    ticks = _selftest_stream(300)
    t, p, dV = tick_arrays(ticks)
    tau = 64.0
    n = 8
    for basis in BasisId:
        eng = MomentEngine(basis, n, tau)
        eng.advance_to(t[99], t, p, dV, 0, 100)
        eng.advance_to(t[-1], t, p, dV, 100, len(t))
        got = eng.moments(MeasureKind.VOLUME_DV).values
        ref = resample_full(ticks, ticks[-1].t, tau, basis, 2 * n - 1,
                            MeasureKind.VOLUME_DV)
        err = np.max(np.abs(got - ref.values))
        _require(err <= 1e-9 * np.max(np.abs(ref.values)), basis, err)


def _check_shift_identity() -> None:
    # the exponential-basis shift matrix rests on the installed BLAS
    # matrix product and on the LAPACK inverses that build its table
    x = np.random.default_rng(23).uniform(0.0, 1.0, 40)
    for basis in (BasisId.SHIFTED_LEGENDRE, BasisId.CHEBYSHEV):
        for orders in (23, 149):
            for d in (1e-3, 0.25, 4.0):
                G = shift_matrix(basis, d, orders)
                terms = G[:, :, None] * evaluate_all(basis, orders, x)
                err = np.abs(terms.sum(axis=1)
                             - evaluate_all(basis, orders, np.exp(-d) * x))
                # judged against each point's largest term
                scale = np.abs(terms).max(axis=(0, 1))
                _require(np.all(err <= 1e-11 * scale), basis, orders, d)


def _check_cosine_table() -> None:
    # both exponential bases, as the one cosine table gives them, against
    # their three-term recurrences, run here as an independent reference;
    # rounding on both sides grows like m^2 eps
    x = np.random.default_rng(29).uniform(0.0, 1.0, 40)
    u = 2.0 * x - 1.0
    for orders in (23, 149):
        tol = 1e-16 * orders ** 2 + 1e-15
        T, P = np.ones((2, orders, len(x)))
        T[1] = P[1] = u
        for m in range(1, orders - 1):
            T[m + 1] = 2.0 * u * T[m] - T[m - 1]
            P[m + 1] = ((2 * m + 1) * u * P[m] - m * P[m - 1]) / (m + 1)
        for basis, ref in ((BasisId.CHEBYSHEV, T),
                           (BasisId.SHIFTED_LEGENDRE, P)):
            err = np.abs(evaluate_all(basis, orders, x) - ref).max()
            _require(err <= tol, basis, orders, err)


# quiet-spell tolerances per basis: lambda_IH, lambda_IL and P_IH
# relative, and T_IH + gap relative. The worst seen over 59 readings of
# the benchmark's live_laguerre tape (n 12, tau 256) was 1.7e-11 and
# 6.0e-9 for legendre and chebyshev, 6.8e-8 for laguerre; on this check's
# own stream, 1.7e-11 and 1.8e-11 for all three.
_QUIET_TOL = {BasisId.LAGUERRE: (1e-7, 1e-7),
              BasisId.SHIFTED_LEGENDRE: (1e-10, 1e-8),
              BasisId.CHEBYSHEV: (1e-10, 1e-8)}


def _check_quiet_spell() -> None:
    # a step with no tick maps every operator by one congruence, G(.)G^T
    # times the window decay, and adds gap * A to the age operator: where
    # effective_n holds, the pencil keeps its eigenvalues, its top state
    # reads the same price and an age older by the gap
    t, p, dV = tick_arrays(_selftest_stream())
    for basis, (tol, tol_age) in _QUIET_TOL.items():
        held = 0
        for k in range(40, len(t) + 1, 40):
            for gap in (0.5, 30.0, 300.0):
                engine = MomentEngine(basis, 12, 256.0)
                engine.advance_to(t[k - 1], t, p, dV, 0, k)
                before = evaluate_at(t[k - 1], engine)
                engine.advance_to(t[k - 1] + gap)
                after = evaluate_at(t[k - 1] + gap, engine)
                if after.effective_n != before.effective_n:
                    continue
                held += 1
                scale = abs(before.lambda_IH)
                age = before.T_IH + gap
                _require(abs(after.lambda_IH - before.lambda_IH)
                         <= tol * scale, basis, k, gap, "lambda_IH")
                _require(abs(after.lambda_IL - before.lambda_IL)
                         <= tol * scale, basis, k, gap, "lambda_IL")
                _require(abs(after.P_IH - before.P_IH)
                         <= tol * abs(before.P_IH), basis, k, gap, "P_IH")
                _require(abs(after.T_IH - age) <= tol_age * age,
                         basis, k, gap, "T_IH")
        _require(held, basis, "effective_n held on no quiet spell")


def _check_probe_certificate() -> None:
    # the dimension walk rules a dimension out unprobed where the states
    # of its last probe there prove the resolution gate fails (gev module
    # docstring); on every pencil of the stream, the states of the one
    # before never rule out a dimension the gate passes
    t, p, dV = tick_arrays(_selftest_stream())
    n = 12
    for basis in BasisId:
        engine = MomentEngine(basis, n, 256.0)
        rows = engine._advance_block(t, t, p, dV, 0,
                                     np.arange(1, len(t) + 1))
        B = matrix_from_moments(rows[:, 0], n,
                                linearization_table(basis, n - 1))
        ruled = 0
        for m in range(1, n + 1):
            ok, _, X = _resolved(B[:, :m, :m], basis, m)
            cut = _ruled_out(_probe_forms(X[:-1], basis, m), B[1:, :m, :m])
            _require(not (cut & ok[1:]).any(), basis, m)
            ruled += cut.sum()
        _require(ruled, basis, "no dimension ruled out")


def _check_synth_accounting() -> None:
    ticks = steady(1, 100, 10, 1000, 7)
    total = sum(tk.dV for tk in ticks)
    _require(950 <= len(ticks) <= 1050, len(ticks))
    _require(99800 <= total <= 100200, total)


def _cmd_selftest(args) -> int:
    checks = [
        ("chebyshev-table-closed-form", _check_chebyshev_table),
        ("product-linearization-identity", _check_product_identity),
        ("pencil-vs-determinant-bisection", _check_pencil_oracle),
        ("ema-vs-raw-sum", _check_ema_oracle),
        ("incremental-vs-resample", _check_incremental),
        ("shift-matrix-identity", _check_shift_identity),
        ("cosine-table-vs-recurrences", _check_cosine_table),
        ("quiet-spell-congruence", _check_quiet_spell),
        ("synth-volume-accounting", _check_synth_accounting),
        ("probe-certificate-vs-gate", _check_probe_certificate),
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
