"""Closed-loop client that streams a tape through the library API.

One caller feeds a ``MomentEngine`` one sample at a time (``advance_to``,
then ``evaluate_at``) and waits for each reading before asking for the
next, as a live consumer does. Samples follow ``psima run``: one per tick,
or a fixed grid anchored at the first tick.

    python3 perfbench/stream.py --input tape.csv --basis laguerre \\
        --output out.csv --report report.json [--grid G]

streams the whole tape once. ``--serve K`` instead warms the engine with
everything before sample K in one block, then waits on stdin: each line
holds a number of seconds to spend streaming samples K.. (starting over
from a fresh warm-up when they run out), answered by one line on stdout.
At end of input it writes the report and exits. ``--setup-only`` pays
what a first reading costs in a fresh interpreter (import plus the
per-basis cached builds) on a small fixed tape and exits.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

import psima

COLUMNS = ["t", "p_last", "P_tau", "P_IH", "lambda_IH", "lambda_IL",
           "T_IH", "T_tau", "P_aver", "effective_n"]


def schedule(t: np.ndarray, grid: float | None) -> list[tuple[float, int, int]]:
    """(sample time, first tick, end tick) per sample, as ``psima run`` samples."""
    if grid is None:
        return [(float(t[k]), k, k + 1) for k in range(len(t))]
    plan = []
    i = 0
    ts = float(t[0])
    while ts <= float(t[-1]):
        j = int(np.searchsorted(t, ts, side="right"))
        plan.append((ts, i, j))
        i = j
        ts += grid
    return plan


def read_one(engine, t, p, dV, step):
    """(sample or None, seconds, error text or None) for one plan step."""
    ts, i, j = step
    t0 = time.perf_counter()
    try:
        engine.advance_to(ts, t, p, dV, i, j)
        sample, error = psima.evaluate_at(ts, engine), None
    except Exception as exc:  # counted as a failed sample, run goes on
        sample, error = None, f"t={ts!r}: {exc!r}"
    return sample, time.perf_counter() - t0, error


def stream(engine, t, p, dV, plan):
    """Read every sample of ``plan`` in turn; (samples, latencies, errors)."""
    samples, latencies, errors = [], [], []
    for step in plan:
        sample, seconds, error = read_one(engine, t, p, dV, step)
        samples.append(sample)
        latencies.append(seconds)
        if error:
            errors.append(error)
    return samples, latencies, errors


def warmed_engine(basis, n, tau, t, p, dV, plan, first):
    """An engine that has absorbed everything before sample ``first``."""
    engine = psima.MomentEngine(basis, n, tau)
    if first:
        ts, _, j = plan[first - 1]
        engine.advance_to(ts, t, p, dV, 0, j)
    return engine


def serve(basis, n, tau, t, p, dV, plan, first):
    """Stream samples first.. for the time each stdin line asks for.

    Returns each reading's latency and the index of its sample in ``plan``.
    """
    latencies, indices, errors = [], [], []
    engine, k = None, len(plan)
    print("ready", flush=True)
    for line in sys.stdin:
        t_end = time.perf_counter() + float(line)
        count = 0
        while time.perf_counter() < t_end:
            if k == len(plan):
                engine, k = warmed_engine(basis, n, tau, t, p, dV, plan,
                                          first), first
            _, seconds, error = read_one(engine, t, p, dV, plan[k])
            latencies.append(seconds)
            indices.append(k)
            k += 1
            count += 1
            if error:
                errors.append(error)
        print(count, flush=True)
    return latencies, indices, errors


def format_rows(samples) -> str:
    """The CSV ``psima run`` prints for these samples; skipped ones omitted."""
    lines = [",".join(COLUMNS)]
    for s in samples:
        if s is not None:
            lines.append(",".join(
                [f"{v:.17g}" for v in (s.t_now, s.p_last, s.P_tau, s.P_IH,
                                       s.lambda_IH, s.lambda_IL, s.T_IH,
                                       s.T_tau, s.P_aver)]
                + [str(s.effective_n)]))
    return "\n".join(lines) + "\n"


def first_reading(basis, n: int, tau: float) -> None:
    t, p, dV = psima.tick_arrays(psima.steady(1.0, 100.0, 100.0, 64.0, 1))
    engine = psima.MomentEngine(basis, n, tau)
    engine.advance_to(float(t[-1]), t, p, dV, 0, len(t))
    psima.evaluate_at(float(t[-1]), engine)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--basis", required=True)
    ap.add_argument("--n", type=int, default=12)
    ap.add_argument("--tau", type=float, default=256.0)
    ap.add_argument("--grid", type=float, default=None)
    ap.add_argument("--input")
    ap.add_argument("--output")
    ap.add_argument("--report")
    ap.add_argument("--serve", type=int, default=None, metavar="K")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    basis = psima.BasisId.parse(args.basis)
    if args.setup_only:
        first_reading(basis, args.n, args.tau)
        return 0

    t, p, dV = psima.tick_arrays(psima.parse_csv(args.input))
    plan = schedule(t, args.grid)
    if args.serve is not None:
        first = min(max(args.serve, 0), len(plan) - 1)
        latencies, indices, errors = serve(basis, args.n, args.tau, t, p, dV,
                                           plan, first)
        report = {"latencies_s": latencies, "samples": indices,
                  "errors": errors, "first_sample": first}
    else:
        engine = psima.MomentEngine(basis, args.n, args.tau)
        t0 = time.perf_counter()
        samples, latencies, errors = stream(engine, t, p, dV, plan)
        loop_s = time.perf_counter() - t0
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(format_rows(samples))
        report = {"loop_s": loop_s, "latencies_s": latencies,
                  "errors": errors}
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
