"""psima benchmark: whole-tape, dense-grid and live-streaming workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. Each workload's tape comes from ``psima.synth`` with synth seed
``base + N``, so ``--seed 0`` gives the tapes quoted in perfbench/README.md.
The tape is written as CSV and the program reads only that file.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs untraced and traced passes in turn, wraps the program's
layers from outside (perfbench/spans.py) and reports per-layer numbers plus
the tracing overhead. Both modes check outputs against independent
references (perfbench/oracle.py) outside the timed region. The last line of
stdout is one JSON object: correct, attempted, failed, metrics. The full
record (environment, counts, gaps, per-run values) is written to
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# Every run must end within 180 s; no new pass starts past this point.
PASS_DEADLINE_S = 120.0
CHILD_TIMEOUT_S = 90.0
# Fresh-interpreter set-ups after each pass; spread over the run so their
# median does not rest on one stretch of machine speed.
SETUP_PER_PASS = 3
# A median needs more than one pass; a 10k-tick pass can outlast --seconds.
MIN_PASSES = 2
# Samples the latency probe cycles through: few enough that every slice
# sweeps them several times, so each reading is repeated across the run.
PROBE_SAMPLES = 1000
# Latency slice after each CLI pass, as a share of the pass's wall time;
# at ~1 ms a reading, a slice holds well over the 1,000 readings a p99
# with ten samples beyond it needs.
PROBE_SHARE = 0.3
# Latency slice before the first pass, so readings repeat in one more
# stretch of the run than there are passes.
PROBE_LEAD_S = 3.0

WORKLOADS = {
    # ROADMAP's headline tape: per-tick sampling, so per-gap shift builds,
    # one-tick accumulates and solves dominate; parse is negligible.
    "tape10k_pertick": {
        "synth": {"seed": 7, "rate": 1.0, "flow": 100.0, "price": 100.0,
                  "duration": 10000.0, "spikes": []},
        "mode": "cli", "basis": "legendre", "n": 12, "tau": 256.0,
        "grid": None, "oracle_rows": 12,
    },
    # ~1M ticks on a 10 s grid: ingest and memory do the work, shift
    # matrices hit the cache and solves are few. Not in BENCHMARK.json: its
    # tape costs ~20 s to make and parse, and its spreads ran near the bound.
    "dense1m_grid": {
        "synth": {"seed": 11, "rate": 100.0, "flow": 10000.0, "price": 50.0,
                  "duration": 10000.0, "spikes": [(5000.0, 6.0, 60.0, 0.5)]},
        "mode": "cli", "basis": "chebyshev", "n": 12, "tau": 256.0,
        "grid": 10.0, "oracle_rows": 5,
    },
    # One caller streaming tick by tick through the library; Laguerre runs
    # the resolution gate about 7 times per solve on this tape.
    "live_laguerre": {
        "synth": {"seed": 5, "rate": 2.0, "flow": 100.0, "price": 50.0,
                  "duration": 3000.0, "spikes": [(1500.0, 8.0, 30.0, 1.25)]},
        "mode": "live", "basis": "laguerre", "n": 12, "tau": 256.0,
        "grid": None, "oracle_rows": 12,
    },
}

# Small tape for the benchmark's own consistency check in traced runs.
SELFCHECK = {
    "synth": {"seed": 3, "rate": 1.0, "flow": 100.0, "price": 100.0,
              "duration": 400.0, "spikes": [(200.0, 5.0, 20.0, 1.0)]},
    "mode": "cli", "basis": "legendre", "n": 8, "tau": 64.0, "grid": None,
}


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, child crashed...)."""


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PSIMA_LOG", "PSIMA_NO_NUMBA")}
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv: list[str], log_path: str) -> dict:
    """Run one child to completion; wall seconds and peak RSS in MB.

    The child is reaped with wait4 so its own peak RSS is known; a child
    that outlives CHILD_TIMEOUT_S is killed and reaped before raising.
    """
    with open(log_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL,
                                stderr=err)
        done = {}

        def reap():
            done["wait"] = os.wait4(proc.pid, 0)
            done["t1"] = time.perf_counter()

        waiter = threading.Thread(target=reap)
        waiter.start()
        try:
            waiter.join(CHILD_TIMEOUT_S)
        finally:  # also on SIGTERM: never leave the child running
            if waiter.is_alive():
                proc.kill()
                waiter.join()
        _, status, usage = done["wait"]
        proc.returncode = os.waitstatus_to_exitcode(status)
    if "t1" not in done or proc.returncode != 0:
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"{' '.join(argv[1:4])}... exited "
                         f"{proc.returncode}:\n{tail}")
    return {"wall_s": done["t1"] - t0, "rss_mb": usage.ru_maxrss / 1024.0}


def config_argv(wl: dict) -> list[str]:
    argv = ["--basis", wl["basis"], "--n", str(wl["n"]),
            "--tau", repr(wl["tau"])]
    if wl["grid"] is not None:
        argv += ["--grid", repr(wl["grid"])]
    return argv


def cli_argv(wl: dict, tape: str, out: str) -> list[str]:
    return ["run", "--input", tape, "--output", out] + config_argv(wl)


def stream_argv(wl: dict, tape: str, report: str) -> list[str]:
    return ["--input", tape, "--report", report] + config_argv(wl)


def one_pass(wl: dict, tape: str, tag: str, traced: bool) -> dict:
    """One workload pass: a ``psima run`` process or a streaming client."""
    out = os.path.join(WORK, f"{tag}.csv")
    report = os.path.join(WORK, f"{tag}.report.json")
    summary = os.path.join(WORK, f"{tag}.spans.json")
    spans = [os.path.join(HERE, "spans.py"), summary]
    if wl["mode"] == "cli":
        args = cli_argv(wl, tape, out)
        head = spans + ["cli"] if traced else ["-m", "psima.cli"]
    else:
        args = stream_argv(wl, tape, report) + ["--output", out]
        head = (spans + ["stream"] if traced
                else [os.path.join(HERE, "stream.py")])
    res = run_child([sys.executable] + head + args,
                    os.path.join(WORK, f"{tag}.log"))
    with open(out, "rb") as fh:
        res["sha256"] = hashlib.sha256(fh.read()).hexdigest()
    res["out"] = out
    if wl["mode"] == "live":
        with open(report, encoding="utf-8") as fh:
            rep = json.load(fh)
        res["run_s"] = rep["loop_s"]
        res["latencies_s"] = rep["latencies_s"]
        res["errors"] = rep["errors"]
    else:
        res["run_s"] = res["wall_s"]
    if traced:
        with open(summary, encoding="utf-8") as fh:
            res["spans"] = json.load(fh)
    return res


class Probe:
    """Per-reading latency of a CLI workload's configuration.

    A ``psima run`` process has no per-reading latency of its own, so a
    streaming client with the same basis, n, tau and sampling stays up
    beside the passes and streams the tape's last PROBE_SAMPLES samples in
    a slice after each pass. Spreading the slices over the run keeps them
    from all landing in one slow stretch of a noisy machine.
    """

    def __init__(self, wl: dict, tape: str, n_samples: int):
        self.report = os.path.join(WORK, "probe.report.json")
        self.log = open(os.path.join(WORK, "probe.log"), "wb")
        first = max(n_samples - PROBE_SAMPLES, 0)
        self.slices: list[int] = []  # samples streamed per slice
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "stream.py"),
             "--serve", str(first)] + stream_argv(wl, tape, self.report),
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self.log, text=True)
        self._answer()

    def _answer(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            with open(self.log.name, encoding="utf-8", errors="replace") as fh:
                raise BenchError(f"latency probe stopped:\n{fh.read()[-2000:]}")
        return line.strip()

    def stream_for(self, seconds: float) -> None:
        self.proc.stdin.write(f"{seconds!r}\n")
        self.proc.stdin.flush()
        self.slices.append(int(self._answer()))

    def close(self) -> None:
        """End of input: the client writes its report and exits."""
        self.proc.stdin.close()
        try:
            self.proc.wait(CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def setup_times(wl: dict, repeats: int) -> list[float]:
    argv = [sys.executable, os.path.join(HERE, "stream.py"), "--setup-only",
            "--basis", wl["basis"], "--n", str(wl["n"]),
            "--tau", repr(wl["tau"])]
    return [run_child(argv, os.path.join(WORK, "setup.log"))["wall_s"]
            for _ in range(repeats)]


# ---------------------------------------------------------------------------
# inputs and outputs
# ---------------------------------------------------------------------------

def make_tape(spec: dict, seed: int, path: str):
    """Write the workload tape for ``seed``; return its (t, p, dV) arrays."""
    import psima
    ticks = psima.steady(spec["rate"], spec["flow"], spec["price"],
                         spec["duration"], spec["seed"] + seed)
    for at, mag, width, shift in spec["spikes"]:
        ticks = psima.spike(ticks, at, mag, width, shift)
    psima.serialize_csv(ticks, path)
    return psima.tick_arrays(ticks)


def sample_count(t, grid) -> int:
    """Samples ``psima run`` attempts: one per tick, or per grid point."""
    if grid is None:
        return len(t)
    return int((float(t[-1]) - float(t[0])) // grid) + 1


def read_rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def nonfinite_rows(rows: list[dict]) -> int:
    def finite(v) -> bool:
        try:
            return math.isfinite(float(v))
        except (TypeError, ValueError):
            return False
    return sum(not all(finite(v) for v in r.values()) for r in rows)


def environment(seed: int) -> dict:
    import numpy as np
    import psima
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    lane = getattr(getattr(psima, "_kernels", None), "lane_name", None)
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, check=False)
        commit = r.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "lane": lane() if callable(lane) else "unknown",
            "commit": commit, "seed": seed}


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def check_outputs(wl: dict, passes: list[dict], tape_arrays, attempted_per_pass: int,
                  record: dict) -> int:
    """Failed operations over all passes; fills record with the evidence."""
    import psima
    from oracle import check_rows
    rows = read_rows(passes[0]["out"])
    shas = sorted({p["sha256"] for p in passes})
    record["output_sha256"] = shas[0] if len(shas) == 1 else shas
    missing = max(attempted_per_pass - len(rows), 0)
    bad = nonfinite_rows(rows)
    oracle = check_rows(rows, tape_arrays, wl["tau"],
                        psima.BasisId.parse(wl["basis"]), wl["n"],
                        wl["oracle_rows"])
    record["oracle"] = oracle
    record["missing_per_pass"] = missing
    record["nonfinite_per_pass"] = bad
    record["full_n_frac"] = (sum(int(r["effective_n"]) == wl["n"] for r in rows)
                             / max(len(rows), 1))
    record["deterministic"] = len(shas) == 1
    return (missing + bad) * len(passes) + len(oracle["failures"])


def measure_passes(wl, tape, seconds, t_start, traced_too=False,
                   probe=None, setups=None):
    """Passes that fit in ``seconds``, and at least MIN_PASSES.

    Each untraced pass is followed by a traced one with ``traced_too``, by
    a latency slice PROBE_SHARE as long as the pass with ``probe``, and by
    SETUP_PER_PASS set-up timings appended to ``setups``. A new round
    starts only if one as long as the last still ends within ``seconds``.
    """
    passes = []
    t0 = time.perf_counter()
    while True:
        t_iter = time.perf_counter()
        passes.append(one_pass(wl, tape, f"pass{len(passes)}", False))
        if traced_too:
            passes.append(one_pass(wl, tape, f"pass{len(passes)}", True))
        if probe is not None:
            probe.stream_for(PROBE_SHARE * passes[-1]["wall_s"])
        if setups is not None:
            setups.extend(setup_times(wl, SETUP_PER_PASS))
        now = time.perf_counter()
        fits = now - t0 + (now - t_iter) <= seconds
        if not fits and len(passes) >= MIN_PASSES:
            return passes
        if now - t_start + (now - t_iter) > PASS_DEADLINE_S:
            return passes


def best_per_reading(groups, indices) -> list[float]:
    """Each reading's fastest latency over all the times it was taken."""
    best: dict[int, float] = {}
    for g, idx in zip(groups, indices):
        for k, v in zip(idx, g):
            best[k] = min(v, best.get(k, math.inf))
    return list(best.values())


def latency_stats(groups, indices) -> dict:
    """Latency percentiles in us, three ways; the record keeps them all.

    ``best``: over readings, of each reading's fastest repeat (the repeats
    fall in different passes or slices). ``per_group``: the median over
    passes (probe slices) of each one's percentile. ``pooled``: over every
    latency taken.
    """
    qs = (10, 50, 90, 99)

    def pct(values):
        cuts = statistics.quantiles(values, n=100)
        return {f"p{q}": 1e6 * cuts[q - 1] for q in qs}

    per = [pct(g) for g in groups if len(g) > 1]
    return {"best": pct(best_per_reading(groups, indices)),
            "per_group": {f"p{q}": statistics.median(p[f"p{q}"] for p in per)
                          for q in qs},
            "pooled": pct([v for g in groups for v in g])}


def end_to_end(wl, tape, arrays, seconds, t_start, record):
    record["setup_s"] = []
    n_samples = sample_count(arrays[0], wl["grid"])
    if wl["mode"] == "live":
        passes = measure_passes(wl, tape, seconds, t_start,
                                setups=record["setup_s"])
        groups = [p["latencies_s"] for p in passes]
        indices = [range(len(g)) for g in groups]
        errors = [e for p in passes for e in p["errors"]]
        attempted = n_samples * len(passes)
    else:
        probe = Probe(wl, tape, n_samples)
        try:
            probe.stream_for(PROBE_LEAD_S)
            passes = measure_passes(wl, tape, seconds, t_start, probe=probe,
                                    setups=record["setup_s"])
        finally:
            probe.close()
        with open(probe.report, encoding="utf-8") as fh:
            rep = json.load(fh)
        ends = list(itertools.accumulate(probe.slices))
        bounds = list(zip([0] + ends, ends))
        groups = [rep["latencies_s"][a:b] for a, b in bounds]
        indices = [rep["samples"][a:b] for a, b in bounds]
        errors = rep["errors"]
        attempted = n_samples * len(passes) + ends[-1]
        record["probe"] = {"slices": probe.slices,
                           "first_sample": rep["first_sample"]}
    record["run_s"] = [p["run_s"] for p in passes]
    record["peak_rss_mb"] = [p["rss_mb"] for p in passes]
    failed = check_outputs(wl, passes, arrays, n_samples, record) + len(errors)
    record["errors"] = errors[:5]
    record["latency_samples"] = [len(g) for g in groups]
    record["latency_readings"] = len(best_per_reading(groups, indices))
    record["latency_us"] = stats = latency_stats(groups, indices)
    metrics = {
        "run_s": (statistics.median(record["run_s"]), "s"),
        # the fast end from each reading's best repeat, so it reads the
        # program's cost rather than the share of a run the machine spent
        # slowed down; the tail over every reading, interference included
        # (p99 is in the record; see README for why it is not bounded)
        "tick_p10_us": (stats["best"]["p10"], "us"),
        "tick_p90_us": (stats["pooled"]["p90"], "us"),
        "peak_rss_mb": (statistics.median(record["peak_rss_mb"]), "MB"),
        "setup_s": (statistics.median(record["setup_s"]), "s"),
    }
    return attempted, failed, metrics


def layer_metrics(spans: dict, run_s: float, wl: dict) -> dict:
    L = spans["layers"]

    def s(name, key="s"):
        return L.get(name, {}).get(key, 0.0)

    def calls(name):
        return L.get(name, {}).get("calls", 0)

    live = wl["mode"] == "live"
    cache = spans["shift_cache"]
    lookups = cache["hits"] + cache["misses"]
    return {
        "ingest.parse_csv.s": (s("ingest.parse_csv"), "s"),
        "measure.tick_arrays.s": (s("measure.tick_arrays"), "s"),
        "measure.shift_matrix.s": (s("measure.shift_matrix"), "s"),
        "measure.shift_matrix.calls": (calls("measure.shift_matrix"), "count"),
        "measure.shift_matrix.hit_ratio":
            (cache["hits"] / lookups if lookups else 0.0, "ratio"),
        "kernels.accumulate_block.s": (s("kernels.accumulate_block"), "s"),
        "kernels.accumulate_block.calls":
            (calls("kernels.accumulate_block"), "count"),
        "kernels.accumulate_block.ticks": (spans["accumulated_ticks"], "count"),
        "measure.advance_to.self_s": (s("measure.advance_to", "self_s"), "s"),
        "basis.matrix_from_moments.s": (s("basis.matrix_from_moments"), "s"),
        "basis.matrix_from_moments.calls":
            (calls("basis.matrix_from_moments"), "count"),
        "basis.linearization_table.s": (s("basis.linearization_table"), "s"),
        "gev.solve_pencil.self_s": (s("gev.solve_pencil", "self_s"), "s"),
        "gev.solve_pencil.calls": (calls("gev.solve_pencil"), "count"),
        "gev.resolved.calls": (calls("gev.resolved"), "count"),
        "gev.dims_per_solve": (calls("gev.resolved")
                               / max(calls("gev.solve_pencil"), 1), "ratio"),
        "kernels.symmetric_eigh.calls":
            (calls("kernels.symmetric_eigh"), "count"),
        "indicators.evaluate_at.self_s":
            (s("indicators.evaluate_at", "self_s"), "s"),
        # live has no run_over or _cmd_run: its caller's loop and row
        # formatting stand in for them
        "indicators.run_over.self_s":
            (s("live.stream" if live else "indicators.run_over", "self_s"), "s"),
        "cli.serialize.s":
            (s("live.format" if live else "cli.cmd_run", "self_s"), "s"),
        "trace.run_s": (run_s, "s"),
    }


def consistency(spans: dict, traced_run_s: float, n_ticks_absorbed: int,
                attempted: int, rows: int) -> list[str]:
    """Invariants linking the layer counts to the tape and the output."""
    L = spans["layers"]
    problems = []
    if spans["missing"]:
        return problems  # a layer was renamed away; counts cannot add up
    if spans["accumulated_ticks"] != n_ticks_absorbed:
        problems.append(f"accumulated {spans['accumulated_ticks']} ticks, "
                        f"tape has {n_ticks_absorbed}")
    skipped = L["indicators.evaluate_at"]["raised"]
    solves = L["gev.solve_pencil"]["calls"]
    if solves + skipped != attempted:
        problems.append(f"{solves} solves + {skipped} skipped != "
                        f"{attempted} samples")
    if rows + skipped != attempted:
        problems.append(f"{rows} rows + {skipped} skipped != {attempted}")
    self_sum = sum(v["self_s"] for v in L.values())
    if self_sum > traced_run_s:
        problems.append(f"layer self times {self_sum:.3f}s exceed the "
                        f"traced run {traced_run_s:.3f}s")
    return problems


def absorbed_ticks(t, grid) -> int:
    import numpy as np
    if grid is None:
        return len(t)
    last = float(t[0]) + (sample_count(t, grid) - 1) * grid
    return int(np.searchsorted(t, last, side="right"))


def per_layer(wl, tape, arrays, seconds, t_start, record):
    # self-check of the benchmark's accounting on a small tape
    small = os.path.join(WORK, "selfcheck.tape.csv")
    sa = make_tape(SELFCHECK["synth"], 0, small)
    sp = one_pass(SELFCHECK, small, "selfcheck", True)
    problems = consistency(sp["spans"], sp["wall_s"], absorbed_ticks(sa[0], None),
                           sample_count(sa[0], None), len(read_rows(sp["out"])))

    n_samples = sample_count(arrays[0], wl["grid"])
    passes = measure_passes(wl, tape, seconds, t_start, traced_too=True)
    plain = [p for p in passes if "spans" not in p]
    spanned = [p for p in passes if "spans" in p]
    attempted = n_samples * len(passes)
    failed = check_outputs(wl, passes, arrays, n_samples, record)
    failed += sum(len(p.get("errors", [])) for p in passes)
    spans = spanned[0]["spans"]
    traced_s = statistics.median(p["run_s"] for p in spanned)
    plain_s = statistics.median(p["run_s"] for p in plain)
    problems += consistency(spans, spanned[0]["wall_s"],
                            absorbed_ticks(arrays[0], wl["grid"]), n_samples,
                            len(read_rows(spanned[0]["out"])))
    record["selfcheck_problems"] = problems
    record["spans"] = spans
    record["untraced_run_s"] = [p["run_s"] for p in plain]
    record["traced_run_s"] = [p["run_s"] for p in spanned]
    metrics = layer_metrics(spans, traced_s, wl)
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    metrics["indicators.full_n_frac"] = (record["full_n_frac"], "ratio")
    gaps = record["oracle"]["gaps"]
    metrics["indicators.oracle_gap_max"] = (
        max(gaps["lambda_IH"], gaps["P_IH"], gaps["T_IH"]), "ratio")
    return attempted, failed, metrics


def clean_work() -> None:
    """Empty the work directory of tapes and outputs; keep results."""
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    for f in os.listdir(WORK):
        if f != "results":
            os.remove(os.path.join(WORK, f))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.perf_counter()
    # unwind through the finally blocks that stop child processes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not os.path.isfile(os.path.join(SRC, "psima", "__init__.py")):
        print(f"benchmark: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import psima
    if not os.path.abspath(psima.__file__).startswith(SRC + os.sep):
        print(f"benchmark: psima imported from {psima.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    clean_work()
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "env": environment(args.seed)}
    print("env " + json.dumps(record["env"]), flush=True)
    tape = os.path.join(WORK, "tape.csv")
    try:
        arrays = make_tape(wl["synth"], args.seed, tape)
        record["ticks"] = len(arrays[0])
        mode = per_layer if args.trace else end_to_end
        attempted, failed, metrics = mode(wl, tape, arrays, args.seconds,
                                          t_start, record)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    correct = (failed == 0 and record["deterministic"]
               and not record.get("selfcheck_problems"))
    record.update(correct=correct, attempted=attempted, failed=failed,
                  failed_frac=failed / attempted,
                  metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()},
                  wall_s=time.perf_counter() - t_start)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    clean_work()
    with open(os.path.join(WORK, "results", name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for k, (v, u) in metrics.items():
        print(f"{k:36s} {v:14.6g} {u}")
    print(f"oracle: {record['oracle']['checked']} rows, gaps "
          f"{record['oracle']['gaps']}, failures {record['oracle']['failures'][:3]}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
