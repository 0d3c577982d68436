"""Layer spans recorded from outside the program.

``Tracer.install()`` wraps the public entry points of each psima module and
rebinds every module-level name that refers to the original, so calls made
through ``from .x import y`` bindings are seen too. Each call records a
span (layer, start, end, parent span, whether it raised) in memory;
``Tracer.summary()`` folds them into per-layer calls, total time and self time
(span time minus the time its child spans cover).

A layer whose function no longer exists is reported with zero calls
rather than failing the run, so the benchmark keeps working while the
program's internals are rewritten.

Run as a script it executes one workload pass with tracing on and writes
the summary as JSON:

    python3 perfbench/spans.py SUMMARY.json cli run --input tape.csv ...
    python3 perfbench/spans.py SUMMARY.json stream --input tape.csv ...
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# layer name -> (module, attribute path). Names double as metric prefixes.
LAYERS = {
    "ingest.parse_csv": ("psima.ingest", "parse_csv"),
    "measure.tick_arrays": ("psima.measure", "tick_arrays"),
    "measure.advance_to": ("psima.measure", "MomentEngine.advance_to"),
    "measure.shift_matrix": ("psima.measure", "_shift_matrix"),
    "kernels.accumulate_block": ("psima._kernels", "accumulate_block"),
    "basis.linearization_table": ("psima.basis", "linearization_table"),
    "basis.matrix_from_moments": ("psima.basis", "matrix_from_moments"),
    "gev.solve_pencil": ("psima.gev", "solve_pencil"),
    "gev.resolved": ("psima.gev", "_resolved"),
    "kernels.symmetric_eigh": ("psima._kernels", "symmetric_eigh"),
    "indicators.evaluate_at": ("psima.indicators", "evaluate_at"),
    "indicators.run_over": ("psima.indicators", "run_over"),
    "cli.cmd_run": ("psima.cli", "_cmd_run"),
}

def _blank() -> dict:
    return {"calls": 0, "raised": 0, "s": 0.0, "self_s": 0.0, "parents": {}}


class Tracer:
    """Spans of one process, kept in memory until ``summary()``."""

    def __init__(self):
        self.spans: list = []  # (layer, start, end, parent index, raised)
        self.stack: list[int] = []
        self.ticks = 0
        self.missing: list[str] = []
        self.originals: dict = {}

    def wrap(self, layer: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (layer, t0, t1, parent, raised)
        return traced

    def count_ticks(self, fn):
        # accumulate_block(t, p, dV, i0, i1, ...) absorbs ticks i0..i1-1
        @functools.wraps(fn)
        def counted(t, p, dV, i0, i1, *rest, **kwargs):
            self.ticks += max(int(i1) - int(i0), 0)
            return fn(t, p, dV, i0, i1, *rest, **kwargs)
        return counted

    def wrap_function(self, layer: str, owner, attr: str) -> None:
        """Trace ``owner.attr`` under ``layer``; for the benchmark's own code."""
        setattr(owner, attr, self.wrap(layer, getattr(owner, attr)))

    def install(self) -> None:
        """Wrap every layer in LAYERS; call before the traced work starts."""
        for layer, (modname, path) in LAYERS.items():
            try:
                owner = importlib.import_module(modname)
                *parents, attr = path.split(".")
                for name in parents:
                    owner = getattr(owner, name)
                orig = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(layer)
                continue
            self.originals[layer] = orig
            wrapped = self.wrap(layer, orig)
            if layer == "kernels.accumulate_block":
                wrapped = self.count_ticks(wrapped)
            setattr(owner, attr, wrapped)
            if parents:
                continue
            # rebind same-named imports (``from .gev import solve_pencil``)
            for modname2, mod in list(sys.modules.items()):
                if modname2.split(".")[0] == "psima" and mod is not owner \
                        and getattr(mod, attr, None) is orig:
                    setattr(mod, attr, wrapped)

    def summary(self) -> dict:
        """Per-layer calls, total and self seconds, raised calls, parents."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        layers = {name: _blank() for name in LAYERS}
        for i, (layer, t0, t1, parent, raised) in enumerate(self.spans):
            rec = layers.setdefault(layer, _blank())
            rec["calls"] += 1
            rec["raised"] += int(raised)
            rec["s"] += t1 - t0
            rec["self_s"] += (t1 - t0) - child[i]
            pname = self.spans[parent][0] if parent >= 0 else "-"
            rec["parents"][pname] = rec["parents"].get(pname, 0) + 1
        cache = {"hits": 0, "misses": 0}
        info = getattr(self.originals.get("measure.shift_matrix"),
                       "cache_info", None)
        if info is not None:
            ci = info()
            cache = {"hits": ci.hits, "misses": ci.misses}
        return {"layers": layers, "missing": self.missing,
                "accumulated_ticks": self.ticks, "shift_cache": cache,
                "spans": len(self.spans)}


def main(argv: list[str]) -> int:
    out_path, kind, *rest = argv
    tracer = Tracer()
    tracer.install()
    if kind == "cli":
        import psima.cli
        code = psima.cli.main(rest)
    elif kind == "stream":
        import stream
        tracer.wrap_function("live.stream", stream, "stream")
        tracer.wrap_function("live.format", stream, "format_rows")
        code = stream.main(rest)
    else:
        raise SystemExit(f"unknown traced command {kind!r}")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
