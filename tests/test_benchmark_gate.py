"""The benchmark's correctness gate, run in the test suite.

perfbench/oracle.py checks the rows a benchmark run prints against raw
weighted sums and a from-scratch resample_full + solve_pencil. Here it
checks every row of a short tape, so a change of rounding in the engine
or the solver meets that gate without a benchmark run.
"""

import importlib.util
from dataclasses import asdict
from pathlib import Path

import pytest

from psima import BasisId, run_over, tick_arrays
from psima.synth import spike, steady

_ORACLE = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"


def _bench_oracle():
    spec = importlib.util.spec_from_file_location("bench_oracle", _ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("basis", list(BasisId))
def test_every_row_passes_the_benchmark_oracle(basis):
    # a steady tape of about 400 ticks with one flow spike and price jump
    ticks = spike(steady(1, 100, 100, 400, 7), 200, 8, 30, 1.25)
    assert 350 <= len(ticks) <= 450
    n, tau = 12, 256.0
    samples, degenerate = run_over(ticks, basis, n, tau)
    assert degenerate == 0
    rows = []
    for s in samples:
        row = asdict(s)
        row["t"] = row.pop("t_now")
        rows.append(row)
    report = _bench_oracle().check_rows(rows, tick_arrays(ticks), tau, basis,
                                        n, len(rows))
    assert report["checked"] == len(rows)
    assert report["failures"] == [], report["failures"][:5]
