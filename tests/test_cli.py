import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psima import (BasisId, InputError, MeasureKind, MomentEngine, cli,
                   indicators, parse_csv, resample_full, run_blocks, run_over,
                   serialize_csv, tick_arrays)
from psima.synth import spike, steady

HEADER = "t,p_last,P_tau,P_IH,lambda_IH,lambda_IL,T_IH,T_tau,P_aver,effective_n"


def run_cli(*args, stdin=None, env_extra=None, timeout=120):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "psima.cli", *args],
                          input=stdin, capture_output=True, text=True,
                          env=env, timeout=timeout)


@pytest.fixture(scope="module")
def tape(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "tape.csv"
    r = run_cli("synth", "--seed", "7", "--rate", "2", "--flow", "100",
                "--price", "50", "--duration", "400",
                "--spike", "200:5:10:1.5", "--output", str(path))
    assert r.returncode == 0, r.stderr
    return path


def test_run_emits_expected_header_and_rows(tape):
    r = run_cli("run", "--input", str(tape), "--tau", "64", "--n", "8")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0] == HEADER
    n_ticks = len(tape.read_text().splitlines()) - 1
    assert len(lines) - 1 == n_ticks
    row = lines[-1].split(",")
    assert len(row) == 10
    float(row[0])
    assert int(row[9]) >= 1


def test_std_flag_appends_column(tape):
    r = run_cli("run", "--input", str(tape), "--tau", "64", "--n", "6",
                "--std")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0] == HEADER + ",p_std"
    assert all(len(ln.split(",")) == 11 for ln in lines[1:])
    # spike shifts prices, so late-window deviation must be visible
    assert any(float(ln.split(",")[10]) > 0.0 for ln in lines[1:])


def test_usage_errors_exit_1():
    assert run_cli("run").returncode == 1  # missing --input
    assert run_cli("nonsense").returncode == 1
    assert run_cli("run", "--input", "x.csv", "--basis", "relish"
                   ).returncode == 1


def test_missing_input_file_exits_2(tmp_path):
    r = run_cli("run", "--input", str(tmp_path / "absent.csv"))
    assert r.returncode == 2
    assert "psima:" in r.stderr


def test_malformed_input_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,100,5\n1,hello,5\n")
    r = run_cli("run", "--input", str(bad))
    assert r.returncode == 2
    assert "line 2" in r.stderr


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_non_utf8_input_names_the_line(tmp_path, source):
    body = b"1,100,5\n2,100,5\n3,1\xe900,5\n"
    path = tmp_path / "latin1.csv"
    path.write_bytes(body)
    r = subprocess.run(
        [sys.executable, "-m", "psima.cli", "run", "--input",
         str(path) if source == "file" else "-"],
        input=None if source == "file" else body, capture_output=True,
        timeout=120)
    err = r.stderr.decode("utf-8", "replace")
    assert r.returncode == 2, err
    assert "line 3: not valid UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("lead", ["\ufeff", "\ufefftime,price,shares\n",
                                  "\ntime,price,shares\n"])
def test_byte_order_mark_and_blank_first_line(tape, tmp_path, source, lead):
    # the rows of the tape, whether it begins with a byte-order mark, with
    # a header after a blank line, or both
    rows = "".join(tape.read_text().splitlines(keepends=True)[1:])
    ref = run_cli("run", "--input", str(tape), "--tau", "32")
    body = lead + rows
    path = tmp_path / "lead.csv"
    path.write_text(body, encoding="utf-8")
    r = run_cli("run", "--input", str(path) if source == "file" else "-",
                "--tau", "32", stdin=None if source == "file" else body)
    assert ref.returncode == r.returncode == 0, r.stderr
    assert r.stdout == ref.stdout


def test_time_reversal_exits_2(tmp_path):
    bad = tmp_path / "rev.csv"
    bad.write_text("5,100,5\n1,100,5\n")
    r = run_cli("run", "--input", str(bad))
    assert r.returncode == 2


def test_all_degenerate_exits_3(tmp_path):
    quiet = tmp_path / "quiet.csv"
    quiet.write_text("".join(f"{i},100.0,0\n" for i in range(20)))
    r = run_cli("run", "--input", str(quiet), "--tau", "8", "--n", "4")
    assert r.returncode == 3
    assert "degenerate" in r.stderr


def test_output_deterministic_across_runs(tape):
    args = ("run", "--input", str(tape), "--tau", "64", "--n", "8",
            "--basis", "chebyshev")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_stdin_matches_file_input(tape):
    body = tape.read_text()
    via_file = run_cli("run", "--input", str(tape), "--tau", "32")
    via_pipe = run_cli("run", "--input", "-", "--tau", "32", stdin=body)
    assert via_file.returncode == via_pipe.returncode == 0
    assert via_file.stdout == via_pipe.stdout


def test_output_file_matches_stdout(tape, tmp_path):
    out = tmp_path / "ind.csv"
    to_file = run_cli("run", "--input", str(tape), "--tau", "64",
                      "--output", str(out))
    assert to_file.returncode == 0 and to_file.stdout == ""
    to_stdout = run_cli("run", "--input", str(tape), "--tau", "64")
    assert out.read_text() == to_stdout.stdout


def test_grid_sampling(tape):
    r = run_cli("run", "--input", str(tape), "--tau", "64", "--grid", "16")
    assert r.returncode == 0, r.stderr
    ts = [float(ln.split(",")[0]) for ln in r.stdout.splitlines()[1:]]
    assert len(ts) > 5
    steps = [b - a for a, b in zip(ts, ts[1:])]
    assert all(abs(s - 16.0) < 1e-9 for s in steps)
    tape_t = [float(ln.split(",")[0])
              for ln in tape.read_text().splitlines()[1:]]
    assert ts[0] == tape_t[0]
    assert ts[-1] <= tape_t[-1]


def test_time_of_day_input_needs_date(tmp_path):
    tod = tmp_path / "tod.csv"
    tod.write_text("09:30:00,100.0,10\n09:30:01,101.0,20\n")
    assert run_cli("run", "--input", str(tod)).returncode == 2
    ok = run_cli("run", "--input", str(tod), "--date", "2024-03-05",
                 "--tau", "4", "--n", "2")
    assert ok.returncode == 0, ok.stderr


@pytest.mark.parametrize("args,name", [
    (("run", "--tau", "nan"), "tau"),
    (("run", "--tau", "inf"), "tau"),
    (("run", "--grid", "nan"), "grid"),
    (("run", "--grid", "1e-300"), "grid"),    # would not advance the clock
    (("synth", "--rate", "nan"), "rate"),
    (("synth", "--duration", "nan"), "duration"),
    (("synth", "--duration", "inf"), "duration"),
    (("synth", "--spike", "10:nan:1"), "magnitude"),
    (("run", "--grid", "1e-12"), "grid"),     # ~4e14 samples
])
def test_bad_numeric_parameters_exit_2(tape, args, name):
    # none of these may hang, print NaN rows or end in a traceback
    if args[0] == "run":
        args += ("--input", str(tape))
    r = run_cli(*args, timeout=60)
    assert r.returncode == 2, r.stderr
    assert name in r.stderr
    assert "Traceback" not in r.stderr


def test_gaps_past_the_prune_horizon_run_clean(tmp_path):
    # at tau 1e-300 every gap is past the horizon; a shift matrix built
    # for such a gap would overflow and poison the solve
    path = tmp_path / "short.csv"
    assert run_cli("synth", "--seed", "7", "--rate", "2", "--duration",
                   "100", "--output", str(path)).returncode == 0
    for basis in ("laguerre", "legendre"):
        r = run_cli("run", "--input", str(path), "--tau", "1e-300",
                    "--basis", basis, timeout=60)
        assert r.returncode == 0, r.stderr
        assert "Traceback" not in r.stderr
        assert len(r.stdout.splitlines()) > 150


def test_synth_stdout_roundtrip():
    r = run_cli("synth", "--seed", "3", "--duration", "100")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "time,price,shares"
    assert len(lines) > 50
    again = run_cli("synth", "--seed", "3", "--duration", "100")
    assert again.stdout == r.stdout


def test_synth_bad_spike_exits_2():
    assert run_cli("synth", "--spike", "10:2").returncode == 2
    assert run_cli("synth", "--spike", "a:b:c").returncode == 2


def test_selftest_passes_and_reports():
    r = run_cli("selftest")
    assert r.returncode == 0, r.stdout + r.stderr
    lines = r.stdout.splitlines()
    assert sum(ln.startswith("ok ") for ln in lines) == 10
    assert "ok shift-matrix-identity" in lines
    assert "ok cosine-table-vs-recurrences" in lines
    assert "ok quiet-spell-congruence" in lines
    assert "ok probe-certificate-vs-gate" in lines
    assert lines[-1] == "all 10 checks passed"


# a solver whose eigenvalues are off by 1e-6 relative, in a process that
# strips assert statements (python -O)
_SHIFTED_SOLVER = """
import dataclasses
import sys

from psima import cli

if not sys.flags.optimize:
    sys.exit("not running under -O")
solve = cli.solve_pencil


def shifted(*args, **kwargs):
    dec = solve(*args, **kwargs)
    return dataclasses.replace(dec, lambdas=dec.lambdas * (1.0 + 1e-6))


cli.solve_pencil = shifted
sys.exit(cli.main(["selftest"]))
"""


def test_selftest_fails_under_python_O():
    r = subprocess.run([sys.executable, "-O", "-c", _SHIFTED_SOLVER],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 1, r.stdout + r.stderr
    lines = r.stdout.splitlines()
    assert lines[2].startswith("FAIL pencil-vs-determinant-bisection")
    assert lines[-1] == "1 of 10 checks failed"


def test_selftest_catches_probe_states_that_rule_out_too_much(monkeypatch):
    # states that rule a Gram out from half the conditioning cap up
    # would drop dimensions the resolution gate passes
    from psima import cli, gev
    monkeypatch.setattr(gev, "_CERTIFIED_CAP", 0.5 * gev.KAPPA_CAP)
    with pytest.raises(AssertionError):
        cli._check_probe_certificate()

def test_log_env_smoke(tape):
    r = run_cli("run", "--input", str(tape), "--tau", "64",
                env_extra={"PSIMA_LOG": "debug"})
    assert r.returncode == 0


# Fields a tape may carry besides ordinary numbers: non-finite, subnormal,
# huge, negative and garbage.
WILD = st.sampled_from([
    "nan", "inf", "-inf", "NaN", "1e999", "5e-324", "2.2e-308", "1e-310",
    "1e150", "1e200", "1e300", "1.7976931348623157e308",
    "-1.7976931348623157e308", "-1", "-0.0", "0", "-1e-320", "abc", "",
    "1,2", "0x10", "1_000", "é", "12:00:00",
])
# ordinary values two times in three, extreme ones otherwise
PRICES = st.one_of(st.floats(1e-3, 1e4).map(repr),
                   st.floats(1e-3, 1e4).map(repr),
                   st.sampled_from(["5e-324", "1e-300", "1e150"]))
SHARES = st.one_of(st.floats(0.0, 1e6).map(repr),
                   st.floats(0.0, 1e6).map(repr),
                   st.sampled_from(["0", "5e-324", "1e-300", "1e300"]))
GAPS = st.sampled_from([0.0, 1e-9, 0.5, 1.0, 7.0, 1e4, 0.5, 1.0, 1e300])


@st.composite
def wild_tapes(draw):
    """A short tape of mostly valid rows with a few wild fields."""
    t = draw(st.sampled_from([0.0, -1e300, 1e9]))
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        t += draw(GAPS)
        rows.append([repr(t), draw(PRICES), draw(SHARES)])
    for _ in range(draw(st.sampled_from([0, 0, 1, 3]))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, 2))] = draw(WILD)
    return "".join(",".join(r) + "\n" for r in rows)


# bounded to keep tier-1 fast; a sweep of 3,000 examples passes as well
@settings(max_examples=60, deadline=None)
@given(tape=wild_tapes(),
       basis=st.sampled_from(["laguerre", "legendre", "chebyshev"]),
       n=st.sampled_from(["1", "3", "12"]),
       tau=st.sampled_from(["1e-300", "2", "256", "1e300"]),
       extra=st.sampled_from([[], ["--std"], ["--grid", "0.75"]]))
def test_run_on_wild_tapes_exits_cleanly(tape, basis, n, tau, extra):
    # in-process, so an exception or warning escaping main fails the test
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "tape.csv")
        out = os.path.join(tmp, "out.csv")
        with open(src, "w", encoding="utf-8") as fh:
            fh.write(tape)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["run", "--input", src, "--output", out,
                             "--basis", basis, "--n", n, "--tau", tau]
                            + extra)
        assert code in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 0:
            with open(out, encoding="utf-8") as fh:
                rows = fh.read().splitlines()[1:]
            assert rows
            for row in rows:
                assert all(math.isfinite(float(v)) for v in row.split(","))


def main_out(*args):
    """cli.main in-process; (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(args))
    return code, out.getvalue()


@pytest.fixture(scope="module")
def tape600(tmp_path_factory):
    path = tmp_path_factory.mktemp("blocks") / "tape600.csv"
    ticks = spike(steady(2.0, 100.0, 50.0, 300.0, 5), 150.0, 8.0, 15.0, 1.25)
    assert 550 <= len(ticks) <= 650
    serialize_csv(ticks, str(path))
    return path


@pytest.mark.parametrize("basis", ["laguerre", "legendre", "chebyshev"])
@pytest.mark.parametrize("grid", [[], ["--grid", "10"]])
def test_output_does_not_depend_on_the_block_size(tape600, basis, grid,
                                                   monkeypatch):
    # each block is solved and written on its own, so the rows must not
    # see where the blocks were cut
    args = ["run", "--input", str(tape600), "--basis", basis, "--tau", "32",
            "--std"] + grid
    ticks = parse_csv(str(tape600))
    step = float(grid[1]) if grid else None
    outs = []
    for block in (1, 7, 256, 4096):
        monkeypatch.setattr(indicators, "_BLOCK", block)
        code, text = main_out(*args)
        assert code == 0
        outs.append(text)
        samples, skipped = run_over(ticks, BasisId.parse(basis), 12, 32.0,
                                    step)
        blocks = list(run_blocks(ticks, BasisId.parse(basis), 12, 32.0,
                                 step))
        assert len(blocks) == -(-(len(samples) + skipped) // block)
        assert [s for b, _ in blocks for s in b] == samples
        assert sum(k for _, k in blocks) == skipped
    assert outs[0].count("\n") > (500 if not grid else 25)
    assert all(text == outs[0] for text in outs[1:])


# tapes psima run refuses: a bad line, the overflow tapes of
# test_overflowing_tapes_are_refused, and a tape with no volume at all
FAILING_TAPES = {
    "bad line": ("0,100,5\n1,hello,5\n", 2),
    "overflow from zero": ("0,100,0\n1e300,100,5\n", 2),
    "overflow at 1e300": ("1e300,100,5\n2e300,100,5\n", 2),
    "no volume": ("".join(f"{i},100.0,0\n" for i in range(20)), 3),
}


@pytest.mark.parametrize("name", FAILING_TAPES)
@pytest.mark.parametrize("block", [1, 256])
def test_a_failed_run_leaves_the_output_path_as_it_was(tmp_path, name, block,
                                                       monkeypatch):
    body, want = FAILING_TAPES[name]
    tape = tmp_path / "tape.csv"
    tape.write_text(body)
    folder = tmp_path / "out"
    folder.mkdir()
    out = folder / "ind.csv"
    out.write_bytes(b"earlier,run\n")
    monkeypatch.setattr(indicators, "_BLOCK", block)
    args = ["run", "--input", str(tape), "--basis", "laguerre", "--n", "4",
            "--tau", "2"]
    assert main_out(*args, "--output", str(out)) == (want, "")
    assert out.read_bytes() == b"earlier,run\n"
    assert os.listdir(folder) == ["ind.csv"]
    code, text = main_out(*args)
    assert code == want
    if name == "overflow at 1e300" and block == 1:
        # on stdout the rows of the blocks before the refused one stay
        assert text.splitlines()[0] == HEADER and text.count("\n") == 2
    else:
        assert text == ""


def test_a_run_replaces_the_output_file(tape, tmp_path):
    out = tmp_path / "ind.csv"
    out.write_text("earlier,run\n" * 100000)
    code, text = main_out("run", "--input", str(tape), "--tau", "64",
                          "--n", "4", "--output", str(out))
    assert (code, text) == (0, "")
    assert out.read_text() == main_out("run", "--input", str(tape), "--tau",
                                       "64", "--n", "4")[1]
    assert os.listdir(tmp_path) == ["ind.csv"]


def test_run_memory_grows_by_the_tick_columns_alone(tmp_path):
    # psima run holds the tick columns (24 bytes a tick) and one block:
    # no Tick objects, sample list or output text grow with the tape
    ticks = steady(2.0, 100.0, 50.0, 2100.0, 9)
    peaks = []
    for size in (1000, 1000, 4000):  # the first run fills the caches
        tape = tmp_path / f"tape{size}.csv"
        serialize_csv(ticks[:size], str(tape))
        tracemalloc.start()
        try:
            code, _ = main_out("run", "--input", str(tape), "--n", "4",
                               "--output", str(tmp_path / "out.csv"))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    assert len(ticks) >= 4000
    assert (peaks[2] - peaks[1]) / 3000 < 200, peaks


def test_an_output_folder_that_is_missing_exits_2_naming_the_path(tape,
                                                                   tmp_path):
    out = tmp_path / "absent" / "ind.csv"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["run", "--input", str(tape), "--n", "2",
                         "--output", str(out)])
    assert code == 2
    assert f"No such file or directory: '{out}'" in err.getvalue()


_FIELDS_MSG = "tick times, prices and shares must be finite"
_SIGN_MSG = "tick prices must be positive and shares nonnegative"
_BAD_TAPES = {
    "a nan field": ([(0, 100, 1), (math.nan, 100, 1), (2, 100, 1)], 2,
                    _FIELDS_MSG),
    "a price of 0": ([(0, 100, 1), (1, 0, 1)], 2, _SIGN_MSG),
    "negative shares": ([(0, 100, 1), (1, 100, -5)], 2, _SIGN_MSG),
    "a p^2 dV overflow": ([(0, 100, 1), (1, 1e200, 1e200)], 2,
                          "price * price * shares of a tick must be finite"),
    "a backwards time": ([(0, 100, 1), (5, 100, 1), (3, 100, 1)], 3,
                         "tick times must be nondecreasing"),
    "an infinite step": ([(-1e308, 100, 1), (1e308, 100, 1)], 2,
                         "the time step from one tick to the next must be "
                         "finite"),
    # backwards at line 3, an overflow at line 4: the first bad tick wins
    "two faults": ([(0, 100, 1), (5, 100, 1), (3, 100, 1),
                    (6, 1e200, 1e200)], 3, "tick times must be nondecreasing"),
}


@pytest.mark.parametrize("name", _BAD_TAPES)
def test_the_cli_and_the_library_refuse_a_bad_tick_alike(tmp_path, name):
    rows, line, message = _BAD_TAPES[name]
    path = tmp_path / "bad.csv"
    path.write_text("".join(f"{t!r},{p!r},{v!r}\n" for t, p, v in rows))
    out = tmp_path / "ind.csv"
    out.write_text("kept\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["run", "--input", str(path), "--n", "2",
                         "--output", str(out)])
    assert (code, err.getvalue()) == (2, f"psima: line {line}: {message}\n")
    assert out.read_text() == "kept\n"
    exact = f"^{re.escape(message)}$"
    with pytest.raises(InputError, match=f"^line {line}: {re.escape(message)}$"):
        parse_csv(str(path))
    with pytest.raises(InputError, match=exact):
        tick_arrays(rows)
    with pytest.raises(InputError, match=exact):
        run_over(rows, BasisId.CHEBYSHEV, 2, 10.0)
    with pytest.raises(InputError, match=exact):
        resample_full(rows, 0.0, 10.0, BasisId.CHEBYSHEV, 3,
                      MeasureKind.TIME_DT)
    t, p, dV = (np.array(c, dtype=float) for c in zip(*rows))
    # one tick a step, each at its own time where that time is usable:
    # ticks before the bad one pass and the bad one is refused
    eng = MomentEngine(BasisId.CHEBYSHEV, 2, 10.0)
    for k in range(line - 1):
        eng.advance_to(t[k], t, p, dV, k, k + 1)
    at = t[line - 1] if t[line - 1] >= eng.t_now else eng.t_now
    with pytest.raises(InputError, match=exact):
        eng.advance_to(at, t, p, dV, line - 1, line)
    with pytest.raises(InputError, match=exact):
        MomentEngine(BasisId.CHEBYSHEV, 2, 10.0).advance_steps(
            [0.0], t, p, dV, 0, [len(t)])
