"""The public surface: exported names and the README's library examples."""

import contextlib
import importlib
import io
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import psima
from psima import serialize_csv
from psima.synth import spike, steady

README = Path(__file__).parents[1] / "README.md"
SUBMODULES = [m.name for m in pkgutil.iter_modules(psima.__path__)]


@pytest.mark.parametrize("module", ["psima"] + [f"psima.{m}"
                                                for m in SUBMODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"{module}.__all__ names {name!r}"


def test_import_loads_no_exact_arithmetic_modules():
    # a fresh interpreter: the Laguerre table is built in Python integers,
    # so importing psima need not pay for fractions or decimal
    code = ("import sys, psima; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def _library_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_the_readme_library_examples_run(tmp_path, monkeypatch):
    blocks = _library_blocks()
    assert len(blocks) >= 3
    tape = spike(steady(2.0, 100.0, 50.0, 300.0, 7), 150.0, 5.0, 10.0, 1.5)
    serialize_csv(tape, tmp_path / "tape.csv")
    monkeypatch.chdir(tmp_path)
    for k, block in enumerate(blocks):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, f"README.md, library block {k}", "exec"), {})
        if "print(" in block:
            assert out.getvalue().strip(), k
