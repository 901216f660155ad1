"""The benchmark's inputs still run: ``perfbench/workloads.py`` draws them
with the package's generators and writers, and the tracer wraps
``LatticeMap.__post_init__``, so a change to ``src/`` that drops either
breaks the benchmark.  The module is loaded from its file, read-only."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from degenkit import cli
from degenkit.lattice import LatticeMap

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)    # no cache file beside it
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def test_the_tracer_can_wrap_the_map_constructor():
    assert callable(vars(LatticeMap)["__post_init__"])


@pytest.mark.parametrize("workload", ["desk-mix", "oracle-ladder", "wide-normal-forms"])
def test_every_twentieth_op_exits_zero(workloads, workload, tmp_path):
    assert workload in workloads.WORKLOADS
    files, manifest = workloads.build(workload, 1, str(tmp_path))
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    ops = manifest["ops"][::20]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes = [(op["argv"], cli.main(op["argv"])) for op in ops]
    assert ops and [argv for argv, code in codes if code != 0] == []
