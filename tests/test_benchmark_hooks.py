"""The names the benchmark harness in ``perfbench/`` looks up in fraclab.

``perfbench/runner.py`` wraps fraclab functions by name (``WRAPS``) and
``perfbench/run.py`` times ``build_jordan2(build_tables(...))`` as its
set-up, so renaming or removing one of them breaks the benchmark.  These
tests make such a change fail here instead.  The runner is loaded from
its file and only read; nothing in ``perfbench/`` is changed.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import fraclab

RUNNER = Path(__file__).resolve().parents[1] / "perfbench" / "runner.py"


@pytest.fixture(scope="module")
def runner():
    spec = importlib.util.spec_from_file_location("perfbench_runner", RUNNER)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ next to the runner
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_wrapped_names_resolve(runner):
    assert runner.WRAPS
    for name, attributes, _, _ in runner.WRAPS:
        module, func = name.split(".")
        target = getattr(importlib.import_module(f"fraclab.{module}"), func, None)
        assert callable(target), name
        for attribute in attributes:
            importlib.import_module(f"fraclab.{attribute.split('.')[0]}")


def test_sweep_span_reads_fast_and_exact(runner):
    # the runner tags each sweep span from these two arguments
    module, func = runner.SWEEP.split(".")
    sweep = getattr(importlib.import_module(f"fraclab.{module}"), func)
    assert {"fast", "exact"} <= set(inspect.signature(sweep).parameters)


def test_setup_expression_runs():
    j2 = fraclab.build_jordan2(fraclab.build_tables(1000))
    assert isinstance(j2, np.ndarray) and j2.shape == (1001,)
