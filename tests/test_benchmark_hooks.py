"""The names and output the benchmark harness in ``perfbench/`` relies on.

``perfbench/runner.py`` wraps fraclab functions by name (``WRAPS``),
``perfbench/run.py`` times ``build_jordan2(build_tables(...))`` as its
set-up, and ``perfbench/checks.py`` refuses a ``verify`` output whose
shape it does not expect, so renaming or removing one of them, or
reshaping ``verify``'s stdout, breaks the benchmark.  These tests make
such a change fail here instead.  The runner and the checks are loaded
from their files and only read; nothing in ``perfbench/`` is changed.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import fraclab
from test_cli import VERIFY_STDOUT

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.fixture(scope="module")
def runner():
    return _load("runner")


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


def test_pinned_verify_stdout_passes_the_benchmark_check():
    _load("checks").check_verify(VERIFY_STDOUT)
