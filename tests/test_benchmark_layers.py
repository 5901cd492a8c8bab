"""The benchmark's traced run must find every layer it reports in mvdtest.

perfbench/tracing.py wraps each layer "<module>.<function>" of its QUANTITIES
table by name and silently leaves out a layer whose function is missing, so a
renamed function would drop its metrics from every traced run without an error.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _quantities():
    """QUANTITIES of perfbench/tracing.py, loaded without writing a bytecode cache beside it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module.QUANTITIES


@pytest.mark.parametrize("layer", sorted(_quantities()))
def test_layer_names_a_callable_in_mvdtest(layer):
    module_name, func_name = layer.split(".")
    module = importlib.import_module(f"mvdtest.{module_name}")
    assert callable(getattr(module, func_name, None)), f"{layer} is not a function of mvdtest"
