"""The benchmark's tracer wraps named georoots functions by `getattr`, so
renaming or deleting one of them fails every benchmark run.  Check that
each name in its BOUNDARY table still exists."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _boundary():
    # import without writing bytecode next to the benchmark's sources
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("tracer").BOUNDARY
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))


BOUNDARY = sorted(_boundary().items())


@pytest.mark.parametrize("layer,names", BOUNDARY,
                         ids=[layer for layer, _ in BOUNDARY])
def test_tracer_boundary_names_exist(layer, names):
    module = importlib.import_module(f"georoots.{layer}")
    missing = [name for name in names if not callable(getattr(module, name,
                                                              None))]
    assert not missing, f"georoots.{layer} lacks {missing}"
