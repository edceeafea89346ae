"""The benchmark's tracer wraps named georoots functions by `getattr`, so
renaming or deleting one of them fails every benchmark run.  Check that
each name in its BOUNDARY table still exists, and that traced commands
run and account for their output."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SRC = ROOT / "src"


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


# The benchmark runs each command under perfbench/child.py with the tracer
# installed.  Run a few small ones the same way: the run must succeed, the
# wrapped writer must see every table, and the bytes it counts must be the
# bytes on stdout.  This catches a changed write_table signature and a
# layer imported past the tracer's rebinding.  The sieve counters check
# that the tracer still reads M from _sieve's second positional argument.
TRACED = [
    (["roots", "--D", "5", "--M", "3000"], "roots._sieve",
     {"roots.sieve_calls": 1, "roots.moduli_sieved": 3000}),
    (["roots", "--D", "-15", "--M", "2000"], "roots.sieve_roots", {}),
    (["paircorr", "--D", "5", "--N", "3000", "--bins", "10", "--class",
      "O2"], "statistics.pair_correlation", {}),
    (["density", "--D", "5", "--qmax", "5", "--step", "0.1", "--class",
      "O2"], "density.enumerate_coset_terms", {}),
]


@pytest.mark.parametrize("argv,layer_span,counters", TRACED,
                         ids=["_".join(a[:3]) for a, _, _ in TRACED])
def test_traced_command_records_its_table(argv, layer_span, counters,
                                          tmp_path):
    capture = tmp_path / "capture"
    capture.mkdir()
    spec = tmp_path / "spec.json"
    record = tmp_path / "record.json"
    spec.write_text(json.dumps({"argv": argv, "record": str(record),
                                "capture": str(capture)}))
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join([str(SRC), str(PERFBENCH)])}
    stdout = tmp_path / "stdout"
    with open(stdout, "wb") as out:
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "child.py"), str(spec)],
            stdout=out, stderr=subprocess.PIPE, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr.decode()
    rec = json.loads(record.read_text())
    assert rec["rc"] == 0
    names = [name for name, *_ in rec["spans"]]
    assert names.count("csvio.write_table") == 1
    assert f"cli.cmd_{argv[0]}" in names and layer_span in names
    assert rec["counters"]["csvio.bytes"] == stdout.stat().st_size > 0
    start, end, meta_lines, out_path = rec["writes"][0]
    assert (start, end, out_path) == (0, stdout.stat().st_size, None)
    for name, want in counters.items():
        assert rec["counters"][name] == want, name
