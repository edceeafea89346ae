"""The benchmark's checkers reject corrupted outputs; the tracer accounts.

    python3 -m pytest perfbench/tests
"""

import random
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from checks import (Checks, check_command, check_density,  # noqa: E402
                    check_roots_table, sha256, terms_digest)
from georoots import cli  # noqa: E402
from run import Runner, _load_captures  # noqa: E402
from tracer import pass_layer_metrics  # noqa: E402


def cli_output(tmp_path, *argv) -> bytes:
    out = tmp_path / "out.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


def failed_names(c):
    return {name for name, _, _ in c.failed()}


@pytest.fixture(scope="module")
def roots_table(tmp_path_factory):
    data = cli_output(tmp_path_factory.mktemp("roots"),
                      "roots", "--D", "5", "--M", "3000")
    rows = data.decode().count("\n") - 7     # 6 meta lines and a header
    return data, {"sha256": sha256(data), "count": rows}


def test_roots_checks_accept_real_output(roots_table):
    data, ref = roots_table
    c = Checks()
    check_command(c, ["roots", "--D", "5", "--M", "3000"], 0, data, {}, {},
                  ref, 1)
    assert c.results and not c.failed()


def test_flipped_root_is_rejected(roots_table):
    data, ref = roots_table
    lines = data.decode().split("\n")
    i = next(i for i, line in enumerate(lines) if line.startswith("1009,"))
    m, mu, cls = lines[i].split(",")
    lines[i] = f"{m},{int(mu) + 1},{cls}"
    c = Checks()
    check_roots_table(c, ["roots", "--D", "5", "--M", "3000"],
                      "\n".join(lines), ref, random.Random(1))
    assert "roots.congruence" in failed_names(c)


def test_changed_byte_is_rejected(roots_table):
    data, ref = roots_table
    i = data.index(b",O1\n", len(data) // 2)
    corrupt = data[:i] + b",O2\n" + data[i + 4:]
    c = Checks()
    check_command(c, ["roots", "--D", "5", "--M", "3000"], 0, corrupt, {}, {},
                  ref, 1)
    assert {"stdout_sha256", "roots.class_column"} <= failed_names(c)


def test_garbled_table_is_a_failure_not_a_crash(roots_table):
    data, ref = roots_table
    c = Checks()
    check_command(c, ["roots", "--D", "5", "--M", "3000"], 0,
                  data.replace(b"\n1009,", b"\nx009,"), {}, {}, ref, 1)
    assert {"stdout_sha256", "roots.parse"} <= failed_names(c)


def test_nonzero_exit_is_a_failure(roots_table):
    data, ref = roots_table
    c = Checks()
    check_command(c, ["roots", "--D", "5", "--M", "3000"], 1, data, {}, {},
                  ref, 1)
    assert failed_names(c) == {"exit_code"}


@pytest.fixture(scope="module")
def density_case(tmp_path_factory):
    work = tmp_path_factory.mktemp("density")
    argv = ["density", "--D", "17", "--qmax", "8", "--range", "5",
            "--step", "0.01", "--class", "O1"]
    cap = work / "capture"
    cap.mkdir()
    rec = Runner(work, time.monotonic() + 120.0).command(
        argv, work / "out", traced=True, capture=cap)
    assert rec["rc"] == 0
    captured = _load_captures(cap)
    terms = captured["coset_terms-0"]
    ref = {"terms_sha256": terms_digest(terms["terms"]),
           "terms": len(terms["terms"]), "kappa": captured["omega-0"]["kappa"]}
    return argv, (work / "out").read_text(), terms, ref


def test_density_checks_accept_real_output(density_case):
    argv, text, captured, ref = density_case
    c = Checks()
    check_density(c, argv, text, captured, ref)
    assert c.results and not c.failed()


def test_dropped_coset_term_is_rejected(density_case):
    argv, text, captured, ref = density_case
    dropped = {"terms": captured["terms"][1:], "skipped": captured["skipped"]}
    c = Checks()
    check_density(c, argv, text, dropped, ref)
    assert {"density.terms_multiset", "density.terms_count",
            "density.omega"} <= failed_names(c)


def test_perturbed_density_value_is_rejected(density_case):
    argv, text, captured, ref = density_case
    lines = text.split("\n")
    i = len(lines) // 2
    v, w = lines[i].split(",")
    lines[i] = f"{v},{float(w) * (1 + 1e-7)!r}"
    c = Checks()
    check_density(c, argv, "\n".join(lines), captured, ref)
    assert failed_names(c) == {"density.omega"}


def test_traced_spans_account_for_the_wall_time(tmp_path):
    runner = Runner(tmp_path, time.monotonic() + 120.0)
    cap = tmp_path / "capture"
    cap.mkdir()
    argv = ["paircorr", "--D", "5", "--N", "3000", "--class", "O2"]
    recs = [runner.command(argv, tmp_path / f"out{i}", traced=True,
                           capture=cap if i == 0 else None) for i in range(2)]
    assert [r["rc"] for r in recs] == [0, 0]
    first, second = (pass_layer_metrics([r]) for r in recs)
    assert abs(first["trace.unaccounted_s"]) < 1e-3
    assert first["roots.sieve_calls"] == second["roots.sieve_calls"] >= 2
    assert first["roots.kept"] == 3000
    assert first["csvio.rows"] == 100
    assert 0 < first["roots.kept_ratio"] < 0.5
    points = _load_captures(cap)["pair_correlation-0"]
    assert points.shape == (2, 3000)
