"""End-to-end checks of the command line, run in process via main(argv)."""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from georoots.cli import build_parser, config_from_args, main
from georoots.csvio import fmt_float
from georoots.negdisc import sieve_roots_neg
from georoots.roots import RootFilter, sieve_roots
from georoots.statistics import pair_correlation


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def parse_csv(text):
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# "):
            key, _, val = line[2:].partition(" = ")
            meta[key] = val
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


# ---------------------------------------------------------------- roots

def test_roots_opening_sequence(capsys):
    code, out, _ = run_cli(["roots", "--D", "5", "--M", "11"], capsys)
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["m", "mu", "class"]
    assert meta["count"] == "8"
    got = [(int(r[0]), int(r[1]), r[2]) for r in rows]
    assert got == [(1, 0, "O1"), (2, 1, "O2"), (4, 1, "O1"), (4, 3, "O1"),
                   (5, 0, "O1"), (10, 5, "O2"), (11, 4, "O1"), (11, 7, "O1")]


def test_roots_with_congruence_filter(capsys):
    code, out, _ = run_cli(
        ["roots", "--D", "5", "--M", "60", "--n", "4", "--nu", "1"], capsys)
    assert code == 0
    _, _, rows = parse_csv(out)
    seq = sieve_roots(5, 60, RootFilter(4, 1))
    assert [(int(r[0]), int(r[1])) for r in rows] == \
        list(zip(seq.ms.tolist(), seq.mus.tolist()))
    for r in rows:
        assert int(r[0]) % 4 == 0 and int(r[1]) % 4 == 1


def test_roots_rejects_non_residue_discriminant(capsys):
    code, out, err = run_cli(["roots", "--D", "6", "--M", "10"], capsys)
    assert code == 2
    assert out == ""
    assert "mod 4" in err


def test_roots_rejects_bad_filter_residue(capsys):
    # 2^2 = 4 is not 5 mod 4, so the (n, nu) pair is unsatisfiable
    code, _, err = run_cli(
        ["roots", "--D", "5", "--M", "10", "--n", "4", "--nu", "2"], capsys)
    assert code == 2
    assert "nu^2" in err


def test_roots_negative_discriminant(capsys):
    code, out, _ = run_cli(["roots", "--D", "-15", "--M", "30"], capsys)
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["m", "mu", "class"]
    seq = sieve_roots_neg(-15, 30)
    assert [(int(r[0]), int(r[1])) for r in rows] == \
        list(zip(seq.ms.tolist(), seq.mus.tolist()))


def test_roots_out_file(tmp_path, capsys):
    path = tmp_path / "roots.csv"
    code, out, _ = run_cli(
        ["roots", "--D", "5", "--M", "11", "--out", str(path)], capsys)
    assert code == 0
    assert out == ""
    meta, _, rows = parse_csv(path.read_text())
    assert meta["count"] == "8" and len(rows) == 8


def test_json_format(capsys):
    code, out, _ = run_cli(
        ["roots", "--D", "5", "--M", "11", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == ["m", "mu", "class"]
    assert doc["meta"]["count"] == 8
    assert doc["rows"][0] == [1, 0, "O1"]
    assert doc["rows"][-1] == [11, 7, "O1"]


# Stdout digests of `roots` tables that span several write blocks,
# recorded from the per-cell CSV writer before the column writer replaced
# it.
ROOTS_SHA256 = [
    (["--D", "5", "--M", "400000"], "af4f3b15cc65dfea737514e866a261a1"
     "b34c9b41cd94a181a24ef15e553e8d2a"),
    (["--D", "-15", "--M", "200000"], "3a39240e6b9826b477cf7407e47ccd3c"
     "b79b5c1059fba1a5b93b8804c91a2f96"),
    (["--D", "5", "--M", "20000", "--format", "json"],
     "b84075ec92e50c75d311e019c434b005d3af3237b7b59d93fe4e34bab7fca651"),
]


@pytest.mark.parametrize("argv,digest", ROOTS_SHA256,
                         ids=["_".join(a) for a, _ in ROOTS_SHA256])
def test_roots_bytes_pinned(argv, digest, capsys):
    code, out, _ = run_cli(["roots", *argv], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


IMPORTS_SCRIPT = """
import json, sys
import georoots.cli
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith(("georoots", "numpy",
                                         "dataclasses")))))
georoots.cli.main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.startswith("georoots"))))
"""


@pytest.mark.parametrize("argv", [
    ["roots", "--D", "5", "--M", "30"],
    ["paircorr", "--D", "5", "--N", "20", "--bins", "2"],
])
def test_commands_load_only_their_layers(argv):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", IMPORTS_SCRIPT, *argv],
                          capture_output=True, text=True, env=env,
                          check=True)
    lines = proc.stdout.splitlines()
    # importing the CLI loads no layer, nor dataclasses (and its inspect)
    assert json.loads(lines[0]) == ["georoots", "georoots.cli"]
    loaded = set(json.loads(lines[-1]))
    assert "georoots.roots" in loaded
    assert not loaded & {"georoots.density", "georoots.geodesics",
                         "georoots.negdisc", "georoots.orders",
                         "georoots.forms"}


def test_layers_import_no_fractions_or_decimal():
    """Exact arithmetic is on integers: the CLI and its layers load
    neither `fractions` nor the `decimal` module it imports, so a fresh
    process does not compile them.  The empirical layers stand alone:
    they load neither the form and class-group layers nor a thread
    pool."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for layers, banned in [
        ("georoots.cli, georoots.roots, georoots.geodesics, "
         "georoots.density", {"fractions", "decimal"}),
        ("georoots.roots, georoots.statistics, georoots.csvio",
         {"georoots.orders", "georoots.forms", "concurrent.futures"}),
    ]:
        script = (f"import sys\nimport {layers}\n"
                  f"print(sorted({banned!r} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env,
                              check=True)
        assert proc.stdout == "[]\n", layers


# ------------------------------------------------------------- paircorr

def test_paircorr_single_bin_value(capsys):
    code, out, _ = run_cli(["paircorr", "--D", "5", "--N", "4",
                            "--range", "1.1", "--bins", "1"], capsys)
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["center", "count", "r2", "density"]
    assert len(rows) == 1
    assert float(rows[0][2]) == 2.0


# Stdout digests of `paircorr` histograms whose 10^5 points span several
# source chunks, recorded from the block kernel before the neighbour walk
# replaced it.
PAIRCORR_SHA256 = [
    ([], "d2b9de25b4749d9920effd882dbc02c4e9e6292e7adb3e0cd2a85b63747d0ced"),
    (["--class", "O2"],
     "d47427185c27e8e6f20f9344157c6abfdae65cfd1c2fd65d5ea0c3d3aab8614c"),
]


@pytest.mark.parametrize("argv,digest", PAIRCORR_SHA256,
                         ids=["total", "O2"])
def test_paircorr_bytes_pinned(argv, digest, capsys):
    code, out, _ = run_cli(["paircorr", "--D", "5", "--N", "100000",
                            "--range", "5", "--bins", "100", *argv], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_paircorr_needs_two_points(monkeypatch, capsys):
    bounds = _spy_sieve(monkeypatch)
    code, out, err = run_cli(["paircorr", "--D", "5", "--N", "1"], capsys)
    assert code == 2
    assert out == "" and "N >= 2" in err
    assert bounds == []


@pytest.mark.parametrize("D,n,nu", [("5", "4", "1"), ("17", "8", "3"),
                                    ("-3", "4", "5")])
def test_paircorr_unreachable_class_is_a_config_error(D, n, nu, monkeypatch,
                                                      capsys):
    # no O2 root has n | m and mu = nu (mod n) when n is even and
    # (D - nu^2)/n is odd; the first-N search would double forever
    bounds = _spy_sieve(monkeypatch)
    code, out, err = run_cli(["paircorr", "--D", D, "--N", "10", "--n", n,
                              "--nu", nu, "--class", "O2"], capsys)
    assert code == 2
    assert out == "" and "no O2 root" in err
    assert bounds == []
    code, out, _ = run_cli(["paircorr", "--D", D, "--N", "10", "--n", n,
                            "--nu", nu, "--class", "O1", "--bins", "2"],
                           capsys)
    assert code == 0 and bounds


def test_paircorr_class_subsequence(capsys):
    code, out, _ = run_cli(
        ["paircorr", "--D", "5", "--N", "64", "--class", "O2",
         "--bins", "10", "--range", "2.0"], capsys)
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert meta["class"] == "O2"
    seq = sieve_roots(5, 4096)
    sub = seq.subset(~seq.class_tags()).head(64)
    assert bool((sub.ms % 2 == 0).all())
    res = pair_correlation(sub, lo=-2.0, hi=2.0, bins=10)
    assert [int(r[1]) for r in rows] == res.histogram.counts.tolist()


# no subcommand takes --threads: the pair correlation has one sequential
# code path
@pytest.mark.parametrize("argv", [
    ["roots", "--D", "5", "--M", "11"],
    ["density", "--D", "5"],
    ["verify", "--D", "5"],
    ["units", "--D", "5"],
    ["classgroup", "--D", "5"],
    ["paircorr", "--D", "5", "--N", "4"],
    ["figure", "1"],
])
def test_threads_only_on_commands_that_use_them(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


def test_threads_env_ignored_by_commands_without_threads(monkeypatch,
                                                         capsys):
    paircorr = ["paircorr", "--D", "5", "--N", "300", "--bins", "20"]
    monkeypatch.delenv("GEOROOTS_THREADS", raising=False)
    code, base, _ = run_cli(paircorr, capsys)
    assert code == 0
    monkeypatch.setenv("GEOROOTS_THREADS", "zebra")
    code, out, err = run_cli(["roots", "--D", "5", "--M", "11"], capsys)
    assert code == 0 and err == ""
    assert parse_csv(out)[0]["count"] == "8"
    code, out, err = run_cli(paircorr, capsys)
    assert code == 0 and err == ""
    assert out == base


# -------------------------------------------------------------- density

def test_density_header_and_evenness(capsys):
    code, out, _ = run_cli(["density", "--D", "5", "--qmax", "12",
                            "--range", "1.0", "--step", "0.25"], capsys)
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["v", "omega"]
    kappa5 = 12.0 * math.log((3 + math.sqrt(5)) / 2) / math.pi ** 2
    assert meta["kappa"] == fmt_float(kappa5)
    table = {float(r[0]): float(r[1]) for r in rows}
    assert 0.0 not in table
    for v, w in table.items():
        assert abs(w - table[-v]) < 1e-9


# Stdout digests of `density`, recorded while the options were still
# copied into a run-configuration dataclass and the walk still compared
# Q(sqrt D) endpoints for the flavour sign.
DENSITY_SHA256 = [
    (["--D", "5", "--qmax", "12", "--range", "1", "--step", "0.25"],
     "10805d7da5676f84640f3bb666b21e2293e2317ea11a05a40c203cf8624a5c1e"),
    (["--D", "17", "--qmax", "10", "--step", "0.05", "--class", "O1"],
     "3eeb217bd47b55f3958ecf0de5d998b64ea836886a21351fac920991277e9c75"),
    (["--D", "5", "--qmax", "8", "--step", "0.1", "--class", "O2"],
     "c5c7b49801a1cf7cd918ce96fffc016eae48a21d58f2a2addf553e4b416a4d46"),
]


@pytest.mark.parametrize("argv,digest", DENSITY_SHA256,
                         ids=["_".join(a) for a, _ in DENSITY_SHA256])
def test_density_bytes_pinned(argv, digest, capsys):
    code, out, _ = run_cli(["density", *argv], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_density_rejects_negative_discriminant(capsys):
    code, _, err = run_cli(["density", "--D", "-15"], capsys)
    assert code == 2
    assert "D > 0" in err


@pytest.mark.parametrize("rng,step,empty", [
    ("1", "3", True), ("1", "1.4", True), ("1", "1.2", True),
    ("1", "0.7", False),
])
def test_density_empty_grid_is_a_config_error(rng, step, empty, monkeypatch,
                                              capsys):
    """The check reads the grid default_grid builds, not a rule on range
    and step.  The grid stays inside [-range, range]: for step 1.2 the
    point -range + 2 step = 1.4 is dropped, which leaves it empty, and
    for step 0.7 only -1 remains, not 1.1."""
    from georoots import density

    grid = density.default_grid(-float(rng), float(rng), float(step),
                                v_min=float(step))
    assert (grid.size == 0) == empty
    calls = []
    omega = density.omega
    monkeypatch.setattr(density, "omega",
                        lambda *a, **k: calls.append(a) or omega(*a, **k))
    code, out, err = run_cli(["density", "--D", "5", "--qmax", "2",
                              "--range", rng, "--step", step], capsys)
    if empty:
        assert code == 2 and out == "" and calls == []
        assert err.startswith("error:") and "grid" in err
    else:
        assert code == 0 and len(calls) == 1
        assert [float(r[0]) for r in parse_csv(out)[2]] == grid.tolist()


def test_density_rejects_small_qmax(capsys):
    code, _, err = run_cli(["density", "--D", "5", "--qmax", "0.5"], capsys)
    assert code == 2
    assert "qmax" in err


@pytest.mark.parametrize("argv,flag", [
    (["density", "--D", "5", "--qmax", "nan", "--step", "0.1"], "qmax"),
    (["density", "--D", "5", "--qmax", "inf"], "qmax"),
    (["density", "--D", "5", "--step", "nan"], "step"),
    (["density", "--D", "5", "--range", "inf"], "range"),
    (["density", "--D", "5", "--range", "nan"], "range"),
    (["paircorr", "--D", "5", "--N", "1000", "--range", "nan"], "range"),
    (["paircorr", "--D", "5", "--N", "1000", "--range", "inf"], "range"),
])
def test_non_finite_float_options_are_config_errors(argv, flag, capsys):
    """NaN passed every `<= 0` check and printed an all-NaN table; inf
    died inside the command with OverflowError or ValueError."""
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and f"{flag} must be finite" in err


# ---------------------------------------------------- units / classgroup

def test_units_d5(capsys):
    code, out, _ = run_cli(["units", "--D", "5"], capsys)
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["eps1", "eps2", "relation"]
    assert rows == [["9 + 4*sqrt(5)", "(3 + 1*sqrt(5))/2", "Cube"]]


def test_units_d17(capsys):
    code, out, _ = run_cli(["units", "--D", "17"], capsys)
    assert code == 0
    _, _, rows = parse_csv(out)
    assert rows[0][2] == "Equal"


def test_classgroup_positive(capsys):
    code, out, _ = run_cli(["classgroup", "--D", "65"], capsys)
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["side", "index", "m", "mu"]
    assert meta["h1_plus"] == "2" and meta["h2_plus"] == "2"
    assert len(rows) == 4
    assert {r[0] for r in rows} == {"O1", "O2"}


def test_classgroup_negative(capsys):
    code, out, _ = run_cli(["classgroup", "--D", "-15"], capsys)
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["side", "index", "a", "b", "c"]
    assert meta["h1"] == "2" and meta["h2"] == "2"
    forms = {(r[0], int(r[2]), int(r[3]), int(r[4])) for r in rows}
    assert forms == {("O1", 1, 0, 15), ("O1", 3, 0, 5),
                     ("O2", 1, 1, 4), ("O2", 2, 1, 2)}


# Stdout digests of `units` and `classgroup`, recorded from an independent
# implementation (Gauss reduction cycles for the classes, the continued
# fraction of sqrt(D) for the units), so they pin reps and units byte for
# byte.
UNITS_CLASSGROUP_SHA256 = [
    ("units", 5, "66da0f88747b10637c58c7dbcb700b78"
     "68d3ccdac05ed8f5f10786d4a7286f76"),
    ("units", 13, "9d47661a7f83d674982e64867117d4e9"
     "aa337af9dc7b91fbf9a0da0231cc032b"),
    ("units", 17, "8d7cdded9d3aabec49dcfc14f2a6433a"
     "a2f7d91801273ebe7d08e959de2687d2"),
    ("units", 21, "4adf433ef9231e1d2e8197a216270f31"
     "a9a8c4a578c9ade084dbcee9d2119183"),
    ("units", 29, "bd625d7ab188326c007dec70e6538c11"
     "4be81e332b94292caa5dee2db0ea567d"),
    ("units", 61, "6fd5b48beedc69b7955dc113c2cca9b0"
     "aa4d5c7be8bc86128108888d63fe8bd9"),
    ("units", 65, "bfeb9fef27329d16d989e7314f2df2db"
     "a8b88e697ceedbcf686e768f72975bb9"),
    ("units", 109, "343ed32ed4be359f473bc90d4896b865"
     "ad563f565bba99287c1ba100e64c2c87"),
    ("units", 157, "07bb828b475b5a1ccf4eb42f7526f408"
     "db2d8f8b45cac2870379c0562105a35d"),
    ("units", 1997, "7b335b2167fdde19e803d4e76193d158"
     "a135e66f5007fcbf550319a07717dbbf"),
    ("units", 10001, "7bc625b64b591739b1004841ea98c055"
     "e02eca5e2b88731c1c25d962623b1f5e"),
    ("classgroup", 5, "1597feaaa34dfb06ef05171fcacbab2e"
     "0d457af66a48e01d95ce18ff6bb46e59"),
    ("classgroup", 13, "6c0c907b06ac7201a048ac6e25db0f84"
     "e4ca1693017498a158d613692bb8a1b3"),
    ("classgroup", 17, "9a46e450ab0d8f1512eb9aad61d3cd19"
     "4adbf9f634be19db0061737c18a61996"),
    ("classgroup", 21, "7a1ba047f2f5ce7de61c361042430528"
     "2e7e00053557c3216a7951198a5bcdc0"),
    ("classgroup", 29, "74e6e848688804376c03ec99a878ab84"
     "1bd666115bcf153b98638f41dc6be73b"),
    ("classgroup", 61, "dd59f77e376315861996ea7f7e74c71c"
     "267e7622e5022ffd3514aaf2e2101306"),
    ("classgroup", 65, "bffbe23bd4e57b6714419a340938f309"
     "c21e0a30a653afe3c95e50a65d9ea542"),
    ("classgroup", 109, "da9223ad7948e94c6aba25132ca675a6"
     "d2574f1a4fee616f864aa6d64d1ebd41"),
    ("classgroup", 157, "adc38d100456ccb2bb48db23d8851b38"
     "2f9b45f64c766c78b34886f0a027506d"),
    ("classgroup", 1997, "ba5cc4746a250fde95fc87e2e10fc1ec"
     "6c1c49d10e5393cc462f9fb08d45da68"),
    ("classgroup", 10001, "552226c6d2eb1940452104618a774dbc"
     "d8d30ee57f8a2aba60d47a66fe94b9fe"),
]


@pytest.mark.parametrize("cmd,D,digest", UNITS_CLASSGROUP_SHA256)
def test_units_classgroup_bytes_pinned(cmd, D, digest, capsys):
    code, out, _ = run_cli([cmd, "--D", str(D)], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# --------------------------------------------------------------- verify

def test_verify_positive_discriminant(capsys):
    code, out, _ = run_cli(["verify", "--D", "5", "--M", "200"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"] is True
    assert {c["name"] for c in report["checks"]} == {
        "orbit_equals_sieve", "ideal_norm_parity", "unit_relation",
        "base_count_is_class_number"}
    for c in report["checks"]:
        assert c["pass"] is True


def test_verify_negative_discriminant(capsys):
    code, out, _ = run_cli(["verify", "--D", "-3", "--M", "300"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"] is True
    assert {c["name"] for c in report["checks"]} == {
        "orbit_equals_sieve", "parity_partition"}


def test_verify_report_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["verify", "--D", "13", "--M", "150", "--out", str(path)], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["all_pass"] is True


# Stdout digests of `verify`, recorded before stabilizers were rebuilt as
# form automorphs; the orbit checks run every base set's cone walk.
VERIFY_SHA256 = [
    (["--D", "5", "--M", "23000"], "e02958d6779a452e6e27fcbeaed7c965"
     "6171b2133aae147f7cf4da987680cd59"),
    (["--D", "5", "--n", "4", "--nu", "1", "--M", "8000"],
     "92696e41cf6a86f5e1eefa35c47d4ee6a87f8ea6740cb8ae9d9c6f07edfdf112"),
    (["--D", "-15", "--M", "25000"], "62104cee889430ef38b0ade56cf98cfe"
     "64b0d1b93f712a29d6811ba3c38b39d5"),
    (["--D", "61", "--M", "5000"], "35da88c19555bc6d22e7b4fd01608922"
     "210acbc780aeee8e80b83008ff4a47bd"),
    (["--D", "17", "--n", "8", "--nu", "1", "--M", "3000"],
     "af105a6c8cc271ec4e85c2d6e55c7c79dc1df24b8ea96a7381388a9362662dd3"),
    (["--D", "-3", "--M", "5000"], "6675388c4e8c3811f201ac90027d23c9"
     "0c813b63cf29412f197adc58bc6f4087"),
]


@pytest.mark.parametrize("argv,digest", VERIFY_SHA256,
                         ids=["_".join(a) for a, _ in VERIFY_SHA256])
def test_verify_bytes_pinned(argv, digest, capsys):
    code, out, _ = run_cli(["verify", *argv], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Arguments whose first modulus bound reaches 2^31: --M itself, or the
# first sieve of first_n, 2 N (4 N for one order's class).
TOO_LARGE = {
    "roots": [["--D", "5", "--M", str(2**31)],
              ["--D", "5", "--M", "3000000000"]],
    "verify": [["--D", "5", "--M", str(2**31)],
               ["--D", "5", "--M", "3000000000"]],
    "paircorr": [["--D", "5", "--N", str(2**30)],
                 ["--D", "5", "--N", "1100000000"],
                 ["--D", "5", "--N", str(2**29), "--class", "O2"]],
    "figure": [["1", "--N", str(2**30)], ["1", "--N", "1100000000"],
               ["2", "--N", str(2**29)], ["3", "--N", str(2**29)]],
}


@pytest.mark.parametrize("cmd", ["roots", "verify", "paircorr", "figure"])
def test_modulus_bound_too_large_is_a_config_error(cmd, capsys):
    for args in TOO_LARGE[cmd]:
        code, out, err = run_cli([cmd, *args], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "2^31" in err


@pytest.mark.parametrize("argv", [
    ["paircorr", "--D", "5", "--N", str(2**30 - 1)],
    ["paircorr", "--D", "5", "--N", str(2**29 - 1), "--class", "O1"],
    ["figure", "1", "--N", str(2**30 - 1)],
    ["figure", "3", "--N", str(2**29 - 1)],
])
def test_largest_accepted_n(argv):
    # the first bound is 2^31 - 2 or - 4: configuration accepts it
    cfg = config_from_args(build_parser().parse_args(argv))
    assert cfg.N == int(argv[argv.index("--N") + 1])


# --------------------------------------------------------------- figure

def test_figure_files_and_reproducibility(tmp_path, capsys):
    argv = ["figure", "1", "--N", "500", "--outdir", str(tmp_path)]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    emp = tmp_path / "georoots_fig1_empirical.csv"
    th = tmp_path / "georoots_fig1_theory.csv"
    assert str(emp) in out and str(th) in out
    assert emp.exists() and th.exists()

    emeta, ehead, erows = parse_csv(emp.read_text())
    tmeta, thead, trows = parse_csv(th.read_text())
    assert ehead == ["center", "density_total"]
    assert thead == ["v", "omega_total"]
    assert len(erows) == 100 and len(trows) == 100
    assert emeta["N"] == "500"
    assert "kappa" in tmeta and "q_max" in tmeta
    # bin centers on [0, 5] with width 0.05
    assert float(erows[0][0]) == 0.025 and float(erows[-1][0]) == 4.975

    first = emp.read_bytes(), th.read_bytes()
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    assert (emp.read_bytes(), th.read_bytes()) == first


# SHA-256 of both files of figures 2 and 3 at N = 20000, recorded while
# each panel still ran its own first-N loop: one sieve for both panels
# must give the same bytes.
FIGURE_SHA256 = {
    2: ("1990e4c9dd0ce5573b04a7c0df8927cf860ba6852a29f78c8f0ef278d565ee49",
        "999adfd15e1e29c70c80afb23f6cb9453323d38c6a0f557463b33dafa0ab70f3"),
    3: ("65d4112e31564e2582bf1909d4385118910edd906b229fecd715b50201c60d57",
        "e364660e30810e10872dca80bd8bbe1c32c20e74c58b6d3cef9b51fd758ec39a"),
}


@pytest.mark.parametrize("fig", sorted(FIGURE_SHA256))
def test_figure_bytes_pinned(fig, tmp_path, capsys):
    code, _, _ = run_cli(["figure", str(fig), "--N", "20000",
                          "--outdir", str(tmp_path)], capsys)
    assert code == 0
    got = tuple(
        hashlib.sha256((tmp_path / f"georoots_fig{fig}_{kind}.csv")
                       .read_bytes()).hexdigest()
        for kind in ("empirical", "theory"))
    assert got == FIGURE_SHA256[fig]


def _spy_sieve(monkeypatch):
    from georoots import roots

    bounds = []
    sieve = roots._sieve

    def spy(D, M, filt):
        bounds.append(M)
        return sieve(D, M, filt)

    monkeypatch.setattr(roots, "_sieve", spy)
    return bounds


@pytest.mark.parametrize("fig", [2, 3])
def test_figure_sieves_once_per_bound(fig, monkeypatch, tmp_path, capsys):
    # the panels share one first-N loop, so a figure sieves exactly the
    # bounds its most demanding panel would sieve alone
    from georoots.cli import _FIGURES, _first_n_points

    N = 20000
    bounds = _spy_sieve(monkeypatch)
    code, _, _ = run_cli(["figure", str(fig), "--N", str(N),
                          "--outdir", str(tmp_path)], capsys)
    assert code == 0
    figure_bounds = bounds[:]
    D, classes, _ = _FIGURES[fig]
    alone = {}
    for cls in classes:
        bounds.clear()
        _first_n_points(argparse.Namespace(D=D, N=N, n=1, nu=0,
                                           class_filter=cls))
        alone[cls] = bounds[:]
    assert figure_bounds == max(alone.values(), key=len)
    if fig == 2:   # the O2 panel needs a second bound
        assert alone["O2"] == [4 * N, 8 * N] and alone["O1"] == [4 * N]


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_figure_outdir_checked_before_work(kind, monkeypatch, tmp_path,
                                           capsys):
    outdir = tmp_path / "out"
    if kind == "file":
        outdir.write_text("keep\n")
    bounds = _spy_sieve(monkeypatch)
    code, out, err = run_cli(["figure", "1", "--N", "2000",
                              "--outdir", str(outdir)], capsys)
    assert code == 2
    assert out == "" and err.startswith("error:") and "outdir" in err
    assert bounds == []
    assert [p.name for p in tmp_path.iterdir()] == (
        ["out"] if kind == "file" else [])
    if kind == "file":
        assert outdir.read_text() == "keep\n"


def test_figure_needs_two_points_before_work(monkeypatch, tmp_path, capsys):
    bounds = _spy_sieve(monkeypatch)
    code, out, err = run_cli(["figure", "1", "--N", "1",
                              "--outdir", str(tmp_path)], capsys)
    assert code == 2
    assert out == "" and err.startswith("error:") and "N >= 2" in err
    assert bounds == []
    assert list(tmp_path.iterdir()) == []
