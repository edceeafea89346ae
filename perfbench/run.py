"""georoots benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sieve --seed 3 --seconds 50 --trace 0

Run from a checkout holding src/georoots.  Every command runs through the
real CLI in a fresh single-threaded process (--threads and GEOROOTS_THREADS
unset).  A run makes:

1. a check pass: each command once, traced, with the data the checkers
   need captured; every output is checked (see checks.py).  It also warms
   the page cache and the bytecode cache and is not timed;
2. timed passes while the next one still ends within --seconds (at
   least three of each kind): plain `python3 -m georoots.cli` passes, and
   with --trace 1 also traced passes in alternation.  Before each command
   runs reference_task.py, a fixed task that gauges the machine's current
   speed.  Each pass's stdout must equal the check pass's byte for byte,
   and each traced pass's work counters must equal the check pass's (the
   exact-count guard);
3. set-up samples, one before each timed pass (at least five): a fresh
   interpreter until `georoots.cli` is imported.

The last stdout line is {"correct", "attempted", "failed", "metrics"};
--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1 the
per_layer ones.  wall_ref and cpu_ref are the mean time of a plain pass
divided by the mean time of the run's reference tasks; setup_s and the
per-layer metrics are medians over set-up samples and traced passes.
The full record (machine, versions, seed, per-pass and per-command
figures, reference tasks, checks) goes to
.perfbench/results/ in the checkout.  The exit code is 0 when every check
passed, 1 when one failed, and 2 when the checkout has no program to run.
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from checks import Checks, check_command
from tracer import EXACT_COUNTS, pass_layer_metrics
from workloads import WORKLOADS, plan, reference_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170.0      # the whole run, check pass included
MIN_PASSES = 3           # timed passes of each kind
MIN_SETUPS = 5
SETUP_CODE = "import time, georoots.cli; print(time.monotonic())"
REFERENCE_TASK = HERE / "reference_task.py"


class Runner:
    """Starts the child processes of one run and times them."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        env = dict(os.environ)
        env.pop("GEOROOTS_THREADS", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), str(HERE)] + ([env["PYTHONPATH"]]
                                     if env.get("PYTHONPATH") else []))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = "1"
        self.env = env
        self._serial = 0

    def spawn(self, cmd, stdout_path: Path) -> dict:
        """Run cmd to completion: spawn/exit times, exit code, CPU, RSS."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return {"rc": "timeout", "t_spawn": 0.0, "t_exit": 0.0,
                    "cpu_s": 0.0, "rss_mb": 0.0, "stderr": ""}
        err_path = self.work / "stderr.txt"
        with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            t_exit = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        rc = proc.returncode
        if rc < 0 and time.monotonic() >= self.deadline:
            rc = "timeout"
        return {"rc": rc, "t_spawn": t_spawn, "t_exit": t_exit,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0,
                "stderr": err_path.read_text(errors="replace")[-2000:]}

    def command(self, argv, stdout_path: Path, traced: bool,
                capture: Path = None) -> dict:
        if not traced:
            return self.spawn([sys.executable, "-m", "georoots.cli", *argv],
                              stdout_path)
        self._serial += 1
        spec = self.work / "spec.json"
        record = self.work / f"record-{self._serial}.json"
        spec.write_text(json.dumps({
            "argv": argv, "record": str(record),
            "capture": str(capture) if capture else None}))
        res = self.spawn([sys.executable, str(HERE / "child.py"), str(spec)],
                         stdout_path)
        if record.exists():
            res.update(json.loads(record.read_text()))
            record.unlink()
            res["counters"]["csvio.rows"] = _csv_rows(res["writes"],
                                                      stdout_path)
        return res

    def reference(self, checks: Checks) -> dict:
        """Wall and CPU seconds of one run of the reference task."""
        res = self.spawn([sys.executable, str(REFERENCE_TASK)],
                         self.work / "reference.txt")
        checks.add("reference_task", res["rc"] == 0,
                   f"reference task: exit code {res['rc']}")
        return {"wall_s": res["t_exit"] - res["t_spawn"],
                "cpu_s": res["cpu_s"]}

    def setup_time(self, checks: Checks):
        """Spawn-to-imported seconds of a fresh interpreter, or None."""
        out = self.work / "setup.txt"
        res = self.spawn([sys.executable, "-c", SETUP_CODE], out)
        if checks.add("setup_import", res["rc"] == 0,
                      f"importing georoots.cli: exit code {res['rc']}"):
            return float(out.read_text()) - res["t_spawn"]
        return None


def _csv_rows(writes, stdout_path: Path) -> int:
    """Data rows of the CSV tables a command wrote to its stdout."""
    rows = 0
    with open(stdout_path, "rb") as fh:
        for start, end, meta_lines, out in writes:
            if out is None:
                fh.seek(start)
                rows += fh.read(end - start).count(b"\n") - meta_lines - 1
    return rows


def _load_captures(directory: Path) -> dict:
    out = {}
    for path in sorted(directory.iterdir()):
        if path.suffix == ".npy":
            out[path.stem] = np.load(path)
        else:
            out[path.stem] = json.loads(path.read_text())
    return out


def check_pass(runner, work, workload, level, argvs, sample_seeds, ref,
               checks):
    """The untimed first pass: run traced with captures, check outputs.

    Returns the per-command records and stdout digests, and the items
    the workload's throughput counts.
    """
    records, digests, items = [], [], 0
    for i, argv in enumerate(argvs):
        cap = work / f"capture-{i}"
        cap.mkdir()
        out = work / f"check-{i}.out"
        rec = runner.command(argv, out, traced=True, capture=cap)
        stdout = out.read_bytes()
        key = reference_key(workload, i, level)
        if key not in ref:
            raise KeyError(f"no reference for {key}; see record.py")
        check_command(checks, argv, rec["rc"], stdout, _load_captures(cap),
                      rec.get("counters", {}), ref[key], sample_seeds[i])
        if rec["rc"] != 0:
            print(f"{' '.join(argv)}: {rec['stderr']}", file=sys.stderr)
        records.append(rec)
        digests.append(hashlib.sha256(stdout).digest())
        items += _items(argv, rec)
        shutil.rmtree(cap)
    return records, digests, items


def _items(argv, rec) -> int:
    """The work one command delivers, in the unit of items_per_s."""
    kind = argv[0]
    counters = rec.get("counters", {})
    if kind == "paircorr":
        return int(argv[argv.index("--N") + 1])
    if kind == "roots":
        return counters.get("csvio.rows", 0)
    if kind == "density":
        return counters.get("density.coset_terms", 0)
    return (counters.get("geodesics.orbit_roots", 0)
            + counters.get("negdisc.orbit_roots", 0))


def timed_pass(runner, work, argvs, traced, base_records, base_digests,
               checks, refs) -> dict:
    """One pass; its outputs must repeat the check pass exactly.

    A reference task runs before each command and is appended to `refs`.
    """
    cmds = []
    for i, argv in enumerate(argvs):
        out = work / f"pass-{i}.out"
        refs.append(runner.reference(checks))
        rec = runner.command(argv, out, traced=traced)
        ok = checks.add("exit_code", rec["rc"] == 0,
                        f"{' '.join(argv)}: exit code {rec['rc']}")
        checks.add("stdout_repeats",
                   ok and hashlib.sha256(out.read_bytes()).digest()
                   == base_digests[i],
                   f"{' '.join(argv)}: output differs from the check pass")
        if traced and ok:
            base = base_records[i].get("counters", {})
            diff = {k: (base.get(k, 0), rec["counters"].get(k, 0))
                    for k in EXACT_COUNTS
                    if base.get(k, 0) != rec["counters"].get(k, 0)}
            checks.add("counts_repeat", not diff,
                       f"{' '.join(argv)}: counters changed {diff}")
        cmds.append(rec)
    p = {"traced": traced,
         "wall_s": sum(r["t_exit"] - r["t_spawn"] for r in cmds),
         "cpu_s": sum(r["cpu_s"] for r in cmds),
         "peak_rss_mb": max(r["rss_mb"] for r in cmds),
         "commands": [{"wall_s": r["t_exit"] - r["t_spawn"],
                       "cpu_s": r["cpu_s"]} for r in cmds]}
    if traced and all(r["rc"] == 0 for r in cmds):
        p["layers"] = pass_layer_metrics(cmds)
        checks.add("trace_accounts",
                   abs(p["layers"]["trace.unaccounted_s"]) < 1e-3 * len(cmds),
                   f"spans leave {p['layers']['trace.unaccounted_s']:.6f} s "
                   "of the traced wall time unaccounted")
    return p


def machine_info(seed) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"commit": _git_commit(), "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count(),
            "cpu_model": cpu or platform.processor() or None,
            "platform": platform.platform(), "seed": seed}


def _git_commit():
    """HEAD of the checkout's .git, if it has one (no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _median(values):
    return statistics.median(values) if values else 0.0


def relative_time(passes, refs, key) -> float:
    """Mean pass time over the mean reference-task time of the same run.

    Both means span the whole run, so the machine's drift in speed over
    the run cancels, and short stalls average out in both.
    """
    if not passes or not refs:
        return 0.0
    return (statistics.fmean(p[key] for p in passes)
            / statistics.fmean(r[key] for r in refs))


def run(workload_name, seed, seconds, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ref = json.loads((HERE / "reference.json").read_text())
    workload = WORKLOADS[workload_name]
    level, argvs, sample_seeds = plan(workload, seed)
    deadline = time.monotonic() + RUN_LIMIT_S
    checks = Checks()
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(work, deadline)
        base_records, base_digests, items = check_pass(
            runner, work, workload, level, argvs, sample_seeds, ref, checks)
        kinds = (False, True) if trace else (False,)
        passes, setups, refs, pass_s = [], [], [], []
        start = time.monotonic()
        # a pass starts only if a pass of median length still ends in time
        while not checks.failed() and (
                len(passes) < MIN_PASSES * len(kinds)
                or time.monotonic() - start + _median(pass_s) <= seconds):
            t_pass = time.monotonic()
            setups.append(runner.setup_time(checks))
            traced = kinds[len(passes) % len(kinds)]
            passes.append(timed_pass(runner, work, argvs, traced,
                                     base_records, base_digests, checks,
                                     refs))
            pass_s.append(time.monotonic() - t_pass)
        while not checks.failed() and len(setups) < MIN_SETUPS:
            setups.append(runner.setup_time(checks))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"] and "layers" in p]
    setup_samples = [t for t in setups if t is not None]
    values = {
        "wall_ref": relative_time(plain, refs, "wall_s"),
        "cpu_ref": relative_time(plain, refs, "cpu_s"),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in plain]),
        "setup_s": _median(setup_samples),
        # as measured, for the results file
        "wall_s": _median([p["wall_s"] for p in plain]),
        "cpu_s": _median([p["cpu_s"] for p in plain]),
        "items_per_s": _median([items / p["wall_s"] for p in plain]),
        "reference_s": _median([r["wall_s"] for r in refs]),
    }
    values["items_per_ref"] = (items / values["wall_ref"]
                               if values["wall_ref"] else 0.0)
    for name in (traced[0]["layers"] if traced else ()):
        values[name] = _median([p["layers"][name] for p in traced])
    if traced:
        values["trace.overhead_s"] = (
            _median([p["wall_s"] for p in traced]) - values["wall_s"])

    group = spec["per_layer"] if trace else spec["end_to_end"]
    failed = checks.failed()
    if not failed:
        missing = [m["name"] for m in group if m["name"] not in values]
        if missing:
            raise RuntimeError(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in group}
    attempted = len(checks.results)
    record = {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "trace": trace, "level": level, "argv": argvs, "items": items,
        "machine": machine_info(seed),
        "error_rate": len(failed) / attempted if attempted else 1.0,
        "checks_attempted": attempted,
        "checks_failed": [list(f) for f in failed],
        "passes": passes, "setup_samples": setups, "reference_tasks": refs,
        "values": values,
    }
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y%m%dT%H%M%SZ")
    (results / f"{workload_name}-seed{seed}-trace{trace}-{stamp}-"
               f"{os.getpid()}.json").write_text(json.dumps(record, indent=1))
    for name, ok, detail in failed:
        print(f"check failed: {name}: {detail}", file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0 if not failed else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "georoots" / "cli.py").is_file():
        print(f"error: no georoots sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
