"""Record perfbench/reference.json from the current program.

    python3 perfbench/record.py

For every command of every workload, at every size level, it stores what
the checkers compare against: the SHA-256 of the roots and paircorr
output, the CSV row count, the orbit root count, and for density the
digest and size of the coset-term multiset and kappa.  Re-record only
when a change of the program's output is intended and reviewed; a
performance change must leave the reference as it is.
"""

import json
import os
import shutil
import time

from checks import sha256, terms_digest
from run import HERE, ROOT, Runner, _load_captures
from workloads import LEVELS, WORKLOADS, reference_key


def main():
    work = ROOT / ".perfbench" / f"record-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(work, time.monotonic() + 3600.0)
    ref = {}
    try:
        for workload in WORKLOADS.values():
            for i, cmd in enumerate(workload.commands):
                for level in (LEVELS if cmd.size else (0,)):
                    argv = cmd.argv(level)
                    cap = work / "capture"
                    cap.mkdir()
                    out = work / "out"
                    rec = runner.command(argv, out, traced=True, capture=cap)
                    if rec["rc"] != 0:
                        raise RuntimeError(f"{argv} failed: {rec['stderr']}")
                    captures = _load_captures(cap)
                    shutil.rmtree(cap)
                    counters = rec["counters"]
                    kind = argv[0]
                    if kind == "roots":
                        entry = {"sha256": sha256(out.read_bytes()),
                                 "count": counters["roots.kept"]}
                    elif kind == "paircorr":
                        entry = {"sha256": sha256(out.read_bytes())}
                    elif kind == "density":
                        terms = captures["coset_terms-0"]["terms"]
                        entry = {"terms_sha256": terms_digest(terms),
                                 "terms": len(terms),
                                 "kappa": captures["omega-0"]["kappa"]}
                    else:
                        entry = {"roots": len(captures["orbit_roots-0"][0])}
                    ref[reference_key(workload, i, level)] = entry
                    print(reference_key(workload, i, level), entry,
                          flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(
        json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
