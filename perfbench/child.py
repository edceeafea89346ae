"""Run one georoots CLI command with the tracer installed.

    python3 perfbench/child.py SPEC.json

SPEC holds {"argv": [...], "record": path, "capture": dir or null}.  The
command writes its normal output to this process's stdout; the spans,
counters and the monotonic times just before and after `cli.main` go to
the record file.  Plain (untraced) passes do not use this file: they run
`python3 -m georoots.cli` directly.
"""

import json
import sys
import time

from tracer import Tracer


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    from georoots import cli

    tracer = Tracer(spec["capture"])
    tracer.install()
    t_main_start = time.monotonic()
    rc = cli.main(spec["argv"])
    sys.stdout.flush()
    t_main_end = time.monotonic()
    record = tracer.record()
    record.update(rc=rc, t_main_start=t_main_start, t_main_end=t_main_end)
    with open(spec["record"], "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
