"""A fixed task that measures how fast the machine runs right now.

    python3 perfbench/reference_task.py

run.py starts this before each command it times, in a fresh interpreter
as the commands are, and divides the mean pass time of a run by the mean
time of this task in the same run.  On a shared host the speed of a CPU
changes by up to a factor of two within a minute; the ratio cancels most
of that drift, and a change to georoots still moves it in full, since
this task imports no georoots code.  Its work is a small copy of the kinds the
commands do: interpreter start and the numpy import, a pure-Python loop
over tuples, dicts and integers, and numpy array arithmetic, sorting and
counting on arrays of a few MB.  Do not change it: values measured with
another task cannot be compared.
"""

import numpy as np


def interpreter_work(n=30_000):
    seen = {}
    x = 1
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & 4095, i & 7)
        seen[key] = seen.get(key, 0) + (x >> 16)
    return sum(seen.values())


def array_work(n=1 << 18, rounds=3):
    m = np.arange(1, n + 1, dtype=np.int64)
    total = 0
    for r in range(rounds):
        mu = (m * m + 5 + r) % 1_000_003
        order = np.argsort(mu, kind="stable")
        counts = np.bincount(mu[order] & 1023, minlength=1024)
        total += int(counts.max()) + int(mu[order[:64]].sum())
    return total


if __name__ == "__main__":
    print(interpreter_work() + array_work())
