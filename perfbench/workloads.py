"""The benchmark's workloads: CLI commands whose sizes the seed perturbs.

Each workload is a list of georoots commands run one after another, each in
a fresh process.  A seed picks one size level, which scales every N and M
of the workload by the same few percent, and the samples the output
checkers draw.  D stays at the paper's 5, 17 and -15.  The density
commands have no N or M, so their argv is the same for every seed.
"""

import random
from dataclasses import dataclass

LEVELS = (-2, -1, 0, 1, 2)   # percent added to N and M


@dataclass(frozen=True)
class Command:
    template: str        # CLI arguments; {size} is the seeded N or M
    size: int = None     # nominal N or M

    def argv(self, level: int) -> list:
        args = self.template.split()
        if self.size is None:
            return args
        size = str(self.size * (100 + level) // 100)
        return [size if a == "{size}" else a for a in args]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple


WORKLOADS = {w.name: w for w in (
    # The empirical pipeline: first-N sieve plus pair correlation (the O2
    # run re-sieves and discards a class), then fixed-M sieves written as
    # CSV.  No walk runs.  Items: roots delivered to pair_correlation or
    # written as CSV rows.
    Workload(
        "sieve",
        (Command("paircorr --D 5 --N {size} --range 5 --bins 100", 300_000),
         Command("paircorr --D 5 --N {size} --range 5 --bins 100 --class O2",
                 75_000),
         Command("roots --D 5 --M {size}", 400_000),
         Command("roots --D -15 --M {size}", 200_000))),
    # The theoretical pipeline and the orbit checks: double-coset walks
    # (canonicalization-bound for D=5, expansion-bound for D=17) with the
    # H sum, then orbit walks matched to fixed-M sieves.  No first-N sizing
    # runs.  Items: coset terms kept plus orbit roots matched to the sieve.
    Workload(
        "walks",
        (Command("density --D 5 --qmax 10 --range 5 --step 0.001 "
                 "--class O2"),
         Command("density --D 17 --qmax 60 --range 5 --step 0.001 "
                 "--class O1"),
         # 23000: from M = 25250 up the orbit walk's tables double, which
         # would put a step in memory and time inside the seeded +-2 %
         Command("verify --D 5 --M {size}", 23_000),
         Command("verify --D 5 --n 4 --nu 1 --M {size}", 8_000),
         Command("verify --D -15 --M {size}", 25_000))),
)}


def plan(workload: Workload, seed: int):
    """(size level, argv per command, sample seed per command) for a seed."""
    rng = random.Random(seed)
    level = rng.choice(LEVELS)
    argvs = [c.argv(level) for c in workload.commands]
    return level, argvs, [rng.randrange(2**32) for _ in argvs]


def reference_key(workload: Workload, index: int, level: int) -> str:
    if workload.commands[index].size is None:
        return f"{workload.name}/{index}"
    return f"{workload.name}/{index}/{level}"


def options(argv: list) -> dict:
    """--key value pairs of a CLI argv (subcommand excluded)."""
    return dict(zip(argv[1::2], argv[2::2]))
