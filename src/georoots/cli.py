"""Command-line interface: root enumeration, statistics, densities, figures.

Subcommands
-----------
roots       sieve the root sequence, one row per root
paircorr    empirical pair-correlation histogram of the first N roots
density     theoretical pair-correlation density on a v grid
figure      paired empirical + theoretical data files (figures 1, 2, 3)
verify      correspondence test battery with a JSON report
units       totally positive fundamental units of the two orders
classgroup  narrow class representatives (definite classes for D < 0)

Exit codes: 0 success, 1 runtime failure, 2 invalid input
(`georoots.InputError`).  Each input rule has one owner, which raises
InputError before any sieve or walk: config_from_args checks the
options (bins, M, N >= 2, outdir, range, step, qmax), and the layers
check D, the filter (n, nu), the order class and the first-N bound.
The walks check qmax and M >= 1 as well, and `pair_correlation` bins,
N >= 2 and a finite window (`config_from_args` says why the CLI keeps
its copies).

A georoots process runs without cyclic garbage collection: `entry`, the
entry point of the console script and of `python -m georoots.cli`,
switches the collector off before main() and freezes the heap before
exit.  A command makes a constant amount of cyclic garbage, however
large its input, so nothing piles up (`entry` gives the argument).
Importing this module, and calling main() in process, leave the
collector as it was.

The parsed argparse namespace is the run configuration: each command
receives it after config_from_args has checked its options, and hands
D, n and nu to the layers as given.
"""

import argparse
import gc
import json
import math
import os
import sys

from . import InputError

# Each command imports the layers it uses when it runs, so start-up loads
# none of them and `roots` or `paircorr` never load the walks.


def _root_filter(args):
    from .roots import RootFilter

    return RootFilter(args.n, args.nu)


def config_from_args(args):
    """Check the options args's subcommand declares, in place; returns
    args.  An option the subcommand lacks is neither checked nor added.
    The layers check D, the filter, the order class and N's bound.

    qmax and M >= 1 are checked here too, though `enumerate_coset_terms`
    and the orbit walks raise the same InputError: `density` and
    `verify` build `base_geodesic_set` before either walk runs, and its
    least filtered roots already enumerate cones, so only a check here
    rejects those inputs before any work.  For the same reason bins,
    N >= 2 and a finite range are checked here though `pair_correlation`
    raises the same InputError: it runs only after the first-N sieve."""
    from .roots import M_LIMIT

    opts = vars(args)
    for name in ("bins", "M", "N"):
        if name in opts and opts[name] < 1:
            raise InputError(f"{name} must be >= 1")
    if "M" in opts and args.M >= M_LIMIT:   # before verify's orbit walk
        raise InputError("M must be below 2^31 (64-bit root arithmetic)")
    if "outdir" in opts and not os.path.isdir(args.outdir):
        raise InputError(f"outdir {args.outdir!r} is not a directory")
    for name in ("range", "step", "qmax"):
        if name in opts and not math.isfinite(opts[name]):
            raise InputError(f"{name} must be finite")
    if any(opts[name] <= 0 for name in ("range", "step") if name in opts):
        raise InputError("range and step must be positive")
    if "qmax" in opts and args.qmax <= 1:
        raise InputError("qmax must exceed 1")
    if "N" in opts and args.N < 2:
        raise InputError("need N >= 2 for pair statistics")
    return args


# ----------------------------------------------------------------------
# shared helpers

def _first_n_points(args):
    """First N roots, restricted to one order's subsequence if asked."""
    from .roots import first_n

    return first_n(args.D, args.N, _root_filter(args),
                   (args.class_filter,))[0]


def _class_mask(base, class_filter):
    """Base-geodesic indices carrying one order's roots (None = all)."""
    if class_filter == "total":
        return None
    side = "I" if class_filter == "O1" else "J"
    mask = [i for i, g in enumerate(base.geodesics) if g.source[0] == side]
    if not mask:
        raise InputError(f"no {class_filter} geodesics for this base set")
    return mask


# ----------------------------------------------------------------------
# commands

def cmd_roots(args) -> int:
    from .csvio import write_table
    from .roots import sieve_roots

    seq = sieve_roots(args.D, args.M, _root_filter(args))
    meta = {"command": "roots", "D": args.D, "n": args.n, "nu": args.nu,
            "M": args.M, "count": len(seq)}
    write_table(args.out, args.format, meta, ("m", "mu", "class"),
                (seq.ms, seq.mus, seq.class_labels()))
    return 0


def cmd_paircorr(args) -> int:
    from .csvio import write_table
    from .statistics import pair_correlation

    points = _first_n_points(args)
    result = pair_correlation(points, lo=-args.range, hi=args.range,
                              bins=args.bins)
    meta = {"command": "paircorr", "D": args.D, "n": args.n, "nu": args.nu,
            "N": args.N, "class": args.class_filter,
            "lo": -args.range, "hi": args.range, "bins": args.bins}
    counts = result.histogram.counts
    write_table(args.out, args.format, meta,
                ("center", "count", "r2", "density"),
                (result.histogram.centers(), counts,
                 counts / result.n_points, result.values()))
    return 0


def cmd_density(args) -> int:
    from .csvio import write_table
    from .density import default_grid, omega
    from .geodesics import base_geodesic_set

    if args.D < 0:
        raise InputError("the theoretical density needs D > 0")
    grid = default_grid(-args.range, args.range, args.step, v_min=args.step)
    if not grid.size:
        raise InputError("range and step leave no nonzero v on the grid")
    base = base_geodesic_set(args.D)
    mask = _class_mask(base, args.class_filter)
    tab = omega(base, grid, q_max=args.qmax, mask=mask)
    meta = {"command": "density", "D": args.D, "n": 1,
            "class": args.class_filter, "kappa": tab.kappa, "vol": tab.vol,
            "q_max": tab.q_max, "terms": tab.terms_used,
            "tail_estimate": tab.tail_estimate, "skipped": tab.skipped}
    write_table(args.out, args.format, meta, ("v", "omega"),
                (tab.grid, tab.omega))
    return 0


# per-figure layout: discriminant, panel classes, q_max per panel
_FIGURES = {
    1: (5, ("total",), (60.0,)),
    2: (5, ("O1", "O2"), (60.0, 180.0)),
    3: (17, ("O1", "O2"), (60.0, 60.0)),
}

_FIG_BINS = 100
_FIG_HI = 5.0


def cmd_figure(args) -> int:
    from .csvio import fmt_float, write_table
    from .density import omega
    from .geodesics import base_geodesic_set
    from .roots import first_n
    from .statistics import pair_correlation

    D, classes, qmaxes = _FIGURES[args.figure]
    emp_cols = ["center"] + [f"density_{cls}" for cls in classes]
    emp_data = []
    for points in first_n(D, args.N, classes=classes):
        res = pair_correlation(points, lo=0.0, hi=_FIG_HI, bins=_FIG_BINS)
        emp_data.append(res.values())
    centers = res.histogram.centers()

    base = base_geodesic_set(D)
    th_cols = ["v"]
    th_data = []
    kappas = []
    for cls, qm in zip(classes, qmaxes):
        tab = omega(base, centers, q_max=qm, mask=_class_mask(base, cls))
        th_cols.append(f"omega_{cls}")
        th_data.append(tab.omega)
        kappas.append(tab.kappa)

    meta = {"command": "figure", "figure": args.figure, "D": D, "N": args.N,
            "bins": _FIG_BINS, "lo": 0.0, "hi": _FIG_HI,
            "classes": " ".join(classes)}
    stem = os.path.join(args.outdir, f"georoots_fig{args.figure}")
    emp_path, th_path = stem + "_empirical.csv", stem + "_theory.csv"
    write_table(emp_path, "csv", meta, emp_cols, (centers, *emp_data))
    th_meta = dict(meta)
    th_meta["q_max"] = " ".join(fmt_float(q) for q in qmaxes)
    th_meta["kappa"] = " ".join(fmt_float(k) for k in kappas)
    write_table(th_path, "csv", th_meta, th_cols, (centers, *th_data))
    print(emp_path)
    print(th_path)
    return 0


def _check(checks, name, ok, detail):
    checks.append({"name": name, "pass": bool(ok), "detail": detail})


def _check_orbit_equals_sieve(checks, got, seq):
    """The orbit walk `got` found each sieved root exactly once; returns
    the sieved roots as a set of (m, mu)."""
    # a memoryview of the int64 arrays iterates as Python ints, with no
    # numpy scalar per row and no list copy (the two lists of tolist()
    # would raise the command's peak RSS)
    sieve_set = set(zip(memoryview(seq.ms), memoryview(seq.mus)))
    _check(checks, "orbit_equals_sieve",
           got.roots == sieve_set and got.duplicates == 0,
           {"orbit": len(got.roots), "sieve": len(sieve_set),
            "duplicates": got.duplicates})
    return sieve_set


def _verify_positive(args, checks):
    from .forms import content
    from .geodesics import base_geodesic_set, enumerate_tops
    from .orders import (
        form_of_root,
        narrow_class_group,
        unit_relation,
        unit_str,
    )
    from .roots import OrderTag, is_invertible, sieve_roots

    D, M = args.D, args.M
    filt = _root_filter(args)
    base = base_geodesic_set(D, args.n, args.nu)
    got = enumerate_tops(base, M)
    sieve_set = _check_orbit_equals_sieve(checks, got,
                                          sieve_roots(D, M, filt))

    bound = min(M, 500)
    bad = 0
    total = 0
    for m, mu in sieve_set:
        if m > bound:
            continue
        total += 1
        inv = is_invertible(D, m, mu)
        # I conj(I) = m O1 iff the form's content is 1 (`is_invertible`)
        if (content(form_of_root(D, m, mu, OrderTag.O1)) == 1) != inv:
            bad += 1
        if D % 8 == 5 and inv != (m % 4 != 2):
            bad += 1
    _check(checks, "ideal_norm_parity", bad == 0,
           {"roots_checked": total, "exceptions": bad})

    u = unit_relation(D)
    ok = u.relation in ("Equal", "Cube") and \
        (u.relation == "Equal" or D % 8 == 5)
    _check(checks, "unit_relation", ok,
           {"eps1": unit_str(D, u.eps1), "eps2": unit_str(D, u.eps2),
            "relation": u.relation})

    if args.n == 1:
        h1 = len(narrow_class_group(D, OrderTag.O1))
        h2 = len(narrow_class_group(D, OrderTag.O2))
        _check(checks, "base_count_is_class_number",
               len(base.geodesics) == h1 + h2,
               {"geodesics": len(base.geodesics), "h1_plus": h1,
                "h2_plus": h2})


def _verify_negative(args, checks):
    from .negdisc import enumerate_orbit_points, sieve_roots_neg

    D, M, filt = args.D, args.M, _root_filter(args)
    got = enumerate_orbit_points(D, M, filt)
    seq = sieve_roots_neg(D, M, filt)
    _check_orbit_equals_sieve(checks, got, seq)
    tags = seq.class_tags()
    qs = (D - seq.mus * seq.mus) // seq.ms
    o2 = (seq.ms % 2 == 0) & (qs % 2 == 0)
    _check(checks, "parity_partition", bool((tags == ~o2).all()),
           {"roots": len(seq), "o1": int(tags.sum())})


def cmd_verify(args) -> int:
    checks = []
    if args.D < 0:
        _verify_negative(args, checks)
    else:
        _verify_positive(args, checks)
    report = {"command": "verify", "D": args.D, "n": args.n, "nu": args.nu,
              "M": args.M, "checks": checks,
              "all_pass": all(c["pass"] for c in checks)}
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report["all_pass"] else 1


def cmd_units(args) -> int:
    from .csvio import write_table
    from .orders import unit_relation, unit_str

    if args.D < 0:
        raise InputError("unit relation diagnostics need D > 0")
    u = unit_relation(args.D)
    meta = {"command": "units", "D": args.D}
    write_table(args.out, args.format, meta, ("eps1", "eps2", "relation"),
                ([unit_str(args.D, u.eps1)], [unit_str(args.D, u.eps2)],
                 [u.relation]))
    return 0


def cmd_classgroup(args) -> int:
    from .csvio import write_table
    from .roots import OrderTag

    meta = {"command": "classgroup", "D": args.D}
    if args.D >= 0:
        from .orders import narrow_class_group as classes

        keys, header = ("h1_plus", "h2_plus"), ("side", "index", "m", "mu")
    else:
        from .negdisc import class_forms as classes

        keys, header = ("h1", "h2"), ("side", "index", "a", "b", "c")
    sides = [classes(args.D, tag) for tag in (OrderTag.O1, OrderTag.O2)]
    meta.update(zip(keys, map(len, sides)))
    side = [name for name, reps in zip(("O1", "O2"), sides) for _ in reps]
    index = [i for reps in sides for i in range(len(reps))]
    values = zip(*(rep for reps in sides for rep in reps))
    write_table(args.out, args.format, meta, header, (side, index, *values))
    return 0


# ----------------------------------------------------------------------
# parser

def _add_common(sp, *, filt=True, table_out=True):
    sp.add_argument("--D", type=int, required=True,
                    help="discriminant: squarefree, = 1 (mod 4), either sign")
    if filt:
        sp.add_argument("--n", type=int, default=1,
                        help="congruence level (m = 0 mod n)")
        sp.add_argument("--nu", type=int, default=0,
                        help="root residue (mu = nu mod n)")
    if table_out:
        sp.add_argument("--out", default=None, help="output path (stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="georoots",
        description="Roots of mu^2 = D (mod m): enumeration, geodesic "
                    "orbits, and pair-correlation statistics.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("roots", help="sieve the root sequence")
    _add_common(sp)
    sp.add_argument("--M", type=int, required=True, help="modulus bound")
    sp.set_defaults(func=cmd_roots)

    sp = sub.add_parser("paircorr", help="empirical pair correlation")
    _add_common(sp)
    sp.add_argument("--N", type=int, required=True, help="number of points")
    sp.add_argument("--bins", type=int, default=100)
    sp.add_argument("--range", type=float, default=5.0,
                    help="histogram covers [-range, range]")
    sp.add_argument("--class", dest="class_filter", default="total",
                    choices=("total", "O1", "O2"))
    sp.set_defaults(func=cmd_paircorr)

    sp = sub.add_parser("density", help="theoretical density on a v grid")
    _add_common(sp, filt=False)
    sp.add_argument("--qmax", type=float, default=50.0,
                    help="double-coset truncation")
    sp.add_argument("--range", type=float, default=5.0)
    sp.add_argument("--step", type=float, default=0.01)
    sp.add_argument("--class", dest="class_filter", default="total",
                    choices=("total", "O1", "O2"))
    sp.set_defaults(func=cmd_density)

    sp = sub.add_parser("figure",
                        help="write paired empirical+theory files")
    sp.add_argument("figure", type=int, choices=(1, 2, 3))
    sp.add_argument("--N", type=int, default=1_000_000)
    sp.add_argument("--outdir", default=".")
    sp.set_defaults(func=cmd_figure)

    sp = sub.add_parser("verify", help="correspondence test battery")
    _add_common(sp, table_out=False)
    sp.add_argument("--M", type=int, default=2000, help="modulus bound")
    sp.add_argument("--out", default=None, help="report path (stdout)")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("units", help="fundamental unit relation")
    _add_common(sp, filt=False)
    sp.set_defaults(func=cmd_units)

    sp = sub.add_parser("classgroup", help="class representatives")
    _add_common(sp, filt=False)
    sp.set_defaults(func=cmd_classgroup)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(config_from_args(args))
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def entry():
    """The process entry point: the `georoots` console script and
    `python -m georoots.cli`.

    main() runs with the cyclic garbage collector off, so no collection
    runs while numpy and the layers load; the heap is frozen before exit,
    so the collections CPython makes at shutdown skip every object the
    run made.  That is safe because a command leaves a constant amount of
    cyclic garbage, whatever its N, M, q_max or grid: about 400 objects,
    nearly all of them the argparse parser and its help formatters, as
    the layers hold their data in arrays, tuples and dataclasses without
    back references (tests/test_cli.py checks the count at sizes 10x
    apart).  The OS reclaims the frozen heap at exit; sys.exit, unlike
    os._exit, still runs the atexit handlers and the final flushes.
    In-process callers of main() keep the collector as they have it.
    """
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
