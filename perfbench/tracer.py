"""In-memory spans around georoots' layer boundaries, installed from outside.

`Tracer.install()` wraps the functions listed in BOUNDARY and rebinds every
name that refers to them in the loaded georoots modules (so `cli`'s
`from .roots import take_n` calls the wrapper too).  No source is edited.
Each call appends one span [name, parent index, start, end]; a few hooks
add work counters and, when a capture directory is given, save the data
the output checkers need (the roots handed to the pair correlation, the
coset terms, the orbit roots).

The layers arith, quadnum, forms and orders are not wrapped: their time
is part of the self time of whichever layer calls them.

Spans use time.monotonic, which on Linux is CLOCK_MONOTONIC and therefore
comparable between the benchmark and its child processes.
"""

import importlib
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

# Layer-boundary functions per module.  Per-item helpers such as
# csvio.fmt_cell are left out on purpose: they run once per table cell,
# and a span each would cost more than the work it measures.
BOUNDARY = {
    "roots": ("sieve_roots", "take_n", "_sieve"),
    "statistics": ("pair_correlation",),
    "density": ("omega", "enumerate_coset_terms", "kappa_and_vol",
                "default_grid"),
    "geodesics": ("base_geodesic_set", "enumerate_tops"),
    "negdisc": ("sieve_roots_neg", "take_n_neg", "enumerate_orbit_points",
                "class_forms"),
    "csvio": ("write_table",),
    "cli": ("main", "_first_n_points", "cmd_roots", "cmd_paircorr",
            "cmd_density", "cmd_figure", "cmd_verify", "cmd_units",
            "cmd_classgroup"),
}

LAYERS = tuple(BOUNDARY)

# Calls that hand a root sequence to a consumer outside the sieve.  The
# outermost one of a nest delivers the roots that are kept.
PRODUCERS = {"roots.sieve_roots", "roots.take_n", "roots._sieve",
             "negdisc.sieve_roots_neg", "negdisc.take_n_neg",
             "cli._first_n_points"}


class Tracer:
    def __init__(self, capture_dir=None):
        self.spans = []          # [name, parent index or -1, start, end]
        self.counters = Counter()
        self.writes = []         # [start, end byte, meta lines, out] per CSV
        self._stack = []
        self._producer_depth = 0
        self._capture = Path(capture_dir) if capture_dir else None
        self._captured = Counter()

    def install(self):
        """Wrap BOUNDARY in every loaded georoots module."""
        modules = [importlib.import_module(f"georoots.{m}") for m in BOUNDARY]
        modules += [m for k, m in sys.modules.items()
                    if k.startswith("georoots") and m not in modules]
        for layer, names in BOUNDARY.items():
            home = sys.modules[f"georoots.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(orig, f"{layer}.{fname}")
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        hook = getattr(self, "_on_" + name.split(".", 1)[1], None)
        producer = name in PRODUCERS
        if name == "csvio.write_table":
            fn = self._sized_write(fn)

        def traced(*args, **kwargs):
            outermost = False
            if producer:
                outermost = self._producer_depth == 0
                self._producer_depth += 1
            i = len(spans)
            spans.append([name, stack[-1] if stack else -1, 0.0, 0.0])
            stack.append(i)
            start = time.monotonic()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[i][2] = start
                spans[i][3] = time.monotonic()
                stack.pop()
                if producer:
                    self._producer_depth -= 1
            if outermost:
                self.counters["roots.kept"] += len(out)
            if hook is not None:
                hook(out, args, kwargs)
            return out

        return traced

    # -- counters and captures ------------------------------------------

    def _on__sieve(self, seq, args, kwargs):
        self.counters["roots.sieve_calls"] += 1
        self.counters["roots.moduli_sieved"] += int(args[1])
        self.counters["roots.roots_sieved"] += len(seq)

    def _on_pair_correlation(self, result, args, kwargs):
        self.counters["statistics.pairs_binned"] += int(
            result.histogram.counts.sum())
        points = args[0] if args else kwargs["points"]
        if self._capture is not None and hasattr(points, "ms"):
            self._save("pair_correlation",
                       np.stack([points.ms, points.mus]))

    def _on_enumerate_coset_terms(self, out, args, kwargs):
        terms, skipped = out
        self.counters["density.coset_terms"] += len(terms)
        self.counters["density.coset_skipped"] += skipped
        if self._capture is not None:
            rows = [[t.q, t.sign, t.k, t.l] for t in terms]
            self._save("coset_terms", {"terms": rows, "skipped": skipped})

    def _on_omega(self, table, args, kwargs):
        self.counters["density.H_evals"] += table.terms_used * len(table.grid)
        if self._capture is not None:
            self._save("omega", {"kappa": table.kappa, "vol": table.vol})

    def _on_enumerate_tops(self, result, args, kwargs):
        self._orbit("geodesics", result)

    def _on_enumerate_orbit_points(self, result, args, kwargs):
        self._orbit("negdisc", result)

    def _orbit(self, layer, result):
        self.counters[f"{layer}.orbit_states"] += result.visited
        self.counters[f"{layer}.orbit_roots"] += len(result.roots)
        self.counters[f"{layer}.duplicates"] += result.duplicates
        if self._capture is not None:
            roots = np.array(sorted(result.roots), dtype=np.int64)
            self._save("orbit_roots", roots.reshape(-1, 2).T)

    def _sized_write(self, fn):
        """write_table plus the byte range it added to its stream."""

        def write_table(out, fmt, meta, columns, rows):
            start = _stream_size(out)
            fn(out, fmt, meta, columns, rows)
            end = _stream_size(out)
            self.counters["csvio.bytes"] += end - start
            if fmt == "csv":
                self.writes.append([start, end, len(meta), out])
            return None

        return write_table

    def _save(self, kind, data):
        i = self._captured[kind]
        self._captured[kind] += 1
        if isinstance(data, np.ndarray):
            np.save(self._capture / f"{kind}-{i}.npy", data)
        else:
            (self._capture / f"{kind}-{i}.json").write_text(json.dumps(data))

    def record(self):
        return {"spans": self.spans, "counters": dict(self.counters),
                "writes": self.writes}


def _stream_size(out):
    if out is None:
        sys.stdout.flush()
        return os.fstat(sys.stdout.fileno()).st_size
    return os.path.getsize(out) if os.path.exists(out) else 0


# ----------------------------------------------------------------------
# per-layer metrics of one pass, from the child records of its commands

SPAN_TOTALS = {          # metric -> span whose inclusive time it sums
    "roots.sieve_s": "roots._sieve",
    "statistics.paircorr_s": "statistics.pair_correlation",
    "density.coset_s": "density.enumerate_coset_terms",
    "geodesics.orbit_s": "geodesics.enumerate_tops",
    "geodesics.base_set_s": "geodesics.base_geodesic_set",
    "negdisc.orbit_s": "negdisc.enumerate_orbit_points",
    "csvio.write_s": "csvio.write_table",
}

EXACT_COUNTS = ("roots.sieve_calls", "roots.moduli_sieved",
                "roots.roots_sieved", "roots.kept",
                "statistics.pairs_binned", "density.coset_terms",
                "density.coset_skipped", "density.H_evals",
                "geodesics.orbit_states", "geodesics.orbit_roots",
                "geodesics.duplicates", "negdisc.orbit_states",
                "negdisc.orbit_roots", "negdisc.duplicates",
                "csvio.bytes", "csvio.rows")


def self_times(spans):
    """Per span: its duration minus the durations of its direct children."""
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def pass_layer_metrics(commands):
    """Per-layer metrics of one traced pass.

    `commands` holds, per command, the child record (with the CSV row
    count added to its counters) plus the parent's spawn and exit times.
    """
    m = Counter()
    counts = Counter()
    for name in (*(f"{layer}.self_s" for layer in LAYERS), *SPAN_TOTALS,
                 "density.hsum_s", "proc.startup_s", "proc.exit_s",
                 "trace.wall_s"):
        m[name] = 0.0
    for cmd in commands:
        spans = cmd["spans"]
        for (name, _, start, end), own in zip(spans, self_times(spans)):
            m[name.split(".", 1)[0] + ".self_s"] += own
            if name == "density.omega":
                m["density.hsum_s"] += own
        for metric, span in SPAN_TOTALS.items():
            m[metric] += sum(e - s for n, _, s, e in spans if n == span)
        counts.update(cmd["counters"])
        m["proc.startup_s"] += cmd["t_main_start"] - cmd["t_spawn"]
        m["proc.exit_s"] += cmd["t_exit"] - cmd["t_main_end"]
        m["trace.wall_s"] += cmd["t_exit"] - cmd["t_spawn"]
    accounted = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    m["trace.unaccounted_s"] = (m["trace.wall_s"] - accounted
                                - m["proc.startup_s"] - m["proc.exit_s"])
    for name in EXACT_COUNTS:
        m[name] = counts[name]
    m["roots.kept_ratio"] = _ratio(counts["roots.kept"],
                                   counts["roots.roots_sieved"])
    m["roots.moduli_per_s"] = _ratio(counts["roots.moduli_sieved"],
                                     m["roots.sieve_s"])
    m["statistics.pairs_per_s"] = _ratio(counts["statistics.pairs_binned"],
                                         m["statistics.paircorr_s"])
    m["density.coset_terms_per_s"] = _ratio(counts["density.coset_terms"],
                                            m["density.coset_s"])
    m["density.H_evals_per_s"] = _ratio(counts["density.H_evals"],
                                        m["density.hsum_s"])
    for layer in ("geodesics", "negdisc"):
        m[f"{layer}.states_per_root"] = _ratio(
            counts[f"{layer}.orbit_states"], counts[f"{layer}.orbit_roots"])
    m["csvio.bytes_per_s"] = _ratio(counts["csvio.bytes"], m["csvio.write_s"])
    return dict(m)


def _ratio(num, den):
    return num / den if den else 0.0
