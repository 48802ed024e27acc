"""Traced runner: one fraclab command in this process, with spans around
fraclab's public functions.

    python3 perfbench/runner.py SPANS.json sieve --limit 1000
    python3 perfbench/runner.py SPANS.json --setup-tables

Each function is wrapped at the module attribute its callers look up (for
example ``fraclab.series.exact_correlation`` for the sweeps in ``series``),
then ``fraclab.cli.main(argv)`` runs under a root span.  ``--setup-tables``
instead runs the table set-up (``build_tables`` and ``build_jordan2`` at
``SETUP_LIMIT``) under a root span named ``setup.main``.  Spans (name, tag,
start, end, parent, count) are kept in memory and written to SPANS.json at
exit, with the time the write took.  Times are ``time.perf_counter``
readings, which share one monotonic clock with the parent benchmark process.

The parent turns span files into per-layer metrics with ``layer_metrics``.
A span's self time is its duration minus the durations of its direct
children.  Calls to the double-sum functions made from inside a sweep are
part of that sweep and get no span of their own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
import time
from typing import Callable, Dict, List

SWEEP = "series.correlation_double_sum_sweep"

#: the table limit of the set-up on ``readme-cold`` and ``verify``
SETUP_LIMIT = 1_000_000


def _pieces(n, m, *_, **__):
    # breakpoints of {nx}{mx} in one period: n + m - gcd(n, m)
    return int(n) + int(m) - math.gcd(int(n), int(m))


def _file_size(args, kwargs):
    path = args[1] if len(args) > 1 else kwargs.get("path", args[0])
    return os.path.getsize(path)


def _sweep_points(table, n_max, *_, **__):
    return int(n_max)


# (function, attributes its callers look up, metric stem, counter)
# The counter gets the call's arguments; ``_file_size`` reads the cache file.
WRAPS = [
    ("arithmetic.build_tables", ["cli.build_tables", "arithmetic.build_tables"],
     "arithmetic.build_tables", None),
    ("arithmetic.build_jordan2", ["cli.build_jordan2", "arithmetic.build_jordan2"],
     "arithmetic.build_jordan2", None),
    ("arithmetic.load_cache", ["cli.load_cache"], "arithmetic.load_cache", "file"),
    ("arithmetic.save_cache", ["cli.save_cache"], "arithmetic.save_cache", "file"),
    ("arithmetic.moebius_harmonic", ["series.moebius_harmonic"],
     "arithmetic.partial_sums", None),
    ("arithmetic.squarefree_zeta2_partial",
     ["series.squarefree_zeta2_partial", "arithmetic.squarefree_zeta2_partial"],
     "arithmetic.partial_sums", None),
    ("exact.exact_correlation", ["series.exact_correlation", "exact.exact_correlation"],
     "exact.exact_correlation", _pieces),
    ("exact.expected_correlation",
     ["figures.expected_correlation", "exact.expected_correlation"],
     "exact.expected_correlation", None),
    (SWEEP, ["figures.correlation_double_sum_sweep", "series.correlation_double_sum_sweep"],
     "series.sweep", _sweep_points),
    ("series.correlation_double_sum", ["series.correlation_double_sum"],
     "series.double_sum", None),
    ("series.correlation_double_sum_fast", ["series.correlation_double_sum_fast"],
     "series.double_sum", None),
    ("series.sine_series_partial", ["series.sine_series_partial"], "series.sine", None),
    ("series.sine_squared_identity_gap", ["series.sine_squared_identity_gap"],
     "series.identity", None),
    ("series.residual_moment_report", ["series.residual_moment_report"],
     "series.identity", None),
    ("tails.classical_bound_report", ["tails.classical_bound_report"],
     "tails.classical_bound_report", None),
    ("tails.tail_integral_u2", ["tails.tail_integral_u2"], "tails.tail_integral", None),
    ("tails.tail_integral_u1", ["tails.tail_integral_u1"], "tails.tail_integral", None),
    ("tails.abel_identity_check", ["tails.abel_identity_check"],
     "tails.abel_identity_check", None),
    ("figures.figure1_rows", ["figures.figure1_rows"], "figures.csv", None),
    ("figures.figure1_csv", ["figures.figure1_csv"], "figures.csv", None),
    ("figures.points_csv", ["figures.points_csv"], "figures.csv", None),
    ("figures.figure2_csv", ["figures.figure2_csv"], "figures.csv", None),
    ("formatting.format_decimal", ["cli.format_decimal", "figures.format_decimal"],
     "formatting.format_decimal", None),
]

STEM_OF: Dict[str, str] = {name: stem for name, _, stem, _ in WRAPS}
STEM_OF.update({"cli.main": "cli.main_self", "setup.main": "setup.main_self"})
STEM_OF.update({f"acceptance.c{k:02d}": f"acceptance.c{k:02d}" for k in range(1, 13)})

SUBCOMMANDS = ["sieve", "correlate", "sine-series", "series", "figure1", "figure2",
               "tails", "verify"]
SWEEP_MODES = ["fast_float", "direct_float", "direct_exact", "fast_exact"]

_SELF = (["cli.main_self", "setup.main_self", "arithmetic.build_tables",
          "arithmetic.build_jordan2", "arithmetic.load_cache", "arithmetic.save_cache",
          "arithmetic.partial_sums", "exact.exact_correlation", "exact.expected_correlation"]
         + [f"series.sweep_{mode}" for mode in SWEEP_MODES]
         + ["series.double_sum", "series.identity", "series.sine",
            "tails.classical_bound_report", "tails.tail_integral",
            "tails.abel_identity_check"]
         + [f"acceptance.c{k:02d}" for k in range(1, 13)]
         + ["figures.csv", "formatting.format_decimal"])

#: the per-layer metrics, in BENCHMARK.json order: (name, unit, better)
PER_LAYER = (
    [("cli.process_start_s", "s", "lower")]
    + [(f"{stem}_s", "s", "lower") for stem in _SELF]
    + [("arithmetic.build_tables_calls", "count", "lower"),
       ("arithmetic.cache_bytes_read", "B", "lower"),
       ("arithmetic.cache_bytes_written", "B", "lower"),
       ("exact.exact_correlation_calls", "count", "lower"),
       ("exact.pieces", "count", "lower"),
       ("exact.pieces_per_s", "1/s", "higher"),
       ("series.sweep_points", "count", "lower"),
       ("formatting.format_decimal_calls", "count", "lower")]
    + [(f"cli.{sub}.rss_mb", "MB", "lower") for sub in SUBCOMMANDS]
    + [("host.ref_loop_s", "s", "lower"),
       ("trace.session_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower"),
       ("trace.dump_s", "s", "lower"),
       ("trace.remainder_s", "s", "lower")]
)


# ---------------------------------------------------------------------------
# child side
# ---------------------------------------------------------------------------

class Tracer:
    """Span recorder.  A span is [name, tag, start, end, parent, count]."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []

    def open(self, name: str, tag: str = "") -> list:
        span = [name, tag, time.perf_counter(), 0.0,
                self.stack[-1] if self.stack else -1, 0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn: Callable, name: str, counter) -> Callable:
        spans, stack = self.spans, self.stack
        signature = inspect.signature(fn) if name == SWEEP else None
        part_of_sweep = name in ("series.correlation_double_sum",
                                 "series.correlation_double_sum_fast")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if part_of_sweep and stack and spans[stack[-1]][0] == SWEEP:
                return fn(*args, **kwargs)
            tag = ""
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tag = ("fast" if bound.arguments["fast"] else "direct") + (
                    "_exact" if bound.arguments["exact"] else "_float")
            span = self.open(name, tag)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter == "file":
                span[5] = _file_size(args, kwargs)
            elif counter is not None:
                span[5] = counter(*args, **kwargs)
            return result

        return traced

    def install(self) -> None:
        modules = {name: importlib.import_module(f"fraclab.{name}") for name in
                   ("arithmetic", "exact", "series", "tails", "figures", "formatting",
                    "acceptance", "cli")}
        for name, attributes, _, counter in WRAPS:
            module, func = name.split(".")
            traced = self.wrap(getattr(modules[module], func), name, counter)
            for attribute in attributes:
                owner, attr = attribute.split(".")
                setattr(modules[owner], attr, traced)
        acceptance = modules["acceptance"]
        acceptance.CRITERIA = [
            (k, title, self.wrap(func, f"acceptance.c{k:02d}", None))
            for k, title, func in acceptance.CRITERIA
        ]

    def dump(self, path: str) -> None:
        start = time.perf_counter()
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], s[1], s[2], s[3], s[4], s[5]] for s in self.spans]
        text = json.dumps({"names": names, "spans": rows})
        with open(path, "w") as fh:
            fh.write(text)
            fh.write("\n")
            fh.flush()
            fh.write(json.dumps({"dump_s": time.perf_counter() - start}))


def main(argv: List[str]) -> int:
    spans_path, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    rc = 1
    try:
        if args[0] == "--setup-tables":
            from fraclab import arithmetic

            span = tracer.open("setup.main")
            try:
                arithmetic.build_jordan2(arithmetic.build_tables(SETUP_LIMIT))
                rc = 0
            finally:
                tracer.close(span)
        else:
            from fraclab import cli

            span = tracer.open("cli.main")
            try:
                rc = cli.main(args)
            finally:
                tracer.close(span)
    finally:
        tracer.dump(spans_path)
    return rc


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------

def read_spans(path) -> dict:
    """The spans a traced process wrote; none if it died before writing them."""
    if not os.path.exists(path):
        return {"names": [], "spans": [], "dump_s": 0.0}
    with open(path) as fh:
        body, tail = fh.read().split("\n", 1)
    data = json.loads(body)
    data["dump_s"] = json.loads(tail)["dump_s"]
    return data


def layer_metrics(processes: List[dict], rss: Dict[str, float], ref_loop_s: float,
                  session_s: float, untraced_s: float) -> Dict[str, float]:
    """Per-layer metrics from traced processes.

    ``processes`` holds, per traced process, its parsed span file and its
    ``wall_s`` as the parent measured it.  The self times, the process start
    and the span write-out add up to the processes' wall time; what the
    traced session spent outside them is ``trace.remainder_s``.
    """
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    pieces = 0
    wall_total = 0.0
    for proc in processes:
        names = proc["spans"]["names"]
        rows = proc["spans"]["spans"]
        child = [0.0] * len(rows)
        for _, _, start, end, parent, _ in rows:
            if parent >= 0:
                child[parent] += end - start
        root_s = 0.0
        for i, (name_i, tag, start, end, parent, count) in enumerate(rows):
            name = names[name_i]
            stem = STEM_OF[name]
            if stem == "series.sweep":
                stem = f"series.sweep_{tag}"
                out["series.sweep_points"] += count
            out[f"{stem}_s"] += (end - start) - child[i]
            if parent < 0:
                root_s += end - start
            if name == "arithmetic.build_tables":
                out["arithmetic.build_tables_calls"] += 1
            elif name == "arithmetic.load_cache":
                out["arithmetic.cache_bytes_read"] += count
            elif name == "arithmetic.save_cache":
                out["arithmetic.cache_bytes_written"] += count
            elif name == "exact.exact_correlation":
                out["exact.exact_correlation_calls"] += 1
                pieces += count
            elif name == "formatting.format_decimal":
                out["formatting.format_decimal_calls"] += 1
        dump_s = proc["spans"]["dump_s"]
        out["trace.dump_s"] += dump_s
        out["cli.process_start_s"] += proc["wall_s"] - root_s - dump_s
        wall_total += proc["wall_s"]
    out["exact.pieces"] = pieces
    if out["exact.exact_correlation_s"] > 0:
        out["exact.pieces_per_s"] = pieces / out["exact.exact_correlation_s"]
    for sub, mb in rss.items():
        out[f"cli.{sub}.rss_mb"] = mb
    out["host.ref_loop_s"] = ref_loop_s
    out["trace.session_s"] = session_s
    out["trace.overhead_s"] = session_s - untraced_s
    out["trace.remainder_s"] = session_s - wall_total
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
