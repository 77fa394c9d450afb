"""Per-layer timing measured from outside the package.

The traced run calls ``mcchannel.cli.main(argv)`` in-process with the
public names at each layer boundary replaced, in the namespace their
caller looks them up in, by timing wrappers.  Calls that happen once or a
few times per job become spans (name, start, end, parent, job); the
per-cell and per-harmonic calls become cumulative counters, whose time is
charged to the enclosing span.  A boundary name that a later version of
the package no longer has is skipped, and the metrics built on it are
absent.

Import time comes from ``python -X importtime``, grouped by top-level
package.
"""

from __future__ import annotations

import importlib
import inspect
import json
import re
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

SPAN, COUNTER = "span", "counter"

# (module, attribute, key, kind).  Keys name a layer, or a layer and an
# operation; the metrics below are built from them.
BOUNDARIES = (
    *(("mcchannel.cli", f"cmd_{c}", "cli", SPAN)
      for c in ("analyze", "design", "sweep", "simulate", "table")),
    ("mcchannel.cli", "load_scenario", "config", SPAN),
    ("mcchannel.cli", "load_table", "config", SPAN),
    ("mcchannel.cli", "channel_report", "distortion", SPAN),
    ("mcchannel.cli", "normalize", "distortion", SPAN),
    ("mcchannel.cli", "log_grid", "distortion", SPAN),
    *(("mcchannel.cli", f"{stage}_{part}_distortion_normalized", "distortion",
       COUNTER)
      for stage in ("diffusion", "reception") for part in ("amplitude", "delay")),
    ("mcchannel.cli", "distance_bound", "design.distance_bound", SPAN),
    ("mcchannel.cli", "highest_clean_band", "design.clean_band", SPAN),
    *(("mcchannel.design", f"{stage}_{part}_distortion", "design.index",
       COUNTER)
      for stage in ("diffusion", "reception") for part in ("amplitude", "delay")),
    *(("mcchannel.cli", f"{stage}_{curve}", "systems", SPAN)
      for stage in ("diffusion", "reception", "cascade")
      for curve in ("gain_db", "phase_delay")),
    ("mcchannel.timedomain", "diffusion_response", "systems", COUNTER),
    ("mcchannel.timedomain", "cascade_response", "systems", COUNTER),
    ("mcchannel.cli", "synthesize_fourier", "timedomain.fourier", SPAN),
    ("mcchannel.cli", "simulate_fdm", "timedomain.fdm", SPAN),
    ("mcchannel.cli", "write_trace_csv", "timedomain.trace_write", SPAN),
    ("mcchannel.cli", "activation_time", "timedomain.activation", SPAN),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str
    counted_s: float = 0.0   # time in counter calls made directly inside


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus what its child spans and counted calls cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, cursor = 0.0, s.start
        for a, b in sorted((spans[c].start, spans[c].end) for c in children[i]):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out.append(s.end - s.start - covered - s.counted_s)
    return out


class Tracer:
    """Spans and counters of one traced run, kept in memory until ``dump``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counters: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.tallies: dict[str, float] = defaultdict(int)
        self.job = ""

    def span(self, key: str, fn, on_call=None):
        def wrapper(*args, **kwargs):
            span = Span(key, self.clock(), 0.0,
                        self.stack[-1] if self.stack else None, self.job)
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self.stack.pop()
                if on_call is not None:
                    on_call(self, span, args, kwargs)
        return wrapper

    def counter(self, key: str, fn):
        def wrapper(*args, **kwargs):
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                entry = self.counters[key]
                entry[0] += 1
                entry[1] += elapsed
                if self.stack:
                    self.spans[self.stack[-1]].counted_s += elapsed
        return wrapper

    def dump(self, path) -> None:
        """Write every span, with its self time, as JSON."""
        rows = [{**asdict(span), "self_s": own}
                for span, own in zip(self.spans, self_times(self.spans))]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def _tally_call(fn, tally):
    """on_call hook that adds ``tally(bound arguments, span)`` to tallies."""
    signature = inspect.signature(fn)

    def on_call(tracer, span, args, kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        for name, value in tally(bound, span).items():
            tracer.tallies[name] += value
    return on_call


def _fourier_tally(a, span):
    return {"fourier_terms": a["n_harmonics"] * len(a["t_grid"])}


def _fdm_tally(a, span):
    cfg, ch = a["cfg"], a["ch"]
    if round(ch.x_r / cfg.dx) == 0:     # reception-only arm: no diffusion solve
        return {}
    steps = round(cfg.duration / cfg.dt)
    unknowns = round(cfg.domain_length / cfg.dx) - 1
    return {"fdm_cell_steps": steps * unknowns,
            "fdm_channel_s": span.end - span.start}


def _trace_rows_tally(a, span):
    return {"trace_rows": len(a["trace"].times)}


TALLIES = {"timedomain.fourier": _fourier_tally, "timedomain.fdm": _fdm_tally,
           "timedomain.trace_write": _trace_rows_tally}


@contextmanager
def patched(tracer: Tracer):
    """Wrap every boundary that exists; yield the set of keys wrapped."""
    saved, wrapped = [], set()
    try:
        for module_name, attr, key, kind in BOUNDARIES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            if kind == COUNTER:
                wrapper = tracer.counter(key, fn)
            else:
                tally = TALLIES.get(key)
                wrapper = tracer.span(key, fn, tally and _tally_call(fn, tally))
            saved.append((module, attr, fn))
            setattr(module, attr, wrapper)
            wrapped.add(key)
        yield wrapped
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def layer_metrics(tracer: Tracer, wrapped: set[str]) -> dict[str, tuple]:
    """Per-layer metrics as name -> (value, unit).

    Times are inclusive of the calls at a boundary, except ``cli.self_s``
    and ``timedomain.fourier_s``, which are self times (the latter without
    its per-harmonic frequency-response calls, reported under systems).
    """
    calls, incl, own = defaultdict(int), defaultdict(float), defaultdict(float)
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        calls[span.name] += 1
        incl[span.name] += span.end - span.start
        own[span.name] += self_s
    for key, (n, seconds) in tracer.counters.items():
        calls[key] += n
        incl[key] += seconds
    t = tracer.tallies

    def per(num: float, den: float) -> float:
        return num / den * 1e9 if den else 0.0

    groups = {
        "cli": {"cli.self_s": (own["cli"], "s")},
        "config": {"config.load_s": (incl["config"], "s"),
                   "config.calls": (calls["config"], "count")},
        "distortion": {"distortion.s": (incl["distortion"], "s"),
                       "distortion.calls": (calls["distortion"], "count")},
        "design.clean_band": {
            "design.clean_band_s": (incl["design.clean_band"], "s"),
            "design.clean_band_rows": (calls["design.clean_band"], "count")},
        "design.index": {"design.index_evals": (calls["design.index"], "count")},
        "design.distance_bound": {
            "design.distance_bound_s": (incl["design.distance_bound"], "s")},
        "systems": {"systems.s": (incl["systems"], "s"),
                    "systems.calls": (calls["systems"], "count")},
        "timedomain.fourier": {
            "timedomain.fourier_s": (own["timedomain.fourier"], "s"),
            "timedomain.fourier_terms": (t["fourier_terms"], "count"),
            "timedomain.fourier_ns_per_term": (
                per(own["timedomain.fourier"], t["fourier_terms"]), "ns")},
        "timedomain.fdm": {
            "timedomain.fdm_s": (incl["timedomain.fdm"], "s"),
            "timedomain.fdm_cell_steps": (t["fdm_cell_steps"], "count"),
            "timedomain.fdm_ns_per_cell_step": (
                per(t["fdm_channel_s"], t["fdm_cell_steps"]), "ns")},
        "timedomain.trace_write": {
            "timedomain.trace_write_s": (incl["timedomain.trace_write"], "s"),
            "timedomain.trace_rows": (t["trace_rows"], "count")},
        "timedomain.activation": {
            "timedomain.activation_s": (incl["timedomain.activation"], "s")},
    }
    out = {}
    for key, metrics in groups.items():
        if key in wrapped:
            out.update(metrics)
    return out


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s*\|\s*\d+\s*\|\s*(\S+)")
IMPORT_GROUPS = {"numpy": "import.numpy_s", "scipy": "import.scipy_s",
                 "yaml": "import.yaml_s", "_yaml": "import.yaml_s",
                 "mcchannel": "import.mcchannel_self_s"}


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds of import self time: in total and per top-level package."""
    out = {"import.total_s": 0.0, **{k: 0.0 for k in IMPORT_GROUPS.values()}}
    for line in text.splitlines():
        m = _IMPORTTIME.match(line)
        if m is None:
            continue
        seconds = int(m.group(1)) * 1e-6
        out["import.total_s"] += seconds
        group = IMPORT_GROUPS.get(m.group(2).split(".")[0])
        if group is not None:
            out[group] += seconds
    return out
