"""In-memory span recorder for the traced benchmark runs.

Spans are recorded from the benchmark's own files around calls into the
package's public functions; nothing inside the package is instrumented.
Each span has a name, a trace id (the replicate or CLI call it belongs to),
the index of the span that caused it, start and end times, and optional
notes such as solver iterations.  `per_layer` turns the spans of one traced
run into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import Counter

import numpy as np


class Recorder:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, trace=None):
        parent = self._open[-1] if self._open else None
        if trace is None and parent is not None:
            trace = self.spans[parent]["trace"]
        rec = {"name": name, "trace": trace, "parent": parent,
               "start": time.perf_counter(), "end": None, "error": None}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name, note=None):
        """`fn` with a span around each call.  `name` is a span name or a
        function of the call's arguments returning one (None: no span);
        `note(result)` returns extra fields stored on the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            if label is None:
                return fn(*args, **kwargs)
            with self.span(label) as rec:
                out = fn(*args, **kwargs)
                if note is not None:
                    rec.update(note(out))
            return out

        return wrapper

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def dump(self) -> list[dict]:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        out = []
        for i, s in enumerate(self.spans):
            d = dict(s, id=i, start_ms=(s["start"] - t0) * 1e3, end_ms=(s["end"] - t0) * 1e3)
            del d["start"], d["end"]
            out.append(d)
        return out


@contextlib.contextmanager
def patched(recorder: Recorder, targets):
    """Temporarily replace callables with span-recording wrappers.

    `targets` holds (owner, key, name, note) tuples; the owner is a module
    (attribute `key`) or a dict (item `key`)."""
    saved = []
    try:
        for owner, key, name, note in targets:
            is_dict = isinstance(owner, dict)
            orig = owner[key] if is_dict else getattr(owner, key)
            wrapped = recorder.wrap(orig, name, note)
            if is_dict:
                owner[key] = wrapped
            else:
                setattr(owner, key, wrapped)
            saved.append((owner, key, orig, is_dict))
        yield
    finally:
        for owner, key, orig, is_dict in reversed(saved):
            if is_dict:
                owner[key] = orig
            else:
                setattr(owner, key, orig)


def _ms(s: dict) -> float:
    return (s["end"] - s["start"]) * 1e3


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _p90(values) -> float:
    return float(np.percentile(values, 90)) if values else 0.0


def _per_trace_sum(spans: list[dict]) -> list[float]:
    sums: dict = {}
    for s in spans:
        sums[s["trace"]] = sums.get(s["trace"], 0.0) + _ms(s)
    return list(sums.values())


def self_ms(rec: Recorder, root: str) -> list[float]:
    """Per root span: its duration minus that of its direct children."""
    roots = {i: _ms(s) for i, s in enumerate(rec.spans) if s["name"] == root}
    for s in rec.spans:
        if s["parent"] in roots:
            roots[s["parent"]] -= _ms(s)
    return list(roots.values())


# span names grouped into the layer they time, for the time-share table
LAYERS = {
    "simgen": ("simgen.generate",),
    "models": ("models.fit", "models.mle_fit"),
    "inference": ("inference.stats", "inference.procs"),
    "mvnprob": ("mvnprob.quantile", "mvnprob.rect"),
    "cli.read": ("cli.read",),
    "data": ("data.validate",),
}


def layer_shares(rec: Recorder, wall_s: float) -> dict:
    """Share of the traced wall time spent in each layer's spans."""
    return {
        layer: sum(_ms(s) for s in rec.spans if s["name"] in names) / (wall_s * 1e3)
        for layer, names in LAYERS.items()
    }


def fit_failures(rec: Recorder) -> dict:
    """Failed fits by exception class; a fit that returned unconverged
    counts as NotConverged."""
    return dict(Counter(s["error"] or "NotConverged" for s in rec.named("models.fit")
                        if s["error"] or not s.get("converged", True)))


def per_layer(rec: Recorder, overhead_pct: float) -> dict:
    """Every per-layer metric of BENCHMARK.json from one traced run; a layer
    the workload does not exercise reads 0."""
    fits = rec.named("models.fit")
    reads = rec.named("cli.read")
    quantiles = [_ms(s) for s in rec.named("mvnprob.quantile")]
    read_ms = _median([_ms(s) for s in reads])
    rows_read = _median([s.get("rows", 0) for s in reads])
    return {
        "simgen.generate_ms": _median([_ms(s) for s in rec.named("simgen.generate")]),
        "simgen.rows": sum(s.get("rows", 0) for s in rec.named("simgen.generate")),
        "models.fit_ms": _median([_ms(s) for s in fits]),
        "models.mle_fit_ms": _median([_ms(s) for s in rec.named("models.mle_fit")]),
        "models.fit_iters": sum(s.get("iterations", 0) for s in fits),
        "models.fit_failed": sum(fit_failures(rec).values()),
        "mvnprob.quantile_ms": _median(quantiles),
        "mvnprob.quantile_ms_p90": _p90(quantiles),
        "mvnprob.quantile_calls": len(quantiles),
        "mvnprob.rect_ms": _median([_ms(s) for s in rec.named("mvnprob.rect")]),
        "mvnprob.rect_calls": len(rec.named("mvnprob.rect")),
        "inference.stats_ms": _median(_per_trace_sum(rec.named("inference.stats"))),
        "inference.procs_ms": _median(_per_trace_sum(rec.named("inference.procs"))),
        "cli.read_ms": read_ms,
        "cli.read_rows_per_s": rows_read / (read_ms / 1e3) if read_ms else 0.0,
        "data.validate_ms": _median([_ms(s) for s in rec.named("data.validate")]),
        "cli.other_ms": _median(self_ms(rec, "cli.call")),
        "harness.rep_ms_p50": _median([_ms(s) for s in rec.named("harness.replicate")]),
        "harness.rep_ms_p90": _p90([_ms(s) for s in rec.named("harness.replicate")]),
        "harness.other_ms": _median(self_ms(rec, "harness.replicate")),
        "trace.overhead_pct": overhead_pct,
    }
