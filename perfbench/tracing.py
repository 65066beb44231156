"""Spans around the program's public functions, installed from outside it.

A traced run replaces module attributes such as
``fbmpower.hurst.quadratic_form_logdet`` with wrappers that record one span
per call: name, start, end, parent span and series id.  Spans stay in
memory until the run ends.  `installed` puts every original attribute back
on exit, so a process that leaves the block, and every untraced run, calls
the program unwrapped.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    series: int | None
    info: dict = field(default_factory=dict)


class Tracer:
    """Collects spans; a call to a name in `series_roots` opens a new series."""

    def __init__(self, series_roots=()):
        self.spans: list[Span] = []
        self.series_roots = frozenset(series_roots)
        self._stack: list[int] = []
        self._series: int | None = None
        self._next_series = 0

    def wrap(self, name: str, fn, note=None):
        """`fn` recorded as span `name`; `note(result)` adds fields to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opens_series = self._series is None and name in self.series_roots
            if opens_series:
                self._series = self._next_series
                self._next_series += 1
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, perf_counter(), 0.0, parent, self._series)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span.info.update(note(result))
                return result
            except Exception as exc:
                span.info["error"] = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
                if opens_series:
                    self._series = None

        return traced

    @contextlib.contextmanager
    def series(self, series_id: int):
        """Give every span opened inside the block the series id `series_id`."""
        self._series = series_id
        try:
            yield
        finally:
            self._series = None

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "series": s.series, **s.info}
            for s in self.spans
        ]


def targets():
    """(module, attribute, span name, note) for every wrapped public function.

    Attributes are patched where their callers look them up: the CLI calls
    ``pipeline.<fn>``, `pipeline.analyze` calls ``gaussianize.<fn>``,
    ``hurst.estimate_hurst`` and ``hypothesis.<fn>``, `estimate_hurst` calls
    the correlation functions it imported into ``fbmpower.hurst``, and the
    calibration chain calls the ``fbmpower`` package attributes.  The
    program is imported here, not at module level, because run.py uses this
    module and must not load numpy.
    """
    import fbmpower
    from fbmpower import gaussianize, hurst, hypothesis, pipeline

    def grid_points(est):
        return {"grid_points": len(est.grid)}

    def early_exit(lam):
        return {"early_exit": lam == 1.0}

    def method(path):
        return {"method": path.method}

    out = [(pipeline, fn, f"pipeline.{fn}", None)
           for fn in ("load_csv", "normalize", "detrend", "analyze", "render_report")]
    for module in (gaussianize, fbmpower):
        out += [
            (module, "increments", "gaussianize.increments", None),
            (module, "fit_lambda", "gaussianize.fit_lambda", early_exit),
            (module, "transform", "gaussianize.transform", None),
        ]
    for module in (hurst, fbmpower):
        out.append((module, "estimate_hurst", "hurst.estimate_hurst", grid_points))
    out += [(hurst, fn, f"correlation.{fn}", None)
            for fn in ("build_correlation", "quadratic_form_logdet")]
    for module in (hypothesis, fbmpower):
        out += [(module, fn, f"hypothesis.{fn}", None) for fn in ("test_hypothesis", "classify")]
    out.append((fbmpower, "simulate_fbm", "simulate.simulate_fbm", method))
    return out


@contextlib.contextmanager
def installed(tracer: Tracer, wrap_targets):
    """Patch every target with a tracer wrapper; restore the originals on exit."""
    saved = []
    try:
        for module, attr, name, note in wrap_targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, note))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_seconds(spans: list[dict], index: int) -> float:
    """Duration of span `index` minus the time its direct child spans cover."""
    span = spans[index]
    children = sum(s["end"] - s["start"] for s in spans if s["parent"] == index)
    return (span["end"] - span["start"]) - children


def layer_metrics(spans: list[dict], csv_rows: int) -> dict[str, float]:
    """Per-layer metrics of one traced process, keyed by BENCHMARK.json name."""
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)

    def durations(name):
        return [spans[i]["end"] - spans[i]["start"] for i in by_name.get(name, [])]

    def calls(name):
        return len(by_name.get(name, []))

    def total(name):
        return sum(durations(name))

    def p50_ms(name):
        d = durations(name)
        return 1e3 * statistics.median(d) if d else 0.0

    def self_total(name):
        return sum(self_seconds(spans, i) for i in by_name.get(name, []))

    def count(name, key, value=True):
        return sum(1 for i in by_name.get(name, []) if spans[i].get(key) == value)

    load_s = total("pipeline.load_csv")
    analyze_s = total("pipeline.analyze")
    grid_points = sum(spans[i]["grid_points"] for i in by_name.get("hurst.estimate_hurst", []))
    solves = calls("correlation.quadratic_form_logdet")
    return {
        "pipeline.load_csv.s": load_s,
        "pipeline.load_csv.rows_per_s": csv_rows / load_s if load_s else 0.0,
        "pipeline.normalize.s": total("pipeline.normalize"),
        "pipeline.detrend.s": total("pipeline.detrend"),
        "pipeline.analyze.calls": calls("pipeline.analyze"),
        "pipeline.analyze.ms_p50": p50_ms("pipeline.analyze"),
        "pipeline.analyze.ms_max": 1e3 * max(durations("pipeline.analyze"), default=0.0),
        "pipeline.analyze.self_s": self_total("pipeline.analyze"),
        "pipeline.analyze.child_frac": (
            1.0 - self_total("pipeline.analyze") / analyze_s if analyze_s else 0.0
        ),
        "pipeline.render_report.s": total("pipeline.render_report"),
        "gaussianize.fit_lambda.calls": calls("gaussianize.fit_lambda"),
        "gaussianize.fit_lambda.s": total("gaussianize.fit_lambda"),
        "gaussianize.fit_lambda.early_exits": count("gaussianize.fit_lambda", "early_exit"),
        "gaussianize.transform.s": total("gaussianize.transform"),
        "hurst.estimate_hurst.calls": calls("hurst.estimate_hurst"),
        "hurst.estimate_hurst.s": total("hurst.estimate_hurst"),
        "hurst.estimate_hurst.ms_p50": p50_ms("hurst.estimate_hurst"),
        "hurst.estimate_hurst.self_s": self_total("hurst.estimate_hurst"),
        "hurst.grid_points": grid_points,
        "correlation.build_correlation.calls": calls("correlation.build_correlation"),
        "correlation.build_correlation.s": total("correlation.build_correlation"),
        "correlation.quadratic_form_logdet.calls": solves,
        "correlation.quadratic_form_logdet.s": total("correlation.quadratic_form_logdet"),
        "correlation.solves_per_grid_point": solves / grid_points if grid_points else 0.0,
        "hypothesis.test_hypothesis.calls": calls("hypothesis.test_hypothesis"),
        "hypothesis.test_hypothesis.s": total("hypothesis.test_hypothesis"),
        "simulate.simulate_fbm.calls": calls("simulate.simulate_fbm"),
        "simulate.simulate_fbm.s": total("simulate.simulate_fbm"),
        "simulate.simulate_fbm.ms_p50": p50_ms("simulate.simulate_fbm"),
        "simulate.cholesky_calls": count("simulate.simulate_fbm", "method", "cholesky"),
        "simulate.circulant_calls": count("simulate.simulate_fbm", "method", "circulant"),
    }
