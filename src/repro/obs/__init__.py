"""Observability substrate: tracing, metrics and the shared memo primitive.

Zero-dependency by design (stdlib only) so the solver core can be
instrumented without conditional imports.  Three parts:

- :mod:`repro.obs.trace` -- nested spans recorded into a per-request
  :class:`SolveTrace`.  Off by default: ``span()`` costs one ContextVar
  read returning a shared no-op singleton until a trace is started via
  ``start_trace()`` (``REPRO_TRACE=1`` / ``repro serve --trace`` decide
  whether callers start one).
- :mod:`repro.obs.metrics` -- counters, gauges and fixed-log-bucket
  latency histograms with one lock per instrument, rendered as
  Prometheus text exposition format 0.0.4.
- :mod:`repro.obs.memo` -- :class:`BoundedMemo`, the one bounded LRU
  behind every cross-call cache; :func:`clear_all` empties every named
  memo (a cold start) and :func:`memo_stats` reports their counters.
"""

from .memo import BoundedMemo, clear_all, memo_stats

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
    validate_prometheus_text,
)
from .trace import (
    Span,
    SolveTrace,
    TraceStore,
    current_trace,
    span,
    start_trace,
    tracing_enabled,
    traces_to_jsonl,
    write_traces_jsonl,
)

__all__ = [
    "BoundedMemo",
    "clear_all",
    "memo_stats",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "log_buckets",
    "validate_prometheus_text",
    "Span",
    "SolveTrace",
    "TraceStore",
    "current_trace",
    "span",
    "start_trace",
    "tracing_enabled",
    "traces_to_jsonl",
    "write_traces_jsonl",
]
