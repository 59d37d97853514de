"""Unified observability layer: metrics registry + simulated-time tracing.

``repro.obs`` is the substrate every scaling PR records into:

* :class:`~repro.obs.metrics.MetricsRegistry` -- counters, gauges, and
  fixed-bucket log-scale histograms; deterministic, no wall-clock; the
  one place every count lives (read it with ``value``/``query``).
* :class:`~repro.obs.trace.Tracer` -- span timelines on the DES clock:
  middleware -> retriever -> coalesced run -> PLFS chunk read -> device,
  tagged with ``(logical, tag, chunk, tier, cache_hit, retries)``.
* :mod:`~repro.obs.export` -- Prometheus text and structured JSON
  exporters (plus the parsers the round-trip tests use).

CLI entry points: ``python -m repro metrics`` and ``python -m repro
trace --logical X --tag p [--json]``.
"""

from repro.obs.export import (
    parse_metrics_json,
    parse_prometheus,
    registry_to_json,
    registry_to_prometheus,
)
from repro.obs.metrics import (
    SIZE_BUCKETS,
    TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
)
from repro.obs.trace import Span, Tracer, render_trace, span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SIZE_BUCKETS",
    "Span",
    "TIME_BUCKETS",
    "Tracer",
    "global_registry",
    "parse_metrics_json",
    "parse_prometheus",
    "registry_to_json",
    "registry_to_prometheus",
    "render_trace",
    "span",
]
