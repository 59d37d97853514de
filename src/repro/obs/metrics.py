"""Process-wide but injectable metrics: counters, gauges, histograms.

The evaluation sections of the source paper (Tables 4-6, Figures 7-10) are
entirely about *measured* behaviour -- per-stage latency, tier traffic
split, time-to-first-frame.  Before this module those numbers lived in
ad-hoc ``stats()`` dicts scattered across the middleware, retriever,
prefetcher, and block cache; now one :class:`MetricsRegistry` holds every
count exactly once.  A component keeps the metric objects it writes and
calls ``inc``/``set``/``observe`` on them; every reader -- harness, CLI,
tests, exporters -- goes through :meth:`MetricsRegistry.value` (one
series) or :meth:`MetricsRegistry.query` (a slice of the catalogue).

Design constraints, in order:

* **Deterministic.**  No wall-clock anywhere: histogram buckets are fixed
  log-scale bounds chosen at construction, exports sort every family and
  label set, and identical seeded runs serialize to byte-identical JSON
  and Prometheus text.  The registry never touches the simulator, so
  attaching it cannot perturb event order.
* **Injectable.**  Components default to a private registry (so unit
  tests stay isolated) but accept a shared one; ``ADA`` threads a single
  registry through its determinator, retriever, prefetcher, block cache,
  and retry layer.  :func:`global_registry` offers the conventional
  process-wide instance for CLI tooling.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TIME_BUCKETS",
    "SIZE_BUCKETS",
    "global_registry",
]

#: Fixed log-scale (x4) latency bounds: 1 us .. ~67 s, in seconds.
TIME_BUCKETS: Tuple[float, ...] = tuple(1e-6 * 4.0**i for i in range(14))

#: Fixed log-scale (x4) size bounds: 1 KiB .. ~4 GiB, in bytes.
SIZE_BUCKETS: Tuple[float, ...] = tuple(1024.0 * 4.0**i for i in range(12))

#: Canonical key for one labeled instance inside a family.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotone (by convention) numeric metric.

    ``inc`` preserves int-ness: integer increments on an integer counter
    keep the value an ``int``, so byte/operation counts export without a
    decimal point and second totals stay ``float``.
    """

    __slots__ = ("name", "labels", "_value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self._value: float = 0

    @property
    def value(self):
        return self._value

    def inc(self, amount=1) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name}: negative increment {amount!r}"
            )
        self._value += amount

    def set(self, value) -> None:
        """Direct assignment -- exists so ``bind_metrics`` can carry a
        count over into another registry, not for general use."""
        self._value = value


class Gauge:
    """Point-in-time value; may also be backed by a callback.

    With ``fn`` set the gauge is *derived*: reads evaluate the callback,
    which is how occupancy-style values (cache bytes, pressure) stay
    coherent without write hooks on every mutation.
    """

    __slots__ = ("name", "labels", "_value", "fn")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey,
                 fn: Optional[Callable[[], float]] = None):
        self.name = name
        self.labels = labels
        self._value: float = 0
        self.fn = fn

    @property
    def value(self):
        if self.fn is not None:
            return self.fn()
        return self._value

    def set(self, value) -> None:
        self._value = value

    def inc(self, amount=1) -> None:
        self._value += amount

    def dec(self, amount=1) -> None:
        self._value -= amount


class Histogram:
    """Fixed-bound cumulative histogram (Prometheus ``le`` semantics).

    Bounds are frozen at construction (log-scale by default) so two runs
    of the same workload always bucket identically; there is no adaptive
    resizing to leak wall-clock nondeterminism into exports.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count", "sum")

    kind = "histogram"

    def __init__(self, name: str, labels: LabelKey,
                 bounds: Sequence[float] = TIME_BUCKETS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ConfigurationError(
                f"histogram {name}: bounds must be non-empty and ascending"
            )
        self.name = name
        self.labels = labels
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.bucket_counts: List[int] = [0] * len(self.bounds)
        self.count = 0
        self.sum = 0.0

    @property
    def value(self):
        return self.count

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bound of the bucket
        holding the q-th observation); +inf observations clamp to the top
        bound."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile {q!r} outside [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        for bound, cumulative in zip(self.bounds, self.bucket_counts):
            if cumulative >= rank:
                return bound
        return self.bounds[-1]


class MetricsRegistry:
    """Families of named, labeled metrics with deterministic export.

    One family name maps to one metric kind; asking for an existing
    ``(name, labels)`` pair returns the same instance, so components can
    hold direct references on their hot paths (no dict lookup per
    increment).
    """

    def __init__(self) -> None:
        self._kinds: Dict[str, str] = {}
        self._families: Dict[str, Dict[LabelKey, object]] = {}

    # -- factories ---------------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None,
              **labels) -> Gauge:
        gauge = self._get(Gauge, name, labels, fn=fn)
        if fn is not None:
            gauge.fn = fn
        return gauge

    def histogram(self, name: str, bounds: Sequence[float] = TIME_BUCKETS,
                  **labels) -> Histogram:
        return self._get(Histogram, name, labels, bounds=bounds)

    def _get(self, cls, name: str, labels: Dict[str, object], **kwargs):
        seen = self._kinds.get(name)
        if seen is not None and seen != cls.kind:
            raise ConfigurationError(
                f"metric {name!r} already registered as a {seen}"
            )
        key = _label_key(labels)
        family = self._families.setdefault(name, {})
        metric = family.get(key)
        if metric is None:
            metric = cls(name, key, **kwargs)
            family[key] = metric
            self._kinds[name] = cls.kind
        return metric

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return sum(len(f) for f in self._families.values())

    def families(self) -> List[Tuple[str, str, List[object]]]:
        """``(name, kind, [metrics sorted by label key])``, name-sorted."""
        out = []
        for name in sorted(self._families):
            metrics = [
                self._families[name][key]
                for key in sorted(self._families[name])
            ]
            out.append((name, self._kinds[name], metrics))
        return out

    def value(self, name: str, **labels):
        """The current value of one metric (0 when never touched)."""
        family = self._families.get(name)
        if family is None:
            return 0
        metric = family.get(_label_key(labels))
        return 0 if metric is None else metric.value

    def query(self, prefix: str = "", **labels) -> Dict[str, object]:
        """``{series: value}`` over every family whose name starts with
        ``prefix``, restricted to series carrying all of ``labels``.

        Keys are the canonical ``family{label="v"}`` strings the
        Prometheus exporter prints, in exporter order; a histogram
        contributes its ``_sum`` and ``_count`` series (no buckets).
        """
        from repro.obs.export import _label_str

        wanted = set(_label_key(labels))
        out: Dict[str, object] = {}
        for name, kind, metrics in self.families():
            if not name.startswith(prefix):
                continue
            for metric in metrics:
                if not wanted <= set(metric.labels):
                    continue
                tail = _label_str(metric.labels)
                if kind == "histogram":
                    out[f"{name}_sum{tail}"] = metric.sum
                    out[f"{name}_count{tail}"] = metric.count
                else:
                    out[name + tail] = metric.value
        return out

    # -- export ------------------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        """Structured snapshot; stable ordering, so ``json.dumps`` of two
        identical runs is byte-identical."""
        from repro.obs.export import registry_to_json

        return registry_to_json(self)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        from repro.obs.export import registry_to_prometheus

        return registry_to_prometheus(self)


_GLOBAL: Optional[MetricsRegistry] = None


def global_registry() -> MetricsRegistry:
    """The conventional process-wide registry (created on first use)."""
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = MetricsRegistry()
    return _GLOBAL
