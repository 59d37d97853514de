"""Metrics registry semantics and exporter round-trips."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.export import parse_metrics_json, parse_prometheus
from repro.obs.metrics import (
    SIZE_BUCKETS,
    TIME_BUCKETS,
    MetricsRegistry,
)

pytestmark = pytest.mark.obs


# -- registry semantics -----------------------------------------------------


def test_counter_identity_and_int_preservation():
    registry = MetricsRegistry()
    c1 = registry.counter("ops_total", op="read")
    c2 = registry.counter("ops_total", op="read")
    assert c1 is c2  # same (name, labels) -> same instance
    c1.inc()
    c1.inc(4)
    assert c1.value == 5
    assert isinstance(c1.value, int)  # int increments keep int-ness
    c1.inc(0.5)
    assert isinstance(c1.value, float)


def test_counter_rejects_negative_increment():
    with pytest.raises(ConfigurationError):
        MetricsRegistry().counter("x_total").inc(-1)


def test_kind_collision_is_an_error():
    registry = MetricsRegistry()
    registry.counter("thing")
    with pytest.raises(ConfigurationError):
        registry.gauge("thing")


def test_gauge_callback_reads_live_value():
    registry = MetricsRegistry()
    state = {"n": 1}
    gauge = registry.gauge("depth", fn=lambda: state["n"])
    assert gauge.value == 1
    state["n"] = 7
    assert gauge.value == 7
    assert registry.value("depth") == 7


def test_histogram_buckets_are_cumulative_and_fixed():
    registry = MetricsRegistry()
    hist = registry.histogram("lat_seconds", bounds=TIME_BUCKETS)
    hist.observe(2e-6)   # lands in the 4e-6 bucket and everything above
    hist.observe(1e-3)
    hist.observe(100.0)  # beyond the top bound: only count/sum see it
    assert hist.count == 3
    assert hist.bucket_counts[-1] == 2
    assert hist.bucket_counts == sorted(hist.bucket_counts)
    assert hist.quantile(0.5) >= 2e-6
    with pytest.raises(ConfigurationError):
        registry.histogram("bad_seconds", bounds=[2.0, 1.0])


def test_bucket_constants_are_ascending():
    assert list(TIME_BUCKETS) == sorted(TIME_BUCKETS)
    assert list(SIZE_BUCKETS) == sorted(SIZE_BUCKETS)


# -- exporter round-trips ---------------------------------------------------


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("device_ops_total", device="hdd", op="read").inc(12)
    registry.counter("device_ops_total", device="hdd", op="write").inc(3)
    registry.counter("plain_total").inc(1)
    registry.gauge("pressure").set(0.25)
    hist = registry.histogram("svc_seconds", bounds=TIME_BUCKETS)
    for v in (3e-6, 2e-4, 0.5):
        hist.observe(v)
    return registry


def test_prometheus_round_trip():
    registry = _populated_registry()
    text = registry.to_prometheus()
    parsed = parse_prometheus(text)
    assert parsed["device_ops_total"][
        (("device", "hdd"), ("op", "read"))
    ] == 12.0
    assert parsed["plain_total"][()] == 1.0
    assert parsed["pressure"][()] == 0.25
    assert parsed["svc_seconds_count"][()] == 3.0
    assert parsed["svc_seconds_sum"][()] == pytest.approx(0.500203)
    # +Inf bucket equals the observation count.
    inf_key = (("le", "+Inf"),)
    assert parsed["svc_seconds_bucket"][inf_key] == 3.0


def test_prometheus_parser_rejects_garbage():
    with pytest.raises(ValueError):
        parse_prometheus("this is not exposition format")


def test_json_round_trip_and_validation():
    registry = _populated_registry()
    payload = json.dumps(registry.to_json())
    record = parse_metrics_json(payload)
    by_name = {f["name"]: f for f in record["families"]}
    ops = by_name["device_ops_total"]
    assert ops["kind"] == "counter"
    assert {tuple(sorted(m["labels"].items())) for m in ops["metrics"]} == {
        (("device", "hdd"), ("op", "read")),
        (("device", "hdd"), ("op", "write")),
    }
    hist = by_name["svc_seconds"]["metrics"][0]
    assert hist["count"] == 3
    assert [b["le"] for b in hist["buckets"]] == list(TIME_BUCKETS)
    with pytest.raises(ValueError):
        parse_metrics_json(json.dumps({"schema_version": 99, "families": []}))


# -- query: the read surface ---------------------------------------------------


def test_query_filters_by_prefix_and_labels():
    registry = _populated_registry()
    registry.counter("device_ops_total", device="ssd", op="read").inc(7)
    assert registry.query("device_") == {
        'device_ops_total{device="hdd",op="read"}': 12,
        'device_ops_total{device="hdd",op="write"}': 3,
        'device_ops_total{device="ssd",op="read"}': 7,
    }
    # Labels narrow to series carrying *all* of them (others may ride along).
    assert registry.query("device_", op="read") == {
        'device_ops_total{device="hdd",op="read"}': 12,
        'device_ops_total{device="ssd",op="read"}': 7,
    }
    assert registry.query(device="ssd", op="read") == {
        'device_ops_total{device="ssd",op="read"}': 7,
    }
    assert registry.query("plain") == {"plain_total": 1}
    assert registry.query("nothing_") == {}
    assert registry.query("device_", op="erase") == {}
    # One series read two ways.
    assert registry.value("device_ops_total", device="ssd", op="read") == 7


def test_query_reports_histograms_as_sum_and_count():
    registry = _populated_registry()
    assert registry.query("svc_") == {
        "svc_seconds_sum": pytest.approx(0.500203),
        "svc_seconds_count": 3,
    }
    labelled = MetricsRegistry()
    labelled.histogram("wait_seconds", tenant="a").observe(0.5)
    assert labelled.query() == {
        'wait_seconds_sum{tenant="a"}': 0.5,
        'wait_seconds_count{tenant="a"}': 1,
    }


def test_query_keys_are_the_exporters_sample_lines_in_order():
    registry = _populated_registry()
    lines = [
        line.rpartition(" ")
        for line in registry.to_prometheus().splitlines()
        if not line.startswith("#") and "_bucket{" not in line
    ]
    series = registry.query()
    assert list(series) == [name for name, _, _ in lines]
    assert [float(v) for v in series.values()] == [
        float(value) for _, _, value in lines
    ]


def test_query_everything_equals_the_json_snapshot():
    registry = _populated_registry()
    flat = {}
    for family in registry.to_json()["families"]:
        for metric in family["metrics"]:
            labels = ",".join(
                f'{k}="{v}"' for k, v in metric["labels"].items()
            )
            tail = f"{{{labels}}}" if labels else ""
            if family["kind"] == "histogram":
                flat[f"{family['name']}_sum{tail}"] = metric["sum"]
                flat[f"{family['name']}_count{tail}"] = metric["count"]
            else:
                flat[family["name"] + tail] = metric["value"]
    assert registry.query("") == registry.query() == flat
    assert list(registry.query()) == list(flat)


def test_query_reads_live_values_and_escapes_like_the_exporter():
    registry = MetricsRegistry()
    level = {"now": 1}
    registry.gauge("depth", fn=lambda: level["now"], fs='a"b')
    assert registry.query() == {'depth{fs="a\\"b"}': 1}
    level["now"] = 4
    assert registry.query("depth") == {'depth{fs="a\\"b"}': 4}


def test_exports_are_deterministic():
    a = _populated_registry()
    b = _populated_registry()
    assert a.to_prometheus() == b.to_prometheus()
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(
        b.to_json(), sort_keys=True
    )
