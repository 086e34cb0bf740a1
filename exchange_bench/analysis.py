"""Turns one raw report of exchange_bench into the benchmark's metrics.

The C++ program keeps every sample and span and writes them out; all
statistics are computed here, from those kept values:

* percentiles are exact nearest-rank values over the kept samples, never
  histogram bucket bounds;
* the tail latency is taken at the highest percentile (at most p99) that
  still has at least ten samples beyond it;
* server-side layer numbers are means (histogram sum / count) read from
  the event server's metrics registry, and a metric whose registry name is
  missing is left out instead of failing the run;
* a span's self time is its duration minus the part of its interval that
  its child spans cover.
"""

import math
import statistics

MIB = float(1 << 20)

# (name, unit, better) — the order BENCHMARK.json lists them in.
END_TO_END = [
    ("ops_per_s", "ops/s", "higher"),
    ("latency_p50_us", "us", "lower"),
    ("ttfb_p50_us", "us", "lower"),
    ("goodput_mib_s", "MiB/s", "higher"),
    ("wire_bytes_per_op", "B", "lower"),
    ("wan_modeled_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
]

PER_LAYER = [
    ("soap.envelope_build_us", "us", "lower"),
    ("bxsa.encode_us", "us", "lower"),
    ("bxsa.decode_us", "us", "lower"),
    ("xbs.array_pack_us_per_mib", "us/MiB", "lower"),
    ("bxsa.dict_encode_us", "us", "lower"),
    ("bxsa.dict_decode_us", "us", "lower"),
    ("bxsa.dict_saved_bytes_per_op", "B", "higher"),
    ("bxsa.stream_write_us_per_mib", "us/MiB", "lower"),
    ("bxsa.stream_read_us_per_mib", "us/MiB", "lower"),
    ("transport.compress_us_per_mib", "us/MiB", "lower"),
    ("transport.decompress_us_per_mib", "us/MiB", "lower"),
    ("transport.compress_ratio", "x", "higher"),
    ("common.hmac_us_per_mib", "us/MiB", "lower"),
    ("transport.client_send_us", "us", "lower"),
    ("transport.client_wait_us", "us", "lower"),
    ("transport.syscalls_per_op", "count", "lower"),
    ("services.handler_us", "us", "lower"),
    ("server.deserialize_us", "us", "lower"),
    ("server.handler_us", "us", "lower"),
    ("server.serialize_us", "us", "lower"),
    ("server.reactor_wakeups_per_op", "count", "lower"),
    ("server.queue_depth_peak", "count", "lower"),
    ("server.respcache_hit_ratio", "1", "higher"),
    ("server.pool_hit_ratio", "1", "higher"),
    ("server.stream_buffered_peak_bytes", "B", "lower"),
    ("server.sec_verify_us_per_mib", "us/MiB", "lower"),
    ("residual_us", "us", "lower"),
    ("trace_overhead_ratio", "1", "lower"),
]

# Metric name of each span that becomes a per-exchange step cost.
STEP_METRICS = {
    "soap.envelope_build": "soap.envelope_build_us",
    "bxsa.encode": "bxsa.encode_us",
    "bxsa.decode": "bxsa.decode_us",
    "bxsa.dict_encode": "bxsa.dict_encode_us",
    "bxsa.dict_decode": "bxsa.dict_decode_us",
    "transport.client_send": "transport.client_send_us",
    "transport.client_wait": "transport.client_wait_us",
    "services.handler": "services.handler_us",
}

# Metric name of each span that becomes a per-MiB cost.
PER_MIB_METRICS = {
    "xbs.array_pack": "xbs.array_pack_us_per_mib",
    "bxsa.stream_write": "bxsa.stream_write_us_per_mib",
    "bxsa.stream_read": "bxsa.stream_read_us_per_mib",
    "transport.compress": "transport.compress_us_per_mib",
    "transport.decompress": "transport.decompress_us_per_mib",
    "common.hmac": "common.hmac_us_per_mib",
}

REGISTRY_PREFIX = "event"


# ---- percentiles ----------------------------------------------------------------


def percentile(sorted_values, p):
    """Nearest-rank p-th percentile (0 < p <= 100) of ascending values."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = math.ceil(p / 100.0 * len(sorted_values))
    return sorted_values[min(max(rank, 1), len(sorted_values)) - 1]


def tail(sorted_values, cap=99.0, beyond=10):
    """The highest nearest-rank percentile, at most `cap`, with at least
    `beyond` samples above its rank. Returns (value, percentile), or None
    when there are too few samples for any."""
    n = len(sorted_values)
    if n <= beyond:
        return None
    rank = min(math.ceil(cap / 100.0 * n), n - beyond)
    return sorted_values[rank - 1], 100.0 * rank / n


# ---- spans ---------------------------------------------------------------------


class Span:
    __slots__ = ("key", "name", "parent", "start", "end", "bytes", "waited")

    def __init__(self, key, name, parent, start, end, nbytes=0, waited=False):
        self.key = key
        self.name = name
        self.parent = parent  # key of the parent span, or None for a root
        self.start = start
        self.end = end
        self.bytes = nbytes
        self.waited = waited


def spans_from_report(report):
    """Span objects keyed (tracer, 1-based index) from the report rows."""
    names = report["span_names"]
    counters = {}
    out = []
    for tracer, name, ptracer, parent, _xid, start, end, nbytes, waited in (
            report["spans"]):
        idx = counters.get(tracer, 0) + 1
        counters[tracer] = idx
        out.append(Span((tracer, idx), names[name],
                        (ptracer, parent) if parent else None, start, end,
                        nbytes, bool(waited)))
    return out


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """{span key: duration minus the union of its children's intervals,
    each clipped to the span's own interval}."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        clipped = [(max(c.start, s.start), min(c.end, s.end))
                   for c in children.get(s.key, ())]
        out[s.key] = (s.end - s.start) - covered(clipped)
    return out


def step_costs(spans, selfs, waited_only=False):
    """{span name: mean over exchanges of that step's summed self time
    (ns) within one exchange}. Exchanges are identified by the parent
    span the steps hang under."""
    per = {}
    for s in spans:
        if s.parent is None or (waited_only and not s.waited):
            continue
        group = per.setdefault(s.name, {})
        group[s.parent] = group.get(s.parent, 0) + selfs[s.key]
    return {name: statistics.fmean(g.values()) for name, g in per.items()}


def per_mib_costs(spans, selfs):
    """{span name: self time in us per MiB the step processed}."""
    ns = {}
    nbytes = {}
    for s in spans:
        ns[s.name] = ns.get(s.name, 0) + selfs[s.key]
        nbytes[s.name] = nbytes.get(s.name, 0) + s.bytes
    return {name: ns[name] / 1e3 / (nbytes[name] / MIB)
            for name in ns if nbytes[name] > 0}


def residual_us(latency_p50_us, blocking_us):
    """What the end-to-end median leaves unexplained once every blocking
    step's cost is subtracted (kernel time and thread hand-offs)."""
    return latency_p50_us - sum(blocking_us)


# ---- registry --------------------------------------------------------------------


class Registry:
    """Read-only view of one obs::Registry JSON snapshot. Every lookup
    returns None when the name is not registered."""

    def __init__(self, snapshot, prefix=REGISTRY_PREFIX):
        self.snap = snapshot
        self.prefix = prefix

    def _get(self, kind, name):
        return self.snap.get(kind, {}).get(self.prefix + "." + name)

    def counter(self, name):
        return self._get("counters", name)

    def mean_us(self, histogram):
        h = self._get("histograms", histogram)
        if h is None:
            return None
        return h["sum"] / h["count"] / 1e3 if h["count"] else 0.0

    def peak(self, waterline):
        w = self._get("waterlines", waterline)
        return None if w is None else float(w["peak"])


def ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


# ---- metrics ----------------------------------------------------------------------


def segment_samples(phase, key):
    """Per timed segment, the samples (all connections) it kept. The
    report lists each connection's samples in time order, connection 0
    first; each segment records every connection's running count."""
    samples = phase[key]
    ends = [seg["ends"] for seg in phase["segments"]]
    offsets = [0]
    for total in ends[-1]:
        offsets.append(offsets[-1] + total)
    out = []
    for k, seg_ends in enumerate(ends):
        kept = []
        for c, end in enumerate(seg_ends):
            start = ends[k - 1][c] if k else 0
            kept.extend(samples[offsets[c] + start:offsets[c] + end])
        out.append(kept)
    return out


def quieter_half(steal_shares):
    """Indexes of the half (rounded up) of the measurements during which
    the hypervisor took the least CPU time for other guests (steal)."""
    order = sorted(range(len(steal_shares)),
                   key=lambda i: (steal_shares[i], i))
    return sorted(order[:(len(steal_shares) + 1) // 2])


def quiet_segments(phase):
    return quieter_half([seg["steal_share"] for seg in phase["segments"]])


def latency_summary(phase, chosen=None):
    """Sorted latency and time-to-first-byte samples of the chosen
    segments (all segments by default)."""
    chosen = range(len(phase["segments"])) if chosen is None else chosen
    by_seg = segment_samples(phase, "latency_ns")
    lat = sorted(v for i in chosen for v in by_seg[i])
    if not lat:
        raise ValueError("no verified exchanges")
    # A materialized reply's first byte is visible only when call()
    # returns, so those reports carry no separate time-to-first-byte.
    if not phase["ttfb_ns"]:
        return lat, lat
    by_seg = segment_samples(phase, "ttfb_ns")
    return lat, sorted(v for i in chosen for v in by_seg[i])


def end_to_end(report):
    """{name: value} for every end-to-end metric, from an untraced run.
    Throughput, latency and set-up time come from the quieter half of the
    segments and set-ups: host steal time is noise from other guests, not
    the program's cost."""
    ph = report["untraced"]
    chosen = quiet_segments(ph)
    segs = [ph["segments"][i] for i in chosen]
    lat, ttfb = latency_summary(ph, chosen)
    window = sum(s["window_s"] for s in segs)
    ops = sum(s["completed"] for s in segs)
    p50_s = percentile(lat, 50) / 1e9
    return {
        "ops_per_s": ops / window,
        "latency_p50_us": percentile(lat, 50) / 1e3,
        "ttfb_p50_us": percentile(ttfb, 50) / 1e3,
        "goodput_mib_s": sum(s["logical_bytes"] for s in segs) / MIB / window,
        "wire_bytes_per_op":
            sum(s["bytes_in"] + s["bytes_out"] for s in segs) / ops,
        "wan_modeled_ms": (p50_s + statistics.median(
            s["wan_wire_s"] for s in segs)) * 1e3,
        "setup_s": statistics.median(
            report["setup_s"][i]
            for i in quieter_half(report["setup_steal_share"])),
        "peak_rss_mib": report["peak_rss_kib"] / 1024.0,
    }


def per_layer(report):
    """{name: value} for every per-layer metric of a traced run; a metric
    whose registry source is missing is absent from the result."""
    spans = spans_from_report(report)
    selfs = self_times(spans)
    replay = [s for s in spans if s.key[0] == report["connections"]]
    steps = step_costs(spans, selfs)
    waited = step_costs(replay, selfs, waited_only=True)
    per_mib = per_mib_costs(replay, selfs)
    reg = Registry(report["registry"])
    rep = report["replay"]
    untraced, traced = report["untraced"], report["traced"]
    lat_traced, _ = latency_summary(traced)
    lat_untraced, _ = latency_summary(untraced)
    p50_traced_us = percentile(lat_traced, 50) / 1e3
    exchanges = report["server_exchanges"]

    m = {}
    for span_name, metric in STEP_METRICS.items():
        m[metric] = steps.get(span_name, 0.0) / 1e3
    for span_name, metric in PER_MIB_METRICS.items():
        m[metric] = per_mib.get(span_name, 0.0)
    m["bxsa.dict_saved_bytes_per_op"] = (
        rep["dict_saved_bytes"] / rep["exchanges"] if rep["exchanges"] else 0.0)
    m["transport.compress_ratio"] = (
        rep["compress_plain_bytes"] / rep["compress_wire_bytes"]
        if rep["compress_wire_bytes"] else 1.0)
    m["transport.syscalls_per_op"] = (
        sum(seg["syscalls"] for seg in untraced["segments"]) /
        sum(seg["completed"] for seg in untraced["segments"]))

    server = {
        "server.deserialize_us": reg.mean_us("stage.deserialize.ns"),
        "server.handler_us": reg.mean_us("stage.handler.ns"),
        "server.serialize_us": reg.mean_us("stage.serialize.ns"),
        "server.reactor_wakeups_per_op": ratio(
            reg.counter("reactor.wakeups"), exchanges),
        "server.queue_depth_peak": reg.peak("queue.waterline"),
        "server.pool_hit_ratio": _hit_ratio(
            reg.counter("pool.hit"), reg.counter("pool.miss")),
        "server.stream_buffered_peak_bytes": reg.peak("stream.buffered_bytes"),
        "server.sec_verify_us_per_mib": _per_mib(
            reg.counter("sec.verify.ns"), reg.counter("sec.bytes_authenticated")),
    }
    if report["uses_cache"]:
        server["server.respcache_hit_ratio"] = _hit_ratio(
            reg.counter("respcache.hits"), reg.counter("respcache.misses"))
    else:
        server["server.respcache_hit_ratio"] = 0.0  # no cache, no lookups
    m.update({k: v for k, v in server.items() if v is not None})

    # The caller's blocking path. A materialized call runs its client steps
    # in sequence and waits in client_wait for the server's stages and the
    # dictionary work on the wait path; a streamed call's caller blocks in
    # the consumer (client_wait) while the producer overlaps it.
    if report["family"] == "materialized":
        server_stages = [server[k] for k in (
            "server.deserialize_us", "server.handler_us", "server.serialize_us")]
        if None not in server_stages:
            blocking = [steps.get(n, 0.0) / 1e3 for n in (
                "soap.envelope_build", "bxsa.encode", "transport.client_send",
                "bxsa.decode")]
            blocking += server_stages
            blocking += [v / 1e3 for v in waited.values()]
            m["residual_us"] = residual_us(p50_traced_us, blocking)
    else:
        m["residual_us"] = residual_us(
            p50_traced_us, [steps.get("transport.client_wait", 0.0) / 1e3])
    m["trace_overhead_ratio"] = (
        p50_traced_us / (percentile(lat_untraced, 50) / 1e3))
    return m


def _hit_ratio(hits, misses):
    if hits is None or misses is None:
        return None
    return hits / (hits + misses) if hits + misses else 0.0


def _per_mib(ns, nbytes):
    if ns is None or nbytes is None:
        return None
    return ns / 1e3 / (nbytes / MIB) if nbytes else 0.0

