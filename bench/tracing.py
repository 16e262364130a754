"""Spans recorded around public calls into lgvlab, and the per-layer
metrics derived from them.

A span is ``{name, start, end, parent, op_id}`` plus ``items`` (the objects,
families or hops the call worked through) and ``err`` (the exception class
the call raised, if any).  The name is ``<module>.<function>``, so the layer
is the part before the dot; ``op`` spans wrap one whole op.  Spans nest in
time: a span's self time is its duration minus that of its children.
Spans stay in memory until the run ends.
"""

import json
from time import perf_counter

# op_id prefixes of spans that are not workload ops.
PROBE = "probe:"
BASELINE = "baseline:"


class _Span:
    __slots__ = ("tracer", "index", "items")

    def __init__(self, tracer, index, items):
        self.tracer = tracer
        self.index = index
        self.items = items

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer._close(self, exc_type)
        return False


class Tracer:
    """Collects spans and per-op counters for one run."""

    def __init__(self):
        # Each span: [name, start, end, parent, op_id, items, err, child_s]
        self.spans = []
        self.counters = {}
        self.op_id = None
        self._stack = []

    def span(self, name, items=0):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent, self.op_id,
                           items, None, 0.0])
        self._stack.append(index)
        return _Span(self, index, items)

    def _close(self, span, exc_type):
        end = perf_counter()
        record = self.spans[span.index]
        record[2] = end
        record[5] = span.items
        if exc_type is not None:
            record[6] = exc_type.__name__
        self._stack.pop()
        if record[3] is not None:
            self.spans[record[3]][7] += end - record[1]

    def count(self, name, value):
        """Add ``value`` to a counter, kept apart per kind of op."""
        key = (_source(self.op_id), name)
        self.counters[key] = self.counters.get(key, 0) + value

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op_id, items, err, _ in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op_id": op_id, "items": items,
                    "err": err}) + "\n")


def _source(op_id):
    text = str(op_id)
    if text.startswith(PROBE):
        return "probe"
    if text.startswith(BASELINE):
        return "baseline"
    return "workload"


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer):
    """Per-layer metrics of a traced run, and the names measured on probes.

    Each metric reads the spans of the workload's own ops.  A layer the
    workload never calls is measured on the fixed probe ops instead, so
    every metric is a measured value on every workload; the second result
    lists those metrics.
    """
    groups = {"workload": {}, "probe": {}}
    for name, start, end, parent, op_id, items, err, child_s in tracer.spans:
        source = _source(op_id)
        if source in groups:
            groups[source].setdefault(name, []).append(
                (end - start, items, err, end - start - child_s))
    counters = {"workload": {}, "probe": {}}
    for (source, name), value in tracer.counters.items():
        if source in counters:
            counters[source][name] = value

    metrics, from_probe = {}, []
    for metric, names, reduce in _LAYER_RULES:
        source = "workload"
        if not any(groups["workload"].get(n) for n in names):
            source = "probe"
            from_probe.append(metric)
        spans = [s for n in names for s in groups[source].get(n, [])]
        metrics[metric] = reduce(spans, counters[source])
    return metrics, from_probe


def _ok(spans):
    return [s for s in spans if s[2] is None]


def _per_item_us(spans, _):
    ok = _ok(spans)
    items = sum(s[1] for s in ok)
    return 1e6 * sum(s[0] for s in ok) / items if items else 0.0


def _mean_us(spans, _):
    return 1e6 * _mean([s[0] for s in _ok(spans)])


def _mean_ms(spans, _):
    return 1e3 * _mean([s[0] for s in _ok(spans)])


def _self_ms(spans, _):
    return 1e3 * _mean([s[3] for s in _ok(spans)])


def _items(spans, _):
    return sum(s[1] for s in _ok(spans))


def _max_items(spans, _):
    return max((s[1] for s in _ok(spans)), default=0)


def _mean_items(spans, _):
    return _mean([s[1] for s in _ok(spans)])


def _refused(spans, _):
    return sum(1 for s in spans if s[2] == "GuardExceeded")


def _counter_ratio(num, den):
    def reduce(_, counters):
        total = counters.get(den, 0)
        return counters.get(num, 0) / total if total else 0.0
    return reduce


_SIJECTION_BUILDS = ["bijections.zero_to_max_sijection",
                     "bijections.weight_permutation_sijection",
                     "bijections.lgv_sijection"]

# (metric, span names it reads, reduction)
_LAYER_RULES = [
    ("objects.genfun_us_per_obj", ["objects.genfun_by_enumeration"], _per_item_us),
    ("objects.schur_us_per_obj", ["objects.schur_by_enumeration"], _per_item_us),
    ("objects.pp_enumerated", ["objects.genfun_by_enumeration"], _items),
    ("objects.ssyt_enumerated", ["objects.schur_by_enumeration"], _items),
    ("objects.count_closed_form_us", ["objects.count_plane_partitions"], _mean_us),
    ("algebra.det_ms_per_call", ["algebra.det_division_free"], _mean_ms),
    ("algebra.det_max_n", ["algebra.det_division_free"], _max_items),
    ("algebra.lgv_matrix_us", ["algebra.lgv_matrix"], _mean_us),
    ("guards.refused", ["algebra.det_division_free",
                        "objects.genfun_by_enumeration",
                        "objects.schur_by_enumeration",
                        "paths.enumerate_families"], _refused),
    ("paths.pp_encode_us", ["paths.pp_encode"], _mean_us),
    ("paths.pp_decode_us", ["paths.pp_decode"], _mean_us),
    ("paths.ssyt_encode_us", ["paths.ssyt_encode"], _mean_us),
    ("paths.ssyt_decode_us", ["paths.ssyt_decode"], _mean_us),
    ("bijections.sijection_build_us", _SIJECTION_BUILDS, _mean_us),
    ("sijections.hops_mean", ["sijections.forward"], _mean_items),
    ("sijections.hops_max", ["sijections.forward"], _max_items),
    ("sijections.us_per_hop", ["sijections.forward"], _per_item_us),
    ("bijections.tail_swap_us", ["bijections.tail_swap"], _per_item_us),
    ("paths.families_enumerated", ["paths.enumerate_families"], _items),
    ("paths.enum_us_per_family", ["paths.enumerate_families"], _per_item_us),
    ("paths.count_families_ms", ["paths.count_families"], _mean_ms),
    ("paths.ni_share", ["paths.is_nonintersecting"],
     _counter_ratio("paths.nonintersecting", "paths.families")),
    ("sijections.check_sijection_ms", ["sijections.check_sijection"], _mean_ms),
    ("sijections.check_compat_ms", ["sijections.check_compatibility"], _mean_ms),
    ("sijections.elements_checked", ["sijections.check_sijection",
                                     "sijections.check_compatibility"], _items),
    ("verify.self_ms", ["verify.verify_theorem1", "verify.verify_lgv"], _self_ms),
    ("cli.self_ms", ["cli.main"], _self_ms),
    ("cli.json_bytes", ["cli.main"],
     _counter_ratio("cli.json_bytes", "cli.ops")),
]
