"""The re-anchor baselines of ROADMAP.md, measured again as labelled rows
of a traced run.  Each row repeats the ROADMAP figure beside the new one;
the spans go to the run's span file under ``baseline:<label>`` op ids and
stay out of the per-layer metrics.
"""

import random
import statistics
from time import perf_counter

from lgvlab.algebra import det_division_free, det_int, lgv_matrix
from lgvlab.objects import (
    Partition,
    count_plane_partitions,
    enumerate_plane_partitions,
    genfun_by_enumeration,
)

import spec
import tracing
import workloads

_ELEMENTS = 200
_DET_REPEATS = 3


def _row(label, correct, **measured):
    return {"label": label, "roadmap": spec.ROADMAP_BASELINES[label],
            "correct": correct, **measured}


def brute_genfun(tracer):
    label = "brute-genfun-5432-m4"
    tracer.op_id = tracing.BASELINE + label
    shape = Partition((5, 4, 3, 2))
    count = count_plane_partitions(shape, 4)
    started = perf_counter()
    with tracer.span("objects.genfun_by_enumeration", count):
        poly = genfun_by_enumeration(shape, 4, "zeros")
    seconds = perf_counter() - started
    return [_row(label, poly(1) == count, seconds=seconds, objects=count,
                 us_per_object=1e6 * seconds / count)]


def zero_to_max(tracer):
    """Elements of (4,4,4), m=4: the first 200 in enumeration order, as
    ROADMAP counted hops, and 200 drawn with the fixed seed 0."""
    label = "zero-to-max-444-m4"
    shape = Partition((4, 4, 4))
    stream = list(enumerate_plane_partitions(shape, 4))
    rows = []
    for name, elements in (
            ("first", stream[:_ELEMENTS]),
            ("seed-0", random.Random(0).sample(stream, _ELEMENTS))):
        tracer.op_id = f"{tracing.BASELINE}{label}:{name}"
        checker, latencies, hops = workloads.Checker(), [], []
        for pp in elements:
            op = workloads.pp_map_op(pp)
            started = perf_counter()
            raw, count = workloads.replay(op, tracer)
            latencies.append(perf_counter() - started)
            hops.append(count)
            if checker.judge(op, raw, None, count)[0] != "ok":
                break
        rows.append(_row(
            label, len(hops) == _ELEMENTS, elements=f"{name} {_ELEMENTS}",
            p50_ms=1e3 * statistics.median(latencies),
            mean_ms=1e3 * statistics.mean(latencies),
            hops_mean=statistics.mean(hops), hops_max=max(hops)))
    return rows


def det_12x12(tracer):
    label = "det-division-free-12x12"
    tracer.op_id = tracing.BASELINE + label
    matrix = lgv_matrix(Partition(range(12, 0, -1)), 3)
    seconds = []
    for _ in range(_DET_REPEATS):
        started = perf_counter()
        with tracer.span("algebra.det_division_free", matrix.n):
            poly = det_division_free(matrix)
        seconds.append(perf_counter() - started)
    correct = all(poly(x) == det_int(matrix.evaluate(x)) for x in range(13))
    return [_row(label, correct, matrix="lgv_matrix((12,11,...,1), 3)",
                 seconds=statistics.median(seconds))]


BASELINES = {
    "brute-identity": brute_genfun,
    "pingpong-map": zero_to_max,
    "det-route": det_12x12,
}
