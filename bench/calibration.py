"""A gauge of the machine's speed while the benchmark runs.

The benchmark shares its machine, whose speed drifts by tens of percent
over seconds and minutes, and not by the same amount for every kind of
work.  Each workload names a kernel here that does the same kind of work
as its ops without touching lgvlab: small-object work (tuples, dict
lookups) for the enumerating workloads, integer arithmetic for the
determinant workload.  A run times its kernel between ops and divides
each op's time by the ratio of the kernel's mean time around that op to
its nominal time, so that the drift shared by kernel and ops cancels.  The
raw figures are reported too.
"""

import bisect
import statistics
from time import perf_counter


def _objects() -> int:
    seen = {}
    total = 0
    for i in range(3000):
        key = (i % 97, i % 89, i // 7)
        seen[key] = seen.get(key, 0) + 1
        total += len(key) * (i & 7)
    return total + len(seen)


def _arithmetic() -> int:
    total = 0
    for i in range(12000):
        total += (i * 7) % 13 - (i >> 3)
    return total


# kernel name -> (kernel, its mean time on the machine the benchmark was
# defined on, in seconds)
KERNELS = {
    "objects": (_objects, 0.0011),
    "arithmetic": (_arithmetic, 0.0013),
}


def time_kernel(name: str) -> float:
    kernel, _ = KERNELS[name]
    started = perf_counter()
    kernel()
    return perf_counter() - started


def slowdown(name: str, samples) -> float:
    """How much slower than nominal the machine ran over ``samples``, kernel
    times taken at even intervals: the factor to divide measured times by."""
    return statistics.fmean(samples) / KERNELS[name][1]


def local_slowdowns(name: str, samples, times, window_s: float) -> list[float]:
    """The slowdown around each of ``times``, from the kernel ``samples``
    ((taken at, seconds) pairs in time order) within ``window_s`` of it."""
    taken = [at for at, _ in samples]
    sums = [0.0]
    for _, seconds in samples:
        sums.append(sums[-1] + seconds)
    nominal = KERNELS[name][1]
    factors = []
    for t in times:
        lo = bisect.bisect_left(taken, t - window_s)
        hi = bisect.bisect_right(taken, t + window_s)
        if hi == lo:
            lo, hi = 0, len(taken)
        factors.append((sums[hi] - sums[lo]) / (hi - lo) / nominal)
    return factors
