"""Verification suites: run an instance through independent routes and
report every check, with a witness whenever something disagrees.

All suites return the same report shape::

    {"instance": {...}, "results": {...},
     "checks": [{"name": str, "passed": bool, "witness": ...}, ...],
     "runtime_ms": int}

The witness of a passing check is None; a failing check carries enough
data to reproduce the discrepancy.  The two map suites,
``verify_bijection`` and ``verify_schur``, share their checks through
``_map_checks``.
"""

import time
from collections import Counter
from itertools import count
from typing import Iterator

from .algebra import MultiPoly
from .bijections import (
    SwapCertificate,
    lgv_sijection,
    tail_swap,
    variable_positions,
    weight_permutation_map,
    zero_to_max_map,
)
from .guards import check_guard
from .objects import (
    Partition,
    _guarded_count,
    count_plane_partitions,
    count_tableaux,
    enumerate_partitions,
    enumerate_plane_partitions,
    enumerate_tableaux,
    refined_determinant,
    refined_genfuns_by_enumeration,
)
from .paths import (
    _family_count,
    _family_meet,
    count_ni_families,
    first_step_east_count,
    is_nonintersecting,
    last_step_east_count,
    plane_partition_endpoints,
)
from .sijections import TARGET, _round_trips, _stat_changes


def _check(name: str, passed: bool, witness=None) -> dict:
    """One report check; ``witness`` is reported only when it fails, and a
    callable witness is built (called) only then."""
    if not passed and callable(witness):
        witness = witness()
    return {"name": name, "passed": bool(passed),
            "witness": None if passed else witness}


def _finish(instance: dict, results: dict, checks: list, started: float) -> dict:
    return {
        "instance": instance,
        "results": results,
        "checks": checks,
        "runtime_ms": int((time.perf_counter() - started) * 1000),
    }


def report_passed(report: dict) -> bool:
    return all(c["passed"] for c in report["checks"])


def _map_checks(name: str, objects: list, images: list, stat_name: str,
                stat_witness, noun: str, involution: bool) -> list:
    """The checks of a map, read off ``images``, its image of each of
    ``objects``: ``<name>-is-bijection``, which also fails when an object
    is listed twice; ``stat_name``, whose ``stat_witness(object, image)``
    gives a witness, or None when the pair keeps the statistic; and, when
    ``involution``, ``<name>-is-involution``, which looks each image's
    image up among the images, so no map runs again."""
    distinct = set(images)
    unkept = next(filter(None, map(stat_witness, objects, images)), None)
    checks = [
        _check(f"{name}-is-bijection",
               len(distinct) == len(objects) and distinct == set(objects),
               {"distinct_images": len(distinct), noun: len(objects)}),
        _check(stat_name, unkept is None, unkept),
    ]
    if involution:
        image_of = dict(zip(objects, images))
        back = next((
            {"input": obj.to_json(), "output": image.to_json(),
             "output_of_output": None if again is None else again.to_json()}
            for obj, image in zip(objects, images)
            if (again := image_of.get(image)) != obj), None)
        checks.append(_check(f"{name}-is-involution", back is None, back))
    return checks


def verify_theorem1(shape, bound: int, guard_limit: int | None = None) -> dict:
    """Check that all three routes to the refined generating function agree.

    Routes: the brute tally weighted by rows containing 0, the same tally
    weighted by rows containing the bound, and ``refined_determinant``,
    n + 1 integer binomial minors, one per coefficient.  The brute tally
    tries every row beneath every row above it and counts the plane
    partitions that share a row cut together; it uses no determinant, so
    the determinant checks it independently.  The tally's guard comes
    first, then the determinant's.
    """
    started = time.perf_counter()
    shape = shape if isinstance(shape, Partition) else Partition(shape)
    zeros, maxes = refined_genfuns_by_enumeration(shape, bound, guard_limit)
    det = refined_determinant(shape, bound, guard_limit)
    # At x = 1 the determinant is the binomial determinant that guarded the
    # tally, so the closed-form count is read off it instead of computed again.
    total, enumerated = det(1), zeros(1)
    results = {
        "zeros": zeros.to_json(),
        "maxes": maxes.to_json(),
        "determinant": det.to_json(),
        "count": total,
    }
    checks = [
        _check("zeros-matches-maxes", zeros == maxes,
               lambda: {"zeros": results["zeros"], "maxes": results["maxes"]}),
        _check("zeros-matches-determinant", zeros == det,
               lambda: {"zeros": results["zeros"],
                        "determinant": results["determinant"]}),
        _check("determinant-at-one-counts-all", total == enumerated,
               lambda: {"determinant_at_one": total, "enumerated": enumerated}),
    ]
    instance = {"shape": list(shape.parts), "max": bound}
    return _finish(instance, results, checks, started)


def verify_lgv(shape, bound: int, guard_limit: int | None = None) -> dict:
    """Exercise the path model on one instance.

    Confirms the cancellation story end to end: the permanent counts the
    families, the determinant counts the non-intersecting ones, the tail
    swap is a sign-reversing involution on the rest, and the assembled
    sijection is bijective and statistic-preserving.
    """
    started = time.perf_counter()
    shape = shape if isinstance(shape, Partition) else Partition(shape)
    endpoints = plane_partition_endpoints(shape, bound)
    # The sijection's signed set keeps its stream, so this walk is the only
    # one: the checkers below replay it, and it sums the signs.  The walk's
    # guard computes the permanent and keeps it on the endpoints; the
    # report reads it there.
    sijection = lgv_sijection(endpoints, guard_limit)
    families, ni, crossing = [], [], []
    signed_sum = 0
    for family, sign in sijection.target.elements():
        families.append(family)
        signed_sum += sign
        (ni if is_nonintersecting(family) else crossing).append(family)
    det_count = count_ni_families(endpoints)
    perm_count = _family_count(endpoints)

    rejects_witness = None
    for family in ni:
        try:
            tail_swap(family)
        except ValueError:
            continue
        rejects_witness = {"family": family.to_json()}
        break

    # One round trip per element.  Once forward is a bijection that
    # backward undoes, backward is forward read the other way, so both
    # statistics are compared on the forward pairs whose round trip held.
    bijective, pairs = _round_trips(sijection)
    compat_last = _stat_changes(pairs, last_step_east_count,
                                last_step_east_count, "forward")
    compat_first = _stat_changes(pairs, first_step_east_count,
                                 first_step_east_count, "forward")

    # A round trip that held from a negative family f shows that the swap
    # sends f to a positive family g and g back to f, each swap computed
    # on its own, so on the orbit {f, g} only the kept meets are left to
    # compare: a meet is a certificate's point and path pair, and a
    # certificate is built only for a witness.  A crossing family in no
    # held orbit is swapped again, twice, and checked the same way.  The
    # witness is the first crossing family, in walk order, that fails.
    partner = {}  # by id: a correct swap returns the walked families
    for (side, _, family), (_, _, image) in pairs:
        if side == TARGET:
            partner[id(family)], partner[id(image)] = image, family
    involution_witness = None
    for family in crossing:
        swapped = partner.get(id(family))
        held = swapped is not None
        if not held:
            swapped = tail_swap(family)[0]
            try:
                again = tail_swap(swapped)[0]
            except ValueError:  # the image is disjoint, so no swap undoes it
                again = None
            held = again == family and swapped.sign == -family.sign
        meet = _family_meet(family)
        if held and _family_meet(swapped) == meet:
            continue
        point, i, j = meet
        involution_witness = {
            "family": family.to_json(),
            "swapped": swapped.to_json(),
            "certificate": SwapCertificate._trusted(point, (i, j)).to_json(),
        }
        break

    checks = [
        _check("family-count-matches-permanent", len(families) == perm_count,
               {"enumerated": len(families), "permanent": perm_count}),
        _check("signed-sum-matches-nonintersecting", signed_sum == len(ni),
               {"signed_sum": signed_sum, "nonintersecting": len(ni)}),
        _check("determinant-counts-nonintersecting", det_count == len(ni),
               {"determinant": det_count, "nonintersecting": len(ni)}),
        _check("tail-swap-involution", involution_witness is None,
               involution_witness),
        _check("tail-swap-rejects-disjoint", rejects_witness is None,
               rejects_witness),
        _check("sijection-bijective", bijective == [], bijective),
        _check("compatible-with-last-step-east", compat_last == [],
               compat_last),
        _check("compatible-with-first-step-east", compat_first == [],
               compat_first),
    ]
    results = {
        "families": len(families),
        "nonintersecting": len(ni),
        "signed_sum": signed_sum,
    }
    instance = {"shape": list(shape.parts), "max": bound}
    return _finish(instance, results, checks, started)


def verify_bijection(shape, bound: int, guard_limit: int | None = None) -> dict:
    """Run the zero-to-max map over a whole instance.

    Checks that it is a bijection of the plane partitions onto themselves,
    that it sends the zero-row count to the max-row count, and that it is
    an involution: the chain lgv . rev . lgv^-1 is its own inverse, and so
    is its ping-pong.  Each plane partition is mapped once.
    """
    started = time.perf_counter()
    shape = shape if isinstance(shape, Partition) else Partition(shape)
    _guarded_count(count_plane_partitions, "PP", shape, bound, guard_limit)
    pps = list(enumerate_plane_partitions(shape, bound))
    images = [zero_to_max_map(pp, guard_limit=guard_limit) for pp in pps]

    def crossing(pp, image):
        if pp.zero_rows() != image.max_rows():
            return {"input": pp.to_json(), "output": image.to_json(),
                    "zero_rows": pp.zero_rows(), "max_rows": image.max_rows()}

    checks = _map_checks("map", pps, images, "zero-rows-become-max-rows",
                         crossing, "objects", True)
    results = {"objects": len(pps)}
    instance = {"shape": list(shape.parts), "max": bound}
    return _finish(instance, results, checks, started)


def verify_schur(shape, varcount: int, perm=None,
                 guard_limit: int | None = None) -> dict:
    """Check Schur-polynomial symmetry and the weight-permuting bijection.

    Symmetry is verified on every adjacent transposition (which generate
    the full symmetric group) and on ``perm`` itself; the bijection is run
    over all tableaux for ``perm`` (default: the reversal), which is read
    through ``variable_positions``.  When ``perm`` is its own inverse, as
    the reversal is, the map is checked to be an involution too, as in
    ``verify_bijection``.  Each transposition permutes every tableau's
    varcount exponents, so the guard also sees tableaux times varcount
    squared.
    """
    started = time.perf_counter()
    shape = shape if isinstance(shape, Partition) else Partition(shape)
    det_count = _guarded_count(count_tableaux, "SSYT", shape, varcount,
                               guard_limit)
    check_guard(f"SSYT({list(shape.parts)}; {varcount}) permuted exponents",
                det_count * varcount ** 2, guard_limit)
    positions = variable_positions(
        range(varcount, 0, -1) if perm is None else perm)
    if len(positions) != varcount:
        raise ValueError(
            f"perm has {len(positions)} entries, expected {varcount}")
    perm = tuple(p + 1 for p in positions)
    tableaux = list(enumerate_tableaux(shape, varcount))
    poly = MultiPoly._trusted(varcount,
                              dict(Counter(t.weight() for t in tableaux)))

    symmetry_witness = None
    for k in range(varcount - 1):
        swap = list(range(varcount))
        swap[k], swap[k + 1] = swap[k + 1], swap[k]
        permuted = poly.permute_variables(swap)
        if permuted != poly:
            symmetry_witness = {"transposition": [k + 1, k + 2]}
            break
    perm_invariant = poly.permute_variables(positions) == poly

    images = [weight_permutation_map(t, perm, guard_limit=guard_limit)
              for t in tableaux]

    def misweighted(tableau, image):
        want = [0] * varcount
        for k, count in enumerate(tableau.weight()):
            want[positions[k]] = count
        got = list(image.weight())
        if got != want:
            return {"input": tableau.to_json(), "output": image.to_json(),
                    "expected_weight": want, "got_weight": got}

    checks = [
        _check("tableau-count-matches-determinant",
               len(tableaux) == det_count,
               {"enumerated": len(tableaux), "determinant": det_count}),
        _check("symmetric-under-adjacent-transpositions",
               symmetry_witness is None, symmetry_witness),
        _check("invariant-under-permutation", perm_invariant,
               {"perm": list(perm)}),
    ] + _map_checks(
        "weight-map", tableaux, images, "weight-map-permutes-weight",
        misweighted, "tableaux",
        all(positions[p] == k for k, p in enumerate(positions)))
    results = {
        "schur": poly.to_json(),
        "tableaux": len(tableaux),
        "perm": list(perm),
    }
    instance = {"shape": list(shape.parts), "vars": varcount}
    return _finish(instance, results, checks, started)


def _partition_counts() -> Iterator[int]:
    """p(0), p(1), p(2), ...: the partition numbers, by Euler's pentagonal
    number recurrence p(k) = sum over i >= 1 of (-1)**(i + 1) times
    p(k - i(3i - 1)/2) + p(k - i(3i + 1)/2)."""
    p = [1]
    yield 1
    for k in count(1):
        total = 0
        for i in count(1):
            low = i * (3 * i - 1) // 2
            if low > k:
                break
            term = p[k - low] + (p[k - low - i] if low + i <= k else 0)
            total += term if i & 1 else -term
        p.append(total)
        yield total


def _guard_sweep(max_size: int, max_bound: int,
                 guard_limit: int | None) -> None:
    """Refuse a sweep grid whose instances or objects exceed the guard.

    The instance count is p(0) + ... + p(max_size) times max_bound + 1,
    summed size by size; it stops at the first size at which it exceeds
    the limit, so a refusal names the count up to that size, a lower bound
    that costs nothing however large ``max_size`` is.  Within the limit,
    the objects are the closed-form counts of PP(shape; bound) summed over
    the whole grid, one binomial determinant per instance.
    """
    instances = 0
    for _, p in zip(range(max_size + 1), _partition_counts()):
        instances += p * (max_bound + 1)
        check_guard("sweep instances", instances, guard_limit)
    objects = sum(count_plane_partitions(shape, bound)
                  for shape in enumerate_partitions(max_size)
                  for bound in range(max_bound + 1))
    check_guard("sweep objects", objects, guard_limit)


def sweep(max_size: int, max_bound: int,
          guard_limit: int | None = None) -> dict:
    """Verify the refined counting identity across a grid of instances.

    Runs every shape of size at most ``max_size`` against every bound up
    to ``max_bound`` and records one check per instance.  Before running
    anything it refuses a grid larger than the guard limit (see
    ``_guard_sweep``).
    """
    if max_bound < 0:
        raise ValueError("max_bound must be nonnegative")
    started = time.perf_counter()
    _guard_sweep(max_size, max_bound, guard_limit)
    checks = []
    for shape in enumerate_partitions(max_size):
        for bound in range(max_bound + 1):
            report = verify_theorem1(shape, bound, guard_limit)
            found = report["results"]
            label = ",".join(str(p) for p in shape.parts) or "empty"
            checks.append(_check(
                f"shape=({label}) max={bound}", report_passed(report),
                {key: found[key] for key in ("zeros", "maxes", "determinant")}))
    results = {
        "instances": len(checks),
        "failures": sum(1 for c in checks if not c["passed"]),
    }
    instance = {"max_size": max_size, "max_bound": max_bound}
    return _finish(instance, results, checks, started)
