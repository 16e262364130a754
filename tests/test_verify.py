import collections
import json

import pytest

import lgvlab.bijections
import lgvlab.objects
import lgvlab.paths
from lgvlab import verify
from lgvlab.algebra import UniPoly
from lgvlab.guards import GuardExceeded
from lgvlab.objects import (
    Partition,
    count_tableaux,
    enumerate_partitions,
    schur_by_enumeration,
)
from lgvlab.paths import is_nonintersecting
from lgvlab.sijections import Sijection, check_compatibility, check_sijection
from lgvlab.verify import (
    report_passed,
    sweep,
    verify_bijection,
    verify_lgv,
    verify_schur,
    verify_theorem1,
)

REPORT_KEYS = {"instance", "results", "checks", "runtime_ms"}


def assert_report_shape(report):
    assert set(report) == REPORT_KEYS
    assert isinstance(report["runtime_ms"], int)
    for check in report["checks"]:
        assert set(check) == {"name", "passed", "witness"}
        if check["passed"]:
            assert check["witness"] is None
    json.dumps(report)  # must be serializable as-is


def test_verify_theorem1_passes():
    report = verify_theorem1(Partition([2, 1]), 2)
    assert_report_shape(report)
    assert report_passed(report)
    assert report["results"]["determinant"]["coeffs"] == ["5", "6", "3"]
    assert report["results"]["count"] == 14
    assert report["instance"] == {"shape": [2, 1], "max": 2}


def test_verify_theorem1_accepts_raw_parts():
    report = verify_theorem1((1, 1), 1)
    assert report_passed(report)
    assert report["results"]["zeros"]["coeffs"] == ["1", "1", "1"]


def test_verify_lgv_passes_and_counts():
    report = verify_lgv(Partition([2, 1]), 2)
    assert_report_shape(report)
    assert report_passed(report)
    assert report["results"] == {
        "families": 22, "nonintersecting": 14, "signed_sum": 14}
    names = [c["name"] for c in report["checks"]]
    assert "tail-swap-involution" in names
    assert "sijection-bijective" in names


def _check_named(report, name):
    return next(c for c in report["checks"] if c["name"] == name)


def test_verify_theorem1_checks_determinant_at_one_against_enumeration(
        monkeypatch):
    real = verify.refined_genfuns_by_enumeration

    def miscounting(shape, bound, guard_limit=None):
        return tuple(UniPoly((poly.coeffs[0] + 1,) + poly.coeffs[1:])
                     for poly in real(shape, bound, guard_limit))

    monkeypatch.setattr("lgvlab.verify.refined_genfuns_by_enumeration",
                        miscounting)
    report = verify_theorem1((1, 1), 1)
    check = _check_named(report, "determinant-at-one-counts-all")
    assert not check["passed"]
    assert check["witness"] == {"determinant_at_one": 3, "enumerated": 4}
    assert report["results"]["count"] == 3


def test_verify_lgv_tail_swap_rejection_covers_every_family(monkeypatch):
    # a tail swap that rejects only the first non-intersecting family must
    # be caught: the check has to try all of them
    real = verify.tail_swap
    disjoint = []

    def lenient(family):
        if is_nonintersecting(family):
            disjoint.append(family)
            if len(disjoint) > 1:
                return family, None
        return real(family)

    monkeypatch.setattr("lgvlab.verify.tail_swap", lenient)
    report = verify_lgv((1, 1), 1)
    check = _check_named(report, "tail-swap-rejects-disjoint")
    assert not check["passed"]
    assert check["witness"] == {"family": disjoint[1].to_json()}


def test_verify_lgv_walks_the_families_once(monkeypatch):
    # one family walk; the Ryser permanent at most twice (the walk's guard
    # and the report); each crossing family swapped at most twice (the
    # involution check and the sijection) and each non-intersecting family
    # offered to the swap once, by the rejection check
    calls = collections.Counter()
    swapped, rejected = collections.Counter(), collections.Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    def counting_swap(family, pairs):
        try:
            result = real_swap(family, pairs)
        except ValueError:
            rejected[family] += 1
            raise
        swapped[family] += 1
        return result

    real_swap = lgvlab.bijections._swap_parts
    monkeypatch.setattr(lgvlab.bijections, "enumerate_families", counting(
        "enumerate_families", lgvlab.bijections.enumerate_families))
    count = counting("count_families", lgvlab.paths.count_families)
    monkeypatch.setattr(lgvlab.paths, "count_families", count)
    monkeypatch.setattr(lgvlab.bijections, "_swap_parts", counting_swap)
    report = verify_lgv((3, 3, 2), 2)
    assert report_passed(report)
    results = report["results"]
    crossing = results["families"] - results["nonintersecting"]
    assert (results["families"], crossing) == (1175, 1020)
    assert calls["enumerate_families"] == 1
    assert calls["count_families"] <= 2
    assert sum(swapped.values()) <= 2 * crossing
    assert max(swapped.values()) <= 2
    assert sum(rejected.values()) == results["nonintersecting"]
    assert set(rejected).isdisjoint(swapped)


def test_verify_lgv_makes_one_round_trip_per_element(monkeypatch):
    # one forward and one backward evaluation per element of S+ |_| T-,
    # and each statistic read at most on an element and on its image
    calls = collections.Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in ("forward", "backward"):
        monkeypatch.setattr(Sijection, name,
                            counting(name, getattr(Sijection, name)))
    for name in ("first_step_east_count", "last_step_east_count"):
        monkeypatch.setattr(verify, name,
                            counting(name, getattr(verify, name)))
    report = verify_lgv((3, 3, 2), 2)
    assert report_passed(report)
    results = report["results"]
    negative = (results["families"] - results["signed_sum"]) // 2
    domain = results["nonintersecting"] + negative
    assert domain == 155 + 510
    assert calls["forward"] == domain
    assert calls["backward"] == domain
    assert calls["first_step_east_count"] <= 2 * domain
    assert calls["last_step_east_count"] <= 2 * domain


_SIJECTION_CHECKS = ("sijection-bijective", "compatible-with-last-step-east",
                     "compatible-with-first-step-east")


def _public_sijection_checks(shape, bound):
    """The three sijection checks of ``verify_lgv``, from the public
    checkers on a fresh cancellation sijection."""
    sij = lgvlab.bijections.lgv_sijection(
        lgvlab.paths.plane_partition_endpoints(shape, bound))
    last, first = (lgvlab.paths.last_step_east_count,
                   lgvlab.paths.first_step_east_count)
    return (check_sijection(sij), check_compatibility(sij, last, last),
            check_compatibility(sij, first, first))


@pytest.mark.parametrize("shape", [
    shape.parts for shape in enumerate_partitions(6)],
    ids=lambda parts: ",".join(map(str, parts)) or "empty")
def test_verify_lgv_sijection_checks_match_the_public_checkers(shape):
    # the one-pass checks against the three separate checkers they replace
    for bound in range(3):
        report = verify_lgv(shape, bound)
        for name, problems in zip(_SIJECTION_CHECKS,
                                  _public_sijection_checks(shape, bound)):
            check = _check_named(report, name)
            assert check["passed"] == (problems == [])
            assert check["witness"] == (None if check["passed"] else problems)


def test_verify_lgv_reads_a_broken_statistic_off_the_round_trips(
        monkeypatch):
    # the sign is not carried by the cancellation: each of the 16 negative
    # families maps to a positive one.  With that many, the public checker's
    # first problems are all forward ones, the witness the report gives.
    def sign(family):
        return family.sign

    monkeypatch.setattr(verify, "last_step_east_count", sign)
    report = verify_lgv((2, 2), 2)
    check = _check_named(report, "compatible-with-last-step-east")
    sij = lgvlab.bijections.lgv_sijection(
        lgvlab.paths.plane_partition_endpoints((2, 2), 2))
    assert not check["passed"]
    assert check["witness"] == check_compatibility(sij, sign, sign)
    assert all(p.startswith("statistic changes along forward: ('target', -1")
               for p in check["witness"])
    assert _check_named(report, "sijection-bijective")["passed"]
    assert _check_named(report, "compatible-with-first-step-east")["passed"]


def test_verify_lgv_reports_one_broken_round_trip(monkeypatch):
    # a swap that sends one positive crossing family to the wrong negative
    # family breaks exactly one round trip; the report says so, no traceback
    endpoints = lgvlab.paths.plane_partition_endpoints((2, 2), 1)
    families = list(lgvlab.paths.enumerate_families(endpoints))
    real = lgvlab.bijections._swap_parts
    victim = next(f for f in families
                  if f.sign == 1 and not is_nonintersecting(f))
    wrong = next(f for f in families
                 if f.sign == -1 and (f.sigma, f.paths) != real(victim, None)[:2])

    def faulty(family, pairs):
        sigma, paths, meet = real(family, pairs)
        if family == victim:
            return wrong.sigma, wrong.paths, meet
        return sigma, paths, meet

    monkeypatch.setattr(lgvlab.bijections, "_swap_parts", faulty)
    report = verify_lgv((2, 2), 1)
    check = _check_named(report, "sijection-bijective")
    assert not check["passed"]
    assert len(check["witness"]) == 1
    assert check["witness"][0].startswith("backward(forward(")
    json.dumps(report)


def test_verify_lgv_compares_the_meets_of_each_orbit(monkeypatch):
    # every round trip holds, but each positive family reports a meet one
    # step east of its own: only the involution check can see it, and its
    # witness is the first crossing family, with the meet it reports
    real = lgvlab.paths._family_meet

    def shifted(family):
        meet = real(family)
        if meet is None or family.sign == -1:
            return meet
        (x, y), i, j = meet
        return (x + 1, y), i, j

    monkeypatch.setattr(verify, "_family_meet", shifted)
    report = verify_lgv((2, 2), 2)
    assert [c["name"] for c in report["checks"] if not c["passed"]] == [
        "tail-swap-involution"]
    endpoints = lgvlab.paths.plane_partition_endpoints((2, 2), 2)
    first = next(f for f in lgvlab.paths.enumerate_families(endpoints)
                 if not is_nonintersecting(f))
    point, i, j = shifted(first)
    assert _check_named(report, "tail-swap-involution")["witness"] == {
        "family": first.to_json(),
        "swapped": lgvlab.bijections.tail_swap(first)[0].to_json(),
        "certificate": {"point": list(point), "paths": [i + 1, j + 1]},
    }


def test_verify_lgv_swaps_each_crossing_family_once(monkeypatch):
    # the involution check reads the sijection's round trips: one
    # successful swap per crossing family (its round trip), one refused
    # swap per non-intersecting family (the rejection check)
    swapped, rejected = collections.Counter(), collections.Counter()
    real = lgvlab.bijections._swap_parts

    def counting_swap(family, pairs):
        try:
            result = real(family, pairs)
        except ValueError:
            rejected[family] += 1
            raise
        swapped[family] += 1
        return result

    monkeypatch.setattr(lgvlab.bijections, "_swap_parts", counting_swap)
    report = verify_lgv((3, 3, 2), 2)
    assert report_passed(report)
    assert (sum(swapped.values()), len(swapped)) == (1020, 1020)
    assert (sum(rejected.values()), len(rejected)) == (155, 155)


def test_verify_lgv_computes_the_permanent_once(monkeypatch):
    # the walk's guard computes it and the report reads the same value;
    # building the sijection computes nothing
    calls = []
    real = lgvlab.paths.count_families

    def counting(endpoints):
        calls.append(endpoints)
        return real(endpoints)

    monkeypatch.setattr(lgvlab.paths, "count_families", counting)
    lgvlab.bijections.lgv_sijection(
        lgvlab.paths.plane_partition_endpoints(Partition([3, 3, 2]), 2))
    assert calls == []
    report = verify_lgv((3, 3, 2), 2)
    assert report_passed(report)
    assert len(calls) == 1
    assert _check_named(report, "family-count-matches-permanent")["passed"]


def test_verify_lgv_refuses_before_building_a_family(monkeypatch):
    built = []
    real = lgvlab.paths.SignedPathFamily._trusted
    monkeypatch.setattr(lgvlab.paths.SignedPathFamily, "_trusted", classmethod(
        lambda cls, *args: built.append(args) or real(*args)))
    with pytest.raises(GuardExceeded, match=(
            r"^path families: projected size 1175 exceeds guard limit 1000$")):
        verify_lgv((3, 3, 2), 2, guard_limit=1000)
    assert built == []


def test_verify_lgv_builds_no_value_through_a_validating_constructor(
        monkeypatch):
    # the walk, the swaps and their certificates come from checked parts;
    # on this instance the constructors used to run 2,795 and 1,020 times
    calls = collections.Counter()
    for cls in (lgvlab.paths.SignedPathFamily,
                lgvlab.bijections.SwapCertificate):
        def counting(self, *args, real=cls.__init__, name=cls.__name__):
            calls[name] += 1
            real(self, *args)
        monkeypatch.setattr(cls, "__init__", counting)
    assert report_passed(verify_lgv((3, 3, 2), 2))
    assert calls == {}


def test_verify_lgv_scans_each_family_for_disjointness_once(monkeypatch):
    # one scan per walked family: a swap's image is the walked family it
    # equals, already scanned.  The scans used to number 3,770, about
    # three per family.  One meet scan decides disjointness and places
    # the swap.
    scans = collections.Counter()
    held = []  # keeps every scanned tuple alive, so no id is reused
    real = lgvlab.paths._meet_scan

    def counting(paths):
        held.append(paths)
        scans[id(paths)] += 1
        return real(paths)

    monkeypatch.setattr(lgvlab.paths, "_meet_scan", counting)
    assert report_passed(verify_lgv((3, 3, 2), 2))
    assert max(scans.values()) == 1
    assert sum(scans.values()) == 1175


def test_verify_lgv_reports_a_swap_that_does_not_undo_itself(monkeypatch):
    # the involution check reads its swaps through the sijection's memo, so
    # a broken swap shows in both the involution and the bijectivity checks
    real = lgvlab.bijections._swap_parts

    def one_sided(family, pairs):
        sigma, paths, meet = real(family, pairs)
        if family.sign == -1:
            return sigma, paths, meet
        return family.sigma, family.paths, meet

    monkeypatch.setattr(lgvlab.bijections, "_swap_parts", one_sided)
    report = verify_lgv((2, 1), 2)
    assert not _check_named(report, "tail-swap-involution")["passed"]
    assert not _check_named(report, "sijection-bijective")["passed"]


def test_verify_lgv_reports_a_swap_image_outside_the_walk(monkeypatch):
    # a swap that forgets to transpose sigma returns a family no walk
    # holds, so it is built, and both checks see it
    real = lgvlab.bijections._swap_parts

    def forgetful(family, pairs):
        sigma, paths, meet = real(family, pairs)
        return family.sigma, paths, meet

    monkeypatch.setattr(lgvlab.bijections, "_swap_parts", forgetful)
    report = verify_lgv((2, 1), 2)
    assert not _check_named(report, "tail-swap-involution")["passed"]
    assert not _check_named(report, "sijection-bijective")["passed"]
    witness = _check_named(report, "tail-swap-involution")["witness"]
    assert witness["swapped"]["sigma"] == witness["family"]["sigma"]
    json.dumps(report)


def test_verify_lgv_reports_a_swap_onto_a_disjoint_family(monkeypatch):
    # the image of one family is a non-intersecting family, which no swap
    # undoes: the involution check fails with a witness, no traceback
    real = lgvlab.bijections._swap_parts
    endpoints = lgvlab.paths.plane_partition_endpoints((2, 1), 2)
    disjoint = next(lgvlab.paths.enumerate_ni_families(endpoints))

    def onto_disjoint(family, pairs):
        sigma, paths, meet = real(family, pairs)
        return disjoint.sigma, disjoint.paths, meet

    monkeypatch.setattr(lgvlab.bijections, "_swap_parts", onto_disjoint)
    report = verify_lgv((2, 1), 2)
    assert not _check_named(report, "tail-swap-involution")["passed"]
    assert not _check_named(report, "sijection-bijective")["passed"]
    json.dumps(report)


def test_verify_theorem1_counts_in_closed_form_once(monkeypatch):
    calls = []
    real = lgvlab.objects.count_plane_partitions

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lgvlab.objects, "count_plane_partitions", counting)
    monkeypatch.setattr(verify, "count_plane_partitions", counting,
                        raising=False)
    report = verify_theorem1((3, 2, 1), 2)
    assert report_passed(report)
    assert report["results"]["count"] == real(Partition([3, 2, 1]), 2)
    assert len(calls) == 1


def test_verify_lgv_guard_propagates():
    with pytest.raises(GuardExceeded):
        verify_lgv(Partition([2, 1]), 2, guard_limit=3)


def count_walks(monkeypatch):
    """Count the fillings walks, keyed by (shape, alphabet)."""
    walks = collections.Counter()
    real = lgvlab.objects._fillings

    def counting(shape, values, column_ok):
        walks[shape.parts, values] += 1
        return real(shape, values, column_ok)

    monkeypatch.setattr(lgvlab.objects, "_fillings", counting)
    return walks


def count_tallies(monkeypatch):
    """Count the brute tallies of PP(shape; bound), keyed by (shape, bound),
    whether called directly or through ``genfun_by_enumeration``."""
    tallies = collections.Counter()
    real = lgvlab.objects.refined_genfuns_by_enumeration

    def counting(shape, bound, *guard):
        tallies[Partition(shape).parts, bound] += 1
        return real(shape, bound, *guard)

    monkeypatch.setattr(lgvlab.objects, "refined_genfuns_by_enumeration",
                        counting)
    monkeypatch.setattr(verify, "refined_genfuns_by_enumeration", counting)
    return tallies


def test_verify_theorem1_walks_the_plane_partitions_once(monkeypatch):
    walks = count_tallies(monkeypatch)
    fillings = count_walks(monkeypatch)
    assert report_passed(verify_theorem1((3, 2, 1), 2))
    assert walks == {((3, 2, 1), 2): 1}
    assert not fillings  # the tally counts rows, not fillings


def test_sweep_walks_each_instance_once(monkeypatch):
    walks = count_tallies(monkeypatch)
    fillings = count_walks(monkeypatch)
    report = sweep(4, 2)
    assert report_passed(report)
    assert not fillings  # the tally counts rows, not fillings
    assert report["results"]["instances"] == len(walks) == 36
    assert set(walks.values()) == {1}
    assert set(walks) == {(shape.parts, bound)
                          for shape in enumerate_partitions(4)
                          for bound in range(3)}


def test_verify_bijection_passes():
    report = verify_bijection(Partition([2, 1]), 2)
    assert_report_shape(report)
    assert report_passed(report)
    assert report["results"]["objects"] == 14
    assert [check["name"] for check in report["checks"]] == [
        "map-is-bijection", "zero-rows-become-max-rows", "map-is-involution"]


def test_verify_bijection_guards_its_own_enumeration(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("enumerated before the guard")

    monkeypatch.setattr(verify, "enumerate_plane_partitions", forbidden)
    with pytest.raises(GuardExceeded) as info:
        verify_bijection(Partition([3, 3]), 3, guard_limit=10)
    assert (info.value.what, info.value.projected, info.value.limit) == (
        "PP([3, 3]; 3)", 175, 10)


def test_verify_bijection_maps_each_plane_partition_once(monkeypatch):
    # the involution check reads each image's image off the images
    # already computed, so it maps nothing again
    calls = collections.Counter()
    real = verify.zero_to_max_map

    def counting(pp, **kwargs):
        calls[pp] += 1
        return real(pp, **kwargs)

    monkeypatch.setattr(verify, "zero_to_max_map", counting)
    shape, bound = Partition([2, 2, 1]), 2
    report = verify_bijection(shape, bound)
    assert report_passed(report)
    assert _check_named(report, "map-is-involution")["passed"]
    assert set(calls) == set(
        lgvlab.objects.enumerate_plane_partitions(shape, bound))
    assert set(calls.values()) == {1}
    assert len(calls) == report["results"]["objects"]


@pytest.mark.parametrize("perm,involutive", [
    (None, True), ((2, 3, 1, 4), False)])
def test_verify_schur_maps_each_tableau_once(monkeypatch, perm, involutive):
    calls = collections.Counter()
    real = verify.weight_permutation_map

    def counting(tableau, perm, **kwargs):
        calls[tableau] += 1
        return real(tableau, perm, **kwargs)

    monkeypatch.setattr(verify, "weight_permutation_map", counting)
    shape = Partition([3, 2, 1])
    report = verify_schur(shape, 4, perm=perm)
    assert report_passed(report)
    names = [c["name"] for c in report["checks"]]
    assert ("weight-map-is-involution" in names) == involutive
    assert set(calls) == set(lgvlab.objects.enumerate_tableaux(shape, 4))
    assert set(calls.values()) == {1}


def test_verify_schur_walks_the_tableaux_once(monkeypatch):
    walks = count_walks(monkeypatch)
    shape = Partition([3, 2, 1])
    report = verify_schur(shape, 4, perm=(2, 1, 4, 3))
    assert walks == {((3, 2, 1), range(1, 5)): 1}
    assert_report_shape(report)
    assert report_passed(report)
    assert report["results"] == {
        "schur": schur_by_enumeration(shape, 4).to_json(),
        "tableaux": count_tableaux(shape, 4),
        "perm": [2, 1, 4, 3],
    }
    assert [c["name"] for c in report["checks"]] == [
        "tableau-count-matches-determinant",
        "symmetric-under-adjacent-transpositions",
        "invariant-under-permutation", "weight-map-is-bijection",
        "weight-map-permutes-weight", "weight-map-is-involution"]


@pytest.mark.parametrize("perm,involutive", [
    (None, True), ((2, 1, 3, 4), True), ((1, 2, 3, 4), True),
    ((2, 3, 1, 4), False), ((4, 1, 2, 3), False)])
def test_verify_schur_checks_the_involution_of_an_involutive_perm(
        perm, involutive):
    # the check is there exactly when the permutation is its own inverse
    # (the default reversal is one), and then the weight map passes it
    report = verify_schur(Partition([3, 2, 1]), 4, perm=perm)
    assert report_passed(report)
    names = [c["name"] for c in report["checks"]]
    assert ("weight-map-is-involution" in names) == involutive
    assert names[:5] == [
        "tableau-count-matches-determinant",
        "symmetric-under-adjacent-transpositions",
        "invariant-under-permutation", "weight-map-is-bijection",
        "weight-map-permutes-weight"]


def test_verify_schur_guard_comes_before_the_walk(monkeypatch):
    walks = count_walks(monkeypatch)
    with pytest.raises(GuardExceeded) as info:
        verify_schur(Partition([3, 2, 1]), 4, guard_limit=20)
    assert (info.value.what, info.value.projected, info.value.limit) == (
        "SSYT([3, 2, 1]; 4)", 64, 20)
    assert not walks


def test_verify_schur_guard_counts_the_permuted_exponents(monkeypatch):
    # one permuted polynomial per adjacent transposition: 5 tableaux of 5
    # exponents each, permuted about 5 times
    walks = count_walks(monkeypatch)
    with pytest.raises(GuardExceeded) as info:
        verify_schur(Partition([1]), 5, guard_limit=124)
    assert (info.value.what, info.value.projected, info.value.limit) == (
        "SSYT([1]; 5) permuted exponents", 125, 124)
    assert not walks
    assert report_passed(verify_schur(Partition([1]), 5, guard_limit=125))


@pytest.mark.parametrize("perm", [(2, 1), (1, 2, 4, 3)])
def test_verify_schur_refuses_a_perm_of_the_wrong_length_before_the_walk(
        monkeypatch, perm):
    walks = count_walks(monkeypatch)
    with pytest.raises(ValueError,
                       match=rf"^perm has {len(perm)} entries, expected 3$"):
        verify_schur(Partition([2, 1]), 3, perm)
    # the shape, the varcount and the guard are refused first
    with pytest.raises(ValueError, match="weakly decreasing"):
        verify_schur((1, 2), 3, perm)
    with pytest.raises(ValueError, match="^varcount must be at least 1$"):
        verify_schur((2, 1), 0, perm)
    with pytest.raises(GuardExceeded):
        verify_schur((2, 1), 3, perm, guard_limit=1)
    assert not walks


def test_verify_theorem1_guards_the_tally_then_the_determinant():
    # (2, 1), m=2 has 14 plane partitions, and its determinant projects
    # 3 * 2^2 * 2 = 24 elimination steps
    for limit, what in ((13, "PP([2, 1]; 2)"),
                        (23, "PP([2, 1]; 2) determinant")):
        with pytest.raises(GuardExceeded) as info:
            verify_theorem1((2, 1), 2, limit)
        assert info.value.what == what
    assert report_passed(verify_theorem1((2, 1), 2, 24))


def test_verify_schur_passes():
    report = verify_schur(Partition([2, 1]), 3, perm=(2, 1, 3))
    assert_report_shape(report)
    assert report_passed(report)
    assert report["results"]["tableaux"] == 8
    assert report["results"]["perm"] == [2, 1, 3]


def test_verify_schur_default_perm_is_reversal():
    report = verify_schur(Partition([2]), 3)
    assert report["results"]["perm"] == [3, 2, 1]
    assert report_passed(report)


def test_verify_schur_empty_alphabet_shape():
    # more rows than variables: zero polynomial, zero tableaux, still green
    report = verify_schur(Partition([1, 1, 1]), 2)
    assert report_passed(report)
    assert report["results"]["tableaux"] == 0


def test_sweep_covers_the_grid():
    report = sweep(3, 2)
    assert_report_shape(report)
    assert report_passed(report)
    # 7 shapes of size <= 3 (incl. empty), bounds 0..2
    assert report["results"] == {"instances": 21, "failures": 0}
    assert len(report["checks"]) == 21
    assert report["checks"][0]["name"] == "shape=(empty) max=0"


def test_report_passed_detects_failure():
    report = {"instance": {}, "results": {}, "runtime_ms": 0,
              "checks": [{"name": "a", "passed": True, "witness": None},
                         {"name": "b", "passed": False, "witness": {"x": 1}}]}
    assert not report_passed(report)
