import collections
import json

import pytest

import lgvlab.bijections
import lgvlab.paths
from lgvlab import verify
from lgvlab.algebra import UniPoly
from lgvlab.guards import GuardExceeded
from lgvlab.objects import Partition
from lgvlab.paths import is_nonintersecting
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
    real = verify.genfun_by_enumeration

    def miscounting(shape, bound, statistic, guard_limit=None):
        poly = real(shape, bound, statistic, guard_limit)
        return UniPoly((poly.coeffs[0] + 1,) + poly.coeffs[1:])

    monkeypatch.setattr("lgvlab.verify.genfun_by_enumeration", miscounting)
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

    def counting_swap(family):
        try:
            result = real_swap(family)
        except ValueError:
            rejected[family] += 1
            raise
        swapped[family] += 1
        return result

    real_swap = lgvlab.bijections.tail_swap
    monkeypatch.setattr(lgvlab.bijections, "enumerate_families", counting(
        "enumerate_families", lgvlab.bijections.enumerate_families))
    count = counting("count_families", lgvlab.paths.count_families)
    monkeypatch.setattr(lgvlab.paths, "count_families", count)
    monkeypatch.setattr(verify, "count_families", count)
    monkeypatch.setattr(lgvlab.bijections, "tail_swap", counting_swap)
    monkeypatch.setattr(verify, "tail_swap", counting_swap)
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


def test_verify_lgv_guard_propagates():
    with pytest.raises(GuardExceeded):
        verify_lgv(Partition([2, 1]), 2, guard_limit=3)


def test_verify_bijection_passes():
    report = verify_bijection(Partition([2, 1]), 2)
    assert_report_shape(report)
    assert report_passed(report)
    assert report["results"]["objects"] == 14


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
