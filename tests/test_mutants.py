"""Mutation smoke tests: each case plants one plausible fault in one
internal and asserts that the report check named after that job fails.

A passing suite shows that correct code passes its checks; these cases
show that the checks can fail.  Each fault is monkeypatched where the
code that calls it looks it up (``paths._sigma_sign``, which caches
``algebra.perm_sign``, rather than ``perm_sign`` itself), and each case
runs under a small guard limit, so a fault that makes a walk run away is
refused instead of hanging the suite.
"""

import __future__
import inspect
import json
import re
import textwrap
import time

import pytest

import lgvlab.algebra
import lgvlab.bijections
import lgvlab.objects
import lgvlab.paths
import lgvlab.verify
from lgvlab.cli import main
from lgvlab.guards import GuardExceeded
from lgvlab.sijections import SijectionError
from lgvlab.verify import (verify_bijection, verify_lgv, verify_schur,
                           verify_theorem1)

LIMIT = 10_000

# Each case starts with no endpoints kept by the maps, so a fault planted
# in an endpoint builder reaches the maps.
pytestmark = pytest.mark.usefixtures("fresh_maps")


def rewritten(func, old: str, new: str):
    """``func`` compiled again from its source with the one occurrence of
    ``old`` replaced by ``new``, against its module's globals."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, f"{old!r} is not in {func.__qualname__}"
    code = compile(source.replace(old, new), inspect.getsourcefile(func),
                   "exec", flags=__future__.annotations.compiler_flag,
                   dont_inherit=True)
    namespace = {}
    exec(code, func.__globals__, namespace)
    return namespace[func.__name__]


def failed(report: dict) -> set[str]:
    """The names of the report's failing checks."""
    return {check["name"] for check in report["checks"]
            if not check["passed"]}


def test_a_determinant_off_by_one_fails_zeros_matches_determinant(
        monkeypatch):
    # the refined determinant and the counts look it up in ``objects``
    real = lgvlab.algebra._bareiss
    for module in (lgvlab.algebra, lgvlab.objects):
        monkeypatch.setattr(module, "_bareiss",
                            lambda matrix: real(matrix) + 1)
    report = verify_theorem1((2, 1), 2, LIMIT)
    assert "zeros-matches-determinant" in failed(report)


def test_minors_that_share_their_rows_fail_zeros_matches_determinant(
        monkeypatch):
    # ``_bareiss`` consumes its rows, so a minor built on B's own rows sees
    # what the minors before it left there: (2, 1), m=2 gives
    # 5 + 15x + 3x^2 (on (2, 2), m=1 the fault happens to give the right
    # answer)
    monkeypatch.setattr(lgvlab.verify, "refined_determinant",
                        rewritten(lgvlab.objects.refined_determinant,
                                  "[list(row) for row in b[:t] + b[t + 1:]]",
                                  "b[:t] + b[t + 1:]"))
    report = verify_theorem1((2, 1), 2, LIMIT)
    assert "zeros-matches-determinant" in failed(report)
    assert report["results"]["determinant"]["coeffs"] == ["5", "15", "3"]


def test_a_tally_that_drops_a_row_move_fails_determinant_at_one(
        monkeypatch):
    # a move that overwrites its target instead of adding to it drops the
    # rows moved there before it: on (2, 1), m=2, the first rows (2, 2)
    # and (2, 1) share the cut (2,) and the step of a row holding m, not 0.
    # The move is the shared tally's, which the brute route looks up in
    # ``objects``
    monkeypatch.setattr(lgvlab.objects, "_row_tally",
                        rewritten(lgvlab.objects._row_tally,
                                  "target[i] = get(i, 0) + c * n",
                                  "target[i] = c * n"))
    report = verify_theorem1((2, 1), 2, LIMIT)
    assert "determinant-at-one-counts-all" in failed(report)


def test_a_walk_that_loses_a_tableau_fails_the_tableau_count(monkeypatch):
    real = lgvlab.objects._fillings

    def losing(shape, values, column_ok):
        fillings = real(shape, values, column_ok)
        next(fillings, None)
        return fillings

    monkeypatch.setattr(lgvlab.objects, "_fillings", losing)
    report = verify_schur((2, 1), 3, None, LIMIT)
    assert "tableau-count-matches-determinant" in failed(report)


def test_a_sign_wrong_from_four_paths_fails_the_signed_sum(monkeypatch):
    real = lgvlab.paths._sigma_sign

    def first_three_only(sigma):
        # counts the inversions among the first three entries only
        if len(sigma) < 4:
            return real(sigma)
        inversions = sum(sigma[i] > sigma[j]
                         for i in range(3) for j in range(i + 1, 3))
        return -1 if inversions & 1 else 1

    monkeypatch.setattr(lgvlab.paths, "_sigma_sign", first_three_only)
    report = verify_lgv((1, 1, 1, 1), 1, LIMIT)
    assert "signed-sum-matches-nonintersecting" in failed(report)


def test_a_disjointness_test_blind_past_three_paths_fails_the_determinant_count(
        monkeypatch):
    # ``is_nonintersecting`` looks the meet up in ``paths``; the tail swap
    # keeps its own binding, so it still finds every crossing
    scan = lgvlab.paths._meet_scan
    monkeypatch.setattr(lgvlab.paths, "_family_meet",
                        lambda family: scan(family.paths[:3]))
    report = verify_lgv((1, 1, 1, 1), 1, LIMIT)
    assert "determinant-counts-nonintersecting" in failed(report)


def test_a_scan_blind_past_three_paths_fails_the_sijection_check(
        monkeypatch, capsys):
    # the swap reads the faulty scan too, so a negative family that the
    # scan calls disjoint reaches a swap undefined on it; the sijection
    # refuses it, and the report, not a traceback, says so
    scan = lgvlab.paths._meet_scan
    monkeypatch.setattr(lgvlab.paths, "_meet_scan",
                        lambda paths: scan(paths[:3]))
    report = verify_lgv((1, 1, 1, 1), 1, LIMIT)
    assert "sijection-bijective" in failed(report)
    code = main(["verify-lgv", "--shape", "1,1,1,1", "--max", "1",
                 "--guard-limit", str(LIMIT)])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert "sijection-bijective" in failed(report)
    witness = next(check["witness"] for check in report["checks"]
                   if check["name"] == "sijection-bijective")
    assert all(problem.startswith("forward failed on ")
               for problem in witness)


def test_a_tail_swap_at_the_largest_pair_meet_fails_the_involution(
        monkeypatch):
    # every path here takes its k-th step at x - y = k, so a swap keeps the
    # paths through each point, and a swap at the smallest or the largest
    # shared point is an involution; a pair's own first meet is not kept,
    # so a scan that keeps the pair whose meet is largest swaps a family
    # at one place and its image at another
    monkeypatch.setattr(lgvlab.paths, "_meet_scan", rewritten(
        lgvlab.paths._meet_scan, "point < best[0]", "point > best[0]"))
    report = verify_lgv((2, 2, 2), 2, LIMIT)
    assert "tail-swap-involution" in failed(report)


def test_a_pair_core_wrong_on_one_path_pair_fails_the_swap_checks(
        monkeypatch):
    # the first pair of paths whose tails differ when cut at their last
    # common point instead of their first is cut there; the pair memo keeps
    # that one wrong pair for every family crossing there, while the
    # image's own pair is swapped right, so the swap undoes nothing
    real = lgvlab.bijections._swap_tails
    victim = []

    def wrong_on_one_pair(p, q, point):
        right = real(p, q, point)
        if not victim:
            wrong = real(p, q, max(p._point_set() & q._point_set()))
            if wrong != right:
                victim.append(((p, q), wrong))
        if victim and victim[0][0] == (p, q):
            return victim[0][1]
        return right

    monkeypatch.setattr(lgvlab.bijections, "_swap_tails", wrong_on_one_pair)
    report = verify_lgv((2, 2, 2), 2, LIMIT)
    assert victim
    assert {"tail-swap-involution", "sijection-bijective"} <= failed(report)


def test_a_family_count_that_reuses_a_column_fails_the_permanent_check(
        monkeypatch):
    monkeypatch.setattr(lgvlab.paths, "count_families", rewritten(
        lgvlab.paths.count_families, "if not mask & bit:", "if True:"))
    report = verify_lgv((2, 1), 2, LIMIT)
    assert "family-count-matches-permanent" in failed(report)


def test_a_reversal_of_one_path_fails_zero_rows_become_max_rows(
        monkeypatch):
    def reverse_first(family):
        paths = family.paths
        return lgvlab.paths.SignedPathFamily._trusted(
            family.endpoints, family.sigma,
            (paths[0]._reverse(),) + paths[1:])

    monkeypatch.setattr(lgvlab.bijections, "reverse_paths", reverse_first)
    report = verify_bijection((2, 2), 2, LIMIT)
    assert "zero-rows-become-max-rows" in failed(report)
    witness = next(c["witness"] for c in report["checks"]
                   if c["name"] == "zero-rows-become-max-rows")
    assert list(witness) == ["input", "output", "zero_rows", "max_rows"]
    assert witness["zero_rows"] != witness["max_rows"]


def test_two_plane_partitions_sharing_an_image_fail_map_is_bijection(
        monkeypatch):
    # the second of two plane partitions with the same zero rows is sent
    # where the first goes: the image still has the right max rows, but
    # one plane partition is left without a preimage
    shape, bound = lgvlab.objects.Partition((2, 1)), 2
    pps = list(lgvlab.objects.enumerate_plane_partitions(shape, bound))
    first, second = next(
        (a, b) for k, a in enumerate(pps) for b in pps[k + 1:]
        if a.zero_rows() == b.zero_rows())
    real = lgvlab.verify.zero_to_max_map
    monkeypatch.setattr(
        lgvlab.verify, "zero_to_max_map",
        lambda pp, **kwargs: real(first if pp == second else pp, **kwargs))
    report = verify_bijection(shape, bound, LIMIT)
    assert "map-is-bijection" in failed(report)
    assert "zero-rows-become-max-rows" not in failed(report)
    assert report["checks"][0] == {
        "name": "map-is-bijection", "passed": False,
        "witness": {"distinct_images": len(pps) - 1, "objects": len(pps)}}


def test_a_map_that_is_no_involution_fails_only_map_is_involution(
        monkeypatch):
    # the map followed by a cyclic shift within each max-row class: still a
    # bijection that sends zero rows to max rows, but no longer its own
    # inverse
    shape, bound = lgvlab.objects.Partition((2, 1)), 2
    classes = {}
    for pp in lgvlab.objects.enumerate_plane_partitions(shape, bound):
        classes.setdefault(pp.max_rows(), []).append(pp)
    shift = {pp: group[(k + 1) % len(group)]
             for group in classes.values() for k, pp in enumerate(group)}
    real = lgvlab.verify.zero_to_max_map
    monkeypatch.setattr(lgvlab.verify, "zero_to_max_map",
                        lambda pp, **kwargs: shift[real(pp, **kwargs)])
    report = verify_bijection(shape, bound, LIMIT)
    assert failed(report) == {"map-is-involution"}
    assert report["checks"][-1]["witness"]["output_of_output"] is not None


def test_a_weight_map_that_is_no_involution_fails_only_its_involution(
        monkeypatch):
    # the two tableaux of weight (1, 1, 1, 0) are exchanged before the map:
    # still a bijection that permutes the weight, but the reversal sends
    # them to weight (0, 1, 1, 1), where nothing is exchanged back
    shape, varcount = lgvlab.objects.Partition((2, 1)), 4
    first, second = [
        t for t in lgvlab.objects.enumerate_tableaux(shape, varcount)
        if t.weight() == (1, 1, 1, 0)]
    shift = {first: second, second: first}
    real = lgvlab.verify.weight_permutation_map
    monkeypatch.setattr(
        lgvlab.verify, "weight_permutation_map",
        lambda t, perm, **kwargs: real(shift.get(t, t), perm, **kwargs))
    report = verify_schur(shape, varcount, None, LIMIT)
    assert failed(report) == {"weight-map-is-involution"}
    assert report["checks"][-1]["witness"]["output_of_output"] is not None


def test_steps_moved_by_the_inverse_fail_the_weight_map(monkeypatch):
    monkeypatch.setattr(lgvlab.bijections, "_permute_steps", rewritten(
        lgvlab.bijections._permute_steps,
        "letters[positions[t]] = ch", "letters[t] = path.word[positions[t]]"))
    report = verify_schur((2, 1), 3, (2, 3, 1), LIMIT)
    assert "weight-map-permutes-weight" in failed(report)
    witness = next(c["witness"] for c in report["checks"]
                   if c["name"] == "weight-map-permutes-weight")
    assert list(witness) == ["input", "output", "expected_weight",
                             "got_weight"]
    assert witness["expected_weight"] != witness["got_weight"]


def test_two_tableaux_sharing_an_image_fail_weight_map_is_bijection(
        monkeypatch):
    # the second of the two tableaux of weight (1, 1, 1, 0) is sent where
    # the first goes: the image's weight is still permuted right, but one
    # tableau is left without a preimage
    shape, varcount = lgvlab.objects.Partition((2, 1)), 4
    tableaux = list(lgvlab.objects.enumerate_tableaux(shape, varcount))
    first, second = [t for t in tableaux if t.weight() == (1, 1, 1, 0)]
    real = lgvlab.verify.weight_permutation_map
    monkeypatch.setattr(
        lgvlab.verify, "weight_permutation_map",
        lambda t, perm, **kwargs: real(first if t == second else t, perm,
                                       **kwargs))
    report = verify_schur(shape, varcount, None, LIMIT)
    assert "weight-map-is-bijection" in failed(report)
    assert "weight-map-permutes-weight" not in failed(report)
    check = next(c for c in report["checks"]
                 if c["name"] == "weight-map-is-bijection")
    assert check["witness"] == {"distinct_images": len(tableaux) - 1,
                                "tableaux": len(tableaux)}


def test_a_plane_partition_listed_twice_fails_map_is_bijection(monkeypatch):
    # an enumeration that repeats its first plane partition: the map is
    # still a bijection of the distinct plane partitions, but one image is
    # shared, so the images are one fewer than the listed objects
    shape, bound = lgvlab.objects.Partition((2, 1)), 2
    real = lgvlab.verify.enumerate_plane_partitions
    pps = list(real(shape, bound))
    monkeypatch.setattr(lgvlab.verify, "enumerate_plane_partitions",
                        lambda *args: iter([pps[0], *pps]))
    report = verify_bijection(shape, bound, LIMIT)
    assert failed(report) == {"map-is-bijection"}
    assert report["checks"][0]["witness"] == {
        "distinct_images": len(pps), "objects": len(pps) + 1}


def test_a_tableau_listed_twice_fails_weight_map_is_bijection(monkeypatch):
    shape, varcount = lgvlab.objects.Partition((2, 1)), 3
    real = lgvlab.verify.enumerate_tableaux
    tableaux = list(real(shape, varcount))
    monkeypatch.setattr(lgvlab.verify, "enumerate_tableaux",
                        lambda *args: iter([tableaux[0], *tableaux]))
    report = verify_schur(shape, varcount, None, LIMIT)
    assert "weight-map-is-bijection" in failed(report)
    check = next(c for c in report["checks"]
                 if c["name"] == "weight-map-is-bijection")
    assert check["witness"] == {"distinct_images": len(tableaux),
                                "tableaux": len(tableaux) + 1}


def test_a_cycle_check_that_never_fires_ends_at_the_hop_budget(monkeypatch):
    # a "reversal" that sends every family to one crossing family traps
    # the walk in a cycle of four landings: the cycle check refuses it,
    # and without the check the walk is stopped by the hop budget, not
    # left to spin
    shape, bound = lgvlab.objects.Partition((2, 1)), 2
    crossing = next(
        family for family in lgvlab.paths.enumerate_families(
            lgvlab.paths.plane_partition_endpoints(shape, bound))
        if not lgvlab.paths.is_nonintersecting(family))
    monkeypatch.setattr(lgvlab.bijections, "reverse_paths",
                        lambda family: crossing)
    pp = next(lgvlab.objects.enumerate_plane_partitions(shape, bound))
    with pytest.raises(SijectionError, match="revisited middle element"):
        lgvlab.bijections.zero_to_max_map(pp, guard_limit=100)
    monkeypatch.setattr(lgvlab.bijections, "_ping_pong", rewritten(
        lgvlab.bijections._ping_pong, "if landing == saved:", "if False:"))
    with pytest.raises(GuardExceeded) as info:
        lgvlab.bijections.zero_to_max_map(pp, guard_limit=100)
    assert (info.value.what, info.value.projected, info.value.limit) == (
        "ping-pong hops", 101, 100)


def test_a_tableau_missing_from_the_last_two_variables_breaks_symmetry(
        monkeypatch):
    # without the tableau [[1, 2]] of shape (2), the polynomial in three
    # variables is symmetric under (1 2) but not under (2 3), the last
    # adjacent transposition
    real = lgvlab.verify.enumerate_tableaux
    monkeypatch.setattr(
        lgvlab.verify, "enumerate_tableaux",
        lambda shape, varcount: (t for t in real(shape, varcount)
                                 if t.rows != ((1, 2),)))
    report = verify_schur((2,), 3, None, LIMIT)
    assert "symmetric-under-adjacent-transpositions" in failed(report)
    check = next(c for c in report["checks"]
                 if c["name"] == "symmetric-under-adjacent-transpositions")
    assert check["witness"] == {"transposition": [2, 3]}


# --- faults the checks above must not hide --------------------------------
# Each case below pins a job that a planted fault in ``verify.py`` itself
# would break: the fallback swap of a crossing family in no held orbit,
# the sweep's failure count, and the report's runtime.


def test_a_crossing_family_left_out_of_the_round_trips_is_swapped_back(
        monkeypatch):
    # the round trips lose one held pair while the swap stays correct, so
    # both families of that orbit are swapped again with ``tail_swap``,
    # twice each; the swap undoes itself there, and the involution check
    # still passes.  A fallback that compared the second swap with the
    # family the wrong way round, or read the certificate instead of the
    # image, would fail it
    real_trips = lgvlab.verify._round_trips
    dropped = []

    def losing_one(sijection):
        problems, pairs = real_trips(sijection)
        lost = next(pair for pair in pairs
                    if pair[0][0] == lgvlab.verify.TARGET)
        dropped.extend(tagged[2] for tagged in lost)
        return problems, [pair for pair in pairs if pair is not lost]

    real_swap = lgvlab.verify.tail_swap
    swapped = []

    def counting(family):
        swapped.append(family)
        return real_swap(family)

    monkeypatch.setattr(lgvlab.verify, "_round_trips", losing_one)
    monkeypatch.setattr(lgvlab.verify, "tail_swap", counting)
    report = verify_lgv((2, 2, 2), 2, LIMIT)
    assert failed(report) == set()
    crossing = [family for family in swapped
                if not lgvlab.paths.is_nonintersecting(family)]
    assert len(dropped) == 2 and len(crossing) == 4
    assert {id(family) for family in crossing[::2]} == set(map(id, dropped))


def test_a_sweep_counts_each_failing_instance_once(monkeypatch):
    # a determinant off by one on one shape fails its instance at every
    # bound, and only those
    real = lgvlab.verify.refined_determinant

    def off_on_two_one(shape, bound, guard_limit=None):
        det = real(shape, bound, guard_limit)
        if shape.parts != (2, 1):
            return det
        return lgvlab.algebra.UniPoly([det(0) + 1, *det.coeffs[1:]])

    monkeypatch.setattr(lgvlab.verify, "refined_determinant", off_on_two_one)
    report = lgvlab.verify.sweep(3, 2, LIMIT)
    failing = [check["name"] for check in report["checks"]
               if not check["passed"]]
    assert failing == [f"shape=(2,1) max={bound}" for bound in range(3)]
    assert report["results"] == {"instances": 21, "failures": 3}


def test_a_failing_sweep_instance_is_named_on_stderr(monkeypatch, capsys):
    # one instance's report fails; the sweep command names it with its
    # witness on one FAIL line before its summary, and exits 1
    real = lgvlab.verify.verify_theorem1

    def failing_on_two_one(shape, bound, guard_limit=None):
        report = real(shape, bound, guard_limit)
        if shape.parts == (2, 1) and bound == 1:
            report["checks"][0]["passed"] = False
        return report

    monkeypatch.setattr(lgvlab.verify, "verify_theorem1", failing_on_two_one)
    code = main(["sweep", "--max-size", "3", "--max-bound", "1"])
    captured = capsys.readouterr()
    poly = '{"var": "x", "coeffs": ["1", "2", "2"]}'
    fail, summary = captured.err.splitlines()
    assert code == 1
    assert fail == (f'FAIL shape=(2,1) max=1 :: {{"zeros": {poly}, '
                    f'"maxes": {poly}, "determinant": {poly}}}')
    assert re.fullmatch(r"FAILED \(14 instances, 1 failures, \d+ ms\)",
                        summary)
    assert json.loads(captured.out)["results"] == {"instances": 14,
                                                   "failures": 1}


@pytest.mark.parametrize("run", [
    lambda: verify_theorem1((2, 1), 2, LIMIT),
    lambda: verify_lgv((2, 1), 2, LIMIT),
    lambda: verify_bijection((2, 1), 2, LIMIT),
    lambda: verify_schur((2, 1), 3, None, LIMIT),
    lambda: lgvlab.verify.sweep(2, 1, LIMIT),
], ids=["theorem1", "lgv", "bijection", "schur", "sweep"])
def test_a_report_runtime_is_the_call_s_own_wall_time(run):
    # runtime_ms is the time since the suite started, not a clock reading:
    # it lies within the wall time of the call that made the report
    started = time.perf_counter()
    report = run()
    elapsed_ms = (time.perf_counter() - started) * 1000
    assert 0 <= report["runtime_ms"] <= elapsed_ms + 1
