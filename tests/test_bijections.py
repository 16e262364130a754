import pytest

import lgvlab.bijections
from lgvlab.bijections import (
    SwapCertificate,
    lgv_sijection,
    permute_steps,
    reversal_sijection,
    reverse_paths,
    step_permutation_sijection,
    tail_swap,
    variable_positions,
    weight_permutation_map,
    zero_to_max_map,
    zero_to_max_sijection,
)
from lgvlab.objects import (
    Partition,
    PlanePartition,
    Tableau,
    enumerate_partitions,
    enumerate_plane_partitions,
    enumerate_tableaux,
)
from lgvlab.paths import (
    Path,
    SignedPathFamily,
    enumerate_families,
    first_step_east_count,
    is_nonintersecting,
    last_step_east_count,
    plane_partition_endpoints,
    tableau_endpoints,
)
from lgvlab.sijections import (
    SOURCE,
    TARGET,
    check_compatibility,
    check_sijection,
)


# --- certificates -----------------------------------------------------------

def test_certificate_json_is_one_indexed():
    cert = SwapCertificate((-1, -2), (0, 1))
    assert cert.to_json() == {"point": [-1, -2], "paths": [1, 2]}
    with pytest.raises(ValueError):
        SwapCertificate((0, 0), (1, 1))
    with pytest.raises(ValueError):
        SwapCertificate((0, 0), (2, 1))


# --- tail swap ----------------------------------------------------------------

def test_tail_swap_frozen_example():
    ep = plane_partition_endpoints(Partition([1, 1]), 1)
    crossed = SignedPathFamily(
        ep, (0, 1), [Path((-1, -1), "SE"), Path((-2, -2), "ES")])
    swapped, cert = tail_swap(crossed)
    assert [p.word for p in swapped.paths] == ["SS", "EE"]
    assert swapped.sigma == (1, 0)
    assert cert.point == (-1, -2)
    assert cert.paths == (0, 1)


def test_tail_swap_requires_intersection():
    ep = plane_partition_endpoints(Partition([1, 1]), 1)
    disjoint = SignedPathFamily(
        ep, (0, 1), [Path((-1, -1), "ES"), Path((-2, -2), "SE")])
    with pytest.raises(ValueError, match="non-intersecting"):
        tail_swap(disjoint)


def test_tail_swap_involution_exhaustive():
    # over every intersecting family of two instances: the swap reverses
    # the sign, changes the family, and undoes itself with the same
    # certificate
    for parts, bound in [((2, 1), 2), ((1, 1, 1), 1)]:
        ep = plane_partition_endpoints(Partition(parts), bound)
        intersecting = 0
        for family in enumerate_families(ep):
            if is_nonintersecting(family):
                continue
            intersecting += 1
            swapped, cert = tail_swap(family)
            assert swapped != family
            assert swapped.sign == -family.sign
            again, cert_back = tail_swap(swapped)
            assert again == family
            assert cert_back == cert
        assert intersecting > 0


def test_tail_swap_preserves_step_statistics():
    # the swap exchanges complete tails, so the multisets of first and of
    # last steps over the family are unchanged
    ep = plane_partition_endpoints(Partition([2, 1]), 2)
    for family in enumerate_families(ep):
        if is_nonintersecting(family):
            continue
        swapped, _ = tail_swap(family)
        assert last_step_east_count(swapped) == last_step_east_count(family)
        assert first_step_east_count(swapped) == first_step_east_count(family)


def _oracle_tail_swap(family):
    """The dict-based tail swap: map every point to the paths through it,
    take the smallest shared point and its two smallest path indices, and
    cut both words at that point's position in the path."""
    seen = {}
    for idx, path in enumerate(family.paths):
        for pt in path.points():
            seen.setdefault(pt, []).append(idx)
    meetings = {pt: idxs for pt, idxs in seen.items() if len(idxs) >= 2}
    point = min(meetings)
    i, j = sorted(meetings[point])[:2]
    cut_i = family.paths[i].points().index(point)
    cut_j = family.paths[j].points().index(point)
    word_i, word_j = family.paths[i].word, family.paths[j].word
    paths = list(family.paths)
    paths[i] = Path(paths[i].start, word_i[:cut_i] + word_j[cut_j:])
    paths[j] = Path(paths[j].start, word_j[:cut_j] + word_i[cut_i:])
    sigma = list(family.sigma)
    sigma[i], sigma[j] = sigma[j], sigma[i]
    return SignedPathFamily(family.endpoints, sigma, paths), point, (i, j)


def _oracle_is_nonintersecting(family):
    """The point-by-point scan: no point is visited twice."""
    seen = set()
    for path in family.paths:
        for pt in path.points():
            if pt in seen:
                return False
            seen.add(pt)
    return True


def test_tail_swap_and_disjointness_match_the_dict_oracle():
    # every family of every plane-partition instance with at most 6 cells
    # and m <= 2, and of every tableau instance with at most 4 cells and
    # n <= 3; the 6-cell instances hold the families where three paths
    # meet at the canonical point, so the pair choice is tested too
    instances = [plane_partition_endpoints(shape, bound)
                 for shape in enumerate_partitions(6) for bound in range(3)]
    instances += [tableau_endpoints(shape, varcount)
                  for shape in enumerate_partitions(4)
                  for varcount in range(1, 4)]
    crossing = triple = 0
    for ep in instances:
        for family in enumerate_families(ep):
            disjoint = _oracle_is_nonintersecting(family)
            assert is_nonintersecting(family) == disjoint
            if disjoint:
                continue
            crossing += 1
            swapped, cert = tail_swap(family)
            expected, point, pair = _oracle_tail_swap(family)
            assert cert.point == point and cert.paths == pair
            assert swapped == expected
            triple += sum(point in p.points() for p in family.paths) > 2
    assert crossing > 8000 and triple > 0


# --- the LGV sijection ---------------------------------------------------------

@pytest.mark.parametrize("parts,bound", [((1, 1), 1), ((2, 1), 2)])
def test_lgv_sijection_is_bijective(parts, bound):
    ep = plane_partition_endpoints(Partition(parts), bound)
    sij = lgv_sijection(ep)
    assert check_sijection(sij) == []


def test_lgv_sijection_on_tableau_endpoints():
    ep = tableau_endpoints(Partition([2, 1]), 3)
    assert check_sijection(lgv_sijection(ep)) == []


def test_lgv_sijection_compatibility_both_statistics():
    ep = plane_partition_endpoints(Partition([2, 1]), 2)
    sij = lgv_sijection(ep)
    assert check_compatibility(sij, last_step_east_count,
                               last_step_east_count) == []
    assert check_compatibility(sij, first_step_east_count,
                               first_step_east_count) == []


def test_checkers_enumerate_the_signed_families_once(monkeypatch):
    # the signed family set yields both signs from one stream, and each
    # checker walks it once
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_families(*args, **kwargs)

    monkeypatch.setattr(lgvlab.bijections, "enumerate_families", counting)
    ep = plane_partition_endpoints(Partition([2, 1]), 2)
    assert check_sijection(lgv_sijection(ep)) == []
    assert len(calls) == 1
    for stat in (last_step_east_count, first_step_east_count):
        calls.clear()
        assert check_compatibility(lgv_sijection(ep), stat, stat) == []
        assert len(calls) == 1


def test_lgv_sijection_check_catches_a_swap_that_does_not_undo_itself(
        monkeypatch):
    # the swap stays right on negative families but is wrong on positive
    # crossing ones, so only backward(forward(x)) can see it; a memo that
    # recorded forward's swap as backward's answer would hide it
    real = lgvlab.bijections.tail_swap

    def one_sided(family):
        swapped, cert = real(family)
        return (swapped if family.sign == -1 else family), cert

    monkeypatch.setattr(lgvlab.bijections, "tail_swap", one_sided)
    ep = plane_partition_endpoints(Partition([2, 1]), 2)
    problems = check_sijection(lgv_sijection(ep))
    assert any(p.startswith("backward(forward(") for p in problems)


# --- word-level symmetries -------------------------------------------------

def test_reverse_paths_involution_and_statistic_swap():
    ep = plane_partition_endpoints(Partition([2, 1]), 2)
    for family in enumerate_families(ep):
        rev = reverse_paths(family)
        assert reverse_paths(rev) == family
        assert rev.sigma == family.sigma
        assert last_step_east_count(rev) == first_step_east_count(family)
        assert first_step_east_count(rev) == last_step_east_count(family)


def test_reversal_sijection_checks():
    ep = plane_partition_endpoints(Partition([1, 1]), 1)
    sij = reversal_sijection(ep)
    assert check_sijection(sij) == []
    assert check_compatibility(sij, last_step_east_count,
                               first_step_east_count) == []


def test_permute_steps_roundtrip():
    ep = tableau_endpoints(Partition([2, 1]), 3)
    positions = (2, 0, 1)
    inverse = (1, 2, 0)
    for family in enumerate_families(ep):
        moved = permute_steps(family, positions)
        assert moved.sigma == family.sigma
        assert permute_steps(moved, inverse) == family


def test_permute_steps_rejects_wrong_length():
    ep = plane_partition_endpoints(Partition([2]), 1)
    family = next(iter(enumerate_families(ep)))
    with pytest.raises(ValueError):
        permute_steps(family, (0, 1))


def test_step_permutation_sijection_checks():
    ep = tableau_endpoints(Partition([2]), 2)
    sij = step_permutation_sijection(ep, (1, 0))
    assert check_sijection(sij) == []


def test_variable_positions():
    assert variable_positions((2, 1, 3)) == (1, 0, 2)
    with pytest.raises(ValueError):
        variable_positions((1, 1))


# --- zero-rows-to-max-rows bijection -------------------------------------------

def test_zero_to_max_frozen_values():
    assert zero_to_max_map(
        PlanePartition(Partition([2]), 1, [[1, 1]])).rows == ((0, 0),)
    assert zero_to_max_map(
        PlanePartition(Partition([2]), 1, [[1, 0]])).rows == ((1, 0),)


def test_zero_to_max_trace_is_the_eight_step_orbit():
    pp = PlanePartition(Partition([1, 1]), 1, [[1], [0]])
    image, trace = zero_to_max_map(pp, with_trace=True)
    assert image == pp
    assert trace["input"] == pp.to_json()
    assert trace["output"] == pp.to_json()
    itinerary = [
        (s["set"], s["sign"], tuple(p["word"] for p in s["element"]["paths"]))
        for s in trace["steps"]
    ]
    assert itinerary == [
        ("source", "+", ("ES", "SE")),
        ("middle", "+", ("ES", "SE")),
        ("middle", "+", ("SE", "ES")),
        ("middle", "-", ("SS", "EE")),
        ("middle", "-", ("SS", "EE")),
        ("middle", "+", ("SE", "ES")),
        ("middle", "+", ("ES", "SE")),
        ("target", "+", ("ES", "SE")),
    ]


def test_zero_to_max_hop_counts_are_pinned():
    # the ping-pong itinerary lengths are a behavioural invariant: over the
    # first 200 elements of PP((4,4,4); 4) the traces hold 9280 steps (9080
    # hops) and the longest holds 216 (215 hops)
    pps = enumerate_plane_partitions(Partition([4, 4, 4]), 4)
    lengths = [len(zero_to_max_map(pp, with_trace=True)[1]["steps"])
               for _, pp in zip(range(200), pps)]
    assert len(lengths) == 200
    assert sum(lengths) == 9280
    assert max(lengths) == 216


@pytest.mark.parametrize("parts,bound", [((1, 1), 1), ((2, 1), 2), ((2, 2), 2)])
def test_zero_to_max_is_statistic_crossing_bijection(parts, bound):
    shape = Partition(parts)
    pps = list(enumerate_plane_partitions(shape, bound))
    images = [zero_to_max_map(pp) for pp in pps]
    assert len(set(images)) == len(pps)
    assert set(images) == set(pps)
    for pp, image in zip(pps, images):
        assert pp.zero_rows() == image.max_rows()


def test_zero_to_max_sijection_full_check():
    sij = zero_to_max_sijection(Partition([1, 1]), 1)
    assert check_sijection(sij) == []
    assert check_compatibility(sij, last_step_east_count,
                               first_step_east_count) == []


def test_zero_to_max_inverse_crosses_back():
    shape, bound = Partition([2, 1]), 2
    sij = zero_to_max_sijection(shape, bound)
    from lgvlab.paths import pp_decode, pp_encode
    for pp in enumerate_plane_partitions(shape, bound):
        _, _, family = sij.forward((SOURCE, 1, pp_encode(pp)))
        _, _, back = sij.backward((TARGET, 1, family))
        assert pp_decode(back, shape, bound) == pp


# --- weight-permuting bijection on tableaux ---------------------------------

def test_weight_map_frozen_value():
    t = Tableau(Partition([1]), 2, [[1]])
    assert weight_permutation_map(t, (2, 1)).rows == ((2,),)


def test_weight_map_identity_permutation():
    t = Tableau(Partition([2, 1]), 3, [[1, 2], [3]])
    assert weight_permutation_map(t, (1, 2, 3)) == t


@pytest.mark.parametrize("perm", [(2, 1, 3), (3, 2, 1), (2, 3, 1)])
def test_weight_map_permutes_weights_bijectively(perm):
    shape, n = Partition([2, 1]), 3
    tableaux = list(enumerate_tableaux(shape, n))
    images = [weight_permutation_map(t, perm) for t in tableaux]
    assert len(set(images)) == len(tableaux)
    assert set(images) == set(tableaux)
    for t, image in zip(tableaux, images):
        expected = [0] * n
        for k, count in enumerate(t.weight()):
            expected[perm[k] - 1] = count
        assert list(image.weight()) == expected


def test_weight_map_on_kostka_two_class():
    # weight (1,1,1) of shape (2,1) has two tableaux; the reversal fixes
    # the weight class, so it must permute those two tableaux among
    # themselves
    shape, n = Partition([2, 1]), 3
    pair = [t for t in enumerate_tableaux(shape, n) if t.weight() == (1, 1, 1)]
    assert len(pair) == 2
    images = {weight_permutation_map(t, (3, 2, 1)) for t in pair}
    assert images == set(pair)


def test_weight_map_trace_shape():
    t = Tableau(Partition([1, 1]), 2, [[1], [2]])
    image, trace = weight_permutation_map(t, (2, 1), with_trace=True)
    assert trace["input"] == t.to_json()
    assert trace["output"] == image.to_json()
    assert trace["steps"][0]["set"] == "source"
    assert trace["steps"][-1]["set"] == "target"
    assert all(s["set"] == "middle" for s in trace["steps"][1:-1])
