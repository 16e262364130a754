import hashlib
import json
import tracemalloc
from itertools import permutations

import pytest

import lgvlab.bijections
import lgvlab.paths
from lgvlab.bijections import (
    SwapCertificate,
    lgv_sijection,
    permute_steps,
    reverse_paths,
    tail_swap,
    variable_positions,
    weight_permutation_map,
    weight_permutation_sijection,
    zero_to_max_map,
    zero_to_max_sijection,
)
from lgvlab.guards import GuardExceeded, resolve_guard_limit
from lgvlab.objects import (
    Partition,
    PlanePartition,
    Tableau,
    enumerate_partitions,
    enumerate_plane_partitions,
    enumerate_tableaux,
)
from lgvlab.paths import (
    Endpoints,
    Path,
    SignedPathFamily,
    enumerate_families,
    enumerate_ni_families,
    first_step_east_count,
    is_nonintersecting,
    last_step_east_count,
    plane_partition_endpoints,
    pp_decode,
    pp_encode,
    ssyt_decode,
    ssyt_encode,
    tableau_endpoints,
)
from lgvlab.sijections import (
    SOURCE,
    TARGET,
    Sijection,
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
    # meet at the canonical point, so the pair choice is tested too.  The
    # eight-path column 1^8 (m <= 2) and tableaux with 5 or 6 columns
    # (n <= 3) give the pair scan of the meet kernel many pairs per family
    instances = [plane_partition_endpoints(shape, bound)
                 for shape in enumerate_partitions(6) for bound in range(3)]
    instances += [plane_partition_endpoints(Partition([1] * 8), bound)
                  for bound in range(3)]
    instances += [tableau_endpoints(shape, varcount)
                  for shape in enumerate_partitions(4)
                  for varcount in range(1, 4)]
    instances += [tableau_endpoints(Partition(parts), varcount)
                  for parts in [(5,), (6,), (5, 1), (6, 1), (5, 2), (5, 1, 1)]
                  for varcount in range(1, 4)]
    # starts off the diagonal x = y, where the library's own endpoints all
    # lie, so a swap core that read one coordinate of a start for the
    # other would cut the paths at the wrong step
    moved = plane_partition_endpoints(Partition([3, 3, 2]), 2)
    instances.append(Endpoints([(x + 2, y - 1) for x, y in moved.a],
                               [(x + 2, y - 1) for x, y in moved.b]))
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
            # the image is not marked: its own scan, run when first asked,
            # meets where the input did, and the oracle finds it too
            assert swapped._meet is lgvlab.paths._UNSCANNED
            assert lgvlab.paths._family_meet(swapped) == (point, *pair)
            assert not _oracle_is_nonintersecting(swapped)
            triple += sum(point in p.points() for p in family.paths) > 2
    assert crossing > 50_000 and triple > 0


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


def test_lgv_sijection_swaps_again_through_its_swap_memo(monkeypatch):
    calls = []
    real = lgvlab.bijections._swap_tails

    def counting(p, q, point):
        calls.append((p, q))
        return real(p, q, point)

    monkeypatch.setattr(lgvlab.bijections, "_swap_tails", counting)
    ep = plane_partition_endpoints(Partition([2, 1]), 2)
    sij = lgv_sijection(ep)
    assert type(sij) is Sijection
    # the pair memo keeps each swapped pair: a second swap of the same
    # family reads the first's pair; both return the walked family equal
    # to the image
    walked = [family for family, _ in sij.target.elements()]
    negative = next(f for f in walked if f.sign == -1)
    _, _, image = sij.forward((TARGET, -1, negative))
    again = sij.forward((TARGET, -1, negative))
    assert again == (TARGET, 1, image) and again[2] is image
    assert any(family is image for family in walked)
    assert len(calls) == 1
    assert image == tail_swap(negative)[0]


def test_a_swap_before_any_walk_walks_the_signed_families_once(monkeypatch):
    # the first swap walks the target itself and returns the walked family;
    # the checker then replays that walk instead of enumerating again
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_families(*args, **kwargs)

    monkeypatch.setattr(lgvlab.bijections, "enumerate_families", counting)
    ep = plane_partition_endpoints(Partition([2, 1]), 2)
    negative = next(f for f in enumerate_families(ep) if f.sign == -1)
    sij = lgv_sijection(ep)
    assert sij.target._stream is None
    _, _, image = sij.forward((TARGET, -1, negative))
    assert len(calls) == 1 and sij.target._stream is not None
    assert any(family is image for family, _ in sij.target.elements())
    assert image == tail_swap(negative)[0]
    assert check_sijection(sij) == [] and len(calls) == 1


def test_lgv_sijection_check_catches_a_swap_that_does_not_undo_itself(
        monkeypatch):
    # the swap stays right on negative families but is wrong on positive
    # crossing ones, so only backward(forward(x)) can see it; a memo that
    # recorded forward's swap as backward's answer would hide it
    real = lgvlab.bijections._swap_parts

    def one_sided(family, pairs):
        sigma, paths, meet = real(family, pairs)
        if family.sign == -1:
            return sigma, paths, meet
        return family.sigma, family.paths, meet

    monkeypatch.setattr(lgvlab.bijections, "_swap_parts", one_sided)
    ep = plane_partition_endpoints(Partition([2, 1]), 2)
    problems = check_sijection(lgv_sijection(ep))
    assert any(p.startswith("backward(forward(") for p in problems)


@pytest.mark.parametrize("ep", [
    plane_partition_endpoints(Partition([3, 3, 2]), 2),
    tableau_endpoints(Partition([3, 2]), 3),
], ids=["plane-partition", "tableau"])
def test_lgv_source_walked_after_the_target_reads_its_stream(ep, monkeypatch):
    # walked first, the non-intersecting side walks the signed families
    # itself; walked after them, it gives the same families in the same
    # order, the signed set's own objects, and enumerates nothing
    fresh = list(lgv_sijection(ep).source.elements())
    sij = lgv_sijection(ep)
    walked = {id(family) for family, _ in sij.target.elements()}

    def refused(*args, **kwargs):
        raise AssertionError("the families were enumerated again")

    monkeypatch.setattr(lgvlab.bijections, "enumerate_families", refused)
    monkeypatch.setattr(lgvlab.bijections, "enumerate_ni_families", refused)
    read = list(sij.source.elements())
    assert read == fresh and len(read) > 10
    assert all(id(family) in walked for family, _ in read)
    assert check_sijection(sij) == []


@pytest.mark.parametrize("ep", [
    plane_partition_endpoints(Partition([3, 3, 2]), 2),
    tableau_endpoints(Partition([3, 2]), 3),
], ids=["plane-partition", "tableau"])
def test_lgv_source_walked_first_enumerates_the_families_once(ep,
                                                             monkeypatch):
    # the non-intersecting side is a filter of the signed families' walk:
    # walked first, it runs that walk, in the order enumerate_ni_families
    # gives, and nothing afterwards enumerates again
    expected = list(enumerate_ni_families(ep))
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_families(*args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("the non-intersecting families were enumerated")

    monkeypatch.setattr(lgvlab.bijections, "enumerate_families", counting)
    monkeypatch.setattr(lgvlab.bijections, "enumerate_ni_families", refused)
    sij = lgv_sijection(ep)
    read = list(sij.source.elements())
    assert len(calls) == 1
    assert [family for family, _ in read] == expected and len(read) > 10
    assert {sign for _, sign in read} == {1}
    walked = {id(family) for family, _ in sij.target.elements()}
    assert all(id(family) in walked for family, _ in read)
    assert check_sijection(sij) == []
    assert len(calls) == 1


def test_lgv_source_walked_first_is_guarded_as_the_signed_families():
    # PP((2, 1); 2) has 22 families and 18 identity families, 14 of them
    # non-intersecting: the source's walk is the signed families' walk, so
    # the permanent is what its guard projects
    ep = plane_partition_endpoints(Partition([2, 1]), 2)
    assert len(list(lgv_sijection(ep, 22).source.elements())) == 14
    with pytest.raises(GuardExceeded, match=(
            r"^path families: projected size 22 exceeds guard limit 21$")):
        list(lgv_sijection(ep, 21).source.elements())


@pytest.mark.parametrize("ep", [
    plane_partition_endpoints(Partition([3, 3, 2]), 2),
    tableau_endpoints(Partition([3, 2]), 3),
], ids=["plane-partition", "tableau"])
def test_walked_lgv_sijection_swaps_onto_the_walked_families(ep):
    # once the signed families are walked, every swap image, through
    # either map, is the walked family object itself
    sij = lgv_sijection(ep)
    walked = [family for family, _ in sij.target.elements()]
    ids = set(map(id, walked))
    crossing = [family for family in walked if not is_nonintersecting(family)]
    assert len(crossing) > 10
    for family in crossing:
        tagged = (TARGET, family.sign, family)
        move = sij.forward if family.sign == -1 else sij.backward
        assert id(move(tagged)[2]) in ids
    assert check_sijection(sij) == []


def test_walked_swaps_through_the_pair_memo_match_the_tail_swap(monkeypatch):
    # after the walk the swap core keeps one swapped pair per crossing
    # pair of paths: on every shape of at most 6 cells with 1 <= m <= 3,
    # each crossing family's image (forward from a negative family,
    # backward from a positive one) equals the tail swap's and meets where
    # it does, and the core ran once per distinct pair, not per family
    real = lgvlab.bijections._swap_tails
    cores = []

    def counting(p, q, point):
        cores.append((p, q))
        return real(p, q, point)

    crossing = shared = 0
    for shape in enumerate_partitions(6):
        for bound in range(1, 4):
            sij = lgv_sijection(plane_partition_endpoints(shape, bound))
            walked = [family for family, _ in sij.target.elements()]
            families = [f for f in walked if not is_nonintersecting(f)]
            cores.clear()
            with monkeypatch.context() as patch:
                patch.setattr(lgvlab.bijections, "_swap_tails", counting)
                images = [(sij.forward if f.sign == -1 else sij.backward)(
                    (TARGET, f.sign, f))[2] for f in families]
            pairs = set()
            for family in families:
                _, i, j = lgvlab.paths._family_meet(family)
                pairs.add((family.paths[i], family.paths[j]))
            assert sorted(cores, key=repr) == sorted(pairs, key=repr)
            for family, image in zip(families, images):
                expected, cert = tail_swap(family)
                assert image == expected
                meet = lgvlab.paths._family_meet(image)
                assert meet == lgvlab.paths._family_meet(expected)
                assert meet == (cert.point, *cert.paths)
            crossing += len(families)
            shared += len(families) - len(pairs)
    assert (crossing, shared) == (49_264, 45_840)


def test_a_maps_ping_pong_fills_no_pair_memo(fresh_maps, monkeypatch):
    # a map never walks the signed families, so every swap of its
    # ping-pong runs the pair core afresh and keeps nothing
    real = lgvlab.bijections._swap_parts
    memos = []

    def recording(family, pairs):
        memos.append(pairs)
        return real(family, pairs)

    monkeypatch.setattr(lgvlab.bijections, "_swap_parts", recording)
    shape = Partition([3, 3, 2])
    for pp in enumerate_plane_partitions(shape, 2):
        zero_to_max_map(pp)
    assert len(memos) == 880
    assert memos == [None] * len(memos)


def test_checkers_enumerate_no_nonintersecting_family(monkeypatch):
    # checked on its own, the LGV sijection's non-intersecting side is read
    # off the signed families' walk, so no identity family is built twice
    # (600 of 1,175 would be, on this shape)
    def refused(*args, **kwargs):
        raise AssertionError("the non-intersecting families were enumerated")

    monkeypatch.setattr(lgvlab.bijections, "enumerate_ni_families", refused)
    ep = plane_partition_endpoints(Partition([3, 3, 2]), 2)
    assert check_sijection(lgv_sijection(ep)) == []
    assert check_compatibility(lgv_sijection(ep), last_step_east_count,
                               last_step_east_count) == []


def test_swap_images_hold_the_enumerated_paths():
    # the enumeration and the tail swap build their paths through one
    # cache, so a swap's image shares the path objects of the enumerated
    # family it equals, and comparing the two stops at identity
    ep = plane_partition_endpoints(Partition([3, 3, 2]), 2)
    walked = {family: family for family in enumerate_families(ep)}
    crossing = [family for family in walked if not is_nonintersecting(family)]
    assert len(crossing) == 1020
    for family in crossing:
        image = tail_swap(family)[0]
        twin = walked[image]
        assert all(p is q for p, q in zip(image.paths, twin.paths))


# --- word-level symmetries -------------------------------------------------

def test_reverse_paths_involution_and_statistic_swap():
    ep = plane_partition_endpoints(Partition([2, 1]), 2)
    for family in enumerate_families(ep):
        rev = reverse_paths(family)
        assert reverse_paths(rev) == family
        assert rev.sigma == family.sigma
        assert last_step_east_count(rev) == first_step_east_count(family)
        assert first_step_east_count(rev) == last_step_east_count(family)


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


def test_permute_steps_refuses_repeated_positions():
    # a repeated position drops a step, so a path no longer reaches its
    # end; the family is refused by the validating constructor
    ep = tableau_endpoints(Partition([2, 1]), 3)
    for family in enumerate_families(ep):
        with pytest.raises(ValueError, match=r"^paths\[\d\] ends at .*, expected"):
            permute_steps(family, (0, 0, 1))


@pytest.mark.parametrize("positions", [(-1, 0, 1), (0, 1, 5), (0, 3, 1)],
                         ids=["negative", "past-the-end", "one-past"])
def test_permute_steps_refuses_positions_out_of_range(positions):
    ep = tableau_endpoints(Partition([2, 1]), 3)
    for family in enumerate_families(ep):
        with pytest.raises(ValueError, match=r"^positions\[\d\]: .* outside 0\.\.2$"):
            permute_steps(family, positions)


def test_weight_permutation_sijection_checks():
    # a shape given as a list is read as the maps read a Partition
    sij = weight_permutation_sijection([2, 1], 3, (2, 3, 1))
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
    traces = [zero_to_max_map(pp, with_trace=True)[1]
              for _, pp in zip(range(200), pps)]
    lengths = [len(trace["steps"]) for trace in traces]
    assert len(lengths) == 200
    assert sum(lengths) == 9280
    assert max(lengths) == 216
    # and so is every landing of every itinerary
    text = json.dumps(traces, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "efdabf473558a3799167971369ef18de779031878eb17f96b1018a76ea661a50")


def test_a_long_ping_pong_keeps_no_family_it_swaps():
    # an orbit never swaps the same family twice, so the walk keeps no
    # swap: the 7,307-hop elements of 1^11, m=1 peak near a short orbit
    # (about 0.07 MB against 0.02 MB), where a memo of every swapped
    # family peaked at 2.2 MB
    lgvlab.paths._path.cache_clear()
    shape = Partition([1] * 11)
    peaks = []
    for _, pp in zip(range(10), enumerate_plane_partitions(shape, 1)):
        sij = zero_to_max_sijection(shape, 1)
        family = pp_encode(pp)
        tracemalloc.start()
        try:
            sij.forward((SOURCE, 1, family))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(peaks) == 10
    assert max(peaks) < 500_000


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


@pytest.mark.parametrize("perm", [(2, 1), (2, 1, 4, 3)], ids=["2", "4"])
def test_weight_maps_refuse_a_perm_of_the_wrong_length(perm):
    # refused by name when built, not by a path word when first applied,
    # and only after the shape and the varcount
    want = rf"^perm has {len(perm)} entries, expected 3$"
    with pytest.raises(ValueError, match=want):
        weight_permutation_sijection((2, 1), 3, perm)
    t = Tableau(Partition([2, 1]), 3, [[1, 2], [3]])
    with pytest.raises(ValueError, match=want):
        weight_permutation_map(t, perm)
    with pytest.raises(ValueError, match="^varcount must be at least 1$"):
        weight_permutation_sijection((2, 1), 0, perm)
    with pytest.raises(ValueError, match="weakly decreasing"):
        weight_permutation_sijection((1, 2), 3, perm)


def test_weight_permutation_sijection_refuses_a_bad_perm_first():
    # as the map does: the perm is read before the shape is
    with pytest.raises(ValueError, match=r"is not a permutation of 1\.\.3$"):
        weight_permutation_sijection((1, 2), 3, (1, 1, 2))


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


# --- what the maps keep, and a chain walk to check them against -------------

def test_the_maps_keep_at_most_their_constant_number_of_sijections(fresh_maps):
    # the maps keep one instance's endpoints, not a sijection, per entry
    size = lgvlab.bijections._MAP_CACHE_SIZE
    instances = 0
    for shape in enumerate_partitions(6):
        for bound in range(3):
            zero_to_max_map(next(enumerate_plane_partitions(shape, bound)))
            instances += 1
        if len(shape) <= 3:
            for varcount in (3, 4, 5):
                tableau = next(enumerate_tableaux(shape, varcount))
                for perm in permutations(range(1, varcount + 1)):
                    weight_permutation_map(tableau, perm)
                instances += 1
    assert instances > 2 * size
    for kept in (lgvlab.bijections._kept_pp_endpoints,
                 lgvlab.bijections._kept_tableau_endpoints):
        info = kept.cache_info()
        assert info.maxsize == size
        assert info.currsize == size
        assert info.misses > size


def test_a_kept_sijection_still_refuses_past_a_smaller_hop_limit(
        monkeypatch):
    # the (4,4,4), m=4 element whose orbit takes 215 hops, mapped first
    # under the default limit and then under smaller ones
    monkeypatch.delenv("LGVLAB_GUARD_LIMIT", raising=False)
    pp = PlanePartition(Partition([4, 4, 4]), 4,
                        [[4, 4, 4, 4], [4, 4, 4, 2], [1, 1, 1, 1]])
    image = zero_to_max_map(pp)
    with pytest.raises(GuardExceeded, match=(
            r"^ping-pong hops: projected size 215 exceeds guard limit 214$")):
        zero_to_max_map(pp, guard_limit=214)
    monkeypatch.setenv("LGVLAB_GUARD_LIMIT", "100")
    with pytest.raises(GuardExceeded, match=(
            r"^ping-pong hops: projected size 101 exceeds guard limit 100$")):
        zero_to_max_map(pp)
    monkeypatch.setenv("LGVLAB_GUARD_LIMIT", "215")
    assert zero_to_max_map(pp) == image
    monkeypatch.delenv("LGVLAB_GUARD_LIMIT")
    assert zero_to_max_map(pp, guard_limit=215) == image


def test_a_kept_sijection_holds_no_stream_and_no_swap_memo(monkeypatch,
                                                          fresh_maps):
    # a map walks no signed set, so no enumeration runs, and the one
    # thing kept per instance is its endpoints, a value
    def refused(*args):
        raise AssertionError("a map enumerated families")

    for name in ("enumerate_families", "enumerate_ni_families"):
        monkeypatch.setattr(lgvlab.bijections, name, refused)
    shape, bound = Partition([4, 4, 4]), 4
    tableau_shape, varcount, perm = Partition([3, 2, 1]), 4, (2, 4, 1, 3)
    calls = 0
    for _, pp in zip(range(800), enumerate_plane_partitions(shape, bound)):
        zero_to_max_map(pp)
        calls += 1
    tableaux = list(enumerate_tableaux(tableau_shape, varcount))
    for tableau in tableaux * 3 + tableaux[:8]:
        weight_permutation_map(tableau, perm)
        calls += 1
    assert calls == 1000
    for kept, instance, build in (
            (lgvlab.bijections._kept_pp_endpoints, (shape, bound),
             plane_partition_endpoints),
            (lgvlab.bijections._kept_tableau_endpoints,
             (tableau_shape, varcount), tableau_endpoints)):
        assert kept.cache_info().misses == 1
        endpoints = kept(*instance)
        assert type(endpoints) is Endpoints
        assert endpoints == build(*instance)


def _chain_walk(stages, payload):
    """The Garsia-Milne walk of a positive element of X_0 along a chain of
    sijections X_0 => X_1 => ... => X_k, stage i given by its forward map
    on tagged triples: an image on a stage's target side moves on to the
    next stage, one on its source side back to the previous one, until it
    steps off the chain.  Returns the image and the ``(sign, payload)``
    landings, the image's last."""
    k, tagged, landings = 0, (SOURCE, 1, payload), []
    while True:
        side, sign, payload = stages[k](tagged)
        landings.append((sign, payload))
        boundary = k + 1 if side == TARGET else k
        if boundary in (0, len(stages)):
            return payload, landings
        k = boundary if side == TARGET else boundary - 1
        tagged = (SOURCE if side == TARGET else TARGET, sign, payload)


def _conjugation_stages(endpoints, there, back):
    """The three stages lgv, ``there`` on the signed families and the
    inverse of lgv, the last two read off their own definitions."""
    lgv = lgv_sijection(endpoints)

    def middle(tagged):
        side, sign, family = tagged
        if side == SOURCE:
            return (TARGET, 1, there(family))
        return (SOURCE, -1, back(family))

    def flip(tagged):
        side, sign, family = tagged
        return (TARGET if side == SOURCE else SOURCE, sign, family)

    return (lgv.forward, middle, lambda tagged: flip(lgv.backward(flip(tagged))))


def test_kept_zero_to_max_maps_match_freshly_built_sijections(fresh_maps):
    # every map, and on the smaller instances every landing, against the
    # chain walk
    maps = 0
    for shape in enumerate_partitions(8):
        for bound in range(4):
            endpoints = plane_partition_endpoints(shape, bound)
            stages = _conjugation_stages(endpoints, reverse_paths,
                                         reverse_paths)
            sij = zero_to_max_sijection(shape, bound)
            for pp in enumerate_plane_partitions(shape, bound):
                family = pp_encode(pp)
                image, landings = _chain_walk(stages, family)
                assert zero_to_max_map(pp) == pp_decode(image, shape, bound)
                if shape.size() <= 6:
                    trace = []
                    assert sij.forward((SOURCE, 1, family), trace) == (
                        TARGET, 1, image)
                    assert trace == landings
                maps += 1
    assert maps == 33049


def test_kept_weight_maps_match_freshly_built_sijections(fresh_maps):
    maps = 0
    for shape in enumerate_partitions(6):
        for varcount in range(1, 5):
            endpoints = tableau_endpoints(shape, varcount)
            tableaux = list(enumerate_tableaux(shape, varcount))
            for perm in permutations(range(1, varcount + 1)):
                positions = [v - 1 for v in perm]
                inverse = [positions.index(k) for k in range(varcount)]
                stages = _conjugation_stages(
                    endpoints,
                    lambda family: permute_steps(family, positions),
                    lambda family: permute_steps(family, inverse))
                for tableau in tableaux:
                    image, _ = _chain_walk(stages, ssyt_encode(tableau))
                    assert weight_permutation_map(tableau, perm) == (
                        ssyt_decode(image, shape, varcount))
                    maps += 1
    assert maps == 25685
