import gc
import math
import random
import time
from itertools import islice, permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lgvlab.bijections import permute_steps, reverse_paths, zero_to_max_map
from lgvlab.guards import GuardExceeded
from lgvlab.objects import (
    Partition,
    PlanePartition,
    Tableau,
    count_tableaux,
    enumerate_partitions,
    enumerate_plane_partitions,
    enumerate_tableaux,
)
import lgvlab.paths
from lgvlab.algebra import perm_sign
from lgvlab.paths import (
    Endpoints,
    Path,
    SignedPathFamily,
    _PATH_CACHE_SIZE,
    _path,
    count_connection_paths,
    count_families,
    count_ni_families,
    east_step_labels,
    enumerate_connection_paths,
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


# --- paths ------------------------------------------------------------------

def test_path_basics():
    p = Path((-1, -1), "ESE")
    assert p.end == (1, -2)
    assert p.points() == ((-1, -1), (0, -1), (0, -2), (1, -2))
    assert len(p) == 3
    with pytest.raises(ValueError):
        Path((0, 0), "EN")


def test_path_json_roundtrip():
    p = Path((2, -3), "SSE")
    assert p.to_json() == {"start": [2, -3], "word": "SSE"}
    assert Path.from_json(p.to_json()) == p


@given(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
       st.text(alphabet="ES", max_size=8))
def test_path_end_matches_step_counts(start, word):
    p = Path(start, word)
    assert p.end == (start[0] + word.count("E"), start[1] - word.count("S"))
    assert len(p.points()) == len(word) + 1


def test_path_word_validation():
    with pytest.raises(ValueError, match=r"word\[2\]: invalid step 'N'"):
        Path((0, 0), "ESNE")
    with pytest.raises(ValueError, match="string"):
        Path((0, 0), ["E", "S"])


def test_path_caches_end_and_point_set():
    p = Path((2, -3), "SSEES")
    assert p.end == (4, -6)
    assert p._point_set() == frozenset(p.points())
    assert p._point_set() is p._point_set()
    with pytest.raises(AttributeError):
        p.end = (0, 0)


def test_path_and_family_hashes():
    # a path hashes as (start, word), computed once when it is built; a
    # family compares and hashes by (sigma, paths), which fix its endpoints
    p = Path((2, -3), "SSEES")
    assert hash(p) == hash(Path((2, -3), "SSEES")) == hash(((2, -3), "SSEES"))
    ep = plane_partition_endpoints(Partition([2, 2]), 2)
    twin = plane_partition_endpoints(Partition([2, 2]), 2)
    assert twin == ep and twin is not ep
    for family in enumerate_families(ep):
        rebuilt = SignedPathFamily(twin, family.sigma, family.paths)
        assert rebuilt == family and rebuilt is not family
        assert hash(rebuilt) == hash(family) == hash(
            (family.sigma, family.paths))
        assert family.sign == perm_sign(family.sigma)


def test_step_statistics_on_an_empty_path():
    ep = Endpoints([(0, 0), (-1, -1)], [(0, 0), (0, -1)])
    family = SignedPathFamily(ep, (0, 1), [Path((0, 0), ""), Path((-1, -1), "E")])
    assert last_step_east_count(family) == first_step_east_count(family) == 1


def _end_steps_read_off_the_words(family) -> tuple[int, int]:
    """(last-step-east count, first-step-east count) from the words."""
    words = [p.word for p in family.paths]
    return (sum(w[-1:] == "E" for w in words),
            sum(w[:1] == "E" for w in words))


def _end_steps(family) -> tuple[int, int]:
    return last_step_east_count(family), first_step_east_count(family)


def test_end_step_flags_match_the_words_on_every_family():
    # each path sets its two flags when it is built, whichever way it is
    # built: the enumeration's ``_path``, ``Path(...)`` and
    # ``Path.from_json`` (once per distinct path), ``_reverse`` and
    # ``permute_steps`` (on the families whose words share one length)
    rebuilt = {}
    families = permuted = 0
    for shape in enumerate_partitions(6):
        for bound in range(1, 4):
            ep = plane_partition_endpoints(shape, bound)
            for family in enumerate_families(ep):
                for p in family.paths:
                    if p not in rebuilt:
                        rebuilt[p] = (Path(p.start, p.word),
                                      Path.from_json(p.to_json()))
                want = _end_steps_read_off_the_words(family)
                assert _end_steps(family) == want
                for k in range(2):
                    paths = tuple(rebuilt[p][k] for p in family.paths)
                    assert _end_steps(SignedPathFamily._trusted(
                        ep, family.sigma, paths)) == want
                reversed_ = reverse_paths(family)
                assert _end_steps(reversed_) == want[::-1]
                assert (_end_steps_read_off_the_words(reversed_)
                        == want[::-1])
                families += 1
                lengths = {len(p) for p in family.paths}
                if len(lengths) == 1:
                    n = lengths.pop()
                    moved = permute_steps(family,
                                          [(t + 1) % n for t in range(n)])
                    assert (_end_steps(moved)
                            == _end_steps_read_off_the_words(moved))
                    permuted += 1
    assert (families, permuted) == (53_887, 29_033)


def test_interned_paths_equal_fresh_paths_and_stay_immutable():
    p = _path((-1, -1), "ESE")
    assert p == Path((-1, -1), "ESE") and type(p) is Path
    assert p.end == (1, -2)
    assert _path((-1, -1), "ESE") is p
    with pytest.raises(AttributeError):
        p.word = "SEE"
    with pytest.raises(ValueError):
        _path((0, 0), "EN")


def test_a_path_keeps_its_reversal():
    p = _path((-1, -1), "EES")
    r = p._reverse()
    assert r is _path((-1, -1), "SEE") and r._reverse() is p
    assert r.end == p.end


def test_the_meet_memo_stays_bounded_as_the_path_cache_evicts(monkeypatch):
    # enough maps across shapes that the path cache evicts, under a small
    # per-path cap: the paths made on the way and still alive are the
    # cache's entries and the reversals they keep, each memoising at most
    # the cap; once the cache lets go of them, none is kept alive
    cap = 8
    monkeypatch.setattr(lgvlab.paths, "_MEETS_PER_PATH", cap)
    first = Path((0, 0), "")._serial
    misses = _path.cache_info().misses
    for parts in [(4, 4, 4), (5, 5, 3), (6, 4, 2)]:
        for bound in (4, 5, 6):
            pps = enumerate_plane_partitions(Partition(parts), bound)
            for pp in islice(pps, 0, 4000, 100):
                zero_to_max_map(pp)
    assert _path.cache_info().misses - misses > _PATH_CACHE_SIZE + 1000

    def made():
        gc.collect()
        return [obj for obj in gc.get_objects()
                if type(obj) is Path and obj._serial > first]

    alive = made()
    assert len(alive) <= 2 * _PATH_CACHE_SIZE
    # a memo holds serials and points, never a partner path
    assert not any(type(obj) is Path for p in alive if p._meets
                   for obj in gc.get_referents(p._meets))
    assert max(len(p._meets or ()) for p in alive) == cap
    assert sum(len(p._meets or ()) for p in alive) <= (
        2 * _PATH_CACHE_SIZE * cap)
    del alive
    _path.cache_clear()
    assert made() == []


@pytest.mark.parametrize("data", [
    {"start": [0.7, 0], "word": "ES"},
    {"start": [0, 1.0], "word": "ES"},
    {"start": [True, 0], "word": "ES"},
    {"start": ["0", 0], "word": "ES"},
    {"start": 5, "word": "ES"},
    {"start": [0, 0, 0], "word": "ES"},
    {"start": [0, 0], "word": ["E", "S"]},
    {"start": [0, 0], "word": None},
], ids=["float", "float-y", "bool", "string", "not-a-list", "three-coords",
        "word-list", "word-null"])
def test_path_from_json_rejects_malformed(data):
    with pytest.raises(ValueError):
        Path.from_json(data)


@pytest.mark.parametrize("sigma", [[True, 2], [1.0, 2], [1, "2"], "12", 12],
                         ids=["bool", "float", "string-entry", "string", "int"])
def test_family_from_json_rejects_malformed_sigma(sigma):
    ep = plane_partition_endpoints(Partition([1, 1]), 1)
    data = {"sigma": sigma,
            "paths": [{"start": [-1, -1], "word": "ES"},
                      {"start": [-2, -2], "word": "SE"}]}
    with pytest.raises(ValueError):
        SignedPathFamily.from_json(data, ep)


def test_family_from_json_rejects_malformed_paths():
    ep = plane_partition_endpoints(Partition([1, 1]), 1)
    with pytest.raises(ValueError):
        SignedPathFamily.from_json({"sigma": [1, 2], "paths": 5}, ep)


# --- endpoint configurations --------------------------------------------------

def test_plane_partition_endpoints_frozen():
    ep = plane_partition_endpoints(Partition([1, 1]), 1)
    assert ep.a == ((-1, -1), (-2, -2))
    assert ep.b == ((0, -2), (-1, -3))
    ep2 = plane_partition_endpoints(Partition([2, 1]), 2)
    assert ep2.a == ((-1, -1), (-2, -2))
    assert ep2.b == ((1, -3), (-1, -4))


def test_tableau_endpoints_use_transposed_shape():
    # shape (2,1) transposes to (2,1); three variables
    ep = tableau_endpoints(Partition([2, 1]), 3)
    assert ep.a == ((-1, -1), (-2, -2))
    assert ep.b == ((1, -2), (-1, -4))
    # shape (3): one column path per transposed part
    ep3 = tableau_endpoints(Partition([3]), 2)
    assert ep3.n == 3


def test_connection_counts():
    assert count_connection_paths((-1, -1), (0, -2)) == 2
    assert count_connection_paths((0, 0), (2, -1)) == 3
    assert count_connection_paths((0, 0), (-1, 0)) == 0
    paths = list(enumerate_connection_paths((0, 0), (2, -1)))
    assert [p.word for p in paths] == ["EES", "ESE", "SEE"]
    assert list(enumerate_connection_paths((0, 0), (-1, -1))) == []


@given(st.integers(0, 4), st.integers(0, 4))
def test_connection_enumeration_matches_count(dx, dy):
    a, b = (0, 0), (dx, -dy)
    assert sum(1 for _ in enumerate_connection_paths(a, b)) == \
        count_connection_paths(a, b)


# --- families -----------------------------------------------------------------

def test_family_validation():
    ep = plane_partition_endpoints(Partition([1, 1]), 1)
    good = SignedPathFamily(ep, (0, 1), [Path((-1, -1), "ES"), Path((-2, -2), "SE")])
    assert good.sign == 1 and good.is_identity()
    with pytest.raises(ValueError, match="permutation"):
        SignedPathFamily(ep, (0, 0), good.paths)
    with pytest.raises(ValueError, match="starts"):
        SignedPathFamily(ep, (0, 1), [Path((0, 0), "ES"), good.paths[1]])
    with pytest.raises(ValueError, match="ends"):
        SignedPathFamily(ep, (1, 0), good.paths)


def test_family_json_roundtrip_one_indexed():
    ep = plane_partition_endpoints(Partition([1, 1]), 1)
    crossed = SignedPathFamily(
        ep, (1, 0), [Path((-1, -1), "SS"), Path((-2, -2), "EE")])
    data = crossed.to_json()
    assert data["sigma"] == [2, 1]
    assert SignedPathFamily.from_json(data, ep) == crossed
    assert crossed.sign == -1


def test_family_counts_frozen():
    cases = [
        ((1, 1), 1, 5, 3),
        ((2, 1), 2, 22, 14),
        ((2, 2), 2, 52, 20),
    ]
    for parts, bound, total, ni in cases:
        ep = plane_partition_endpoints(Partition(parts), bound)
        families = list(enumerate_families(ep))
        assert len(families) == count_families(ep) == total
        assert len(set(families)) == total
        ni_list = [f for f in families if is_nonintersecting(f)]
        assert len(ni_list) == count_ni_families(ep) == ni
        assert sum(f.sign for f in families) == ni


def permutation_sum(matrix) -> int:
    """The permanent by its definition, one term per permutation."""
    n = len(matrix)
    return sum(math.prod(matrix[i][s[i]] for i in range(n))
               for s in permutations(range(n)))


def test_ryser_permanent_matches_permutation_sum(monkeypatch):
    # the column-mask count against the plain permutation sum, on random
    # matrices with many zeros (rows that start late, and empty rows) and
    # large entries
    rng = random.Random(5)
    for _ in range(240):
        n = rng.randint(1, 7)
        matrix = [[rng.choice([0, 0, 1, 2, 3, 7, 10**6]) for _ in range(n)]
                  for _ in range(n)]
        monkeypatch.setattr(lgvlab.paths, "_connection_counts",
                            lambda endpoints: matrix)
        ep = Endpoints([(0, 0)] * n, [(0, 0)] * n)
        expected = sum(math.prod(matrix[i][s[i]] for i in range(n))
                       for s in permutations(range(n)))
        assert count_families(ep) == expected


def test_family_count_matches_permutation_sum_on_small_shapes():
    for shape in enumerate_partitions(8):
        for bound in range(4):
            ep = plane_partition_endpoints(shape, bound)
            matrix = [[count_connection_paths(a, b) for b in ep.b]
                      for a in ep.a]
            assert count_families(ep) == permutation_sum(matrix)


def test_family_count_matches_permutation_sum_with_negative_entries(
        monkeypatch):
    # the count is the permanent of any integer matrix, so signs that
    # cancel between permutations must cancel in it too
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(0, 6)
        matrix = [[rng.choice([0, 0, 1, -1, 2, -3, 5, -(10**9)])
                   for _ in range(n)] for _ in range(n)]
        monkeypatch.setattr(lgvlab.paths, "_connection_counts",
                            lambda endpoints: matrix)
        ep = Endpoints([(0, 0)] * n, [(0, 0)] * n)
        assert count_families(ep) == permutation_sum(matrix)


def test_family_count_of_a_column_bounded_by_one():
    # on 1^n, m=1 every connection takes two steps, so the matrix is
    # tridiagonal with 1, 2, 1, and its permanent P_n = 2 P_(n-1) + P_(n-2)
    previous, current = 1, 1
    for n in range(1, 31):
        previous, current = current, 2 * current + previous * (n > 1)
        ep = plane_partition_endpoints(Partition([1] * n), 1)
        assert count_families(ep) == current
    assert current == 259717522849


def test_family_count_of_a_tall_column_is_quick():
    # Ryser's formula takes 2^18 steps here for a count of one
    ep = plane_partition_endpoints(Partition([1] * 18), 0)
    started = time.process_time()
    assert count_families(ep) == 1
    assert time.process_time() - started < 0.01


def test_nonintersecting_families_have_identity_permutation():
    # on both endpoint configurations vertex-disjointness forces sigma = id,
    # which is what lets the identity-permutation stream find all of them
    instances = [
        plane_partition_endpoints(Partition([2, 1]), 2),
        plane_partition_endpoints(Partition([1, 1, 1]), 1),
        tableau_endpoints(Partition([2, 1]), 3),
        tableau_endpoints(Partition([2, 2]), 3),
    ]
    for ep in instances:
        for family in enumerate_families(ep):
            if is_nonintersecting(family):
                assert family.is_identity()


def test_ni_stream_matches_filtered_full_stream():
    ep = plane_partition_endpoints(Partition([2, 1]), 2)
    direct = set(enumerate_ni_families(ep))
    filtered = {f for f in enumerate_families(ep) if is_nonintersecting(f)}
    assert direct == filtered
    assert all(f.is_identity() for f in direct)


def _families_by_brute_force(ep):
    """Every permutation in itertools order, each with the product of its
    connection path streams; unreachable connections give empty streams."""
    return [
        SignedPathFamily(ep, sigma, paths)
        for sigma in permutations(range(ep.n))
        for paths in product(*(
            list(enumerate_connection_paths(ep.a[i], ep.b[sigma[i]]))
            for i in range(ep.n)))
    ]


def test_enumerate_families_order_matches_brute_force():
    instances = [plane_partition_endpoints(shape, bound)
                 for shape in enumerate_partitions(5) for bound in range(3)]
    instances += [tableau_endpoints(shape, varcount)
                  for shape in enumerate_partitions(4)
                  for varcount in range(1, 4)]
    for ep in instances:
        assert list(enumerate_families(ep)) == _families_by_brute_force(ep)


def test_enumerate_families_skips_unreachable_permutations():
    # on a 12-row column with bound 0 only the identity connects every start
    # to its end; walking all 12! permutations would take hours
    ep = plane_partition_endpoints(Partition([1] * 12), 0)
    families = list(enumerate_families(ep))
    assert len(families) == count_families(ep) == 1
    assert families[0].is_identity()


def test_enumerate_families_lists_each_connection_once(monkeypatch):
    # each connection's paths are listed once per walk, not once per
    # permutation that uses it, and the family order does not move
    ep = plane_partition_endpoints(Partition([2, 2, 2, 2]), 1)
    expected = _families_by_brute_force(ep)
    listed = []
    real = lgvlab.paths.enumerate_connection_paths

    def counting(a, b):
        listed.append((a, b))
        return real(a, b)

    monkeypatch.setattr(lgvlab.paths, "enumerate_connection_paths", counting)
    assert list(enumerate_families(ep)) == expected
    assert len(listed) == len(set(listed)) <= ep.n ** 2


def test_enumerate_families_guard():
    ep = plane_partition_endpoints(Partition([2, 1]), 2)
    with pytest.raises(GuardExceeded):
        list(enumerate_families(ep, guard_limit=10))


def test_both_walks_guard_their_count_then_the_steps_of_a_family():
    # (2, 1), m=2 has 18 identity families, 14 of them disjoint, and 22
    # signed ones, each of 4 + 3 = 7 steps; (5, 2), m=0 has one family of
    # 7 steps
    counted = plane_partition_endpoints(Partition([2, 1]), 2)
    stepped = plane_partition_endpoints(Partition([5, 2]), 0)
    for walk, what, count, walked in (
            (enumerate_ni_families, "identity path families", 18, 14),
            (enumerate_families, "path families", 22, 22)):
        for ep, limit, refused, projected in (
                (counted, count - 1, what, count),
                (stepped, 6, "path family steps", 7)):
            with pytest.raises(GuardExceeded, match=(
                    rf"^{refused}: projected size {projected} exceeds guard "
                    rf"limit {limit}$")):
                next(walk(ep, guard_limit=limit))
        assert len(list(walk(stepped, guard_limit=7))) == 1
        assert len(list(walk(counted, guard_limit=count))) == walked


def test_a_family_too_long_to_build_is_refused_by_its_steps():
    # PP([10^20]; 0) has one family, whose one path would take 10^20 steps;
    # a start off the diagonal x = y counts its own steps too: one path
    # of three south steps from (0, 1)
    long = plane_partition_endpoints(Partition([10**20]), 0)
    off = Endpoints([(0, 1)], [(0, -2)])
    for walk in (enumerate_families, enumerate_ni_families):
        for ep, limit, steps in ((long, None, 10**20), (off, 2, 3)):
            with pytest.raises(GuardExceeded, match=(
                    rf"^path family steps: projected size {steps} exceeds")):
                next(walk(ep, guard_limit=limit))
        assert [f.paths[0].word for f in walk(off, guard_limit=3)] == ["SSS"]


# --- plane partition encoding ---------------------------------------------

def test_pp_encode_frozen_word():
    pp = PlanePartition(Partition([2]), 1, [[1, 0]])
    family = pp_encode(pp)
    assert [p.word for p in family.paths] == ["ESE"]
    assert family.is_identity()
    assert is_nonintersecting(family)


def test_pp_statistics_transfer_to_path_words():
    # a row contains 0 iff its path ends with an east step, and contains
    # the bound iff it starts with one
    for parts, bound in [((2, 1), 2), ((2, 2), 2), ((1, 1), 1)]:
        shape = Partition(parts)
        for pp in enumerate_plane_partitions(shape, bound):
            family = pp_encode(pp)
            assert last_step_east_count(family) == pp.zero_rows()
            assert first_step_east_count(family) == pp.max_rows()


def _reference_word(east_positions, length: int) -> str:
    """The word of ``length`` steps with its east steps at the 1-based
    ``east_positions``."""
    return "".join("E" if t in east_positions else "S"
                   for t in range(1, length + 1))


def test_pp_roundtrip_exhaustive():
    # every shape of at most 7 cells with m <= 3; row i's path has m + k
    # steps, and its t-th east step comes after m - e_t south steps, so it
    # is step m - e_t + t
    for shape in enumerate_partitions(7):
        for bound in range(4):
            for pp in enumerate_plane_partitions(shape, bound):
                family = pp_encode(pp)
                assert [p.word for p in family.paths] == [
                    _reference_word({bound - e + t for t, e in enumerate(row, 1)},
                                    bound + len(row))
                    for row in pp.rows]
                assert pp_decode(family, shape, bound) == pp


def test_pp_decode_is_inverse_on_ni_families():
    shape, bound = Partition([2, 1]), 2
    ep = plane_partition_endpoints(shape, bound)
    seen = set()
    for family in enumerate_ni_families(ep):
        pp = pp_decode(family, shape, bound)
        assert pp_encode(pp) == family
        seen.add(pp)
    assert len(seen) == 14


def test_pp_decode_rejects_intersecting():
    ep = plane_partition_endpoints(Partition([1, 1]), 1)
    crossed = SignedPathFamily(
        ep, (0, 1), [Path((-1, -1), "SE"), Path((-2, -2), "ES")])
    with pytest.raises(ValueError):
        pp_decode(crossed, Partition([1, 1]), 1)


def _family(sigma, words) -> SignedPathFamily:
    """A family on the endpoints that (1, 1) with m = 1 and (2,) with n = 2
    share: a_1 = (-1, -1), a_2 = (-2, -2), b_1 = (0, -2), b_2 = (-1, -3)."""
    ep = plane_partition_endpoints(Partition([1, 1]), 1)
    return SignedPathFamily(ep, sigma,
                            [Path(a, w) for a, w in zip(ep.a, words)])


@pytest.mark.parametrize("decode, shape, bound, family, message", [
    (pp_decode, (1, 1), 1, lambda: pp_encode(PlanePartition((1,), 1, [[0]])),
     r"^family endpoints do not match the \(shape, bound\) instance$"),
    (pp_decode, (1, 1), 1, lambda: _family((1, 0), ["SS", "EE"]),
     r"^family permutation \(1, 0\) is not the identity$"),
    (pp_decode, (1, 1), 1, lambda: _family((0, 1), ["SE", "ES"]),
     r"^family is intersecting; only disjoint families decode$"),
    (ssyt_decode, (2,), 2, lambda: ssyt_encode(Tableau((2,), 3, [[1, 3]])),
     r"^family endpoints do not match the \(shape, varcount\) instance$"),
    (ssyt_decode, (2,), 2, lambda: _family((1, 0), ["SS", "EE"]),
     r"^family permutation \(1, 0\) is not the identity$"),
    (ssyt_decode, (2,), 2, lambda: _family((0, 1), ["SE", "ES"]),
     r"^family is intersecting; only disjoint families decode$"),
], ids=["pp-endpoints", "pp-permutation", "pp-intersecting",
        "ssyt-endpoints", "ssyt-permutation", "ssyt-intersecting"])
def test_decoders_name_their_refusal(decode, shape, bound, family, message):
    with pytest.raises(ValueError, match=message):
        decode(family(), Partition(shape), bound)


def test_a_wrong_length_tableau_family_is_refused_when_built():
    # every path from a_j to b_j has exactly varcount steps, so a family
    # with a longer or shorter word never reaches ssyt_decode
    ep = tableau_endpoints(Partition([2]), 2)
    for words in (["ESS", "ES"], ["E", "ES"]):
        paths = [Path(a, w) for a, w in zip(ep.a, words)]
        with pytest.raises(ValueError, match=r"^paths\[0\] ends at "):
            SignedPathFamily(ep, (0, 1), paths)
        data = {"sigma": [1, 2], "paths": [p.to_json() for p in paths]}
        with pytest.raises(ValueError, match=r"^paths\[0\] ends at "):
            SignedPathFamily.from_json(data, ep)


# --- tableau encoding -------------------------------------------------------

def test_ssyt_encode_frozen_words():
    t = Tableau(Partition([2, 1]), 3, [[1, 1], [2]])
    family = ssyt_encode(t)
    assert [p.word for p in family.paths] == ["EES", "ESS"]
    assert east_step_labels(family, 3) == (2, 1, 0)
    assert ssyt_decode(family, t.shape, 3) == t


def test_ssyt_roundtrip_exhaustive():
    # every shape of at most 6 cells with at most 4 variables; column j's
    # path has n steps, and its east steps are the column's entries
    for shape in enumerate_partitions(6):
        for n in range(1, 5):
            for t in enumerate_tableaux(shape, n):
                family = ssyt_encode(t)
                assert [p.word for p in family.paths] == [
                    _reference_word(set(t.column(j)), n)
                    for j in range(shape[0] if shape.parts else 0)]
                assert east_step_labels(family, n) == t.weight()
                assert ssyt_decode(family, shape, n) == t


def test_ssyt_decode_is_inverse_on_ni_families():
    shape, n = Partition([2, 1]), 3
    ep = tableau_endpoints(shape, n)
    count = 0
    for family in enumerate_ni_families(ep):
        t = ssyt_decode(family, shape, n)
        assert ssyt_encode(t) == family
        count += 1
    assert count == count_tableaux(shape, n) == 8


def test_ni_count_on_tableau_endpoints_is_tableau_count():
    for parts, n in [((2, 1), 3), ((3,), 3), ((2, 2), 4), ((1, 1, 1), 2)]:
        shape = Partition(parts)
        ep = tableau_endpoints(shape, n)
        assert count_ni_families(ep) == count_tableaux(shape, n)
