"""The library builds families, swap certificates and fillings from parts it
has already checked without checking them again.  Under the ``validating``
fixture every such value goes through the public validating constructor
instead: nothing may raise, and every output must be the same.  The public
constructors, at the boundary, refuse a number that is not an int rather
than truncate it."""

import pytest

import lgvlab.bijections
from lgvlab.algebra import _Value, lgv_matrix
from lgvlab.bijections import (
    SwapCertificate,
    tail_swap,
    variable_positions,
    weight_permutation_map,
    zero_to_max_map,
)
from lgvlab.objects import (
    Partition,
    PlanePartition,
    Tableau,
    count_plane_partitions,
    count_tableaux,
    enumerate_partitions,
    enumerate_plane_partitions,
    enumerate_tableaux,
    genfun_by_enumeration,
    schur_by_enumeration,
)
from lgvlab.paths import (
    Endpoints,
    Path,
    SignedPathFamily,
    enumerate_families,
    is_nonintersecting,
    plane_partition_endpoints,
    tableau_endpoints,
)
from lgvlab.verify import verify_bijection, verify_lgv, verify_schur


def test_enumerations_are_unchanged_when_validated(validating):
    # every shape of at most 7 cells: 42k plane partitions with m <= 4,
    # and the tableaux with at most 4 variables
    walks = [(walk, shape, bound) for shape in enumerate_partitions(7)
             for walk, bounds in ((enumerate_plane_partitions, range(5)),
                                  (enumerate_tableaux, range(1, 5)))
             for bound in bounds]
    trusted = [list(walk(shape, bound)) for walk, shape, bound in walks]
    with validating():
        checked = [list(walk(shape, bound)) for walk, shape, bound in walks]
    assert checked == trusted
    assert sum(map(len, trusted)) == 42_155 + 2_627


def _swaps(endpoints):
    families = list(enumerate_families(endpoints))
    return families, [tail_swap(family) for family in families
                      if not is_nonintersecting(family)]


def test_tail_swaps_and_lgv_reports_are_unchanged_when_validated(validating):
    # every verify-lgv instance of at most 6 cells with m <= 2: the walk,
    # every tail swap with its certificate, and the whole report
    instances = [(shape, bound) for shape in enumerate_partitions(6)
                 for bound in range(3)]

    def run():
        out = []
        for shape, bound in instances:
            report = verify_lgv(shape, bound)
            del report["runtime_ms"]
            out.append((_swaps(plane_partition_endpoints(shape, bound)),
                        report))
        return out

    trusted = run()
    with validating():
        checked = run()
    assert checked == trusted
    assert sum(len(swaps) for (_, swaps), _ in trusted) > 1000


def test_hop_pin_traces_are_unchanged_when_validated(validating):
    # the elements of the tier-1 hop pin, and a weight-permuting map, whose
    # ping-pong goes through the step permutation and the tableau encoding
    pps = [pp for _, pp in zip(range(200), enumerate_plane_partitions(
        Partition([4, 4, 4]), 4))]
    tableaux = list(enumerate_tableaux(Partition([3, 2, 1]), 4))

    def run():
        return ([zero_to_max_map(pp, with_trace=True) for pp in pps],
                [weight_permutation_map(t, (3, 1, 4, 2), with_trace=True)
                 for t in tableaux])

    trusted = run()
    with validating():
        checked = run()
    assert checked == trusted
    assert sum(len(trace["steps"]) for _, trace in trusted[0]) == 9280


def test_validating_catches_a_swap_that_forgets_to_transpose_sigma(
        validating, monkeypatch):
    # built through the private path, the swapped paths keep the input's
    # sigma and no longer end where it says: only validation can tell
    real = lgvlab.bijections._swap_parts

    def forgetful(family, pairs):
        sigma, paths, meet = real(family, pairs)
        return family.sigma, paths, meet

    monkeypatch.setattr(lgvlab.bijections, "_swap_parts", forgetful)
    shape = Partition([2, 1])
    verify_lgv(shape, 2)
    with validating(), pytest.raises(ValueError, match=r"ends at .*, expected"):
        verify_lgv(shape, 2)


_ONE_STEP = Endpoints([(0, 0)], [(1, 0)])

# One wrong value per trusted builder, each built through it: a path that
# misses its end point, certificate indices out of order, and (through the
# base's builder) a plane-partition entry above the bound.
_BAD_TRUSTED_BUILDS = {
    SignedPathFamily: lambda: SignedPathFamily._trusted(
        _ONE_STEP, (0,), (Path((0, 0), "S"),)),
    SwapCertificate: lambda: SwapCertificate._trusted((0, 0), (1, 0)),
    _Value: lambda: PlanePartition._trusted(Partition([1]), 1, ((2,),)),
}


def test_every_trusted_builder_validates_under_the_fixture(
        validating, trusted_builders):
    # a builder the fixture missed would let a wrong value through unchecked
    assert set(trusted_builders) == set(_BAD_TRUSTED_BUILDS)
    for build in _BAD_TRUSTED_BUILDS.values():
        build()  # trusted: nothing is checked
        with validating(), pytest.raises(ValueError):
            build()


@pytest.mark.parametrize("build, field", [
    (lambda: Path((0.5, 0), "E"), r"start\[0\]"),
    (lambda: Path((0, True), "E"), r"start\[1\]"),
    (lambda: Endpoints([(0, 0.5)], [(1, 0)]), r"a\[0\]\[1\]"),
    (lambda: Endpoints([(0, 0)], [(1.0, 0)]), r"b\[0\]\[0\]"),
    (lambda: SignedPathFamily(_ONE_STEP, [0.0], [Path((0, 0), "E")]),
     r"sigma\[0\]"),
    (lambda: SwapCertificate((0.9, 0), (0, 1)), r"point\[0\]"),
    (lambda: SwapCertificate((0, 0), (0.5, 1.5)), r"paths\[0\]"),
    (lambda: Partition([2.5]), r"parts\[0\]"),
    (lambda: Partition([2, True]), r"parts\[1\]"),
    (lambda: PlanePartition((2,), 1, [[1, 0.5]]), r"rows\[0\]\[1\]"),
    (lambda: Tableau((1, 1), 2, [[1], [2.5]]), r"rows\[1\]\[0\]"),
], ids=["path-start-float", "path-start-bool", "endpoints-a", "endpoints-b",
        "family-sigma", "certificate-point", "certificate-indices",
        "partition-float", "partition-bool", "plane-partition-row",
        "tableau-row"])
def test_constructors_refuse_non_integers(build, field):
    with pytest.raises(ValueError, match=rf"^{field}: .* is not an integer$"):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: PlanePartition((1,), True, [[1]]), "bound True"),
    (lambda: PlanePartition((1,), 1.5, [[1]]), "bound 1.5"),
    (lambda: list(enumerate_plane_partitions((1,), 1.5)), "bound 1.5"),
    (lambda: genfun_by_enumeration((1,), 1.5, "zeros"), "bound 1.5"),
    (lambda: count_plane_partitions((1,), 1.5), "bound 1.5"),
    (lambda: verify_bijection((1,), 2.0), "bound 2.0"),
    (lambda: Tableau((1,), 2.0, [[1]]), "varcount 2.0"),
    (lambda: list(enumerate_tableaux((1,), True)), "varcount True"),
    (lambda: list(enumerate_tableaux((1, 1, 1), 1.5)), "varcount 1.5"),
    (lambda: schur_by_enumeration((1,), 2.0), "varcount 2.0"),
    (lambda: count_tableaux((1,), 2.0), "varcount 2.0"),
    (lambda: verify_schur((1,), 2.0), "varcount 2.0"),
    (lambda: plane_partition_endpoints((1,), 1.5), "bound 1.5"),
    (lambda: tableau_endpoints((1,), 2.5), "varcount 2.5"),
    (lambda: tableau_endpoints((1,), True), "varcount True"),
], ids=["pp-bool", "pp-float", "pp-walk", "pp-genfun", "pp-count",
        "pp-verify", "tableau-float", "tableau-walk-bool",
        "tableau-walk-too-many-rows", "tableau-schur", "tableau-count",
        "tableau-verify", "pp-endpoints", "tableau-endpoints",
        "tableau-endpoints-bool"])
def test_filling_bounds_refuse_non_integers(build, message):
    # checked before the guard's count, so no TypeError from range or comb
    with pytest.raises(ValueError, match=rf"^{message} is not an integer$"):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: count_plane_partitions((1, 3), 1),
     r"^parts\[1\]: parts must be weakly decreasing \(1 < 3\)$"),
    (lambda: plane_partition_endpoints((1, 3), 1),
     r"^parts\[1\]: parts must be weakly decreasing \(1 < 3\)$"),
    (lambda: count_plane_partitions([1.5], 1),
     r"^parts\[0\]: 1.5 is not an integer$"),
    (lambda: plane_partition_endpoints([2, 0], 1),
     r"^parts\[1\]: part 0 is not positive$"),
    (lambda: plane_partition_endpoints((1,), -1), r"^bound must be nonnegative$"),
    (lambda: tableau_endpoints((1,), 0), r"^varcount must be at least 1$"),
], ids=["count-not-decreasing", "endpoints-not-decreasing", "count-float-part",
        "endpoints-zero-part", "endpoints-negative-bound",
        "endpoints-no-variables"])
def test_path_model_entry_points_read_their_shape_and_bound(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("build", [
    lambda: plane_partition_endpoints((1, 3), -1),
    lambda: tableau_endpoints((1, 3), 0),
    lambda: count_plane_partitions((1, 3), -1),
    lambda: count_tableaux((1, 3), 0),
], ids=["pp-endpoints", "tableau-endpoints", "pp-count", "tableau-count"])
def test_a_bad_shape_is_reported_before_a_bad_bound(build):
    # as the filling constructors do
    with pytest.raises(ValueError,
                       match=r"^parts\[1\]: parts must be weakly decreasing"):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: count_plane_partitions((1,), -1), r"^bound must be nonnegative$"),
    (lambda: count_tableaux((1,), 0), r"^varcount must be at least 1$"),
    (lambda: lgv_matrix((1,), -1), r"^bound must be nonnegative$"),
    (lambda: list(enumerate_plane_partitions((1,), -1)),
     r"^bound must be nonnegative$"),
    (lambda: list(enumerate_tableaux((1,), 0)),
     r"^varcount must be at least 1$"),
    (lambda: genfun_by_enumeration((1,), -1, "zeros"),
     r"^bound must be nonnegative$"),
    (lambda: schur_by_enumeration((1,), 0), r"^varcount must be at least 1$"),
    (lambda: PlanePartition((1,), -1, [[0]]), r"^bound -1 is negative$"),
    (lambda: Tableau((1,), 0, [[1]]), r"^varcount 0 must be at least 1$"),
], ids=["pp-count", "tableau-count", "lgv-matrix", "pp-walk", "tableau-walk",
        "pp-genfun", "tableau-schur", "pp-constructor", "tableau-constructor"])
def test_an_out_of_range_bound_is_refused_not_counted(build, message):
    # the closed-form counts refuse it as the walks do, rather than answer 0
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("perm", [(1.5, 2), (True, 2), ("2", 1)],
                         ids=["float", "bool", "string"])
def test_variable_permutations_refuse_non_integers(perm):
    message = rf"^perm\[0\]: {perm[0]!r} is not an integer$"
    with pytest.raises(ValueError, match=message):
        variable_positions(perm)
    with pytest.raises(ValueError, match=message):
        verify_schur((1,), 2, perm)


def test_verify_schur_reports_its_perm_as_ints():
    perm = verify_schur((2, 1), 3, [3, 1, 2])["results"]["perm"]
    assert perm == [3, 1, 2] and all(type(v) is int for v in perm)
