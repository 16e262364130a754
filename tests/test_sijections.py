import pytest

import lgvlab.bijections
from lgvlab.bijections import (
    reverse_paths,
    weight_permutation_sijection,
    zero_to_max_sijection,
)
from lgvlab.guards import GuardExceeded
from lgvlab.objects import Partition, PlanePartition
from lgvlab.paths import (
    enumerate_families,
    is_nonintersecting,
    plane_partition_endpoints,
    pp_encode,
)
from lgvlab.sijections import (
    SOURCE,
    TARGET,
    SignedSet,
    Sijection,
    SijectionError,
    check_compatibility,
    check_sijection,
    trace_to_json,
)


def plain(name, *elements):
    """A signed set with the given positive part and no negative part."""
    return SignedSet(name, lambda: ((x, 1) for x in elements))


def signed(name, plus, minus):
    return SignedSet(name, lambda: [(x, 1) for x in plus]
                     + [(x, -1) for x in minus])


def lift(name, source, target, fn, fn_inv):
    """The sijection S => T of a sign-preserving bijection ``fn``: S -> T,
    with inverse ``fn_inv``."""

    def forward(tagged, trace):
        side, sign, payload = tagged
        if side == SOURCE:
            return (TARGET, 1, fn(payload))
        return (SOURCE, -1, fn_inv(payload))

    def backward(tagged, trace):
        side, sign, payload = tagged
        if side == TARGET:
            return (SOURCE, 1, fn_inv(payload))
        return (TARGET, -1, fn(payload))

    return Sijection(name, source, target, forward, backward)


# The cycle tests run under this hop budget, so a cycle check that never
# fires makes them fail with GuardExceeded instead of spinning forever.
_CYCLE_TEST_HOPS = 100

# The walks below run on the families of PP((3, 3, 2); 2), 1,020 of which
# cross; the first non-intersecting one is an element to walk.
_ENDPOINTS = plane_partition_endpoints(Partition([3, 3, 2]), 2)
_FAMILIES = list(enumerate_families(_ENDPOINTS))
_START = next(f for f in _FAMILIES if is_nonintersecting(f))
_CROSSING = [f for f in _FAMILIES if not is_nonintersecting(f)]


def _walk(there, back, limit):
    """The ping-pong sijection on ``_ENDPOINTS`` through ``there``, whose
    inverse should be ``back``."""
    return lgvlab.bijections._conjugated("walk", _ENDPOINTS, there, back,
                                         limit)


def test_signed_set_sizes():
    s = signed("s", (1, 2, 3), ("a",))
    assert s.size() == 4
    assert s.signed_size() == 2
    assert list(s.elements()) == [(1, 1), (2, 1), (3, 1), ("a", -1)]


def test_signed_set_parts_filter_one_stream():
    s = SignedSet("s", lambda: [(1, 1), ("a", -1), (2, 1)])
    assert list(s.elements()) == [(1, 1), ("a", -1), (2, 1)]
    assert list(s.plus()) == [1, 2]
    assert list(s.minus()) == ["a"]


def test_signed_set_runs_its_generator_once():
    runs = []

    def stream():
        runs.append(1)
        yield from [(1, 1), ("a", -1), (2, 1)]

    s = SignedSet("s", stream)
    assert list(s.elements()) == [(1, 1), ("a", -1), (2, 1)]
    assert list(s.plus()) == [1, 2]
    assert list(s.minus()) == ["a"]
    assert s.size() == 3 and s.signed_size() == 1
    assert list(s.elements()) == [(1, 1), ("a", -1), (2, 1)]
    assert len(runs) == 1


def test_signed_set_keeps_no_walk_that_raised_or_stopped_early():
    runs, failing = [], [True]

    def stream():
        runs.append(1)
        yield (1, 1)
        if failing:
            raise GuardExceeded("stream", 2, 1)
        yield (2, -1)

    s = SignedSet("s", stream)
    for _ in range(2):
        with pytest.raises(GuardExceeded):
            s.size()
    failing.clear()
    assert next(s.elements()) == (1, 1)
    assert list(s.elements()) == [(1, 1), (2, -1)]
    assert list(s.minus()) == [2]
    assert len(runs) == 4


def test_from_bijection_roundtrip_and_check():
    s = plain("letters", "a", "b")
    t = plain("numbers", 1, 2)
    table = {"a": 1, "b": 2}
    sij = lift("code", s, t, table.get, {1: "a", 2: "b"}.get)
    assert sij.forward((SOURCE, 1, "a")) == (TARGET, 1, 1)
    assert sij.backward((TARGET, 1, 2)) == (SOURCE, 1, "b")
    assert check_sijection(sij) == []


def test_domain_validation():
    s = plain("s", "a")
    t = plain("t", 1)
    sij = lift("f", s, t, lambda x: 1, lambda y: "a")
    with pytest.raises(SijectionError):
        sij.forward((SOURCE, -1, "a"))   # S- is not in the forward domain
    with pytest.raises(SijectionError):
        sij.backward((SOURCE, 1, "a"))


def test_an_inverse_checks_the_image_of_the_map_it_reads():
    # backward, the inverse of forward, sends 1 to a negative source
    # element, outside S+ |_| T-, and must refuse the image
    s = plain("s", "a")
    t = plain("t", 1)
    broken = Sijection("f", s, t, lambda tagged, trace: (TARGET, 1, 1),
                       lambda tagged, trace: (SOURCE, -1, "a"))
    assert broken.forward((SOURCE, 1, "a")) == (TARGET, 1, 1)
    with pytest.raises(SijectionError,
                       match=r"^f \(backward image\): element tagged "
                             r"\(source, -\)"):
        broken.backward((TARGET, 1, 1))


def test_composition_with_genuine_cancellation():
    # the one element of PP((1, 1); 1) with a zero row crosses once it is
    # reversed, so it bounces through both copies of the signed families
    # before it escapes, and forward appends each landing to the trace
    sij = zero_to_max_sijection((1, 1), 1)
    assert check_sijection(sij) == []
    pp = PlanePartition(Partition([1, 1]), 1, [[1], [0]])
    family = pp_encode(pp)
    trace = []
    assert sij.forward((SOURCE, 1, family), trace) == (TARGET, 1, family)
    words = [(sign, tuple(p.word for p in f.paths))
             for sign, f in [(1, family), *trace]]
    assert words == [
        (1, ("ES", "SE")),
        (1, ("ES", "SE")),
        (1, ("SE", "ES")),
        (-1, ("SS", "EE")),
        (-1, ("SS", "EE")),
        (1, ("SE", "ES")),
        (1, ("ES", "SE")),
        (1, ("ES", "SE")),
    ]


def test_nonterminating_composition_detected():
    # a constant ``there`` sends every family to one crossing family, so
    # each round lands where the one before it did; Brent's check sees
    # the first round's landings again instead of spinning
    crossing = _CROSSING[0]
    sij = _walk(lambda family: crossing, reverse_paths, _CYCLE_TEST_HOPS)
    trace = []
    with pytest.raises(SijectionError, match=(
            r"^ping-pong revisited middle element .* with sign -$")):
        sij.forward((SOURCE, 1, _START), trace)
    # revisited after hop 8, the first round's fourth landing (hop 4)
    assert len(trace) == 8 and trace[7] == trace[3]


def test_nonterminating_backward_detected():
    # the same trap met on the way back: backward walks with ``back`` in
    # the place of ``there``
    crossing = _CROSSING[0]
    sij = _walk(reverse_paths, lambda family: crossing, _CYCLE_TEST_HOPS)
    with pytest.raises(SijectionError, match="revisited middle element"):
        sij.backward((TARGET, 1, _START))
    assert sij.forward((SOURCE, 1, _START))[0] == TARGET


def test_a_ping_pong_sijection_refuses_a_negative_element():
    # its two sides are the non-intersecting families, which are all
    # positive, so the domain's negative tags name no element
    sij = zero_to_max_sijection((3, 3, 2), 2)
    for apply, tagged in ((sij.forward, (TARGET, -1, _START)),
                          (sij.backward, (SOURCE, -1, _START))):
        with pytest.raises(SijectionError, match=(
                "^the non-intersecting side has no negative part$")):
            apply(tagged)


def test_a_swap_the_walk_cannot_make_is_reported_not_raised():
    # a ``back`` that leaves the crossing families hands the next swap a
    # family it is undefined on; the checkers report the element
    sij = _walk(reverse_paths, lambda family: _START, None)
    problems = check_sijection(sij)
    assert problems and all(
        p.startswith("forward failed on ") and p.endswith(
            "tail swap is undefined on a non-intersecting family")
        for p in problems)


@pytest.mark.parametrize("length", [2, 3, 20, 60])
def test_a_long_cycle_is_found_within_a_few_cycle_lengths(length):
    # With ``back`` the identity, the two swaps of a round cancel, so each
    # round is g = there(g).  This ``there`` runs the start into c0, c1,
    # ..., c_(length-1), then back to c1: a cycle of length - 1 rounds,
    # 4 (length - 1) landings, behind a tail of one.  Brent's check keeps
    # one landing, so it sees a cycle of L landings within about 3L hops
    # of entering it; a budget of 4L + 8 leaves room.
    ring = _CROSSING[:length]
    after = {c: d for c, d in zip(ring, ring[1:] + ring[1:2])}
    cycle = 4 * (length - 1)
    sij = _walk(lambda family: after.get(family, ring[0]),
                lambda family: family, 4 * cycle + 8)
    with pytest.raises(SijectionError, match="revisited middle element"):
        sij.forward((SOURCE, 1, _START))


def test_the_hop_budget_bounds_a_walk_that_would_escape():
    # the (4,4,4), m=4 element whose orbit is the longest of the first 200:
    # 215 stage maps, each one hop
    pp = PlanePartition(Partition([4, 4, 4]), 4,
                        [[4, 4, 4, 4], [4, 4, 4, 2], [1, 1, 1, 1]])
    hops = []
    sij = zero_to_max_sijection(pp.shape, pp.bound, guard_limit=215)
    sij.forward((SOURCE, 1, pp_encode(pp)), hops)
    assert len(hops) == 215
    sij = zero_to_max_sijection(pp.shape, pp.bound, guard_limit=214)
    with pytest.raises(GuardExceeded, match=(
            r"^ping-pong hops: projected size 215 exceeds guard limit 214$")):
        sij.forward((SOURCE, 1, pp_encode(pp)))


def test_the_hop_budget_is_resolved_when_the_sijection_is_built(
        monkeypatch):
    # explicit limits, the environment and the default resolve as the
    # enumeration guards do, once, when the sijection is built
    pp = PlanePartition(Partition([4, 4, 4]), 4,
                        [[4, 4, 4, 4], [4, 4, 4, 2], [1, 1, 1, 1]])
    element = (SOURCE, 1, pp_encode(pp))
    monkeypatch.setenv("LGVLAB_GUARD_LIMIT", "214")
    sij = zero_to_max_sijection(pp.shape, pp.bound)
    wide = zero_to_max_sijection(pp.shape, pp.bound, guard_limit=215)
    monkeypatch.delenv("LGVLAB_GUARD_LIMIT")
    with pytest.raises(GuardExceeded, match="215 exceeds guard limit 214$"):
        sij.forward(element)
    assert wide.forward(element)[:2] == (TARGET, 1)
    with pytest.raises(GuardExceeded, match=(
            r"^ping-pong hops: projected size 1 exceeds guard limit 0$")):
        zero_to_max_sijection(pp.shape, pp.bound, guard_limit=0).forward(
            element)
    monkeypatch.setenv("LGVLAB_GUARD_LIMIT", "-1")
    with pytest.raises(ValueError, match="must be nonnegative"):
        zero_to_max_sijection(pp.shape, pp.bound)


@pytest.mark.parametrize("sij", [
    zero_to_max_sijection((3, 2, 1), 2),
    weight_permutation_sijection((2, 1), 3, (3, 1, 2)),
], ids=["zero-to-max", "weight-permutation"])
def test_backward_retraces_forward(sij):
    for x in sij.source.plus():
        ahead, back = [], []
        y = sij.forward((SOURCE, 1, x), ahead)
        assert sij.backward(y, back) == (SOURCE, 1, x)
        # the backward itinerary visits the same landings in reverse,
        # ending on x itself
        assert back == ahead[-2::-1] + [(1, x)]


def test_check_sijection_reports_violations():
    s = plain("s", 1, 2)
    t = plain("t", "a", "b")

    def collapse(tagged, trace):
        return (TARGET, 1, "a")

    broken = Sijection("collapse", s, t, collapse,
                       lambda tagged, trace: (SOURCE, 1, 1))
    problems = check_sijection(broken)
    assert any("not injective" in p for p in problems)
    assert any("not surjective" in p and "'b'" in p for p in problems)


def test_check_sijection_catches_wrong_backward():
    s = plain("s", 1, 2)
    t = plain("t", "a", "b")
    sij = lift("f", s, t, {1: "a", 2: "b"}.get, {"a": 2, "b": 1}.get)  # bad inverse
    problems = check_sijection(sij)
    assert any("backward(forward" in p for p in problems)


def test_compatibility_checks():
    s = plain("s", 1, 2, 3)
    t = plain("t", 10, 20, 30)
    sij = lift("tens", s, t, lambda x: 10 * x, lambda y: y // 10)
    assert check_compatibility(sij, lambda x: x % 3, lambda y: (y // 10) % 3) == []
    problems = check_compatibility(sij, lambda x: x, lambda y: y)
    assert problems and "statistic changes" in problems[0]


def test_both_checkers_report_a_map_that_fails_on_an_element():
    # forward sends 2 to 20 with the wrong sign, so the walk refuses its
    # image; each checker reports it as a problem instead of raising
    s = plain("s", 1, 2)
    t = plain("t", 10, 20)
    forward = {
        (SOURCE, 1, 1): (TARGET, 1, 10),
        (SOURCE, 1, 2): (TARGET, -1, 20),
    }
    backward = {
        (TARGET, 1, 10): (SOURCE, 1, 1),
        (TARGET, 1, 20): (SOURCE, 1, 2),
    }
    sij = Sijection("misfit", s, t, lambda tagged, trace: forward[tagged],
                    lambda tagged, trace: backward[tagged])
    failure = ("forward failed on ('source', 1, 2): misfit (forward image): "
               "element tagged (target, -) is outside the domain; expected "
               "(source, -) or (target, +)")
    assert check_sijection(sij) == [
        failure,
        "forward is not surjective: ('target', 1, 20) has no preimage",
    ]
    assert check_compatibility(sij, lambda x: x, lambda y: y // 10) == [
        failure]


def test_compatibility_checks_backward_on_its_own():
    # forward keeps the statistic (1 -> 10, 2 -> 20) but backward sends 10
    # to 2 and 20 to 1; only the backward half of the check can see it
    s = plain("s", 1, 2)
    t = plain("t", 10, 20)
    sij = lift("crossed", s, t, lambda x: 10 * x, {10: 2, 20: 1}.get)
    problems = check_compatibility(sij, lambda x: x, lambda y: y // 10)
    assert problems == [
        "statistic changes along backward: ('target', 1, 10) has 1 but "
        "('source', 1, 2) has 2",
        "statistic changes along backward: ('target', 1, 20) has 2 but "
        "('source', 1, 1) has 1",
    ]
    # the backward half is redundant only once the round trips hold
    assert any("backward(forward" in p for p in check_sijection(sij))


def test_both_checkers_report_at_most_the_problem_cap():
    # seven elements all sent to one image: six injectivity problems and
    # six surjectivity ones, and seven statistic changes each way; each
    # checker keeps only the first five (``_MAX_PROBLEMS``)
    s = plain("s", *range(7))
    t = plain("t", *range(10, 17))
    sij = lift("collapse", s, t, lambda x: 10, lambda y: 0)
    problems = check_sijection(sij)
    assert len(problems) == 5
    assert all("not injective" in p for p in problems)
    problems = check_compatibility(sij, lambda x: x, lambda y: y)
    assert len(problems) == 5
    assert all("statistic changes along forward" in p for p in problems)


def test_trace_to_json_serialization():
    steps = [(SOURCE, 1, {"k": 1}), ("middle", -1, {"k": 2}),
             (TARGET, 1, {"k": 3})]
    rows = trace_to_json(steps)
    assert rows == [
        {"element": {"k": 1}, "set": "source", "sign": "+"},
        {"element": {"k": 2}, "set": "middle", "sign": "-"},
        {"element": {"k": 3}, "set": "target", "sign": "+"},
    ]
