import pytest

from lgvlab.bijections import weight_permutation_sijection, zero_to_max_sijection
from lgvlab.guards import DEFAULT_GUARD_LIMIT, GuardExceeded
from lgvlab.objects import Partition, PlanePartition
from lgvlab.paths import pp_encode
from lgvlab.sijections import (
    SOURCE,
    TARGET,
    SignedSet,
    Sijection,
    SijectionError,
    check_compatibility,
    check_sijection,
    compose,
    compose_all,
    evaluate_with_trace,
    sijection_from_bijection,
    trace_to_json,
)


def plain(name, *elements):
    """A signed set with the given positive part and no negative part."""
    return SignedSet(name, lambda: ((x, 1) for x in elements))


def signed(name, plus, minus):
    return SignedSet(name, lambda: [(x, 1) for x in plus]
                     + [(x, -1) for x in minus])


def from_dict(name, source, target, mapping, guard_limit=None):
    """Sijection whose forward bijection is literally the dict."""
    inverse = {v: k for k, v in mapping.items()}

    def forward(tagged):
        return mapping[tagged]

    def backward(tagged):
        return inverse[tagged]

    return Sijection(name, source, target, forward, backward, guard_limit)


# The cycle tests run under this hop budget, so a cycle check that never
# fires makes them fail with GuardExceeded instead of spinning forever.
_CYCLE_TEST_HOPS = 100


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
    sij = sijection_from_bijection("code", s, t,
                                   table.get, {1: "a", 2: "b"}.get)
    assert sij.forward((SOURCE, 1, "a")) == (TARGET, 1, 1)
    assert sij.backward((TARGET, 1, 2)) == (SOURCE, 1, "b")
    assert check_sijection(sij) == []


def test_domain_validation():
    s = plain("s", "a")
    t = plain("t", 1)
    sij = sijection_from_bijection("f", s, t, lambda x: 1, lambda y: "a")
    with pytest.raises(SijectionError):
        sij.forward((SOURCE, -1, "a"))   # S- is not in the forward domain
    with pytest.raises(SijectionError):
        sij.backward((SOURCE, 1, "a"))


def test_inverse_swaps_roles():
    s = plain("s", "a", "b")
    t = plain("t", 1, 2)
    sij = sijection_from_bijection(
        "f", s, t, {"a": 1, "b": 2}.get, {1: "a", 2: "b"}.get)
    inv = sij.inverse()
    assert inv.source is t and inv.target is s
    assert inv.forward((SOURCE, 1, 1)) == (TARGET, 1, "a")
    assert inv.inverse() is sij
    assert type(inv) is Sijection
    assert repr(inv) == "Sijection('inverse(f)': t => s)"
    assert check_sijection(inv) == []


def test_an_inverse_checks_the_image_of_the_map_it_reads():
    # backward sends 1 to a negative source element, outside S+ |_| T-;
    # the inverse reaches it through its forward and must refuse the image
    s = plain("s", "a")
    t = plain("t", 1)
    broken = Sijection("f", s, t, lambda tagged: (TARGET, 1, 1),
                       lambda tagged: (SOURCE, -1, "a"))
    with pytest.raises(SijectionError,
                       match=r"^inverse\(f\) \(forward image\): element "
                             r"tagged \(target, -\)"):
        broken.inverse().forward((SOURCE, 1, 1))
    with pytest.raises(SijectionError, match=r"^f \(backward image\)"):
        broken.backward((TARGET, 1, 1))


def test_a_composite_is_the_inverse_of_its_inverse():
    sij = zero_to_max_sijection((2, 1), 1)
    inv = sij.inverse()
    assert type(inv) is Sijection
    assert inv.inverse() is sij
    assert inv.source is sij.target and inv.target is sij.source
    assert repr(inv) == ("Sijection('inverse((inverse(lgv) . (reverse-words "
                         ". lgv)))': nonintersecting families => "
                         "nonintersecting families)")
    assert check_sijection(inv) == []
    # the inverse's forward walk is the backward walk, read with the tags
    # flipped, landing by landing
    for x in sij.source.plus():
        y = sij.forward((SOURCE, 1, x))
        ahead, back = [], []
        flipped = (SOURCE if y[0] == TARGET else TARGET, y[1], y[2])
        assert inv.forward(flipped, ahead) == (TARGET, 1, x)
        assert sij.backward(y, back) == (SOURCE, 1, x)
        assert ahead == back


def test_inverting_an_inverted_stage_gives_the_stage_back():
    # the composite ends in inverse(lgv); its inverse begins with lgv's own
    # stage, not a doubly flipped copy of it
    sij = zero_to_max_sijection((2, 1), 1)
    inv = sij.inverse()
    assert [stage[0] for stage in inv._stages] == [
        "lgv", "inverse(reverse-words)", "inverse(lgv)"]
    assert inv._stages[0] is sij._stages[0]  # lgv's own maps
    assert check_sijection(inv) == []


def test_checking_a_composite_builds_no_inverse(monkeypatch):
    sij = zero_to_max_sijection((3, 2, 1), 2)
    inverted = []
    inverse = Sijection.inverse

    def counted(self):
        inverted.append(self.name)
        return inverse(self)

    monkeypatch.setattr(Sijection, "inverse", counted)
    assert check_sijection(sij) == []
    assert inverted == []


def test_composition_with_genuine_cancellation():
    # phi: S => T matches q in T- with 1 in S+; psi: T => U sends x back
    # into T-, so mapping 1 through the composite requires three bounces.
    s = plain("s", 1, 2, 3)
    t = signed("t", ("x", "y", "z", "w"), ("q",))
    u = plain("u", "p", "r", "s")
    phi = from_dict("phi", s, t, {
        (SOURCE, 1, 1): (TARGET, 1, "x"),
        (SOURCE, 1, 2): (TARGET, 1, "y"),
        (SOURCE, 1, 3): (TARGET, 1, "z"),
        (TARGET, -1, "q"): (TARGET, 1, "w"),
    })
    psi = from_dict("psi", t, u, {
        (SOURCE, 1, "x"): (SOURCE, -1, "q"),
        (SOURCE, 1, "y"): (TARGET, 1, "p"),
        (SOURCE, 1, "z"): (TARGET, 1, "r"),
        (SOURCE, 1, "w"): (TARGET, 1, "s"),
    })
    assert check_sijection(phi) == []
    assert check_sijection(psi) == []
    chained = compose(phi, psi)
    assert check_sijection(chained) == []
    # the bouncing trajectory of 1: x -> q -> w -> s
    image, steps = evaluate_with_trace(chained, 1)
    assert image == "s"
    assert steps == [
        (SOURCE, 1, 1),
        ("middle", 1, "x"),
        ("middle", -1, "q"),
        ("middle", 1, "w"),
        (TARGET, 1, "s"),
    ]
    assert chained.forward((SOURCE, 1, 2)) == (TARGET, 1, "p")
    assert chained.backward((TARGET, 1, "s")) == (SOURCE, 1, 1)


def test_composition_is_associative_on_elements():
    s = plain("s", 1, 2)
    t = plain("t", "a", "b")
    u = plain("u", 10, 20)
    v = plain("v", "A", "B")
    f = sijection_from_bijection("f", s, t, {1: "a", 2: "b"}.get,
                                 {"a": 1, "b": 2}.get)
    g = sijection_from_bijection("g", t, u, {"a": 10, "b": 20}.get,
                                 {10: "a", 20: "b"}.get)
    h = sijection_from_bijection("h", u, v, {10: "A", 20: "B"}.get,
                                 {"A": 10, "B": 20}.get)
    left = compose(compose(f, g), h)
    right = compose(f, compose(g, h))
    for x in (1, 2):
        assert left.forward((SOURCE, 1, x)) == right.forward((SOURCE, 1, x))
    assert compose_all(f, g, h).forward((SOURCE, 1, 1)) == (TARGET, 1, "A")

    # a chain whose walk crosses both middle sets in both directions:
    # 1 -> a -> x -> r -> q -> b -> y -> Z
    t = signed("t", ("a", "b"), ("q",))
    u = signed("u", ("x", "y"), ("r",))
    v = plain("v", "Z")
    f = from_dict("f", plain("s", 1), t, {
        (SOURCE, 1, 1): (TARGET, 1, "a"),
        (TARGET, -1, "q"): (TARGET, 1, "b"),
    })
    g = from_dict("g", t, u, {
        (SOURCE, 1, "a"): (TARGET, 1, "x"),
        (TARGET, -1, "r"): (SOURCE, -1, "q"),
        (SOURCE, 1, "b"): (TARGET, 1, "y"),
    })
    h = from_dict("h", u, v, {
        (SOURCE, 1, "x"): (SOURCE, -1, "r"),
        (SOURCE, 1, "y"): (TARGET, 1, "Z"),
    })
    left = compose(compose(f, g), h)
    right = compose(f, compose(g, h))
    ahead = [(1, "a"), (1, "x"), (-1, "r"), (-1, "q"), (1, "b"), (1, "y"),
             (1, "Z")]
    for sij in (left, right):
        assert check_sijection(sij) == []
        trace, back = [], []
        assert sij.forward((SOURCE, 1, 1), trace) == (TARGET, 1, "Z")
        assert trace == ahead
        assert sij.backward((TARGET, 1, "Z"), back) == (SOURCE, 1, 1)
        assert back == ahead[-2::-1] + [(1, 1)]


def test_nonterminating_composition_detected():
    # x and q chase each other forever; an element entering from outside
    # can never escape, and the engine must notice rather than spin.
    t = signed("t", ("x",), ("q",))
    u = signed("u", (), ("u0",))
    empty = plain("empty")
    phi = from_dict("phi", empty, t, {(TARGET, -1, "q"): (TARGET, 1, "x")},
                    _CYCLE_TEST_HOPS)
    psi = from_dict("psi", t, u, {
        (SOURCE, 1, "x"): (SOURCE, -1, "q"),
        (TARGET, -1, "u0"): (SOURCE, -1, "q"),
    }, _CYCLE_TEST_HOPS)
    chained = compose(phi, psi)
    with pytest.raises(SijectionError, match="revisited"):
        chained.forward((TARGET, -1, "u0"))


def test_nonterminating_backward_detected():
    # the same trap met on the way back: u0 leaves psi backward for x,
    # phi sends x to q and psi sends q to x again
    t = signed("t", ("x",), ("q",))
    u = plain("u", "u0")
    empty = plain("empty")
    phi = from_dict("phi", empty, t, {(TARGET, -1, "q"): (TARGET, 1, "x")},
                    _CYCLE_TEST_HOPS)
    psi = Sijection("psi", t, u, {}.__getitem__, {
        (TARGET, 1, "u0"): (SOURCE, 1, "x"),
        (SOURCE, -1, "q"): (SOURCE, 1, "x"),
    }.__getitem__, _CYCLE_TEST_HOPS)
    chained = compose(phi, psi)
    with pytest.raises(SijectionError, match="revisited"):
        chained.backward((TARGET, 1, "u0"))


def _ring(length, guard_limit):
    """phi . psi, where an element entering from u0 runs q0, x0, q1, x1, ...
    up to x_(length-1), which psi sends back to q1: a cycle of
    2 (length - 1) landings behind a tail of two."""
    xs = [f"x{k}" for k in range(length)]
    qs = [f"q{k}" for k in range(length)]
    t = signed("t", xs, qs)
    phi = from_dict("phi", plain("empty"), t,
                    {(TARGET, -1, q): (TARGET, 1, x) for q, x in zip(qs, xs)},
                    guard_limit)
    back_to = qs[1:] + [qs[1]]
    mapping = {(SOURCE, 1, x): (SOURCE, -1, q) for x, q in zip(xs, back_to)}
    mapping[(TARGET, -1, "u0")] = (SOURCE, -1, qs[0])
    psi = from_dict("psi", t, signed("u", (), ("u0",)), mapping, guard_limit)
    return compose(phi, psi)


@pytest.mark.parametrize("length", [2, 3, 20, 60])
def test_a_long_cycle_is_found_within_a_few_cycle_lengths(length):
    # Brent's check keeps one landing, so it sees a cycle of L landings
    # within about 3L hops of entering it; a budget of 4L + 8 leaves room
    cycle = 2 * (length - 1)
    chained = _ring(length, 4 * cycle + 8)
    with pytest.raises(SijectionError, match="revisited middle element"):
        chained.forward((TARGET, -1, "u0"))


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


def test_a_composite_keeps_the_smaller_hop_budget(monkeypatch):
    # explicit limits, the environment and the default resolve as the
    # enumeration guards do, once, when the sijection is built
    s = plain("s", 1)
    t = plain("t", 2)

    def lift(guard_limit=None):
        return sijection_from_bijection("f", s, t, lambda x: 2, lambda y: 1,
                                        guard_limit)

    assert compose(lift(7), lift(3))._hop_limit == 3
    assert compose(lift(3), lift()).inverse()._hop_limit == 3
    assert lift()._hop_limit == DEFAULT_GUARD_LIMIT
    monkeypatch.setenv("LGVLAB_GUARD_LIMIT", "5")
    assert lift()._hop_limit == 5
    with pytest.raises(GuardExceeded, match="ping-pong hops"):
        lift(0).forward((SOURCE, 1, 1))
    monkeypatch.setenv("LGVLAB_GUARD_LIMIT", "-1")
    with pytest.raises(ValueError, match="must be nonnegative"):
        lift()


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

    def collapse(tagged):
        return (TARGET, 1, "a")

    broken = Sijection("collapse", s, t, collapse, lambda tagged: (SOURCE, 1, 1))
    problems = check_sijection(broken)
    assert any("not injective" in p for p in problems)
    assert any("not surjective" in p and "'b'" in p for p in problems)


def test_check_sijection_catches_wrong_backward():
    s = plain("s", 1, 2)
    t = plain("t", "a", "b")
    sij = sijection_from_bijection(
        "f", s, t, {1: "a", 2: "b"}.get, {"a": 2, "b": 1}.get)  # bad inverse
    problems = check_sijection(sij)
    assert any("backward(forward" in p for p in problems)


def test_compatibility_checks():
    s = plain("s", 1, 2, 3)
    t = plain("t", 10, 20, 30)
    sij = sijection_from_bijection(
        "tens", s, t, lambda x: 10 * x, lambda y: y // 10)
    assert check_compatibility(sij, lambda x: x % 3, lambda y: (y // 10) % 3) == []
    problems = check_compatibility(sij, lambda x: x, lambda y: y)
    assert problems and "statistic changes" in problems[0]


def test_both_checkers_report_a_map_that_fails_on_an_element():
    # forward sends 2 to 20 with the wrong sign, so the walk refuses its
    # image; each checker reports it as a problem instead of raising
    s = plain("s", 1, 2)
    t = plain("t", 10, 20)
    sij = Sijection("misfit", s, t, {
        (SOURCE, 1, 1): (TARGET, 1, 10),
        (SOURCE, 1, 2): (TARGET, -1, 20),
    }.__getitem__, {
        (TARGET, 1, 10): (SOURCE, 1, 1),
        (TARGET, 1, 20): (SOURCE, 1, 2),
    }.__getitem__)
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
    sij = sijection_from_bijection(
        "crossed", s, t, lambda x: 10 * x, {10: 2, 20: 1}.get)
    problems = check_compatibility(sij, lambda x: x, lambda y: y // 10)
    assert problems == [
        "statistic changes along backward: ('target', 1, 10) has 1 but "
        "('source', 1, 2) has 2",
        "statistic changes along backward: ('target', 1, 20) has 2 but "
        "('source', 1, 1) has 1",
    ]
    # the backward half is redundant only once the round trips hold
    assert any("backward(forward" in p for p in check_sijection(sij))


def test_trace_to_json_serialization():
    steps = [(SOURCE, 1, {"k": 1}), ("middle", -1, {"k": 2}),
             (TARGET, 1, {"k": 3})]
    rows = trace_to_json(steps)
    assert rows == [
        {"element": {"k": 1}, "set": "source", "sign": "+"},
        {"element": {"k": 2}, "set": "middle", "sign": "-"},
        {"element": {"k": 3}, "set": "target", "sign": "+"},
    ]
