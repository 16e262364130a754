"""Seeded inputs, ops, oracles and traced replays of the lgvlab benchmark.

An op is one public call a user makes: a CLI subcommand through
``lgvlab.cli.main(argv)`` with stdout captured, or one library call.  The
inputs of a workload come from its seed alone and are generated before
anything is timed, together with the data each op's oracle needs.

brute-identity, det-route and signed-set-check repeat a cycle of ops
drawn from fixed cost classes in fixed numbers, so that the median and the
tail percentile land inside the same class whatever the seed; the seed
picks the instances inside each class and their order.  pingpong-map draws
large samples from fixed pools, because its cost lies in hop counts that
only running the map reveals.

``replay`` performs the same op as its constituent public calls into each
module, with a span around every call; it follows the code path of the
op it replays, so its output must match the op's.  Nothing here reaches
inside ``lgvlab``.
"""

import contextlib
import functools
import hashlib
import io
import json
import sys
from dataclasses import dataclass
from time import perf_counter

from lgvlab import cli
from lgvlab.algebra import MultiPoly, UniPoly, det_division_free, det_int, lgv_matrix
from lgvlab.bijections import (
    lgv_sijection,
    tail_swap,
    weight_permutation_map,
    weight_permutation_sijection,
    zero_to_max_map,
    zero_to_max_sijection,
)
from lgvlab.guards import GuardExceeded
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
    count_families,
    count_ni_families,
    enumerate_families,
    first_step_east_count,
    is_nonintersecting,
    last_step_east_count,
    plane_partition_endpoints,
    pp_decode,
    pp_encode,
    ssyt_decode,
    ssyt_encode,
)
from lgvlab.sijections import SOURCE, check_compatibility, check_sijection


@dataclass(frozen=True)
class Op:
    kind: str
    key: str          # names the input; equal keys must give equal answers
    args: tuple       # argv of a CLI op, the call's arguments otherwise
    expect: dict      # oracle data, computed when the input is generated
    defect: str | None = None   # a known-defect name from spec.KNOWN_DEFECTS


def _csv(parts) -> str:
    return ",".join(str(p) for p in parts)


def _det_values(shape: Partition, bound: int) -> list[int]:
    """The refined generating function at x = 0..rows, by integer
    determinants; rows + 1 values fix a polynomial of degree <= rows."""
    matrix = lgv_matrix(shape, bound)
    return [det_int(matrix.evaluate(x)) for x in range(matrix.n + 1)]


def theorem1_op(parts, bound, defect=None) -> Op:
    shape = Partition(parts)
    argv = ("verify-theorem1", "--shape", _csv(parts), "--max", str(bound))
    expect = {"count": count_plane_partitions(shape, bound),
              "values": _det_values(shape, bound)}
    return Op("verify-theorem1", " ".join(argv), argv, expect, defect)


def genfun_det_op(parts, bound) -> Op:
    shape = Partition(parts)
    argv = ("genfun", "--shape", _csv(parts), "--max", str(bound),
            "--method", "det")
    defect = "det-over-12" if len(shape) > 12 else None
    expect = {"values": _det_values(shape, bound)}
    return Op("genfun-det", " ".join(argv), argv, expect, defect)


def schur_op(parts, varcount) -> Op:
    argv = ("schur", "--shape", _csv(parts), "--vars", str(varcount))
    expect = {"count": count_tableaux(Partition(parts), varcount),
              "vars": varcount}
    return Op("schur", " ".join(argv), argv, expect)


def lgv_op(parts, bound) -> Op:
    shape = Partition(parts)
    argv = ("verify-lgv", "--shape", _csv(parts), "--max", str(bound))
    expect = {"count": count_plane_partitions(shape, bound),
              "families": count_families(plane_partition_endpoints(shape, bound))}
    return Op("verify-lgv", " ".join(argv), argv, expect)


def pp_map_op(pp: PlanePartition) -> Op:
    instance = f"{_csv(pp.shape)} m={pp.bound}"
    expect = {"instance": instance, "zero_rows": pp.zero_rows()}
    return Op("zero-to-max-map", f"zero-to-max-map {instance} {pp.rows}",
              (pp,), expect)


def ssyt_map_op(tableau: Tableau, perm) -> Op:
    perm = tuple(perm)
    weight = [0] * tableau.varcount
    for k, count in enumerate(tableau.weight()):
        weight[perm[k] - 1] = count
    instance = f"{_csv(tableau.shape)} n={tableau.varcount} perm={_csv(perm)}"
    expect = {"instance": instance, "weight": weight}
    return Op("weight-permutation-map",
              f"weight-permutation-map {instance} {tableau.rows}",
              (tableau, perm), expect)


def check_op(kind, parts, bound) -> Op:
    expect = {"count": count_plane_partitions(Partition(parts), bound)}
    return Op(kind, f"{kind} {_csv(parts)} m={bound}",
              (Partition(parts), bound), expect)


# ---------------------------------------------------------------- calls

def run_cli(argv, stdin: str = ""):
    """``lgvlab.cli.main(argv)`` with stdin given and stdout and stderr
    captured; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), err.getvalue()


def _check_sijection_call(shape, bound):
    return check_sijection(zero_to_max_sijection(shape, bound))


def _check_compatibility_call(shape, bound):
    return check_compatibility(zero_to_max_sijection(shape, bound),
                               last_step_east_count, first_step_east_count)


_CALLS = {
    "zero-to-max-map": zero_to_max_map,
    "weight-permutation-map": weight_permutation_map,
    "check-sijection": _check_sijection_call,
    "check-compatibility": _check_compatibility_call,
}

CLI_KINDS = ("verify-theorem1", "genfun-det", "schur", "verify-lgv")


def call(op: Op):
    """Perform the op as a user would; this is what the benchmark times."""
    if op.kind in CLI_KINDS:
        return run_cli(op.args)
    return _CALLS[op.kind](*op.args)


# -------------------------------------------------------------- answers

def answer(op: Op, raw):
    """Reduce an op's raw result to plain JSON data: what the oracle
    checks and the digest covers.  Volatile fields such as runtime_ms are
    dropped."""
    if op.kind in CLI_KINDS:
        rc, out, err = raw
        if rc != 0 and not out:
            return {"rc": rc, "stderr": err.strip()}
        data = json.loads(out)
        if op.kind in ("verify-theorem1", "verify-lgv"):
            return {"rc": rc, "instance": data["instance"],
                    "results": data["results"],
                    "passed": all(c["passed"] for c in data["checks"])}
        return {"rc": rc, "poly": data}
    if op.kind in ("check-sijection", "check-compatibility"):
        return list(raw)
    return raw.to_json()


def _check_theorem1(op, ans):
    results = ans["results"]
    zeros, maxes, det = (UniPoly.from_json(results[k])
                         for k in ("zeros", "maxes", "determinant"))
    if not zeros == maxes == det:
        return "the three routes disagree"
    if [zeros(x) for x in range(len(op.expect["values"]))] != op.expect["values"]:
        return "polynomial differs from det_int at x = 0..rows"
    if results["count"] != op.expect["count"]:
        return f"count {results['count']} != {op.expect['count']}"
    return None


def _check_genfun(op, ans):
    poly = UniPoly.from_json(ans["poly"])
    if [poly(x) for x in range(len(op.expect["values"]))] != op.expect["values"]:
        return "polynomial differs from det_int at x = 0..rows"
    return None


def _check_schur(op, ans):
    poly = MultiPoly.from_json(ans["poly"])
    total = sum(poly.terms.values())
    if poly.nvars != op.expect["vars"] or total != op.expect["count"]:
        return f"coefficient sum {total} != count_tableaux {op.expect['count']}"
    return None


def _check_lgv(op, ans):
    results = ans["results"]
    want = {"families": op.expect["families"],
            "nonintersecting": op.expect["count"],
            "signed_sum": op.expect["count"]}
    if results != want:
        return f"results {results} != {want}"
    return None


def _check_pp_image(op, ans):
    pp = op.args[0]
    image = PlanePartition.from_json(ans)
    if image.shape != pp.shape or image.bound != pp.bound:
        return "image belongs to another instance"
    if image.max_rows() != op.expect["zero_rows"]:
        return (f"{op.expect['zero_rows']} zero rows became "
                f"{image.max_rows()} max rows")
    return None


def _check_ssyt_image(op, ans):
    tableau = op.args[0]
    image = Tableau.from_json(ans)
    if image.shape != tableau.shape or image.varcount != tableau.varcount:
        return "image belongs to another instance"
    if list(image.weight()) != op.expect["weight"]:
        return f"weight {list(image.weight())} != {op.expect['weight']}"
    return None


def _check_no_problems(op, ans):
    return None if ans == [] else f"problems: {ans[:2]}"


_ORACLES = {
    "verify-theorem1": _check_theorem1,
    "genfun-det": _check_genfun,
    "schur": _check_schur,
    "verify-lgv": _check_lgv,
    "zero-to-max-map": _check_pp_image,
    "weight-permutation-map": _check_ssyt_image,
    "check-sijection": _check_no_problems,
    "check-compatibility": _check_no_problems,
}


def oracle(op: Op, ans):
    """None when ``ans`` is right for ``op``, else what is wrong."""
    if op.kind in CLI_KINDS:
        if ans.get("rc") != 0:
            return f"exit {ans.get('rc')}: {ans.get('stderr', '')}"
        if "passed" in ans and not ans["passed"]:
            return "report has failing checks"
    try:
        return _ORACLES[op.kind](op, ans)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed output: {exc!r}"


def _shows_defect(op: Op, raw, exc) -> bool:
    """True when the op failed in exactly its known-defect way."""
    if op.defect == "deep-one-row":
        return isinstance(exc, RecursionError)
    if op.defect == "det-over-12" and exc is None:
        rc, _, err = raw
        return (rc == 1 and "determinant size" in err
                and "exceeds guard limit" in err)
    return False


def _sha(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Checker:
    """Judges op outcomes and keeps the state the oracles need across ops:
    one answer per input, and distinct images for distinct inputs."""

    def __init__(self):
        self.answers = {}    # op key -> (answer digest, hop count)
        self._images = {}    # (instance, image digest) -> op key

    def judge(self, op: Op, raw, exc, hops=None):
        """Return ("ok" | "defect" | "wrong", message)."""
        if exc is not None:
            ans = {"raised": type(exc).__name__}
        else:
            ans = answer(op, raw)
        digest = _sha(ans)
        prev = self.answers.get(op.key)
        if prev is not None and (prev[0] != digest or (
                None not in (prev[1], hops) and prev[1] != hops)):
            return "wrong", f"{op.key}: answer or hop count changed on repeat"
        if prev is None or prev[1] is None:
            self.answers[op.key] = (digest, hops)
        if exc is not None:
            if _shows_defect(op, raw, exc):
                return "defect", None
            return "wrong", f"{op.key}: raised {type(exc).__name__}: {exc}"
        problem = oracle(op, ans)
        if problem is None and "instance" in op.expect:
            holder = self._images.setdefault(
                (op.expect["instance"], digest), op.key)
            if holder != op.key:
                problem = f"shares its image with {holder}"
        if problem is None:
            return "ok", None
        if _shows_defect(op, raw, exc):
            return "defect", None
        return "wrong", f"{op.key}: {problem}"

    def digest(self) -> dict:
        lines = sorted(f"{key}\t{d}\t{h}" for key, (d, h) in self.answers.items())
        hops = [h for _, h in self.answers.values() if h is not None]
        return {"sha256": _sha(lines), "ops": len(lines),
                "hops_total": sum(hops) if hops else None}


# -------------------------------------------------------------- replays

def _report(shape, bound, results, checks, started):
    """A verification report shaped as lgvlab.verify writes it.  Witnesses
    are left out; a failing check fails the op whatever its witness."""
    return {
        "instance": {"shape": list(shape.parts), "max": bound},
        "results": results,
        "checks": [{"name": name, "passed": bool(ok), "witness": None}
                   for name, ok in checks.items()],
        "runtime_ms": int((perf_counter() - started) * 1000),
    }


def _theorem1_body(tracer, args, op):
    shape, bound = args.shape, args.max
    count = op.expect["count"]
    started = perf_counter()
    with tracer.span("verify.verify_theorem1"):
        with tracer.span("objects.genfun_by_enumeration", count):
            zeros = genfun_by_enumeration(shape, bound, "zeros")
        with tracer.span("objects.genfun_by_enumeration", count):
            maxes = genfun_by_enumeration(shape, bound, "maxes")
        with tracer.span("algebra.lgv_matrix"):
            matrix = lgv_matrix(shape, bound)
        with tracer.span("algebra.det_division_free", matrix.n):
            det = det_division_free(matrix)
        with tracer.span("objects.count_plane_partitions"):
            total = count_plane_partitions(shape, bound)
        report = _report(
            shape, bound,
            {"zeros": zeros.to_json(), "maxes": maxes.to_json(),
             "determinant": det.to_json(), "count": total},
            {"zeros-matches-maxes": zeros == maxes,
             "zeros-matches-determinant": zeros == det,
             "determinant-at-one-counts-all": det(1) == total}, started)
    return report


def _lgv_body(tracer, args, op):
    shape, bound = args.shape, args.max
    total, count = op.expect["families"], op.expect["count"]
    started = perf_counter()
    with tracer.span("verify.verify_lgv"):
        endpoints = plane_partition_endpoints(shape, bound)
        with tracer.span("paths.enumerate_families", total):
            families = list(enumerate_families(endpoints))
        with tracer.span("paths.is_nonintersecting", total):
            flags = [is_nonintersecting(f) for f in families]
        ni = [f for f, flag in zip(families, flags) if flag]
        crossing = [f for f, flag in zip(families, flags) if not flag]
        signed_sum = sum(f.sign for f in families)
        with tracer.span("paths.count_ni_families"):
            det_count = count_ni_families(endpoints)
        with tracer.span("paths.count_families"):
            perm_count = count_families(endpoints)
        with tracer.span("bijections.tail_swap", 2 * len(crossing)):
            swapped = [tail_swap(f) for f in crossing]
            again = [tail_swap(s) for s, _ in swapped]
        involution = all(
            back == f and cert_back == cert and s.sign == -f.sign
            for f, (s, cert), (back, cert_back) in zip(crossing, swapped, again))
        rejects = True
        for family in ni[:1]:
            try:
                tail_swap(family)
                rejects = False
            except ValueError:
                pass
        with tracer.span("bijections.lgv_sijection"):
            sij = lgv_sijection(endpoints)
        with tracer.span("sijections.check_sijection", total + count):
            bijective = check_sijection(sij)
        with tracer.span("sijections.check_compatibility", total + count):
            compat_last = check_compatibility(
                sij, last_step_east_count, last_step_east_count)
        with tracer.span("sijections.check_compatibility", total + count):
            compat_first = check_compatibility(
                sij, first_step_east_count, first_step_east_count)
        report = _report(
            shape, bound,
            {"families": len(families), "nonintersecting": len(ni),
             "signed_sum": signed_sum},
            {"family-count-matches-permanent": len(families) == perm_count,
             "signed-sum-matches-nonintersecting": signed_sum == len(ni),
             "determinant-counts-nonintersecting": det_count == len(ni),
             "tail-swap-involution": involution,
             "tail-swap-rejects-disjoint": rejects,
             "sijection-bijective": bijective == [],
             "compatible-with-last-step-east": compat_last == [],
             "compatible-with-first-step-east": compat_first == []}, started)
    tracer.count("paths.families", len(families))
    tracer.count("paths.nonintersecting", len(ni))
    return report


def _genfun_body(tracer, args, op):
    with tracer.span("algebra.lgv_matrix"):
        matrix = lgv_matrix(args.shape, args.max)
    with tracer.span("algebra.det_division_free", matrix.n):
        poly = det_division_free(matrix)
    return poly.to_json()


def _schur_body(tracer, args, op):
    with tracer.span("objects.schur_by_enumeration", op.expect["count"]):
        poly = schur_by_enumeration(args.shape, args.vars)
    return poly.to_json()


_CLI_BODIES = {
    "verify-theorem1": _theorem1_body,
    "verify-lgv": _lgv_body,
    "genfun-det": _genfun_body,
    "schur": _schur_body,
}


def _replay_cli(op, tracer):
    with tracer.span("cli.main"):
        args = cli.build_parser().parse_args(list(op.args))
        try:
            data = _CLI_BODIES[op.kind](tracer, args, op)
        except GuardExceeded as exc:
            return (1, "", f"guard: {exc}\n"), None
        stream = io.StringIO()
        json.dump(data, stream, indent=2)
        stream.write("\n")
        out = stream.getvalue()
        passed = all(c["passed"] for c in data.get("checks", []))
    tracer.count("cli.ops", 1)
    tracer.count("cli.json_bytes", len(out))
    return (0 if passed else 1, out, ""), None


def _replay_map(tracer, name, build, encode, decode, payload, instance, *extra):
    with tracer.span(name):
        with tracer.span(f"bijections.{build.__name__}"):
            sij = build(*instance, *extra)
        with tracer.span(f"paths.{encode.__name__}"):
            family = encode(payload)
        hops = []
        with tracer.span("sijections.forward") as span:
            image = sij.forward((SOURCE, 1, family), hops)[2]
            span.items = len(hops)
        with tracer.span(f"paths.{decode.__name__}"):
            result = decode(image, *instance)
    return result, hops


def _replay_pp_map(op, tracer):
    pp = op.args[0]
    return _replay_map(tracer, "bijections.zero_to_max_map",
                       zero_to_max_sijection, pp_encode, pp_decode,
                       pp, (pp.shape, pp.bound))


def _replay_ssyt_map(op, tracer):
    tableau, perm = op.args
    return _replay_map(tracer, "bijections.weight_permutation_map",
                       weight_permutation_sijection, ssyt_encode, ssyt_decode,
                       tableau, (tableau.shape, tableau.varcount), perm)


def _replay_check(name, check, *stats):
    def replay(op, tracer):
        shape, bound = op.args
        with tracer.span("bijections.zero_to_max_sijection"):
            sij = zero_to_max_sijection(shape, bound)
        with tracer.span(name, 2 * op.expect["count"]):
            problems = check(sij, *stats)
        return problems, None
    return replay


_REPLAYS = {
    "zero-to-max-map": _replay_pp_map,
    "weight-permutation-map": _replay_ssyt_map,
    "check-sijection": _replay_check(
        "sijections.check_sijection", check_sijection),
    "check-compatibility": _replay_check(
        "sijections.check_compatibility", check_compatibility,
        last_step_east_count, first_step_east_count),
}


def replay(op: Op, tracer):
    """Perform the op as its constituent public calls, each in a span.

    Returns (raw result as ``call`` would give it, ping-pong hop count or
    None).  After a ping-pong, the tail swap is timed again on every
    intersecting family of the itinerary, outside the op's span, because
    the ping-pong calls it from inside lgvlab.
    """
    with tracer.span("op"):
        if op.kind in CLI_KINDS:
            raw, hops = _replay_cli(op, tracer)
        else:
            raw, hops = _REPLAYS[op.kind](op, tracer)
    if hops is None:
        return raw, None
    crossing = [family for _, family in hops if not is_nonintersecting(family)]
    with tracer.span("bijections.tail_swap", len(crossing)):
        for family in crossing:
            tail_swap(family)
    return raw, len(hops)


# ------------------------------------------------------------ workloads

# Cycles in a generated list; one pass through the list must fit well
# inside a run, so that the output digest covers every input.
_CYCLES = 8


def _spread(rng, candidates, k):
    """k picks from ``candidates``, (cost, item) pairs: pick i lies at a
    random point of the i-th of k equal slices of the list sorted by cost,
    so every seed draws the same spread of costs, and a list no longer
    than k is drawn whole.  Returned in seeded order."""
    ordered = [item for _, item in sorted(candidates)]
    picks = [ordered[int((i + rng.random()) * len(ordered) / k)]
             for i in range(k)]
    rng.shuffle(picks)
    return picks


def _deal(rng, draws):
    """_CYCLES cycles of ops: from each (make op, candidates, per cycle)
    draw, per_cycle ops in every cycle, spread over the candidates."""
    dealt = [(make, _spread(rng, candidates, per_cycle * _CYCLES), per_cycle)
             for make, candidates, per_cycle in draws]
    return [[make(*pick) for make, picks, n in dealt
             for pick in picks[c * n:(c + 1) * n]] for c in range(_CYCLES)]


# brute-identity: (class, low, high, ops per cycle), by the work estimate
# objects x cells, which tracks verify-theorem1 time to within about 20%.
_BRUTE_CLASSES = (("tiny", 1500, 3000, 3), ("small", 7200, 8200, 4),
                  ("mid", 25000, 30000, 2), ("big", 95000, 97500, 2))


@functools.cache
def _brute_candidates():
    classes = {name: [] for name, *_ in _BRUTE_CLASSES}
    for shape in enumerate_partitions(20):
        if not 1 <= len(shape) <= 6 or shape.size() < 2:
            continue
        for bound in range(1, 7):
            count = count_plane_partitions(shape, bound)
            if not 100 <= count <= 10_000:
                continue
            work = count * shape.size()
            for name, low, high, _ in _BRUTE_CLASSES:
                if low <= work <= high:
                    classes[name].append((work, (shape.parts, bound)))
    schur = []
    for shape in enumerate_partitions(12):
        if 1 <= len(shape) <= 4:
            for varcount in range(2, 7):
                work = count_tableaux(shape, varcount) * shape.size()
                if 6000 <= work <= 9000:
                    schur.append((work, (shape.parts, varcount)))
    return classes, schur


def brute_identity(rng) -> list[Op]:
    """Per cycle: 11 verify-theorem1 ops over four size classes, one schur,
    and one deep one-row instance (a known defect)."""
    classes, schur = _brute_candidates()
    cycles = _deal(rng, [(theorem1_op, classes[name], per_cycle)
                         for name, _, _, per_cycle in _BRUTE_CLASSES]
                   + [(schur_op, schur, 1)])
    ops = []
    for cycle in cycles:
        cycle.append(theorem1_op((rng.randint(1000, 1500),), rng.randint(0, 1),
                                 defect="deep-one-row"))
        rng.shuffle(cycle)
        ops += cycle
    return ops


# det-route: ops per cycle by row count; 12 rows take most of the time
# and hold the 90th percentile, 9 rows hold the median.
_DET_ROWS = {6: 2, 7: 2, 8: 1, 9: 3, 10: 1, 11: 1, 12: 3, 13: 1, 14: 1}


def det_route(rng) -> list[Op]:
    """Each row count gets every bound 1..6 equally often over the list,
    since the bound moves the determinant's cost by up to 2x.  Parts are
    at least the row count, so that no matrix entry vanishes and the cost
    does not hang on how many do; the seed picks the parts and the
    order."""
    bounds = {}
    for rows, per_cycle in _DET_ROWS.items():
        bounds[rows] = [1 + k % 6 for k in range(per_cycle * _CYCLES)]
        rng.shuffle(bounds[rows])
    ops = []
    for _ in range(_CYCLES):
        cycle = []
        for rows, per_cycle in _DET_ROWS.items():
            for _ in range(per_cycle):
                parts = sorted((rng.randint(rows, rows + 4)
                                for _ in range(rows)), reverse=True)
                cycle.append(genfun_det_op(parts, bounds[rows].pop()))
        rng.shuffle(cycle)
        ops += cycle
    return ops


# (shape, bound or number of variables, elements drawn).  The two pools
# with long hop tails are drawn large, so that the tail is stable.
_PP_POOLS = (((4, 4, 4), 4, 2000), ((3, 3, 3, 3), 2, 490),
             ((4, 3, 2), 3, 300), ((5, 3, 1), 3, 300))
_SSYT_POOLS = (((4, 3, 2, 1), 5, 300), ((4, 2, 1), 4, 140))
_PERMS_PER_POOL = 3


def _sample(stream, total, size, rng):
    """A seeded sample of a stream, kept without holding the whole stream."""
    keep = set(rng.sample(range(total), min(size, total)))
    return [item for index, item in enumerate(stream) if index in keep]


def pingpong_map(rng) -> list[Op]:
    """Elements drawn from each pool, one map call each, shuffled."""
    ops = []
    for parts, bound, size in _PP_POOLS:
        shape = Partition(parts)
        ops += [pp_map_op(pp) for pp in _sample(
            enumerate_plane_partitions(shape, bound),
            count_plane_partitions(shape, bound), size, rng)]
    for parts, varcount, size in _SSYT_POOLS:
        shape = Partition(parts)
        perms = []
        while len(perms) < _PERMS_PER_POOL:
            perm = rng.sample(range(1, varcount + 1), varcount)
            if perm != sorted(perm) and perm not in perms:
                perms.append(perm)
        tableaux = _sample(enumerate_tableaux(shape, varcount),
                           count_tableaux(shape, varcount), size, rng)
        ops += [ssyt_map_op(t, perms[k % _PERMS_PER_POOL])
                for k, t in enumerate(tableaux)]
    rng.shuffle(ops)
    return ops


# signed-set-check: verify-lgv classes by family count, with ops per cycle.
_LGV_CLASSES = (("small", 180, 320, 5), ("mid", 400, 800, 3),
                ("big", 1300, 1700, 3))


@functools.cache
def _lgv_candidates():
    classes = {name: [] for name, *_ in _LGV_CLASSES}
    checks = []
    for shape in enumerate_partitions(12):
        if not 1 <= len(shape) <= 4 or shape.parts[0] > 5:
            continue
        for bound in range(1, 5):
            families = count_families(plane_partition_endpoints(shape, bound))
            for name, low, high, _ in _LGV_CLASSES:
                if low <= families <= high:
                    classes[name].append((families, (shape.parts, bound)))
            if (len(shape) <= 3 and families <= 200
                    and 20 <= count_plane_partitions(shape, bound) <= 50):
                checks.append((families, (shape.parts, bound)))
    return classes, checks


def signed_set_check(rng) -> list[Op]:
    """Per cycle: 11 verify-lgv ops over three size classes, and two each
    of check_sijection and check_compatibility of zero_to_max_sijection."""
    classes, checks = _lgv_candidates()
    cycles = _deal(rng, [(lgv_op, classes[name], per_cycle)
                         for name, _, _, per_cycle in _LGV_CLASSES]
                   + [(functools.partial(check_op, kind), checks, 2)
                      for kind in ("check-sijection", "check-compatibility")])
    ops = []
    for cycle in cycles:
        rng.shuffle(cycle)
        ops += cycle
    return ops


GENERATORS = {
    "brute-identity": brute_identity,
    "det-route": det_route,
    "pingpong-map": pingpong_map,
    "signed-set-check": signed_set_check,
}

# The fixed first op of each workload: run once untimed before the loop,
# and by every fresh interpreter that measures setup time.
WARMUP = {
    "brute-identity": (["verify-theorem1", "--shape", "3,2,1", "--max", "2"], ""),
    "det-route": (["genfun", "--shape", "4,3,3,2,2,1,1,1", "--max", "3",
                   "--method", "det"], ""),
    "pingpong-map": (["bijection"], json.dumps(
        {"shape": [4, 4, 4], "max": 4,
         "rows": [[4, 3, 2, 1], [3, 2, 1, 0], [2, 1, 0, 0]]})),
    "signed-set-check": (["verify-lgv", "--shape", "2,2", "--max", "2"], ""),
}


# The calibration kernel whose kind of work matches each workload's ops.
KERNEL = {
    "brute-identity": "objects",
    "det-route": "arithmetic",
    "pingpong-map": "objects",
    "signed-set-check": "objects",
}


def probe_ops() -> list[Op]:
    """One small op of every kind.  A traced run replays them first, so
    that a layer its workload never calls is still measured."""
    return [
        theorem1_op((2, 1), 2),
        schur_op((2, 1), 3),
        genfun_det_op((3, 2, 2, 1, 1, 1), 2),
        genfun_det_op((1,) * 13, 1),
        pp_map_op(PlanePartition(Partition((2, 2)), 2, [[2, 1], [1, 0]])),
        ssyt_map_op(Tableau(Partition((2, 1)), 3, [[1, 2], [3]]), (3, 1, 2)),
        lgv_op((2, 2), 2),
        check_op("check-sijection", (2, 2), 1),
        check_op("check-compatibility", (2, 2), 1),
    ]
