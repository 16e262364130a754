"""Command-line interface.

Every subcommand writes a single JSON document to stdout and a short
human-readable summary to stderr, so output can be piped and inspected at
the same time.  Exit codes: 0 when all checks pass, 1 on a mathematical
disagreement or an exceeded enumeration guard, 2 on bad usage or input.
"""

import argparse
import json
import sys

from .algebra import det_division_free, lgv_matrix
from .bijections import zero_to_max_map
from .guards import GuardExceeded, resolve_guard_limit
from .objects import Partition, PlanePartition, genfun_by_enumeration, schur_by_enumeration
from .verify import report_passed, sweep, verify_lgv, verify_schur, verify_theorem1


def _shape(text: str) -> Partition:
    try:
        return Partition.from_string(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _perm(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad permutation {text!r}")
    if sorted(values) != list(range(1, len(values) + 1)):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a permutation of 1..{len(values)}")
    return values


def _emit(data) -> None:
    json.dump(data, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _poly_text(poly) -> str:
    text = repr(poly)
    return text[text.index("(") + 1:-1]


def _say_checks(report: dict) -> None:
    for check in report["checks"]:
        if check["passed"]:
            _say(f"PASS {check['name']}")
        else:
            _say(f"FAIL {check['name']} :: {json.dumps(check['witness'])}")


def _report(report: dict) -> int:
    """Emit a verification report and translate it to an exit code."""
    _emit(report)
    _say_checks(report)
    ok = report_passed(report)
    _say(f"{'ok' if ok else 'FAILED'} "
         f"({sum(c['passed'] for c in report['checks'])}/"
         f"{len(report['checks'])} checks, {report['runtime_ms']} ms)")
    return 0 if ok else 1


def _cmd_genfun(args) -> int:
    if args.method == "det":
        poly = det_division_free(lgv_matrix(args.shape, args.max))
    else:
        statistic = "zeros" if args.method == "brute-zeros" else "maxes"
        poly = genfun_by_enumeration(args.shape, args.max, statistic,
                                     args.guard_limit)
    _emit(poly.to_json())
    label = ",".join(str(p) for p in args.shape.parts) or "empty"
    _say(f"genfun shape=({label}) max={args.max} "
         f"method={args.method}: {_poly_text(poly)}")
    return 0


def _cmd_verify_theorem1(args) -> int:
    return _report(verify_theorem1(args.shape, args.max, args.guard_limit))


def _cmd_verify_lgv(args) -> int:
    return _report(verify_lgv(args.shape, args.max, args.guard_limit))


def _cmd_bijection(args) -> int:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input) as fh:
            text = fh.read()
    pp = PlanePartition.from_json(json.loads(text))
    if args.trace:
        image, trace = zero_to_max_map(pp, with_trace=True,
                                       guard_limit=args.guard_limit)
        _emit(trace)
        _say(f"trace: {len(trace['steps'])} steps")
    else:
        image = zero_to_max_map(pp, guard_limit=args.guard_limit)
        _emit(image.to_json())
    _say(f"zero rows {pp.zero_rows()} -> max rows {image.max_rows()}")
    return 0


def _cmd_schur(args) -> int:
    if args.perm is not None and len(args.perm) != args.vars:
        raise ValueError(
            f"--perm has {len(args.perm)} entries, expected {args.vars}")
    poly = schur_by_enumeration(args.shape, args.vars, args.guard_limit)
    _emit(poly.to_json())
    label = ",".join(str(p) for p in args.shape.parts) or "empty"
    _say(f"schur shape=({label}) vars={args.vars}: "
         f"{len(poly.terms)} monomials")
    if args.perm is None:
        return 0
    report = verify_schur(args.shape, args.vars, args.perm, args.guard_limit)
    _say_checks(report)
    return 0 if report_passed(report) else 1


def _cmd_sweep(args) -> int:
    report = sweep(args.max_size, args.max_bound, args.guard_limit)
    _emit(report)
    for check in report["checks"]:
        if not check["passed"]:
            _say(f"FAIL {check['name']} :: {json.dumps(check['witness'])}")
    ok = report_passed(report)
    _say(f"{'ok' if ok else 'FAILED'} "
         f"({report['results']['instances']} instances, "
         f"{report['results']['failures']} failures, "
         f"{report['runtime_ms']} ms)")
    return 0 if ok else 1


def _add_guard(parser) -> None:
    parser.add_argument(
        "--guard-limit", type=int, default=None, metavar="N",
        help="cap on enumeration sizes (default: LGVLAB_GUARD_LIMIT or 10^7)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgvlab",
        description="Refined enumeration of bounded plane partitions via "
                    "lattice paths: generating functions, determinants, "
                    "and explicit bijections.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "genfun",
        help="generating function of bounded plane partitions, refined by "
             "rows containing 0 or the bound")
    p.add_argument("--shape", type=_shape, required=True,
                   help="comma-separated partition, e.g. 2,1 (empty: '')")
    p.add_argument("--max", type=int, required=True,
                   help="entry bound m >= 0")
    p.add_argument("--method", choices=("brute-zeros", "brute-maxes", "det"),
                   default="det")
    _add_guard(p)
    p.set_defaults(func=_cmd_genfun)

    p = sub.add_parser(
        "verify-theorem1",
        help="check the three routes to the refined generating function "
             "against each other")
    p.add_argument("--shape", type=_shape, required=True)
    p.add_argument("--max", type=int, required=True)
    _add_guard(p)
    p.set_defaults(func=_cmd_verify_theorem1)

    p = sub.add_parser(
        "verify-lgv",
        help="check the path model: counts, tail-swap involution, "
             "sijection, statistics")
    p.add_argument("--shape", type=_shape, required=True)
    p.add_argument("--max", type=int, required=True)
    _add_guard(p)
    p.set_defaults(func=_cmd_verify_lgv)

    p = sub.add_parser(
        "bijection",
        help="apply the zero-rows-to-max-rows bijection to a plane "
             "partition given as JSON")
    p.add_argument("input", nargs="?", default="-",
                   help="input file, or - for stdin (default)")
    p.add_argument("--trace", action="store_true",
                   help="emit the full itinerary through the composed "
                        "sijection")
    _add_guard(p)
    p.set_defaults(func=_cmd_bijection)

    p = sub.add_parser(
        "schur",
        help="Schur polynomial by tableau enumeration; optionally verify "
             "symmetry and the weight-permuting bijection")
    p.add_argument("--shape", type=_shape, required=True)
    p.add_argument("--vars", type=int, required=True,
                   help="number of variables")
    p.add_argument("--perm", type=_perm, default=None, metavar="P",
                   help="one-indexed permutation, e.g. 2,1,3")
    _add_guard(p)
    p.set_defaults(func=_cmd_schur)

    p = sub.add_parser(
        "sweep",
        help="verify the counting identity across all shapes up to a size "
             "and all bounds up to a maximum")
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--max-bound", type=int, required=True)
    _add_guard(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a bad limit is refused even by the routes that enumerate nothing
        resolve_guard_limit(args.guard_limit)
        return args.func(args)
    except GuardExceeded as exc:
        _say(f"guard: {exc}")
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        _say(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
