import contextlib
import io
import json
import json.encoder
import math
import os
import pathlib
import subprocess
import sys
import time
from collections import Counter, OrderedDict
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lgvlab
import lgvlab.objects
import lgvlab.paths
from golden_reports import line, pinned
from lgvlab.algebra import PolyMatrix
from lgvlab.bijections import zero_to_max_map
from lgvlab.cli import _emit, _indented, build_parser, main
from lgvlab.objects import (
    Partition,
    enumerate_plane_partitions,
    schur_by_enumeration,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_genfun_det(capsys):
    code, out, err = run(capsys, "genfun", "--shape", "2,1", "--max", "2")
    assert code == 0
    assert json.loads(out) == {"var": "x", "coeffs": ["5", "6", "3"]}
    assert "5 + 6*x + 3*x^2" in err


def test_genfun_methods_agree(capsys):
    outputs = []
    for method in ("brute-zeros", "brute-maxes", "det"):
        code, out, _ = run(capsys, "genfun", "--shape", "2,2", "--max", "2",
                           "--method", method)
        assert code == 0
        outputs.append(json.loads(out))
    assert outputs[0] == outputs[1] == outputs[2]


def test_genfun_empty_shape(capsys):
    code, out, _ = run(capsys, "genfun", "--shape", "", "--max", "3")
    assert code == 0
    assert json.loads(out)["coeffs"] == ["1"]


def test_genfun_rejects_bad_shape(capsys):
    with pytest.raises(SystemExit) as info:
        main(["genfun", "--shape", "1,2", "--max", "1"])
    assert info.value.code == 2


def test_one_parser_serves_every_call(capsys):
    # the parser is built once per process; a usage error must leave
    # nothing behind that changes a later call
    good = ["genfun", "--shape", "2,1", "--max", "2", "--method", "brute-zeros"]
    bad = ["genfun", "--shape", "1,2", "--max", "1"]

    def outcome(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in (good, bad, good):
        build_parser.cache_clear()
        fresh.append(outcome(argv))
    build_parser.cache_clear()
    cached = [outcome(argv) for argv in (good, bad, good)]
    assert build_parser.cache_info().misses == 1
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 2, 0]


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_verify_theorem1_report(capsys):
    code, out, err = run(capsys, "verify-theorem1", "--shape", "2,1",
                         "--max", "2")
    assert code == 0
    report = json.loads(out)
    assert all(c["passed"] for c in report["checks"])
    assert err.count("PASS") == len(report["checks"])
    assert "ok" in err


def test_verify_lgv_report(capsys):
    code, out, _ = run(capsys, "verify-lgv", "--shape", "1,1", "--max", "1")
    assert code == 0
    report = json.loads(out)
    assert report["results"] == {
        "families": 5, "nonintersecting": 3, "signed_sum": 3}


def test_verify_lgv_on_a_twelve_row_column(capsys):
    code, out, _ = run(capsys, "verify-lgv", "--shape", ",".join(["1"] * 12),
                       "--max", "0")
    assert code == 0
    assert json.loads(out)["results"] == {
        "families": 1, "nonintersecting": 1, "signed_sum": 1}


def test_bijection_from_file(tmp_path, capsys):
    source = tmp_path / "pp.json"
    source.write_text(json.dumps(
        {"shape": [2], "max": 1, "rows": [[1, 1]]}))
    code, out, err = run(capsys, "bijection", str(source))
    assert code == 0
    assert json.loads(out) == {"shape": [2], "max": 1, "rows": [[0, 0]]}
    assert "zero rows 0 -> max rows 0" in err


def test_bijection_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(
        json.dumps({"shape": [1, 1], "max": 1, "rows": [[1], [0]]})))
    code, out, _ = run(capsys, "bijection")
    assert code == 0
    assert json.loads(out)["rows"] == [[1], [0]]


def test_bijection_trace(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(
        json.dumps({"shape": [1, 1], "max": 1, "rows": [[1], [0]]})))
    code, out, _ = run(capsys, "bijection", "--trace")
    assert code == 0
    trace = json.loads(out)
    assert set(trace) == {"input", "steps", "output"}
    assert len(trace["steps"]) == 8
    assert trace["steps"][0]["set"] == "source"
    assert trace["steps"][-1]["set"] == "target"
    assert all(set(s) == {"element", "set", "sign"} for s in trace["steps"])


# the (4,4,4), m=4 element whose orbit is the longest of the first 200:
# 215 hops
_LONG_ORBIT = {"shape": [4, 4, 4], "max": 4,
               "rows": [[4, 4, 4, 4], [4, 4, 4, 2], [1, 1, 1, 1]]}


@pytest.mark.parametrize("limit, code", [("100", 1), ("215", 0)])
def test_bijection_guard_limit_bounds_the_ping_pong(capsys, monkeypatch,
                                                     limit, code):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(_LONG_ORBIT)))
    got, out, err = run(capsys, "bijection", "--guard-limit", limit)
    assert got == code
    if code:
        assert out == ""
        assert f"guard: ping-pong hops: projected size {int(limit) + 1} " \
               f"exceeds guard limit {limit}" in err


def test_bijection_refuses_a_thirty_row_column_within_a_second(
        capsys, monkeypatch):
    # the orbit grows about 2.3x per row, so without a hop budget this
    # element would ping-pong for hours; the time is this process's CPU
    # time, which other processes on the machine do not inflate
    doc = {"shape": [1] * 30, "max": 1, "rows": [[1]] * 15 + [[0]] * 15}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    started = time.process_time()
    code, out, err = run(capsys, "bijection", "--guard-limit", "10000")
    assert time.process_time() - started < 1
    assert (code, out) == (1, "")
    assert "ping-pong hops: projected size 10001 exceeds guard limit 10000" in err


def test_bijection_bad_json_is_input_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("{not json"))
    code, _, err = run(capsys, "bijection")
    assert code == 2
    assert "error" in err


def test_bijection_deeply_nested_json_is_input_error(capsys, monkeypatch):
    depth = 100000
    monkeypatch.setattr("sys.stdin", io.StringIO("[" * depth + "]" * depth))
    code, out, err = run(capsys, "bijection")
    assert code == 2
    assert out == ""
    assert err == "error: input JSON is nested too deeply\n"


def test_bijection_invalid_object_is_input_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(
        json.dumps({"shape": [2], "max": 1, "rows": [[0, 1]]})))
    code, _, err = run(capsys, "bijection")
    assert code == 2
    assert "weakly decreasing" in err


@pytest.mark.parametrize("document", [
    {"shape": [1], "max": 1, "rows": 5},
    {"shape": [1], "max": 1, "rows": [0]},
    {"shape": [1], "max": None, "rows": [[0]]},
    {"shape": [1], "max": "1", "rows": [[0]]},
    {"shape": [1], "max": True, "rows": [[0]]},
    {"shape": [1], "max": 1, "rows": [[0.5]]},
    {"shape": [1.5], "max": 1, "rows": [[0]]},
    {"shape": 1, "max": 1, "rows": [[0]]},
], ids=["rows-not-list", "row-not-list", "max-null", "max-string",
        "max-bool", "entry-float", "part-float", "shape-not-list"])
def test_bijection_malformed_fields_are_input_errors(capsys, monkeypatch,
                                                     document):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(document)))
    code, _, err = run(capsys, "bijection")
    assert code == 2
    assert "error" in err
    assert "Traceback" not in err


def test_schur_outputs_polynomial(capsys):
    code, out, err = run(capsys, "schur", "--shape", "2", "--vars", "2")
    assert code == 0
    poly = json.loads(out)
    assert poly["vars"] == 2
    assert poly["terms"] == [
        {"exp": [0, 2], "coef": "1"},
        {"exp": [1, 1], "coef": "1"},
        {"exp": [2, 0], "coef": "1"},
    ]
    assert "3 monomials" in err


def test_schur_with_perm_verifies(capsys):
    code, _, err = run(capsys, "schur", "--shape", "2,1", "--vars", "3",
                       "--perm", "2,1,3")
    assert code == 0
    assert "PASS weight-map-is-bijection" in err


def test_schur_with_perm_walks_the_tableaux_once(capsys, monkeypatch):
    walks = []
    real = lgvlab.objects._fillings

    def counting(shape, values, column_ok):
        walks.append((shape.parts, values))
        return real(shape, values, column_ok)

    monkeypatch.setattr(lgvlab.objects, "_fillings", counting)
    code, out, err = run(capsys, "schur", "--shape", "3,2,1", "--vars", "4",
                         "--perm", "2,1,4,3")
    assert code == 0
    assert walks == [((3, 2, 1), range(1, 5))]
    assert json.loads(out) == schur_by_enumeration(
        Partition([3, 2, 1]), 4).to_json()
    assert "schur shape=(3,2,1) vars=4: 38 monomials" in err


def test_schur_perm_length_mismatch(capsys):
    code, out, err = run(capsys, "schur", "--shape", "2", "--vars", "3",
                         "--perm", "2,1")
    assert code == 2
    assert "expected 3" in err
    assert out == ""


def test_schur_rejects_non_permutation():
    # an empty token is not an integer either, wherever it sits
    for perm in ("1,1", "1,,2", "2,1,"):
        with pytest.raises(SystemExit) as info:
            main(["schur", "--shape", "2,1", "--vars", "2", "--perm", perm])
        assert info.value.code == 2


def test_sweep(capsys):
    code, out, err = run(capsys, "sweep", "--max-size", "3", "--max-bound", "2")
    assert code == 0
    report = json.loads(out)
    assert report["results"] == {"instances": 21, "failures": 0}
    assert "21 instances" in err


def test_sweep_rejects_negative_bound(capsys):
    code, out, err = run(capsys, "sweep", "--max-size", "3", "--max-bound", "-1")
    assert code == 2
    assert out == ""
    assert "max_bound must be nonnegative" in err


def test_genfun_det_has_no_row_cap(capsys):
    code, out, _ = run(capsys, "genfun", "--shape", ",".join(["1"] * 13),
                       "--max", "1")
    assert code == 0
    assert json.loads(out)["coeffs"] == ["1"] * 14


def test_brute_route_on_a_200000_cell_row_in_proportion_to_its_counts(
        capsys):
    # the row's 200,001 fillings are tallied off one running count each,
    # not off 200,000 entries each; the time is this process's CPU time
    started = time.process_time()
    code, out, _ = run(capsys, "genfun", "--shape", "200000", "--max", "1",
                       "--method", "brute-zeros")
    assert time.process_time() - started < 1
    assert code == 0
    assert json.loads(out)["coeffs"] == ["1", "200000"]


def test_brute_route_on_a_1500_cell_row(capsys):
    code, out, _ = run(capsys, "genfun", "--shape", "1500", "--max", "1",
                       "--method", "brute-zeros")
    assert code == 0
    assert json.loads(out)["coeffs"] == ["1", "1500"]
    code, out, _ = run(capsys, "verify-theorem1", "--shape", "1500", "--max", "1")
    assert code == 0
    assert all(check["passed"] for check in json.loads(out)["checks"])


def test_sweep_refuses_a_grid_past_the_limit_before_running(capsys):
    # --max-size 100 has over 10^9 shapes; the time is this process's CPU
    # time, which other processes on the machine do not inflate
    started = time.process_time()
    code, out, err = run(capsys, "sweep", "--max-size", "100",
                         "--max-bound", "0")
    assert time.process_time() - started < 1
    assert (code, out) == (1, "")
    assert "guard: sweep instances: projected size" in err
    # a grid of few shapes but many plane partitions is refused by its total
    code, out, err = run(capsys, "sweep", "--max-size", "9",
                         "--max-bound", "4", "--guard-limit", "100000")
    assert (code, out) == (1, "")
    total = sum(lgvlab.objects.count_plane_partitions(shape, bound)
                for shape in lgvlab.objects.enumerate_partitions(9)
                for bound in range(5))
    assert (f"guard: sweep objects: projected size {total} exceeds guard "
            f"limit 100000") in err


@pytest.mark.parametrize("limit, refusal", [
    ("56", "sweep instances: projected size 57 exceeds guard limit 56"),
    ("57", "sweep objects: projected size 525 exceeds guard limit 57"),
])
def test_sweep_counts_the_instances_of_every_size_up_to_the_largest(
        capsys, limit, refusal):
    # sizes 0 to 5 have 1, 1, 2, 3, 5 and 7 shapes, each with bounds 0 to
    # 2: 57 instances, refused one below and passed at exactly 57
    code, out, err = run(capsys, "sweep", "--max-size", "5", "--max-bound",
                         "2", "--guard-limit", limit)
    assert (code, out, err) == (1, "", f"guard: {refusal}\n")


@pytest.mark.parametrize("parts, bound", [((2,) * 24, 2), ((1,) * 30, 1)])
def test_verify_lgv_refuses_a_tall_shape_within_a_second(
        capsys, parts, bound):
    # the refusal names the exact number of signed families, counted
    # column by column instead of over all 2^n column subsets
    started = time.process_time()
    code, out, err = run(capsys, "verify-lgv",
                         "--shape", ",".join(map(str, parts)),
                         "--max", str(bound))
    assert time.process_time() - started < 1
    assert (code, out) == (1, "")
    count = lgvlab.paths.count_families(
        lgvlab.paths.plane_partition_endpoints(parts, bound))
    assert count > 10**11
    assert (f"guard: path families: projected size {count} exceeds guard "
            f"limit") in err


def test_sweep_reaches_thirteen_rows(capsys):
    code, out, _ = run(capsys, "sweep", "--max-size", "13", "--max-bound", "0")
    assert code == 0
    assert json.loads(out)["results"] == {"instances": 373, "failures": 0}


def test_guard_limit_flag(capsys):
    code, _, err = run(capsys, "genfun", "--shape", "2,1", "--max", "2",
                       "--method", "brute-zeros", "--guard-limit", "3")
    assert code == 1
    assert "guard" in err


def test_guard_limit_env(capsys, monkeypatch):
    monkeypatch.setenv("LGVLAB_GUARD_LIMIT", "3")
    code, _, err = run(capsys, "genfun", "--shape", "2,1", "--max", "2",
                       "--method", "brute-zeros")
    assert code == 1
    assert "exceeds guard limit 3" in err


def test_guard_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("LGVLAB_GUARD_LIMIT", "3")
    code, _, _ = run(capsys, "genfun", "--shape", "2,1", "--max", "2",
                     "--method", "brute-zeros", "--guard-limit", "1000")
    assert code == 0


@pytest.mark.parametrize("method", ["brute-zeros", "det"])
@pytest.mark.parametrize("limit", ["-1", "-100"])
def test_negative_guard_limit_flag_is_usage_error(capsys, limit, method):
    code, out, err = run(capsys, "genfun", "--shape", "", "--max", "0",
                         "--method", method, "--guard-limit", limit)
    assert code == 2
    assert out == ""
    assert f"guard limit must be nonnegative, got {limit}" in err


def test_negative_guard_limit_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("LGVLAB_GUARD_LIMIT", "-1")
    code, out, err = run(capsys, "genfun", "--shape", "", "--max", "0",
                         "--method", "brute-zeros")
    assert code == 2
    assert out == ""
    assert "LGVLAB_GUARD_LIMIT must be nonnegative, got -1" in err
    code, out, _ = run(capsys, "verify-lgv", "--shape", "1", "--max", "1")
    assert (code, out) == (2, "")


def test_zero_guard_limit_stays_valid(capsys, monkeypatch):
    monkeypatch.setenv("LGVLAB_GUARD_LIMIT", "0")
    code, _, err = run(capsys, "genfun", "--shape", "", "--max", "0",
                       "--method", "brute-zeros")
    assert code == 1
    assert "exceeds guard limit 0" in err
    code, _, _ = run(capsys, "genfun", "--shape", "", "--max", "0",
                       "--method", "det", "--guard-limit", "0")
    assert code == 0


def _forbid(monkeypatch, *names):
    """Make each named function raise in every lgvlab module that holds it."""
    def forbidden(*args, **kwargs):
        raise AssertionError("an independent route consulted another one")
    for module_name, module in list(sys.modules.items()):
        if module_name == "lgvlab" or module_name.startswith("lgvlab."):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)


def test_brute_routes_never_call_a_determinant(capsys, monkeypatch):
    document = json.dumps({"shape": [2, 1], "max": 2, "rows": [[2, 1], [0]]})
    monkeypatch.setattr("sys.stdin", io.StringIO(document))
    _, expected_image, _ = run(capsys, "bijection")
    _forbid(monkeypatch, "det_division_free", "lgv_matrix",
            "refined_determinant")
    for method in ("brute-zeros", "brute-maxes"):
        code, out, _ = run(capsys, "genfun", "--shape", "2,1", "--max", "2",
                           "--method", method)
        assert code == 0
        assert json.loads(out) == {"var": "x", "coeffs": ["5", "6", "3"]}
    monkeypatch.setattr("sys.stdin", io.StringIO(document))
    code, out, _ = run(capsys, "bijection")
    assert code == 0
    assert out == expected_image


def test_determinant_routes_never_evaluate_a_polynomial_matrix(
        monkeypatch):
    # the refined determinant is n + 1 integer minors; the evaluate-and-
    # interpolate route is the tests' oracle, not the library's
    _forbid(monkeypatch, "det_division_free", "lgv_matrix")
    monkeypatch.setattr(PolyMatrix, "evaluate", lambda *args: pytest.fail(
        "a determinant route evaluated a polynomial matrix"))
    monkeypatch.delenv("LGVLAB_GUARD_LIMIT", raising=False)
    common = ["--shape", "3,2,1", "--max", "2"]
    for argv in (["verify-theorem1", *common],
                 ["genfun", *common, "--method", "det"]):
        got = line({"argv": argv})
        assert got.startswith("0 ")
        assert got in pinned()


def test_genfun_det_on_twenty_rows_within_a_tenth_of_a_second(capsys):
    # 21 integer minors of order 20 take about 19 ms of CPU time (16-23 ms
    # over 15 runs on 2 loaded cores, Python 3.11)
    started = time.process_time()
    code, out, _ = run(capsys, "genfun", "--shape", ",".join(["20"] * 20),
                       "--max", "10", "--method", "det")
    assert time.process_time() - started < 0.1
    assert code == 0
    assert sum(map(int, json.loads(out)["coeffs"])) == (
        lgvlab.objects.count_plane_partitions((20,) * 20, 10))


@pytest.mark.parametrize("argv", [
    ["genfun", "--shape", ",".join(["1"] * 400), "--max", "1",
     "--method", "det"],
    ["genfun", "--shape", ",".join(map(str, range(150, 0, -1))),
     "--max", "5", "--method", "det"],
    ["verify-theorem1", "--shape", ",".join(["1"] * 400), "--max", "1"],
], ids=["genfun-1^400", "genfun-staircase-150", "verify-theorem1-1^400"])
def test_determinant_routes_refuse_past_the_guard(capsys, monkeypatch, argv):
    # 1^400, m=1 projects 401 * 400^2 elimination steps and the 150-row
    # staircase, m=5, 151 * 150^2 * 5; unguarded they took 5.3 s and
    # 10.9 s of CPU time (2 cores, Python 3.11), while the tally of 1^400
    # takes about 12 ms
    monkeypatch.delenv("LGVLAB_GUARD_LIMIT", raising=False)
    started = time.process_time()
    code, out, err = run(capsys, *argv)
    assert time.process_time() - started < 0.1
    assert (code, out) == (1, "")
    assert err.startswith("guard: PP([")
    assert "determinant: projected size" in err
    assert "exceeds guard limit 10000000" in err


@pytest.mark.parametrize("method, code", [
    ("brute-zeros", 1), ("verify-theorem1", 1), ("det", 0)])
def test_counts_past_the_str_digit_limit_are_written_out(capsys, monkeypatch,
                                                          method, code):
    # C(20000, 10000), the count of PP([10000]; 10000), has 6,019 digits,
    # past CPython's default limit of 4,300 on int-to-str conversion; the
    # guard refuses the tally and names the count, the determinant answers
    monkeypatch.delenv("LGVLAB_GUARD_LIMIT", raising=False)
    common = ["--shape", "10000", "--max", "10000"]
    argv = (["verify-theorem1", *common] if method == "verify-theorem1"
            else ["genfun", *common, "--method", method])
    started = time.process_time()
    got, out, err = run(capsys, *argv)
    assert time.process_time() - started < 1
    assert got == code
    total, low = math.comb(20000, 10000), math.comb(19999, 10000)
    if code == 1:
        assert out == ""
        prefix = "guard: PP([10000]; 10000): projected size "
        suffix = " exceeds guard limit 10000000\n"
        assert err.startswith(prefix) and err.endswith(suffix)
        size = err[len(prefix):-len(suffix)]
        assert size.isdigit() and Decimal(size) == total
    else:
        poly = json.loads(out)
        coeffs = poly["coeffs"]
        assert list(poly) == ["var", "coeffs"] and poly["var"] == "x"
        assert all(c.isdigit() for c in coeffs)
        assert [Decimal(c) for c in coeffs] == [low, total - low]
        assert err == (f"genfun shape=(10000) max=10000 method=det: "
                       f"{coeffs[0]} + {coeffs[1]}*x\n")


_HUGE = str(10**20 - 1)  # past sys.maxsize, math.comb's index range

# Each call raised a traceback or ran past 20 s before it was mended: a
# line too long to build, a binomial past math.comb's range, or a long row
# transposed into columns.  Each now ends in its exit code, with its
# message; the time is this process's CPU time.
_ONCE_UNENDING = [
    (["verify-lgv", "--shape", _HUGE, "--max", "0"], 1,
     "guard: path family steps: projected size "),
    (["genfun", "--shape", _HUGE, "--max", _HUGE, "--method", "det"], 2,
     "error: binomial C("),
    (["genfun", "--shape", _HUGE, "--max", _HUGE, "--method",
      "brute-zeros"], 2, "error: binomial C("),
    (["verify-theorem1", "--shape", _HUGE, "--max", _HUGE], 2,
     "error: binomial C("),
    (["verify-lgv", "--shape", _HUGE, "--max", _HUGE], 2,
     "error: binomial C("),
    (["schur", "--shape", _HUGE, "--vars", _HUGE], 2, "error: binomial C("),
    (["verify-theorem1", "--shape", _HUGE, "--max", "0"], 0, "PASS "),
    (["verify-theorem1", "--shape", "100000000", "--max", "0"], 0, "PASS "),
    (["schur", "--shape", "5000000", "--vars", "2"], 1,
     "guard: SSYT([5000000]; 2): projected size 5000001 "),
    (["schur", "--shape", _HUGE, "--vars", "1"], 0, "schur shape="),
    (["schur", "--shape", _HUGE, "--vars", "2"], 1,
     f"guard: SSYT([{_HUGE}]; 2): projected size {10**20} "),
    (["schur", "--shape", _HUGE, "--vars", "2", "--perm", "2,1"], 1,
     f"guard: SSYT([{_HUGE}]; 2): projected size {10**20} "),
]


# each under --guard-limit 1000, and the slow ones also under their own
_ONCE_UNENDING_CALLS = [
    (argv + ["--guard-limit", "1000"], code, message)
    for argv, code, message in _ONCE_UNENDING] + [
    (["schur", "--shape", "5000000", "--vars", "2", "--guard-limit", "10"],
     1, "guard: SSYT([5000000]; 2): projected size 5000001 "),
    *((argv, code, message) for argv, code, message in _ONCE_UNENDING
      if argv[0] == "schur" and argv[2] == _HUGE and argv[4] != _HUGE)]


@pytest.mark.parametrize("argv, code, message", [
    pytest.param(*call, id=" ".join(call[0]))
    for call in _ONCE_UNENDING_CALLS])
def test_huge_inputs_end_in_an_exit_code(capsys, monkeypatch, argv, code,
                                         message):
    monkeypatch.delenv("LGVLAB_GUARD_LIMIT", raising=False)
    started = time.process_time()
    got, _, err = run(capsys, *argv)
    assert time.process_time() - started < 0.5
    assert got == code
    assert message in err and "Traceback" not in err


def test_genfun_det_reads_the_guard_limit(capsys, monkeypatch):
    # (2, 1), m=2 projects 3 * 2^2 * 2 = 24
    common = ["genfun", "--shape", "2,1", "--max", "2", "--method", "det"]
    code, _, err = run(capsys, *common, "--guard-limit", "23")
    assert code == 1
    assert "guard: PP([2, 1]; 2) determinant: projected size 24" in err
    monkeypatch.setenv("LGVLAB_GUARD_LIMIT", "23")
    assert run(capsys, *common)[0] == 1
    assert run(capsys, *common, "--guard-limit", "24")[0] == 0


def test_bijection_never_consults_a_generating_function(monkeypatch):
    _forbid(monkeypatch, "genfun_by_enumeration",
            "refined_genfuns_by_enumeration")
    pps = list(enumerate_plane_partitions(Partition([2, 1]), 2))
    images = [zero_to_max_map(pp) for pp in pps]
    assert [image.max_rows() for image in images] == [
        pp.zero_rows() for pp in pps]
    assert len(set(images)) == len(pps) == 14


def test_python_dash_m_runs_the_cli(capsys):
    # ``python -m lgvlab`` is the command line without an installed script
    code, expected, _ = run(capsys, "genfun", "--shape", "2,1", "--max", "2")
    src = str(pathlib.Path(lgvlab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-m", "lgvlab", "genfun", "--shape", "2,1",
         "--max", "2"], env=env, capture_output=True, text=True, timeout=60)
    assert (code, done.returncode) == (0, 0)
    assert done.stdout == expected


def _emitted(value) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(value)
    return out.getvalue()


_json_keys = (st.text() | st.integers() | st.floats() | st.booleans()
              | st.none())
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.integers(-10**400, 10**400) | st.floats() | st.just(-0.0)
    | st.text(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_json_keys, inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=400, deadline=None)
@given(_json_values)
def test_emit_writes_what_json_dumps_with_indent_writes(value):
    assert _emitted(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    [], {}, [[]], {"a": {}}, (), [(1, ()), {"b": [[], {}]}],
    {1: 2, 2.5: 3, False: 4, None: 5},
    {"nan": float("nan"), "inf": [float("inf"), -float("inf"), -0.0]},
    "\u00e9\x00\n\"\\\U0001f600",
])
def test_emit_on_edge_values(value):
    assert _emitted(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    {"a": {"b": Counter(x=2, y=1)}}, [[OrderedDict(z=[1, 2])]],
    1.5, float("nan"),
], ids=["Counter", "OrderedDict", "float", "nan"])
def test_emit_hands_other_types_to_the_stdlib(value):
    with pytest.raises(KeyError):
        _indented(value)
    assert _emitted(value) == json.dumps(value, indent=2) + "\n"


def _circular():
    value = []
    value.append(value)
    return value


def _outcome(write, value):
    try:
        return write(value)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("value", [
    {1, 2}, {(1, 2): 3}, [10**5000], _circular(),
], ids=["set", "tuple-key", "int-past-the-digit-limit", "circular"])
def test_emit_fails_where_json_dumps_fails(value):
    want = _outcome(lambda v: json.dumps(v, indent=2) + "\n", value)
    assert _outcome(_emitted, value) == want


def test_reports_skip_the_stdlib_indented_encoder(capsys, monkeypatch):
    # json.dumps(indent=2) runs the stdlib's pure-Python encoder, which
    # cost a fifth of the brute routes' time; a report must not reach it
    monkeypatch.delenv("LGVLAB_GUARD_LIMIT", raising=False)
    schur = ["schur", "--shape", "3,2,2,1", "--vars", "6"]
    _, expected, _ = run(capsys, *schur)

    def forbidden(*args, **kwargs):
        raise AssertionError("a report took the stdlib's indented encoder")
    monkeypatch.setattr(json.encoder, "_make_iterencode", forbidden)
    with pytest.raises(AssertionError):
        json.dumps([], indent=2)
    assert run(capsys, *schur)[:2] == (0, expected)
    stdin = json.dumps({"shape": [2, 2, 1], "max": 2,
                        "rows": [[2, 1], [1, 0], [0]]})
    common = ["--shape", "3,2,1", "--max", "2"]
    for case in ({"argv": ["verify-theorem1", *common]},
                 {"argv": ["genfun", *common, "--method", "det"]},
                 {"argv": ["bijection", "--trace"], "stdin": stdin}):
        got = line(case)
        assert got.startswith("0 ")
        assert got in pinned()
