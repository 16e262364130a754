import io
import json
import sys

import pytest

from lgvlab.bijections import zero_to_max_map
from lgvlab.cli import main
from lgvlab.objects import Partition, enumerate_plane_partitions


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


def test_bijection_bad_json_is_input_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("{not json"))
    code, _, err = run(capsys, "bijection")
    assert code == 2
    assert "error" in err


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


def test_brute_route_on_a_1500_cell_row(capsys):
    code, out, _ = run(capsys, "genfun", "--shape", "1500", "--max", "1",
                       "--method", "brute-zeros")
    assert code == 0
    assert json.loads(out)["coeffs"] == ["1", "1500"]
    code, out, _ = run(capsys, "verify-theorem1", "--shape", "1500", "--max", "1")
    assert code == 0
    assert all(check["passed"] for check in json.loads(out)["checks"])


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
    _forbid(monkeypatch, "det_division_free", "lgv_matrix")
    for method in ("brute-zeros", "brute-maxes"):
        code, out, _ = run(capsys, "genfun", "--shape", "2,1", "--max", "2",
                           "--method", method)
        assert code == 0
        assert json.loads(out) == {"var": "x", "coeffs": ["5", "6", "3"]}
    monkeypatch.setattr("sys.stdin", io.StringIO(document))
    code, out, _ = run(capsys, "bijection")
    assert code == 0
    assert out == expected_image


def test_bijection_never_consults_a_generating_function(monkeypatch):
    _forbid(monkeypatch, "genfun_by_enumeration")
    pps = list(enumerate_plane_partitions(Partition([2, 1]), 2))
    images = [zero_to_max_map(pp) for pp in pps]
    assert [image.max_rows() for image in images] == [
        pp.zero_rows() for pp in pps]
    assert len(set(images)) == len(pps) == 14
