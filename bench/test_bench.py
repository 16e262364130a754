"""Smoke test of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

Checks ``BENCHMARK.json`` against ``spec.py`` and the benchmark contract,
runs every workload for a second plainly and traced, checks that every
oracle rejects a corrupted output, that every traced replay reproduces
its op, and that the benchmark refuses to run without the lgvlab sources.
"""

import copy
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from lgvlab.objects import Partition, enumerate_plane_partitions  # noqa: E402

import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def test_benchmark_json_is_generated_from_spec():
    assert (ROOT / "BENCHMARK.json").read_text() == spec.render()


def test_benchmark_json_meets_the_contract():
    data = spec.benchmark_json()
    assert list(data) == ["command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"]
    assert 1 <= len(data["paths"]) <= 16
    for path in data["paths"]:
        assert PATH.fullmatch(path) and not path.startswith("/")
        assert ".." not in path.split("/") and (ROOT / path).is_dir()
    assert len(data["command"]) <= 32
    for word in data["command"]:
        assert len(word) <= 200 and not word.startswith("/")
        assert ".." not in word.split("/")
    assert isinstance(data["run_seconds"], int) and 1 <= data["run_seconds"] <= 60
    assert 2 <= len(data["workloads"]) <= 8
    for workload in data["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(data["end_to_end"]) <= 16
    for metric in data["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    largest = max(m["bound"] for m in data["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": largest} in data["end_to_end"]
    assert 1 <= len(data["per_layer"]) <= 128
    for metric in data["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    metrics = data["end_to_end"] + data["per_layer"]
    names = [m["name"] for m in data["workloads"] + metrics]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    assert len(json.dumps(data)) <= 64 * 1024


def test_layer_map_and_defects_name_real_metrics_and_workloads():
    layers = {name for name, _, _ in spec.PER_LAYER}
    ends = {name for name, *_ in spec.END_TO_END}
    mapped = [name for row in spec.LAYER_MAP for name in row["layer"]]
    assert sorted(mapped) == sorted(layers)
    for row in spec.LAYER_MAP:
        assert set(row["moves"]) <= ends
        assert set(row["workload"]) <= set(spec.WORKLOADS)
    for name, info in spec.KNOWN_DEFECTS.items():
        assert info["workload"] in spec.WORKLOADS
        assert name in spec.WORKLOADS[info["workload"]]


def _run(args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_workload_reports_every_metric(workload, trace):
    proc = _run(["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result, report = json.loads(result_line), json.loads(report_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    table = spec.PER_LAYER if trace else spec.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {row[0]: row[1] for row in table}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    for name in report["ops"]["known_defects"]:
        assert spec.KNOWN_DEFECTS[name]["workload"] == workload
    assert report["guard"]["LGVLAB_GUARD_LIMIT"] == "unset"
    assert {"commit", "python", "nproc", "tracing_overhead"} <= set(report)
    assert len(report["digest"]["sha256"]) == 64
    if trace:
        assert (ROOT / report["spans_file"]).is_file()
        assert all(row["correct"] for row in report["roadmap_baselines"])


def test_same_seed_same_inputs():
    for generate in workloads.GENERATORS.values():
        first = [op.key for op in generate(random.Random(3))]
        assert first == [op.key for op in generate(random.Random(3))]
        assert first != [op.key for op in generate(random.Random(4))]


def _bump(poly):
    poly = copy.deepcopy(poly)
    if "coeffs" in poly:
        poly["coeffs"][0] = str(int(poly["coeffs"][0]) + 1)
    else:
        poly["terms"][0]["coef"] = str(int(poly["terms"][0]["coef"]) + 1)
    return poly


def _corrupt(op, ans):
    bad = copy.deepcopy(ans)
    if op.kind == "verify-theorem1":
        wrong = _bump(ans["results"]["zeros"])
        for key in ("zeros", "maxes", "determinant"):
            bad["results"][key] = wrong
    elif op.kind in ("genfun-det", "schur"):
        bad["poly"] = _bump(ans["poly"])
    elif op.kind == "verify-lgv":
        bad["results"]["families"] += 1
    elif op.kind == "zero-to-max-map":
        bad["rows"] = [[0] * len(row) for row in ans["rows"]]
    elif op.kind == "weight-permutation-map":
        bad["rows"] = [[1] * len(ans["rows"][0])] + ans["rows"][1:]
    else:
        bad = ["forward is not injective"]
    return bad


ALL_KINDS = workloads.probe_ops()


@pytest.mark.parametrize("op", [op for op in ALL_KINDS if op.defect is None],
                         ids=lambda op: op.kind)
def test_oracle_rejects_corrupted_output(op):
    ans = workloads.answer(op, workloads.call(op))
    assert workloads.oracle(op, ans) is None
    assert workloads.oracle(op, _corrupt(op, ans)) is not None


def test_checker_rejects_shared_images_and_changed_answers():
    pps = [pp for pp in enumerate_plane_partitions(Partition((2, 2)), 2)
           if pp.zero_rows() == 1]
    one, two = workloads.pp_map_op(pps[0]), workloads.pp_map_op(pps[1])
    checker = workloads.Checker()
    image = workloads.call(one)
    assert checker.judge(one, image, None)[0] == "ok"
    assert checker.judge(two, image, None)[0] == "wrong"
    assert checker.judge(one, workloads.call(two), None)[0] == "wrong"


def test_known_defects_are_recognised():
    deep = workloads.theorem1_op((1100,), 1, defect="deep-one-row")
    tall = workloads.genfun_det_op((1,) * 13, 1)
    for op in (deep, tall):
        try:
            raw, exc = workloads.call(op), None
        except RecursionError as error:
            raw, exc = None, error
        assert workloads.Checker().judge(op, raw, exc)[0] in ("defect", "ok")


def _outcome(op, perform):
    try:
        raw = perform()
    except RecursionError:
        return "RecursionError"
    if op.kind in workloads.CLI_KINDS:
        rc, out, err = raw
        data = json.loads(out) if out else err
        if isinstance(data, dict):
            data.pop("runtime_ms", None)
        return rc, data
    return workloads.answer(op, raw)


@pytest.mark.parametrize("op", ALL_KINDS, ids=lambda op: op.key)
def test_replay_reproduces_the_op(op):
    plain = _outcome(op, lambda: workloads.call(op))
    traced = _outcome(op, lambda: workloads.replay(op, tracing.Tracer())[0])
    assert plain == traced


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = _run(["--workload", "det-route", "--seed", "1", "--seconds", "1"],
                cwd=tmp_path, env=env)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
