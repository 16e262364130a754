"""What the lgvlab benchmark measures, in one place.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 bench/spec.py`` rewrites it) and the smoke test checks that the
two agree.  The layer map and the known-defect list cannot live in
``BENCHMARK.json``, whose keys are fixed; they live here and every run
prints the parts that concern it.
"""

import json
from pathlib import Path

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 20

WORKLOADS = {
    "brute-identity":
        "verify-theorem1 and schur by exhaustive enumeration; objects does "
        "most of the work. Includes known defect deep-one-row (1000+ cell "
        "row raises RecursionError)",
    "det-route":
        "genfun --method det on 6-14 rows; algebra.det_division_free is "
        "nearly all the time, nothing is enumerated. Includes known defect "
        "det-over-12 (13+ rows refused)",
    "pingpong-map":
        "one zero_to_max_map or weight_permutation_map per op; paths, "
        "sijections and bijections do the work through long-tailed "
        "ping-pong, no set is enumerated",
    "signed-set-check":
        "verify-lgv, check_sijection and check_compatibility materialise "
        "whole signed family sets, run the Ryser guard and drive the "
        "composed sijection backward",
}

# (name, unit, better, bound).  The bound is the share of the parent's
# median by which a metric may worsen before a change is a regression.
# Times are divided by the machine's slowdown as calibration.py gauges it;
# ok_ops_frac stands in for the failed share, which is 0 on two workloads.
END_TO_END = [
    ("throughput_ops_s", "1/s", "higher", 0.2),
    ("op_p50_ms", "ms", "lower", 0.2),
    ("op_tail_ms", "ms", "lower", 0.24),
    ("ok_ops_frac", "ratio", "higher", 0.05),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

# (name, unit, better), measured by the traced run.
PER_LAYER = [
    ("objects.genfun_us_per_obj", "us", "lower"),
    ("objects.schur_us_per_obj", "us", "lower"),
    ("objects.pp_enumerated", "count", "higher"),
    ("objects.ssyt_enumerated", "count", "higher"),
    ("objects.count_closed_form_us", "us", "lower"),
    ("algebra.det_ms_per_call", "ms", "lower"),
    ("algebra.det_max_n", "count", "higher"),
    ("algebra.lgv_matrix_us", "us", "lower"),
    ("guards.refused", "count", "lower"),
    ("paths.pp_encode_us", "us", "lower"),
    ("paths.pp_decode_us", "us", "lower"),
    ("paths.ssyt_encode_us", "us", "lower"),
    ("paths.ssyt_decode_us", "us", "lower"),
    ("bijections.sijection_build_us", "us", "lower"),
    ("sijections.hops_mean", "count", "lower"),
    ("sijections.hops_max", "count", "lower"),
    ("sijections.us_per_hop", "us", "lower"),
    ("bijections.tail_swap_us", "us", "lower"),
    ("paths.families_enumerated", "count", "higher"),
    ("paths.enum_us_per_family", "us", "lower"),
    ("paths.count_families_ms", "ms", "lower"),
    ("paths.ni_share", "ratio", "higher"),
    ("sijections.check_sijection_ms", "ms", "lower"),
    ("sijections.check_compat_ms", "ms", "lower"),
    ("sijections.elements_checked", "count", "higher"),
    ("verify.self_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("cli.json_bytes", "bytes", "lower"),
]

# Which end-to-end metrics, on which workload, each layer metric should
# move.  Written down before measuring, as the basis for later claims.
LAYER_MAP = [
    {"layer": ["objects.genfun_us_per_obj", "objects.schur_us_per_obj",
               "objects.pp_enumerated", "objects.ssyt_enumerated",
               "objects.count_closed_form_us"],
     "moves": ["throughput_ops_s", "op_p50_ms"],
     "workload": ["brute-identity"]},
    {"layer": ["algebra.det_ms_per_call", "algebra.det_max_n",
               "algebra.lgv_matrix_us", "guards.refused"],
     "moves": ["throughput_ops_s", "op_tail_ms", "ok_ops_frac"],
     "workload": ["det-route"]},
    {"layer": ["paths.pp_encode_us", "paths.pp_decode_us",
               "paths.ssyt_encode_us", "paths.ssyt_decode_us",
               "bijections.sijection_build_us"],
     "moves": ["op_p50_ms"],
     "workload": ["pingpong-map"]},
    {"layer": ["sijections.hops_mean", "sijections.hops_max",
               "sijections.us_per_hop", "bijections.tail_swap_us"],
     "moves": ["op_tail_ms", "throughput_ops_s"],
     "workload": ["pingpong-map"],
     "note": "hop counts repeat exactly for a seed; a change that moves "
             "them has changed the bijection"},
    {"layer": ["paths.families_enumerated", "paths.enum_us_per_family",
               "paths.count_families_ms", "paths.ni_share"],
     "moves": ["throughput_ops_s", "peak_rss_mb"],
     "workload": ["signed-set-check"]},
    {"layer": ["sijections.check_sijection_ms", "sijections.check_compat_ms",
               "sijections.elements_checked"],
     "moves": ["throughput_ops_s", "op_tail_ms"],
     "workload": ["signed-set-check"]},
    {"layer": ["verify.self_ms", "cli.self_ms", "cli.json_bytes"],
     "moves": ["op_p50_ms"],
     "workload": ["brute-identity", "det-route"]},
]

# Inputs that fail at the commit that defined the benchmark.  An op on one
# of them passes its oracle either by failing in exactly the named way or,
# once the defect is fixed, by returning the right answer; either way it is
# not an unexpected failure.  Those that fail the named way lower
# ok_ops_frac, so the fix shows up as a rise to 1.
KNOWN_DEFECTS = {
    "deep-one-row": {
        "workload": "brute-identity",
        "inputs": "verify-theorem1 on a single row of 1000-1500 cells, "
                  "bound 0 or 1; one op in every thirteen",
        "symptom": "uncaught RecursionError from the recursive enumerator",
        "roadmap_item": 3,
    },
    "det-over-12": {
        "workload": "det-route",
        "inputs": "genfun --method det on shapes with 13 or 14 rows; two "
                  "ops in every fifteen",
        "symptom": "exit 1, 'determinant size: projected size 13 exceeds "
                   "guard limit 12'",
        "roadmap_item": 2,
    },
}

# Re-anchor figures from ROADMAP.md, printed beside the rows the traced
# run measures again.
ROADMAP_BASELINES = {
    "brute-genfun-5432-m4": "4.2 s for 321,048 objects, about 13 us per object",
    "zero-to-max-444-m4": "1.4 ms per element; hops 51 mean, 216 max on its "
                          "first N elements",
    "det-division-free-12x12": "0.26 s",
}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    target = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    target.write_text(render())
    print(f"wrote {target}")
