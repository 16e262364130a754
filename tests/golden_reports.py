"""The pinned report grid: every case, how to run it, and its pinned line.

    PYTHONPATH=src python tests/golden_reports.py

rewrites ``tests/golden_reports.txt``, one line per case::

    <exit code> <stdout digest> <stderr digest> <case as JSON>

A case is a CLI argv (with the text it reads on stdin, if any, or
``nested`` opening brackets) run through
``lgvlab.cli.main`` in-process, or a library report (``verify_bijection``
has no subcommand).  The stdout digest is a sha256 prefix of the JSON it
printed, parsed and written again compactly with its key order kept and
the top-level ``runtime_ms`` removed; the stderr digest is one of stderr
with every ``<n> ms`` figure masked.  ``tests/test_golden_reports.py``
runs every case again and compares its line.  A change that alters a
pinned line on purpose regenerates the file and says which lines changed
and why.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
from pathlib import Path

from lgvlab.cli import main
from lgvlab.objects import Partition, enumerate_partitions, enumerate_plane_partitions
from lgvlab.verify import report_passed, verify_bijection

GOLDEN = Path(__file__).with_name("golden_reports.txt")

# the (4,4,4), m=4 element whose orbit takes 215 hops
_LONG_ORBIT = json.dumps({"shape": [4, 4, 4], "max": 4,
                          "rows": [[4, 4, 4, 4], [4, 4, 4, 2], [1, 1, 1, 1]]})

_REFUSALS = [
    {"argv": ["verify-lgv", "--shape", ",".join(["2"] * 24), "--max", "2"]},
    {"argv": ["sweep", "--max-size", "100", "--max-bound", "2"]},
    {"argv": ["bijection", "--guard-limit", "100"], "stdin": _LONG_ORBIT},
    {"argv": ["bijection", "--trace", "--guard-limit", "214"],
     "stdin": _LONG_ORBIT},
    {"argv": ["bijection", "--guard-limit", "215"], "stdin": _LONG_ORBIT},
    {"argv": ["verify-theorem1", "--shape", "3,2", "--max", "2",
              "--guard-limit", "5"]},
    {"argv": ["schur", "--shape", "3,2", "--vars", "3", "--perm", "3,2,1",
              "--guard-limit", "3"]},
    {"argv": ["schur", "--shape", "1", "--vars", "20", "--guard-limit", "100"]},
    {"argv": ["schur", "--shape", "1", "--vars", "5", "--perm", "5,4,3,2,1",
              "--guard-limit", "100"]},
]

_BAD_INPUTS = [
    {"argv": []},
    {"argv": ["genfun", "--shape", "2,3", "--max", "1"]},
    {"argv": ["genfun", "--shape", "2,1", "--max", "-1"]},
    {"argv": ["verify-theorem1", "--shape", "a", "--max", "1"]},
    {"argv": ["verify-lgv", "--shape", "2,1", "--max", "1",
              "--guard-limit", "-5"]},
    {"argv": ["schur", "--shape", "2,1", "--vars", "0"]},
    {"argv": ["schur", "--shape", "2,1", "--vars", "3", "--perm", "1,2"]},
    {"argv": ["schur", "--shape", "2,1", "--vars", "2", "--perm", "1,1"]},
    {"argv": ["schur", "--shape", "2,1", "--vars", "-1", "--perm", "1"]},
    {"argv": ["sweep", "--max-size", "3", "--max-bound", "-1"]},
    {"argv": ["bijection"], "stdin": "{not json"},
    {"argv": ["bijection"], "nested": 100_000},
    {"argv": ["bijection"],
     "stdin": json.dumps({"shape": [2, 1], "max": 2, "rows": [[1, 2], [0]]})},
    {"argv": ["bijection"],
     "stdin": json.dumps({"shape": [2, 1], "max": 1, "rows": [[1, 0], [2]]})},
    {"argv": ["bijection", "no-such-input.json"]},
]


def _csv(shape: Partition) -> str:
    return ",".join(map(str, shape.parts))


def cases() -> list[dict]:
    """Every pinned case, in file order."""
    found = []
    for shape in enumerate_partitions(7):
        for bound in range(4):
            common = ["--shape", _csv(shape), "--max", str(bound)]
            found.append({"argv": ["verify-theorem1", *common]})
            for method in ("det", "brute-zeros", "brute-maxes"):
                found.append({"argv": ["genfun", *common, "--method", method]})
            found.append({"library": "verify_bijection",
                          "args": [list(shape.parts), bound]})
            if bound <= 2:
                found.append({"argv": ["verify-lgv", *common]})
        for varcount in range(1, 4):
            found.append({"argv": [
                "schur", "--shape", _csv(shape), "--vars", str(varcount)]})
            perms = [range(varcount, 0, -1)]
            if varcount == 3:
                perms.append((2, 3, 1))
            for perm in perms:
                found.append({"argv": [
                    "schur", "--shape", _csv(shape), "--vars", str(varcount),
                    "--perm", ",".join(map(str, perm))]})
    found.append({"argv": ["sweep", "--max-size", "5", "--max-bound", "2"]})
    for shape in enumerate_partitions(5):
        for bound in range(3):
            for pp in enumerate_plane_partitions(shape, bound):
                stdin = json.dumps(pp.to_json())
                found.append({"argv": ["bijection"], "stdin": stdin})
                found.append({"argv": ["bijection", "--trace"], "stdin": stdin})
    return found + _REFUSALS + _BAD_INPUTS


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _stdout_digest(out: str) -> str:
    if not out:
        return _digest("")
    data = json.loads(out)
    if isinstance(data, dict):
        data.pop("runtime_ms", None)
    return _digest(json.dumps(data, separators=(",", ":")))


def run(case: dict) -> tuple[int, str, str]:
    """Run one case; returns its exit code, stdout and stderr."""
    if "library" in case:
        report = verify_bijection(*case["args"])
        return (0 if report_passed(report) else 1), json.dumps(report), ""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(case.get("stdin", "[" * case.get("nested", 0)))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(case["argv"])
            except SystemExit as exc:  # argparse refuses with exit 2
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def line(case: dict, ran: tuple[int, str, str] | None = None) -> str:
    """The pinned line of one case, from what ``run(case)`` returned if
    ``ran`` is given."""
    code, out, err = run(case) if ran is None else ran
    err = re.sub(r"\b\d+ ms\b", "<n> ms", err)
    return (f"{code} {_stdout_digest(out)} {_digest(err)} "
            f"{json.dumps(case, separators=(',', ':'))}")


def pinned() -> list[str]:
    """The checked-in lines."""
    return GOLDEN.read_text().splitlines()


def regenerate() -> None:
    saved = os.environ.pop("LGVLAB_GUARD_LIMIT", None)
    try:
        GOLDEN.write_text("".join(line(case) + "\n" for case in cases()))
    finally:
        if saved is not None:
            os.environ["LGVLAB_GUARD_LIMIT"] = saved


if __name__ == "__main__":
    regenerate()
