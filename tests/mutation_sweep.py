"""Opt-in mutation sweep: plant one small fault at a time in one module
and report the faults that no test catches.

Usage (from the root of a checkout)::

    python tests/mutation_sweep.py src/lgvlab/verify.py
    python tests/mutation_sweep.py src/lgvlab/objects.py \\
        --function _row_tally --function _running_counts \\
        --tests tests/test_objects.py tests/test_mutants.py

Each mutant makes one change: it flips a comparison (``==`` and ``!=``,
``<`` and ``>=``, ``>`` and ``<=``, ``is`` and ``is not``, ``in`` and
``not in``), swaps ``and`` and ``or``, adds 1 to an int constant below
10, or swaps ``+`` and ``-``.  The change is spliced into the source text,
so the rest of the module keeps its bytes.  Every mutant runs the
``--tests`` subset in a copy of ``src``, ``tests``, ``demos`` and the
README, which a test reads, under a temporary directory; a survivor of
the subset then runs the whole of ``tests``.  A run that takes five times
as long as the unmutated one is stopped and counts as a kill.  A
survivor listed in ``EQUIVALENT`` is reported as accepted, with its
reason.  pytest does not collect this file: its name does not start
with ``test_``.  Only the standard library is used.
"""

import argparse
import ast
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
FAST = ["tests/test_verify.py", "tests/test_mutants.py",
        "tests/test_acceptance.py", "tests/test_golden_reports.py"]
FLIPS = {ast.Eq: "!=", ast.NotEq: "==", ast.Lt: ">=", ast.GtE: "<",
         ast.Gt: "<=", ast.LtE: ">", ast.Is: "is not", ast.IsNot: "is",
         ast.In: "not in", ast.NotIn: "in"}
WORDS = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.GtE: ">=",
         ast.Gt: ">", ast.LtE: "<=", ast.Is: "is", ast.IsNot: "is not",
         ast.In: "in", ast.NotIn: "not in"}

# (module, function, the line as written, original text, mutated text):
# why no test can tell the mutant from the module.  A line that is edited
# drops out of this list, so its mutants are looked at again.
EQUIVALENT = {
    ("verify.py", "verify_schur.misweighted", "want = [0] * varcount",
     "0", "1"):
        "every slot of want is overwritten before it is read",
    ("objects.py", "_running_counts", "for s in range(length + 1))", "1",
     "2"):
        "an outer count past length leaves its inner range empty",
    ("objects.py", "_row_tally",
     "uncut = operator.itemgetter(slice(0, 0), *tag)  # a group, cut unread",
     "0", "1"):
        "no step reads a first row's cut, so any cut gives the same steps",
    ("objects.py", "refined_genfuns_by_enumeration", "k = len(shape) + 1",
     "1", "2"):
        "any joint base above the row count keeps zeros and maxes apart",
    ("objects.py", "refined_genfuns_by_enumeration",
     "lambda counts: (counts[-1:] < (cells,)) + k * (counts[:1] != (0,)))",
     "+", "-"):
        "a one-row shape has k = 2, and maxes[-1] is maxes[1]",
    ("objects.py", "schur_by_enumeration",
     "base = 256 if byte else cells + 1", "1", "2"):
        "any base above the cell count keeps the exponents apart",
    ("bijections.py", "_ping_pong", "elif hops > 1:", "1", "2"):
        "the test is reached only at odd hop counts, where > 1 and > 2 agree",
    ("bijections.py", "_ping_pong", "landing = (hops & 2, sign, family)",
     "2", "3"):
        "the sign is + just at hops 1 and 2 mod 4, so it and hops & 2 "
        "give hops & 3",
    ("bijections.py", "_ping_pong", "if hops & (hops - 1) == 0:", "1", "2"):
        "it saves no landing at hop 1, which is only compared with hop 2's, "
        "in the other copy",
}


def _offsets(source: bytes):
    """A function from an ast (line, column) pair, columns in UTF-8 bytes
    as ast gives them, to an offset into ``source``."""
    starts, at = [0], 0
    for line in source.splitlines(keepends=True):
        at += len(line)
        starts.append(at)
    return lambda line, col: starts[line - 1] + col


def _functions(tree):
    """Each node of ``tree`` with the qualified name of the innermost
    function around it, or "" at module level.  The inside of an f-string
    is skipped: before Python 3.12 its nodes carry no true positions."""
    pending = [(tree, "")]
    while pending:
        node, name = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{name}.{node.name}" if name else node.name
        yield node, name
        if not isinstance(node, ast.JoinedStr):
            pending += [(child, name) for child in ast.iter_child_nodes(node)]


def mutants(source: bytes, only=()):
    """Yield ``(function, line, old, new, mutated source)`` for each one
    change, in the functions named in ``only`` (by qualified name or its
    first part) when it is given."""
    at = _offsets(source)
    for node, function in _functions(ast.parse(source)):
        if only and not {function, function.split(".")[0]} & set(only):
            continue
        spans = []  # (left, right, operator, its flip), operator between
        if isinstance(node, ast.Compare):
            left = node.left
            for op, right in zip(node.ops, node.comparators):
                spans.append((left, right, WORDS[type(op)], FLIPS[type(op)]))
                left = right
        elif isinstance(node, ast.BoolOp):
            word = "and" if isinstance(node.op, ast.And) else "or"
            other = "or" if word == "and" else "and"
            spans += [(a, b, word, other)
                      for a, b in zip(node.values, node.values[1:])]
        elif (isinstance(node, ast.BinOp)
              and isinstance(node.op, (ast.Add, ast.Sub))):
            word = "+" if isinstance(node.op, ast.Add) else "-"
            spans.append((node.left, node.right, word,
                          "-" if word == "+" else "+"))
        elif (isinstance(node, ast.Constant) and type(node.value) is int
              and 0 <= node.value < 10):
            start = at(node.lineno, node.col_offset)
            end = at(node.end_lineno, node.end_col_offset)
            old = source[start:end]
            new = str(node.value + 1).encode()
            yield (function, node.lineno, old.decode(), new.decode(),
                   source[:start] + new + source[end:])
            continue
        for left, right, word, new in spans:
            start = at(left.end_lineno, left.end_col_offset)
            end = at(right.lineno, right.col_offset)
            gap = source[start:end].decode()
            if gap.count(word) != 1:
                continue  # a comment in the gap names the operator too
            mutated = gap.replace(word, new, 1).encode()
            yield (function, left.end_lineno, word, new,
                   source[:start] + mutated + source[end:])


def _run(copy: pathlib.Path, tests, timeout: float) -> bool:
    """Whether the tests pass in ``copy`` within ``timeout`` seconds; a
    run that takes longer, as a mutant that loops forever does, fails."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *tests], cwd=copy, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("module",
                        help="a module path, e.g. src/lgvlab/verify.py")
    parser.add_argument("--function", action="append", default=[],
                        help="only mutate this function (repeatable)")
    parser.add_argument("--tests", nargs="+", default=FAST,
                        help="the fast subset each mutant runs first")
    args = parser.parse_args(argv)
    module = pathlib.Path(args.module)
    original = (ROOT / module).read_bytes()
    lines = original.decode().splitlines()
    started = time.perf_counter()
    outcomes = {"killed": 0, "SURVIVED": 0, "accepted": 0}
    with tempfile.TemporaryDirectory(prefix="mutation-sweep-") as scratch:
        copy = pathlib.Path(scratch)
        for part in ("src", "tests", "demos", "pyproject.toml",
                     "README.md"):
            source = ROOT / part
            if source.is_dir():
                shutil.copytree(source, copy / part,
                                ignore=shutil.ignore_patterns(
                                    "__pycache__", ".hypothesis"))
            else:
                shutil.copy(source, copy / part)
        target = copy / module
        # each run may take five times as long as the unmutated one
        limits = []
        for tests in (args.tests, ["tests"]):
            begun = time.perf_counter()
            if not _run(copy, tests, None):
                print(f"the unmutated module fails {' '.join(tests)}")
                return 2
            limits.append(5 * (time.perf_counter() - begun) + 10)
        for function, line, old, new, mutated in sorted(
                mutants(original, tuple(args.function)),
                key=lambda mutant: mutant[1]):
            try:
                compile(mutated, str(module), "exec")
            except SyntaxError:
                continue
            target.write_bytes(mutated)
            try:
                outcome = "killed"
                if (_run(copy, args.tests, limits[0])
                        and _run(copy, ["tests"], limits[1])):
                    written = lines[line - 1].strip()
                    key = (module.name, function, written, old, new)
                    outcome = "accepted" if key in EQUIVALENT else "SURVIVED"
            finally:
                target.write_bytes(original)
            outcomes[outcome] += 1
            reason = f" ({EQUIVALENT[key]})" if outcome == "accepted" else ""
            print(f"{outcome} {module}:{line} {function}: {old} -> {new}"
                  f"{reason}", flush=True)
    print(f"{module}: {sum(outcomes.values())} mutants, "
          f"{outcomes['SURVIVED']} survived, {outcomes['accepted']} accepted "
          f"as equivalent, {time.perf_counter() - started:.0f} s")
    return 1 if outcomes["SURVIVED"] else 0


if __name__ == "__main__":
    sys.exit(main())
