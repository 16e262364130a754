"""The README's quick tour and command lines give what it says they give."""

import ast
import io
import json
import pathlib
import shlex

from lgvlab.cli import main

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, language: str) -> str:
    """The first fenced ``language`` block after ``heading``."""
    after = README[README.index(f"\n{heading}\n"):]
    fence = f"```{language}\n"
    start = after.index(fence) + len(fence)
    return after[start:after.index("```", start)]


def test_the_quick_tour_gives_its_documented_results():
    # each expression line's comment is its result, as a repr, or a
    # pointer to the polynomial of the first line
    source = _block("## Library quick tour", "python")
    lines = source.splitlines()
    namespace, shown = {}, []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README", "eval"),
                         namespace)
            comment = lines[node.end_lineno - 1].partition("#")[2].strip()
            shown.append((value, comment))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    (zeros, said), (maxes, _), (both, _), (det, _), (oracle, _) = shown[:5]
    assert said == "UniPoly(5 + 6*x + 3*x^2)"
    assert [repr(poly) for poly in (zeros, maxes, *both, det, oracle)] == (
        [said] * 6)
    (image, said), = shown[5:]
    assert said == "PlanePartition([2, 1], 2, [[1, 1], [0]])"
    assert repr(image) == said
    assert namespace["image"] == image
    trace = namespace["trace"]
    assert trace["input"] == namespace["pp"].to_json()
    assert trace["output"] == image.to_json()
    assert trace["steps"][0]["set"] == "source"
    assert trace["steps"][-1]["set"] == "target"


def test_each_command_line_exits_zero(capsys, monkeypatch):
    commands = [line.partition("#")[0].strip()
                for line in _block("## Command line", "sh").splitlines()]
    assert len(commands) == 7
    for command in commands:
        stdin = ""
        if "|" in command:
            feed, command = command.split("|")
            (stdin,) = shlex.split(feed)[1:]
        argv = shlex.split(command)
        assert argv[0] == "lgvlab"
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        assert main(argv[1:]) == 0, command
        json.loads(capsys.readouterr().out)
