"""Every report on the pinned grid of ``tests/golden_reports.py`` is the
one checked in to ``tests/golden_reports.txt``: its exit code, its JSON
output (key order kept, ``runtime_ms`` left out) and its stderr.  A
change that alters a line on purpose regenerates the file with
``PYTHONPATH=src python tests/golden_reports.py``.  The pinned digests
read the data only, so the test also checks that the command line writes
each report laid out as ``json.dumps(document, indent=2)`` plus a
newline."""

import json

from golden_reports import cases, line, pinned, run


def test_every_pinned_report_is_unchanged(monkeypatch):
    monkeypatch.delenv("LGVLAB_GUARD_LIMIT", raising=False)
    want = {text.split(" ", 3)[3]: text for text in pinned()}
    got, badly_laid_out = {}, []
    for case in cases():
        ran = run(case)
        out = ran[1]
        if "argv" in case and out and out != json.dumps(
                json.loads(out), indent=2) + "\n":
            badly_laid_out.append(case)
        text = line(case, ran)
        got[text.split(" ", 3)[3]] = text
    assert got.keys() == want.keys(), "the grid changed: regenerate the file"
    changed = [case for case, text in got.items() if want[case] != text]
    assert changed == [], f"{len(changed)} pinned lines changed: {changed[:5]}"
    assert badly_laid_out == [], (
        f"{len(badly_laid_out)} reports not laid out as json.dumps(indent=2): "
        f"{badly_laid_out[:5]}")
