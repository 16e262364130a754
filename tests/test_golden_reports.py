"""Every report on the pinned grid of ``tests/golden_reports.py`` is the
one checked in to ``tests/golden_reports.txt``: its exit code, its JSON
output (key order kept, ``runtime_ms`` left out) and its stderr.  A
change that alters a line on purpose regenerates the file with
``PYTHONPATH=src python tests/golden_reports.py``."""

from golden_reports import cases, line, pinned


def test_every_pinned_report_is_unchanged(monkeypatch):
    monkeypatch.delenv("LGVLAB_GUARD_LIMIT", raising=False)
    want = {text.split(" ", 3)[3]: text for text in pinned()}
    got = {text.split(" ", 3)[3]: text for text in map(line, cases())}
    assert got.keys() == want.keys(), "the grid changed: regenerate the file"
    changed = [case for case, text in got.items() if want[case] != text]
    assert changed == [], f"{len(changed)} pinned lines changed: {changed[:5]}"
