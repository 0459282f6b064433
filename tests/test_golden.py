"""Each golden run writes exactly the reports and CSV files recorded under
tests/golden/, the report's timestamp aside (tests/record_golden.py), and
every file there belongs to a run."""

import json

import pytest

from record_golden import GOLDEN, RUNS, SRC, golden_name, outputs


def _first_json_difference(old, new, path="$"):
    """(path, old value, new value) of the first difference in document
    order, or None when the two are equal."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            if key not in old or key not in new:
                return f"{path}.{key}", old.get(key, "<absent>"), new.get(key, "<absent>")
            found = _first_json_difference(old[key], new[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(old, list) and isinstance(new, list):
        for k, (a, b) in enumerate(zip(old, new)):
            found = _first_json_difference(a, b, f"{path}[{k}]")
            if found:
                return found
        if len(old) != len(new):
            return f"{path} length", len(old), len(new)
        return None
    # NaN is written for undefined z scores, and equals itself here
    same = type(old) is type(new) and (old == new or old != old and new != new)
    return None if same else (path, old, new)


def first_difference(file_name, recorded, written):
    """Where a written file first departs from its golden copy: the JSON path
    with its recorded and written values, or the first differing line."""
    if file_name.endswith(".json"):
        found = _first_json_difference(json.loads(recorded), json.loads(written))
        if found:
            path, old, new = found
            return f"{file_name}: {path} recorded {old!r}, written {new!r}"
    old_lines, new_lines = recorded.splitlines(), written.splitlines()
    for k, (a, b) in enumerate(zip(old_lines, new_lines), start=1):
        if a != b:
            return f"{file_name}: line {k} recorded {a!r}, written {b!r}"
    return f"{file_name}: {len(old_lines)} lines recorded, {len(new_lines)} written"


def test_first_difference_names_the_json_path_or_the_line():
    old = json.dumps({"checks": [{"mean": 0.5, "name": "a"}], "seed": 1})
    new = json.dumps({"checks": [{"mean": 0.25, "name": "a"}], "seed": 1})
    assert first_difference("report.json", old, new) == (
        "report.json: $.checks[0].mean recorded 0.5, written 0.25"
    )
    assert first_difference("c.csv", "site,0\n0,1.0\n", "site,0\n0,2.0\n") == (
        "c.csv: line 2 recorded '0,1.0', written '0,2.0'"
    )
    assert first_difference("c.csv", "a\n", "a\nb\n") == "c.csv: 1 lines recorded, 2 written"


@pytest.mark.parametrize("name, subcommand, cfg, extra", RUNS, ids=[run[0] for run in RUNS])
def test_reports_match_the_golden_copies(tmp_path, name, subcommand, cfg, extra):
    _, files = outputs(subcommand, cfg, extra, tmp_path, SRC)
    recorded = sorted(path.name for path in GOLDEN.glob(f"{name}.*"))
    assert sorted(golden_name(name, file_name) for file_name in files) == recorded
    for file_name, text in files.items():
        golden = (GOLDEN / golden_name(name, file_name)).read_text()
        if text != golden:
            pytest.fail(first_difference(file_name, golden, text), pytrace=False)


def stale_goldens(directory=GOLDEN):
    """Files under `directory` that no run in RUNS writes, and so that no
    test reads."""
    names = {run[0] for run in RUNS}
    return sorted(p.name for p in directory.iterdir() if p.name.split(".", 1)[0] not in names)


def test_every_golden_file_belongs_to_a_run(tmp_path):
    assert stale_goldens() == []
    (tmp_path / "bounds_mc.report.json").touch()
    (tmp_path / "bounds_mc_retired.report.json").touch()
    assert stale_goldens(tmp_path) == ["bounds_mc_retired.report.json"]
