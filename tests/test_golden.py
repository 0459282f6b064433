"""Each golden run writes exactly the reports and CSV files recorded under
tests/golden/, the report's timestamp aside (tests/record_golden.py)."""

import pytest

from record_golden import GOLDEN, RUNS, golden_name, outputs


@pytest.mark.parametrize("name, subcommand, cfg, extra", RUNS, ids=[run[0] for run in RUNS])
def test_reports_match_the_golden_copies(tmp_path, name, subcommand, cfg, extra):
    _, files = outputs(subcommand, cfg, extra, tmp_path)
    recorded = sorted(path.name for path in GOLDEN.glob(f"{name}.*"))
    assert sorted(golden_name(name, file_name) for file_name in files) == recorded
    for file_name, text in files.items():
        assert text == (GOLDEN / golden_name(name, file_name)).read_text(), file_name
