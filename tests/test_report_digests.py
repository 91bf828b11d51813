"""scripts/report_digests.py digests every report and compares two runs."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "report_digests.py"
spec = importlib.util.spec_from_file_location("report_digests", SCRIPT)
report_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_digests)


def test_one_seed_digests_and_compares_clean(tmp_path, capsys):
    assert report_digests.main(["--seeds", "1"]) == 0
    out = capsys.readouterr().out
    cases = json.loads(out)
    # four workloads at seed 1 (nbar-sweep writes three reports) and each
    # fixed call in both formats
    assert len(cases) == 6 + 2 * len(report_digests.CALLS)
    assert all(code == 0 and len(digest) == 64 for code, digest in cases.values())
    first = tmp_path / "first.json"
    first.write_text(out)
    assert report_digests.main(["--seeds", "1", "--compare", str(first)]) == 0
    assert "differs" not in capsys.readouterr().err


def test_names_each_differing_case():
    old = {"a": [0, "x"], "b": [0, "y"], "c": [1, None]}
    new = {"a": [0, "x"], "b": [0, "z"], "d": [0, "w"]}
    assert report_digests.differences(old, new) == ["b", "c", "d"]
