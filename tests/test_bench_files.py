"""Every committed BENCH_*.json names the machine and the commits it compares."""
from __future__ import annotations

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = (("machine", "nproc"), ("machine", "numpy"), ("machine", "python"),
            ("commits", "parent"), ("commits", "change"))


def test_bench_files_record_machine_and_commits():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths, "no BENCH_*.json at the repository root"
    for path in paths:
        doc = json.loads(path.read_text(encoding="utf-8"))
        for section, key in REQUIRED:
            value = doc.get(section, {}).get(key)
            assert value not in (None, ""), f"{path.name}: no {section}.{key}"
        assert isinstance(doc["machine"]["nproc"], int), path.name
        assert doc["machine"]["nproc"] >= 1, path.name
        assert re.fullmatch(r"[0-9a-f]{7,40}", doc["commits"]["parent"]), (
            f"{path.name}: commits.parent is not a commit hash")
