"""mutants/mutants.json stays appliable: each mutant names one place in src/.

`mutants/run.py` runs the mutants against Tier-1; this test only reads
files, so a refactor that moves or rewrites a mutated line fails here
instead of leaving the runner a mutant it cannot apply.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = json.loads((ROOT / "mutants" / "mutants.json").read_text(encoding="utf-8"))


def test_ids_are_distinct():
    ids = [m["id"] for m in MUTANTS]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["id"] for m in MUTANTS])
def test_old_text_occurs_once_and_differs_from_new(mutant):
    assert set(mutant) == {"id", "file", "old", "new", "why"}
    assert mutant["old"] != mutant["new"]
    text = (ROOT / mutant["file"]).read_text(encoding="utf-8")
    assert text.count(mutant["old"]) == 1
