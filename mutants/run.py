"""Run the mutants of mutants.json against Tier-1 and report which survive.

    python mutants/run.py

Each mutant replaces the one occurrence of its `old` text in its file
with its `new` text.  The script copies the checkout's files as they
are in the working tree (tracked ones and untracked ones that git does
not ignore) into a fresh temporary directory per run, and runs Tier-1
there with -x, without acceptance criteria 2 and 3, the two tests on
the full default comparison, and without tests/test_mutants.py, which
every mutant fails, for at most TIMEOUT_S seconds.  It first
runs the unmutated copy: unless that passes, a failure would not show
that a mutant was caught, so every mutant is reported as "error".  Then
it applies each mutant to its own copy.  It prints one JSON object
mapping each mutant's ID to its outcome, "killed" (pytest failed),
"survived" (every test passed), "timeout" or "error" (pytest exited
with a usage or internal error), and to the first failing test's ID,
or null.  The checkout itself is never changed.  Standard library only;
not part of Tier-1, since one mutant takes about as long as Tier-1
without those two criteria.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).resolve().parent / "mutants.json"
SLOW = ("test_criterion_2_comparative_yield", "test_criterion_3_trials_accounting")
TIMEOUT_S = 600


def copy_checkout(dest: Path) -> None:
    listed = subprocess.run(
        ["git", "ls-files", "--cached", "--others", "--exclude-standard", "-z"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout.decode()
    for name in filter(None, listed.split("\0")):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def apply(tree: Path, mutant: dict) -> None:
    path = tree / mutant["file"]
    text = path.read_text(encoding="utf-8")
    if text.count(mutant["old"]) != 1:
        raise SystemExit(f"{mutant['id']}: old text must occur exactly once in {mutant['file']}")
    path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")


def run_tier1(mutant: dict | None) -> dict:
    """Outcome and first failing test of Tier-1 on a fresh copy, with `mutant` applied."""
    with tempfile.TemporaryDirectory(prefix="perfgan-mutant-") as tmp:
        tree = Path(tmp)
        copy_checkout(tree)
        if mutant is not None:
            apply(tree, mutant)
        # test_mutants.py fails under every mutant: its old text is gone
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
        for name in SLOW:
            cmd += ["--deselect", f"tests/test_acceptance.py::{name}"]
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"outcome": "timeout", "first_failure": None}
    # pytest's short summary: "FAILED <test id> - <message>" or "ERROR <test id>"
    failures = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in proc.stdout.splitlines()
                if line.startswith(("FAILED ", "ERROR "))]
    return {"outcome": {0: "survived", 1: "killed"}.get(proc.returncode, "error"),
            "first_failure": failures[0] if failures else None}


def main() -> int:
    mutants = json.loads(MUTANTS.read_text(encoding="utf-8"))
    baseline = run_tier1(None)
    if baseline["outcome"] != "survived":
        print(f"unmutated copy: {baseline}", file=sys.stderr)
        print(json.dumps({m["id"]: {**baseline, "outcome": "error"} for m in mutants}, indent=2))
        return 1
    outcomes = {}
    for mutant in mutants:
        outcomes[mutant["id"]] = run_tier1(mutant)
        print(f"{mutant['id']}: {outcomes[mutant['id']]}", file=sys.stderr)
    print(json.dumps(outcomes, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
