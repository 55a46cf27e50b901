"""List the src/ statements that Tier-1 never executes.

    python mutants/reach.py

The script copies the checkout the way `run.py` does and runs Tier-1
there, without acceptance criteria 2 and 3 (the two tests on the full
default comparison).  A temporary `sitecustomize.py` on PYTHONPATH
installs a line tracer in every Python process that starts, so tests
that run perfgan in a subprocess (the demos, the pytest-config probe)
count too; each process writes the src/ lines it ran when it exits.
The statements come from `ast`; docstrings and other constant
expressions (which compile to no code), `def` and `class` lines,
imports, `global` and `nonlocal` are left out.  A compound statement
counts as run when a line of its header ran, a simple one when any of
its lines ran.  Prints `file:line  source` for each statement that
never ran.  Exits 1, printing pytest's output, unless Tier-1 passes.
The checkout itself is never changed.  Standard library only; not part
of Tier-1, since the traced run takes about twice as long as Tier-1
without those two criteria.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from run import ROOT, SLOW, copy_checkout

SITECUSTOMIZE = '''
import atexit, os, sys, threading

_src = os.environ["PERFGAN_REACH_SRC"]
_seen = set()


def _line(frame, event, arg):
    if event == "line":
        _seen.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    # a local tracer only for frames of src/: other code runs untraced
    return _line if frame.f_code.co_filename.startswith(_src) else None


@atexit.register
def _dump():
    sys.settrace(None)
    path = os.path.join(os.environ["PERFGAN_REACH_OUT"], f"{os.getpid()}.lines")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{name}\\t{line}\\n" for name, line in _seen)


sys.settrace(_call)
threading.settrace(_call)
'''

# statements that compile to no line of their own
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
           ast.Global, ast.Nonlocal)


def statements(path: Path) -> list[tuple[int, range]]:
    """(line, lines that run it) for each statement of the module at `path`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring or `...`
        body = getattr(node, "body", None)
        end = body[0].lineno if body else node.end_lineno + 1
        found.append((node.lineno, range(node.lineno, end)))
    return sorted(found)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="perfgan-reach-") as tmp:
        tree, hooks, out = (Path(tmp, name) for name in ("tree", "hooks", "out"))
        for d in (tree, hooks, out):
            d.mkdir()
        tree = tree.resolve()
        copy_checkout(tree)
        (hooks / "sitecustomize.py").write_text(SITECUSTOMIZE, encoding="utf-8")
        src = tree / "src"
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               "--continue-on-collection-errors"]
        for name in SLOW:
            cmd += ["--deselect", f"tests/test_acceptance.py::{name}"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(hooks)]),
                   PYTHONDONTWRITEBYTECODE="1", PERFGAN_REACH_SRC=str(src / "perfgan"),
                   PERFGAN_REACH_OUT=str(out))
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        seen = set()
        for dump in out.iterdir():
            for entry in dump.read_text(encoding="utf-8").splitlines():
                name, line = entry.rsplit("\t", 1)
                seen.add((str(Path(name).resolve().relative_to(tree)), int(line)))
    for path in sorted((ROOT / "src").rglob("*.py")):
        name = str(path.relative_to(ROOT))
        source = path.read_text(encoding="utf-8").splitlines()
        for line, lines in statements(path):
            if not any((name, n) in seen for n in lines):
                print(f"{name}:{line}  {source[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
