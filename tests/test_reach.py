"""What the `perfgan` commands reach is the package.

One subprocess installs a profiler before `import perfgan`, so calls made
at import count too (the checks of the module-level network topologies),
then runs `compare`, `run --algorithm ogan` and `oracle` through
`cli.main` on a small config that reaches calibration, all three
algorithms, the stall guard's fallback and the oracle.  Every `def` in
`src/perfgan/*.py` that no command calls must be an entry of `UNREACHED`,
with the reason it is kept.  A new function that nothing reaches fails
here until it is wired in, listed or deleted, and so does a listed one
that a command starts to call.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "perfgan"

# "<module>.<qualified name>" -> why it stays although no command calls it
UNREACHED = {
    "nn.backward": "acceptance criterion 4 checks its gradients",
    "nn.rmsprop_step": "acceptance criterion 4 steps RMSprop through it",
    "nn.loss_mse": "acceptance criterion 6 measures the discriminator's error",
    "gan.train_discriminator": "acceptance criteria 5 and 6 train one phase",
    "gan.train_generator": "acceptance criteria 5 and 6 train one phase",
    "space.default_space": "acceptance criteria 1, 5, 6 and 7 build the paper's space",
    "space.enumerate_inputs": "acceptance criterion 5 round-trips every input",
    "space.rank": "acceptance criterion 5 round-trips every input",
    "generators.TestSuite.records": "acceptance criteria 3 and 5 read the records",
    "sut.oracle_positive_set": "reference check: tests and perfbench's record check",
    "sut.SyntheticSut.power_grid": "reference check: oracle_positive_set and the tests",
    "nn.Trace.backward": "reference check: nn.backward and the gradient tests",
    "nn.NetworkState.__reduce__": "protocol: pickling and deep-copying a network",
    "sut.SutInterface.measure": "protocol: the stub a system under test implements",
}

CONFIG = {
    "space": [
        {"name": "big_cpus", "levels": [0, 2, 4]},
        {"name": "big_freq", "levels": [500, 2000]},
        {"name": "big_util", "levels": [0.5, 1.0]},
        {"name": "little_cpus", "levels": [0, 4]},
        {"name": "little_freq", "levels": [400, 1500]},
        {"name": "little_util", "levels": [0.5, 1.0]},
    ],
    "sut": {"p_idle": 0.5, "kappa_big": 1.0, "kappa_little": 0.15, "target_density": 0.1},
    "fitness": {"p_m": 6.0},
    "algorithms": [
        {"kind": "random", "budget": 8, "warmup": 4},
        {"kind": "dn", "budget": 8, "warmup": 4, "batchsize": 4, "fallback_after": 2,
         "gan": {"disc_epochs": 1, "gen_epochs": 1}},
        {"kind": "ogan", "budget": 8, "warmup": 4, "fallback_after": 2,
         "gan": {"disc_epochs": 1, "gen_epochs": 1}},
    ],
    "runs": 1,
    "master_seed": 3,
    "sma_window": 2,
    "histogram_bins": 4,
}

PROBE = '''
import json, sys

called = set()


def profile(frame, event, arg):
    if event == "call":
        called.add((frame.f_code.co_filename, frame.f_code.co_qualname))


sys.setprofile(profile)
import perfgan
from perfgan.cli import main

config, out = sys.argv[1:]
codes = [
    main(["compare", "--config", config, "--out", f"{out}/compare"]),
    main(["run", "--algorithm", "ogan", "--config", config, "--seed", "7",
          "--out", f"{out}/run"]),
    main(["oracle", "--config", config]),
]
sys.setprofile(None)
with open(f"{out}/called.json", "w", encoding="utf-8") as fh:
    json.dump({"package": perfgan.__file__, "codes": codes, "called": sorted(called)}, fh)
'''


def defined_functions() -> set[str]:
    """Every `def` in the package as "<module>.<qualified name>", methods
    and nested functions (`f.<locals>.g`) included."""
    names = set()

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(f"{module}.{prefix}{child.name}")
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            else:
                walk(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return names


def called_functions(tmp_path) -> set[str]:
    """The package functions the three commands call, import included."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(config), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "called.json").read_text(encoding="utf-8"))
    assert Path(report["package"]).parent == PACKAGE
    assert report["codes"] == [0, 0, 0]
    return {f"{Path(name).stem}.{qualname}" for name, qualname in report["called"]
            if Path(name).parent == PACKAGE}


def test_every_function_no_command_calls_is_listed_with_a_reason(tmp_path):
    unreached = defined_functions() - called_functions(tmp_path)
    unlisted, reached = sorted(unreached - UNREACHED.keys()), sorted(UNREACHED.keys() - unreached)
    assert not unlisted, f"no command calls these; wire in, list or delete: {unlisted}"
    assert not reached, f"a command calls these now; drop their entries: {reached}"
    assert all(UNREACHED.values())
