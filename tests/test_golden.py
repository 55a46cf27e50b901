"""Golden suites: a refactor must not change which tests dn and ogan execute.

One short run per learning algorithm (default config, budget 60, warm-up
50) is reduced to the sha256 of its records: input, power, fitness,
inner_iterations and candidate_trials.  The digests pin every network
output that decides a proposal, so a change to the training or encoding
path that moves a single bit shows up here.  An intended change of
behaviour must re-record them and say why.

The digests were recorded with numpy 2.4 and OpenBLAS 0.3 on x86-64.  A
different BLAS may round a network output differently and, at an exact
snap tie or acceptance threshold, pick another test.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from perfgan.generators import run_dn, run_ogan
from perfgan.harness import load_config
from perfgan.rng import derive_run_seed

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.json"

GOLDEN = {
    "dn": "c0193cc2b40779a01ea54002b4def89c17a13a4ce5df6a9f88f66d503fef267e",
    "ogan": "04da30c704a40af49e4df71c8202e7e1227a15d919a3ee3870a1e3c834918e41",
}
RUNNERS = {"dn": run_dn, "ogan": run_ogan}


def suite_digest(suite):
    rows = [
        [list(r.input), r.power, r.fitness, r.inner_iterations, r.candidate_trials]
        for r in suite.records
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_suite_matches_golden_digest(kind):
    cfg = load_config(CONFIG)
    (variant,) = [v for v in cfg.algorithms if v.kind == kind]
    short = replace(variant.config, budget=60, warmup=50)
    seed = derive_run_seed(42, 0)
    suite = RUNNERS[kind](cfg.space, cfg.sut, cfg.fitness, short, seed)
    assert len(suite) == 60
    assert suite_digest(suite) == GOLDEN[kind]
