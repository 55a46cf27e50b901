"""Golden suites: a refactor must not change which tests the algorithms execute.

One short run per case (default config, budget 60, warm-up 50) is reduced
to the sha256 of its records: input, power, fitness, inner_iterations
and candidate_trials.  The cases are random, dn, ogan, and dn with a
stall guard of 5 passes, which every one of its ten searched tests
reaches (ogan reaches its default guard of 1000 once).  The digests pin
every network output that decides a proposal, so a change to the
sampling, training or encoding path that moves a single bit shows up
here.  An intended change of behaviour must re-record them and say why.

The digests were recorded with numpy 2.4 and OpenBLAS 0.3 on x86-64.  A
different BLAS may round a network output differently and, at an exact
snap tie or acceptance threshold, pick another test.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from perfgan.generators import run_dn, run_ogan, run_random
from perfgan.harness import load_config
from perfgan.rng import derive_run_seed

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.json"

# case -> (algorithm kind, config overrides beyond budget/warm-up, digest)
GOLDEN = {
    "dn": ("dn", {}, "c0193cc2b40779a01ea54002b4def89c17a13a4ce5df6a9f88f66d503fef267e"),
    "ogan": ("ogan", {}, "04da30c704a40af49e4df71c8202e7e1227a15d919a3ee3870a1e3c834918e41"),
    "random": (
        "random", {}, "8d26b872f825a219e1c2aa29fd6fe81888105bfe39b61013a00a61c9523df08d"
    ),
    "dn_stall": (
        "dn",
        {"fallback_after": 5},
        "7503a47a4259e8472bfd741544cd8d4863ffcf69eec2b73969c216ab0f7410ea",
    ),
}
RUNNERS = {"random": run_random, "dn": run_dn, "ogan": run_ogan}


def suite_digest(suite):
    rows = [
        [list(r.input), r.power, r.fitness, r.inner_iterations, r.candidate_trials]
        for r in suite.records
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_suite_matches_golden_digest(case):
    kind, overrides, digest = GOLDEN[case]
    cfg = load_config(CONFIG)
    (variant,) = [v for v in cfg.algorithms if v.kind == kind]
    short = replace(variant.config, budget=60, warmup=50, **overrides)
    seed = derive_run_seed(42, 0)
    suite = RUNNERS[kind](cfg.space, cfg.sut, cfg.fitness, short, seed)
    assert len(suite) == 60
    assert suite_digest(suite) == digest
