"""Golden suites: a refactor must not change which tests the algorithms execute.

One short run per case (default config, budget 60, warm-up 50) is reduced
to the sha256 of its records: input, power, fitness, inner_iterations
and candidate_trials.  The cases are random, dn, ogan, dn with a
stall guard of 5 passes, which every one of its ten searched tests
reaches (ogan reaches its default guard of 1000 once), and dn with
4,096-row batches, which pins the sampler's large-k sparse path.  The
digests pin every network output that decides a proposal, so a change
to the sampling, training or encoding path that moves a single bit
shows up here.  An intended change of behaviour must re-record them and
say why.

The same short experiment, one run of every default variant, is also
written to disk through `run_experiment`, and each of its four output
files is pinned by its sha256, so a change to how the files are written
shows up too.  It is pinned twice: with the config's `gain`, and with
`sut.target_density: 0.01` in its place, the calibrated path whose
config echo in summary.json differs.

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
from perfgan.harness import load_config, parse_config, run_experiment
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
    "dn_wide": (
        "dn",
        {"batchsize": 4096},
        "8980d7ecac7ac805561d05b4da64e095ad6dc88959b2f8c9fbd7da89f05de586",
    ),
}
RUNNERS = {"random": run_random, "dn": run_dn, "ogan": run_ogan}

# output file -> sha256 of its bytes after one short default experiment
GOLDEN_FILES = {
    "tests.csv": "d0fa79ffa08b325b4a406fe0195c555b6fb345daf590eb6c62becf738402ec80",
    "summary.json": "6081b6bfe9253e4fd84bad549e6e4b64fe14542d7c1ac1b2e30c1d750b82526c",
    "histogram.csv": "6e5b111f9f344d96432eafd3f891698be2e7d9b3d18dc2a137059a12458d3801",
    "sma.csv": "5266ee8f964ea25542462324eebb939acc8754d2efb804e2067fbed52e80b245",
}
# the same with the gain calibrated from target_density 0.01: the default
# gain is that calibration, so only the config echo moves
GOLDEN_CALIBRATED_FILES = {
    **GOLDEN_FILES,
    "summary.json": "0f7be8d714a1c362de192a2bc6e4051fcf7294b038207b26b70bb1c1cd02babd",
}


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


def experiment_file_digests(cfg):
    short = [
        replace(v, config=replace(v.config, budget=60, warmup=50))
        for v in cfg.algorithms
    ]
    run_experiment(replace(cfg, algorithms=short, runs=1))
    return {
        name: hashlib.sha256((cfg.output_dir / name).read_bytes()).hexdigest()
        for name in GOLDEN_FILES
    }


def test_experiment_files_match_golden_digests(tmp_path):
    cfg = load_config(CONFIG, output_dir=tmp_path)
    assert experiment_file_digests(cfg) == GOLDEN_FILES


def test_calibrated_experiment_files_match_golden_digests(tmp_path):
    raw = json.loads(CONFIG.read_text())
    del raw["sut"]["gain"]
    raw["sut"]["target_density"] = 0.01
    cfg = parse_config(raw, output_dir=tmp_path)
    assert experiment_file_digests(cfg) == GOLDEN_CALIBRATED_FILES
