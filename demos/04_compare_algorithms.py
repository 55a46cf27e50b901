"""A reduced head-to-head comparison of the three generators.

Runs random sampling, the surrogate-filtered sampler, and the online
GAN over shared seeds on the calibrated synthetic board and prints the
positive-test yield and inner-loop cost of each.  The full-scale
version of this experiment is `perfgan compare --config
configs/default.json --out <dir>`.
"""

import numpy as np

from perfgan import (
    AlgorithmConfig,
    FitnessSpec,
    GanHyperparams,
    SyntheticSut,
    default_space,
    run_dn,
    run_ogan,
    run_random,
)
from perfgan.rng import derive_run_seed

space = default_space()
sut = SyntheticSut(gain=2.0046654031199886)
spec = FitnessSpec()
cfg = AlgorithmConfig(budget=100, warmup=30,
                      gan=GanHyperparams(disc_epochs=5, gen_epochs=5))
runs = 3
seeds = [derive_run_seed(2024, i) for i in range(runs)]

print(f"budget {cfg.budget}, warm-up {cfg.warmup}, {runs} runs, "
      f"threshold decay {cfg.treducer}\n")
print(f"{'algorithm':10s} {'positives':>12s} {'mean fitness':>13s} "
      f"{'iters/test':>11s} {'trials/test':>12s}")

for name, runner in (("random", run_random), ("dn bs=4", run_dn),
                     ("ogan", run_ogan)):
    positives, fitness_means, iters, trials = [], [], [], []
    for seed in seeds:
        suite = runner(space, sut, spec, cfg, seed)
        positives.append(suite.positive_count)
        fitness_means.append(np.mean([r.fitness for r in suite.records]))
        post = suite.records[cfg.warmup:]
        iters.append(np.mean([r.inner_iterations for r in post]))
        trials.append(np.mean([r.candidate_trials for r in post]))
    print(f"{name:10s} {np.mean(positives):7.1f}/{cfg.budget:<4d} "
          f"{np.mean(fitness_means):13.3f} {np.mean(iters):11.2f} "
          f"{np.mean(trials):12.2f}")

print("\nSame seeds, same warm-up tests: every algorithm starts from the "
      "identical 30 random executions and differs only afterwards.")
