"""One online training round of the generator/discriminator pair.

Executes a random warm-up suite against the synthetic board, trains the
discriminator to regress measured fitness, then trains the generator
through the frozen discriminator and shows where its candidates move.
"""

import numpy as np

from perfgan import (
    AlgorithmConfig,
    FitnessSpec,
    GanHyperparams,
    SyntheticSut,
    default_space,
    init_gan,
    predict_fitness,
    run_random,
    sample_candidates,
    snap,
    train_discriminator,
    train_generator,
)
from perfgan.gan import LATENT_DIM
from perfgan.nn import forward, loss_mse
from perfgan.space import unrank

space = default_space()
sut = SyntheticSut(gain=2.0046654031199886)
spec = FitnessSpec()

# 50 uniformly sampled, executed tests form the only training data.
warmup = run_random(space, sut, spec, AlgorithmConfig(budget=50, warmup=50), seed=7)
fitnesses = [r.fitness for r in warmup.records]
print(f"warm-up: {len(warmup)} tests, mean fitness {np.mean(fitnesses):.3f}, "
      f"{sum(f == 1.0 for f in fitnesses)} positive")

gan = init_gan(GanHyperparams(), np.random.default_rng(7))
inputs, targets = warmup.training_arrays()
print(f"discriminator MSE before training: "
      f"{loss_mse(forward(gan.discriminator, inputs), targets):.4f}")

gan = train_discriminator(gan, (inputs, targets), GanHyperparams(),
                          np.random.default_rng(8))
print(f"discriminator MSE after training:  "
      f"{loss_mse(forward(gan.discriminator, inputs), targets):.4f}")

# The generator is trained to make the frozen discriminator predict 1.
probe = np.random.default_rng(9).uniform(-1.0, 1.0, size=(64, LATENT_DIM))
before = predict_fitness(gan, sample_candidates(gan, probe))
for round_ in range(5):
    gan = train_generator(gan, GanHyperparams(), np.random.default_rng(10 + round_))
after = predict_fitness(gan, sample_candidates(gan, probe))
print(f"\nmean predicted fitness of 64 fresh candidates: "
      f"{before.mean():.3f} -> {after.mean():.3f}")

# Candidates snap onto the grid; measure what they would actually draw.
# With only 50 random observations the surrogate's beliefs are rough,
# so the generator often chases a spurious bump (high predicted, low
# measured power).  The online loop corrects this by executing exactly
# those candidates and retraining on the measurements -- see demo 04
# for the closed loop.
noise = np.random.default_rng(11).uniform(-1.0, 1.0, size=(8, LATENT_DIM))
candidates = sample_candidates(gan, noise)
print("\ngenerator candidates after training (predicted vs measured):")
for vec, r in zip(candidates, snap(space, candidates).tolist()):
    t = unrank(space, r)
    predicted = predict_fitness(gan, vec[None, :])[0]
    print(f"  {t}  predicted {predicted:4.2f}  ->  "
          f"{sut.measure(space, t):5.2f} W")
