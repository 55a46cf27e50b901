"""Generator + discriminator pair trained online from test results.

The generator maps 100-dimensional uniform noise to a candidate
configuration in [-1, 1]^6; the discriminator regresses a candidate's
fitness, its relu output unclamped above 1.  Each round (`fit_gan`) fits
the discriminator to the executed tests' measured fitness, then trains
the generator through it toward fitness 1, in place on two
`TrainingCopy`s that a run holds for all its rounds; `train_discriminator`
and `train_generator` run one phase on a fresh copy, arguments untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .nn import (
    Dataset,
    LayerSpec,
    NetworkState,
    NetworkTopology,
    StepArrays,
    TrainingCopy,
    forward,
    forward_trace,
    init_network,
)
from .space import NUM_DIMENSIONS

LATENT_DIM = 100

GENERATOR_TOPOLOGY = NetworkTopology(
    input_dim=LATENT_DIM,
    layers=(
        LayerSpec(128, "tanh"),
        LayerSpec(128, "tanh"),
        LayerSpec(128, "tanh"),
        LayerSpec(NUM_DIMENSIONS, "tanh"),
    ),
)

DISCRIMINATOR_TOPOLOGY = NetworkTopology(
    input_dim=NUM_DIMENSIONS,
    layers=(
        LayerSpec(8, "tanh"),
        LayerSpec(8, "tanh"),
        LayerSpec(8, "tanh"),
        LayerSpec(1, "relu"),
    ),
)

@dataclass(frozen=True)
class GanHyperparams:
    """Online training schedule; a generator round draws as many noise
    rows as `fit_generator` is given suite size, at least 32."""

    disc_epochs: int = 10
    gen_epochs: int = 10
    minibatch: int = 32

    def __post_init__(self) -> None:
        if self.disc_epochs < 1 or self.gen_epochs < 1 or self.minibatch < 1:
            raise ValueError("epochs and minibatch must be >= 1")


@dataclass
class GanModel:
    """The two networks, each with its own RMSprop cache."""

    generator: NetworkState
    discriminator: NetworkState


def init_gan(hp: GanHyperparams, rng: np.random.Generator) -> GanModel:
    """Fresh Glorot-initialized networks with empty RMSprop caches,
    the generator drawn first."""
    return GanModel(init_network(GENERATOR_TOPOLOGY, rng),
                    init_network(DISCRIMINATOR_TOPOLOGY, rng))


def sample_candidates(gan: GanModel, noise: np.ndarray) -> np.ndarray:
    """Generator outputs for the given noise rows; shape (k, 6) in (-1, 1).

    `noise` is the caller's rng.uniform(-1, 1, size=(k, LATENT_DIM)); a
    block of k rows equals k one-row draws from one stream, so callers batch.
    """
    return forward(gan.generator, noise)


def predict_fitness(gan: GanModel, inputs: np.ndarray) -> np.ndarray:
    """Discriminator's fitness per row of (n, 6) inputs; nonnegative, unclamped."""
    return forward(gan.discriminator, inputs)[:, 0]


def train_discriminator(
    gan: GanModel, dataset: Dataset, hp: GanHyperparams, rng: np.random.Generator
) -> GanModel:
    """Fit a copy of the discriminator to measured fitness
    (`TrainingCopy.fit`); `gan` untouched.

    `dataset` is (normalized inputs (n, 6), fitness (n, 1)), as built by
    `TestSuite.training_arrays`.
    """
    own = TrainingCopy(gan.discriminator)
    own.fit(dataset, hp.disc_epochs, hp.minibatch, rng)
    return replace(gan, discriminator=own.state)


def fit_generator(gen: TrainingCopy, discriminator: NetworkState, hp: GanHyperparams,
                  rng: np.random.Generator, suite_size: int) -> None:
    """Push generator outputs toward predicted fitness 1, in place on `gen`.

    Each step draws max(32, suite_size) noise rows, at least one per
    data row, runs them through the generator and the frozen
    `discriminator`, which only relays its input gradient, and takes one
    RMSprop step from the mean-squared distance to the constant target 1.
    Both passes write into `StepArrays` built on entry, the noise too
    (rng.random, *2, -1: rng.uniform(-1, 1) bit for bit); neither the
    loss nor the noise's gradient is computed."""
    n = max(32, suite_size)
    arrays, disc = StepArrays(gen.state, n, False), StepArrays(discriminator, n, True)
    ones = np.ones((n, 1))
    for _ in range(hp.gen_epochs):
        noise = rng.random(out=arrays.inputs)
        np.subtract(np.multiply(noise, 2.0, out=noise), 1.0, out=noise)
        forward_trace(gen.state, noise, out=arrays.trace)
        forward_trace(discriminator, arrays.trace.output, out=disc.trace)
        gen.backward(arrays, disc.relay(ones))
        gen.update()


def fit_gan(gen: TrainingCopy, disc: TrainingCopy, dataset: Dataset, hp: GanHyperparams,
            rng: np.random.Generator) -> None:
    """One online round in place: the discriminator fits the suite, then
    the generator trains through it (`fit_generator`)."""
    disc.fit(dataset, hp.disc_epochs, hp.minibatch, rng)
    fit_generator(gen, disc.state, hp, rng, len(dataset[0]))


def train_generator(gan: GanModel, hp: GanHyperparams, rng: np.random.Generator,
                    suite_size: int = 0) -> GanModel:
    """`fit_generator` on a copy of the generator; `gan` untouched."""
    own = TrainingCopy(gan.generator)
    fit_generator(own, gan.discriminator, hp, rng, suite_size)
    return replace(gan, generator=own.state)
