"""Generator + discriminator pair trained online from test results.

The generator maps 100-dimensional uniform noise to a candidate
configuration in [-1, 1]^6; the discriminator regresses a candidate's
fitness.  There is no prior training set: each training round first fits
the discriminator to the executed tests' measured fitness, then freezes
it and trains the generator through it toward the maximum fitness of 1.

The discriminator's relu output is deliberately left unclamped above 1;
acceptance checks elsewhere compare the raw prediction.
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
    train_epochs,
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
    rows as `train_generator` is given suite size, at least 32."""

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
    """Fit the discriminator to measured fitness; generator untouched.

    `dataset` is (normalized inputs (n, 6), fitness (n, 1)), as built by
    `TestSuite.training_arrays`.
    """
    disc, _ = train_epochs(gan.discriminator, dataset, hp.disc_epochs, hp.minibatch, rng)
    return replace(gan, discriminator=disc)


def train_generator(
    gan: GanModel, hp: GanHyperparams, rng: np.random.Generator, suite_size: int = 0
) -> GanModel:
    """Push generator outputs toward predicted fitness 1.

    Each round draws max(32, suite_size) fresh noise rows, so the
    generator sees at least as much noise as there is data.  It runs the
    noise through the generator and the frozen discriminator, and takes
    one RMSprop step on the generator from the mean-squared distance to
    the constant target 1, in place on the `TrainingCopy` made on entry;
    `gan` is not mutated.  The frozen discriminator only relays its input
    gradient, and the generator's gradient with respect to the noise is
    never computed.  Both passes write into the `StepArrays` the call
    builds when it starts, one set per network, the noise too (rng.random,
    *2, -1: rng.uniform(-1, 1) bit for bit); no loss is computed.
    """
    n = max(32, suite_size)
    own = TrainingCopy(gan.generator)
    gen, disc = StepArrays(own.state, n, False), StepArrays(gan.discriminator, n, True)
    ones = np.ones((n, 1))
    for _ in range(hp.gen_epochs):
        noise = rng.random(out=gen.inputs)
        np.subtract(np.multiply(noise, 2.0, out=noise), 1.0, out=noise)
        forward_trace(own.state, noise, out=gen.trace)
        forward_trace(gan.discriminator, gen.trace.output, out=disc.trace)
        own.backward(gen, disc.relay(ones))
        own.update()
    return replace(gan, generator=own.state)


def train_gan(
    gan: GanModel, dataset: Dataset, hp: GanHyperparams, rng: np.random.Generator
) -> GanModel:
    """One online round: discriminator on the suite, then the generator."""
    gan = train_discriminator(gan, dataset, hp, rng)
    return train_generator(gan, hp, rng, suite_size=len(dataset[0]))
