"""The three budgeted test-generation algorithms.

All three spend the same budget of system-under-test executions and
share an identical warm-up phase of uniformly sampled tests (same seed
=> same warm-up suite), after which they differ in how the next input
is proposed:

* random  -- keeps sampling uniformly among unexecuted inputs.
* dn      -- draws a uniform batch, asks a surrogate network for each
             candidate's fitness and proposes the argmax, repeating with
             a geometrically decaying acceptance threshold until the
             best prediction clears it.
* ogan    -- asks a generator network for one candidate at a time
             (snapped onto the grid), subject to the same decaying
             threshold; generator and surrogate are retrained after
             every executed test.

Every executed test records how many inner-loop passes and candidate
evaluations it cost, which is what the comparison tables aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .gan import (
    DISCRIMINATOR_TOPOLOGY,
    GanHyperparams,
    init_gan,
    predict_fitness,
    sample_candidates,
    train_gan,
)
from .nn import Dataset, RmspropState, forward, init_network, train_epochs
from .rng import stream_rng
from .space import (
    InputSpace,
    TestInput,
    cardinality,
    normalize_batch,
    sample_uniform,
    snap,
)
from .sut import FitnessSpec, SutInterface, fitness


@dataclass(frozen=True)
class TestRecord:
    """One executed test plus its inner-loop accounting.

    test_index is the 0-based position in the suite; inner_iterations
    counts acceptance-loop passes and candidate_trials counts candidate
    evaluations (equal for ogan; batch-size multiples for dn; both 1 for
    warm-up and random tests).
    """

    input: TestInput
    power: float
    fitness: float
    inner_iterations: int
    candidate_trials: int
    test_index: int


@dataclass
class TestSuite:
    """Ordered, duplicate-free list of executed tests."""

    records: list[TestRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def inputs(self) -> set[TestInput]:
        return {r.input for r in self.records}

    def training_arrays(self, space: InputSpace) -> Dataset:
        """(normalized inputs (n, 6), measured fitness (n, 1)) for training."""
        x = normalize_batch(space, [r.input for r in self.records])
        y = np.array([[r.fitness] for r in self.records])
        return x, y


@dataclass(frozen=True)
class AlgorithmConfig:
    """Shared knobs for a run; batchsize applies to dn, gan to dn/ogan."""

    budget: int = 200
    warmup: int = 50
    treducer: float = 0.95
    batchsize: int = 4
    gan: GanHyperparams = field(default_factory=GanHyperparams)
    # stall guard: after this many fruitless inner passes the acceptance
    # threshold drops to exactly 0 (any prediction passes) and ogan's
    # candidate source switches from the generator to uniform sampling.
    # Without it, a surrogate predicting exactly 0 over the remaining
    # pool -- or a generator collapsed onto executed inputs -- would spin
    # for ~14,500 passes until the decaying threshold underflows.
    fallback_after: int = 1000

    def __post_init__(self) -> None:
        if self.budget < 0 or self.warmup < 0:
            raise ValueError("budget and warmup must be nonnegative")
        if self.warmup > self.budget:
            raise ValueError("warmup cannot exceed budget")
        if not 0.0 < self.treducer < 1.0:
            raise ValueError("treducer must lie in (0, 1)")
        if self.batchsize < 1:
            raise ValueError("batchsize must be >= 1")
        if self.fallback_after < 1:
            raise ValueError("fallback_after must be >= 1")


@dataclass(frozen=True)
class SuiteStats:
    positive_count: int
    mean_fitness: float | None
    fitness_series: list[float]


# called on each post-warmup acceptance: (record, target, prediction)
TraceHook = Callable[[TestRecord, float, float], None]


def _check_budget(space: InputSpace, cfg: AlgorithmConfig) -> None:
    if cfg.budget > cardinality(space):
        raise ValueError(
            f"budget {cfg.budget} exceeds space cardinality {cardinality(space)}"
        )


def _execute(
    space: InputSpace,
    sut: SutInterface,
    spec: FitnessSpec,
    test_input: TestInput,
    test_index: int,
    inner_iterations: int,
    candidate_trials: int,
) -> TestRecord:
    power = sut.measure(space, test_input)
    return TestRecord(
        input=test_input,
        power=power,
        fitness=fitness(spec, power),
        inner_iterations=inner_iterations,
        candidate_trials=candidate_trials,
        test_index=test_index,
    )


def _run_warmup(
    space: InputSpace,
    sut: SutInterface,
    spec: FitnessSpec,
    n: int,
    rng: np.random.Generator,
    suite: TestSuite,
) -> None:
    executed = suite.inputs()
    for _ in range(n):
        (t,) = sample_uniform(space, executed, 1, rng)
        executed.add(t)
        suite.records.append(_execute(space, sut, spec, t, len(suite), 1, 1))


def run_random(
    space: InputSpace,
    sut: SutInterface,
    spec: FitnessSpec,
    cfg: AlgorithmConfig,
    seed: int,
) -> TestSuite:
    """Uniform sampling without replacement until the budget is spent."""
    _check_budget(space, cfg)
    suite = TestSuite()
    _run_warmup(space, sut, spec, cfg.budget, stream_rng(seed, "warmup-sampling"), suite)
    return suite


def run_dn(
    space: InputSpace,
    sut: SutInterface,
    spec: FitnessSpec,
    cfg: AlgorithmConfig,
    seed: int,
    trace_hook: TraceHook | None = None,
) -> TestSuite:
    """Surrogate-filtered uniform sampling (batched argmax proposals)."""
    _check_budget(space, cfg)
    rng_sample = stream_rng(seed, "dn-sampling")
    rng_train = stream_rng(seed, "gan-train")

    suite = TestSuite()
    _run_warmup(space, sut, spec, cfg.warmup, stream_rng(seed, "warmup-sampling"), suite)

    disc = init_network(DISCRIMINATOR_TOPOLOGY, stream_rng(seed, "net-init"))
    opt = RmspropState.for_network(disc)

    def retrain() -> None:
        nonlocal disc, opt
        if len(suite) == 0:
            return
        disc, opt, _ = train_epochs(
            disc, suite.training_arrays(space), opt,
            cfg.gan.disc_epochs, cfg.gan.minibatch, rng_train,
        )

    retrain()
    executed = suite.inputs()
    total = cardinality(space)
    while len(suite) < cfg.budget:
        target = 1.0
        iterations = 0
        trials = 0
        while True:
            iterations += 1
            target = target * cfg.treducer if iterations <= cfg.fallback_after else 0.0
            batch = min(cfg.batchsize, total - len(executed))
            candidates = sample_uniform(space, executed, batch, rng_sample)
            trials += batch
            predictions = forward(disc, normalize_batch(space, candidates))[:, 0]
            best = int(np.argmax(predictions))
            if predictions[best] >= target:
                break
        chosen = candidates[best]
        executed.add(chosen)
        record = _execute(space, sut, spec, chosen, len(suite), iterations, trials)
        suite.records.append(record)
        if trace_hook is not None:
            trace_hook(record, target, float(predictions[best]))
        retrain()
    return suite


def run_ogan(
    space: InputSpace,
    sut: SutInterface,
    spec: FitnessSpec,
    cfg: AlgorithmConfig,
    seed: int,
    trace_hook: TraceHook | None = None,
) -> TestSuite:
    """Generator-proposed candidates filtered by the online surrogate.

    One candidate per inner pass: the generator's output is snapped onto
    the grid; an already-executed input burns the pass (and decays the
    acceptance threshold), otherwise the surrogate's prediction must
    clear the current threshold.  After fallback_after fruitless passes
    the threshold drops to zero and candidates come from uniform
    sampling instead of the generator.  Both networks retrain after
    every executed test.
    """
    _check_budget(space, cfg)
    rng_latent = stream_rng(seed, "gan-latent")
    rng_train = stream_rng(seed, "gan-train")
    rng_fallback = stream_rng(seed, "fallback-sampling")

    suite = TestSuite()
    _run_warmup(space, sut, spec, cfg.warmup, stream_rng(seed, "warmup-sampling"), suite)

    gan = init_gan(cfg.gan, stream_rng(seed, "net-init"))
    if len(suite) > 0:
        gan = train_gan(gan, suite.training_arrays(space), cfg.gan, rng_train)

    executed = suite.inputs()
    while len(suite) < cfg.budget:
        target = 1.0
        iterations = 0
        while True:
            iterations += 1
            if iterations <= cfg.fallback_after:
                target *= cfg.treducer
                vector = sample_candidates(gan, 1, rng_latent)[0]
                candidate = snap(space, vector)
            else:
                target = 0.0
                (candidate,) = sample_uniform(space, executed, 1, rng_fallback)
            if candidate in executed:
                continue
            vectors = normalize_batch(space, [candidate])
            prediction = float(predict_fitness(gan, vectors)[0])
            if prediction >= target:
                break
        executed.add(candidate)
        record = _execute(
            space, sut, spec, candidate, len(suite), iterations, iterations
        )
        suite.records.append(record)
        if trace_hook is not None:
            trace_hook(record, target, prediction)
        gan = train_gan(gan, suite.training_arrays(space), cfg.gan, rng_train)
    return suite


def suite_stats(suite: TestSuite, spec: FitnessSpec) -> SuiteStats:
    """Positive-test count, mean fitness (None when empty), fitness series."""
    series = [r.fitness for r in suite.records]
    positives = sum(1 for f in series if f == 1.0)
    mean = float(np.mean(series)) if series else None
    return SuiteStats(positive_count=positives, mean_fitness=mean, fitness_series=series)
