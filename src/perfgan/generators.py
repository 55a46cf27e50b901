"""The three budgeted test-generation algorithms.

All three spend the same budget of system-under-test executions and
share an identical warm-up phase of uniformly sampled tests (same seed
=> same warm-up suite), after which they differ in how the next input
is proposed:

* random  -- keeps sampling uniformly among unexecuted inputs.
* dn      -- draws a uniform batch, asks a surrogate network for each
             candidate's fitness and proposes the argmax.
* ogan    -- asks a generator network for one candidate at a time,
             snapped onto the grid.

dn and ogan share one acceptance loop (`_search`): each inner pass
decays the threshold by `treducer`, takes the proposal's unexecuted
candidates, and accepts the best-predicted one if it clears the
threshold; the model retrains before every searched test.
They differ only in their proposal, prediction and retraining.

Every executed test records how many inner-loop passes and proposed
candidates it cost, which is what the comparison tables aggregate, and
a searched test also records the threshold and prediction it was
accepted at.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, NamedTuple

import numpy as np

from .gan import (
    DISCRIMINATOR_TOPOLOGY,
    LATENT_DIM,
    GanHyperparams,
    init_gan,
    predict_fitness,
    sample_candidates,
    train_gan,
)
from .nn import Dataset, forward, init_network, train_epochs
from .rng import stream_rng
from .space import (
    NUM_DIMENSIONS,
    InputSpace,
    TestInput,
    cardinality,
    normalize_batch,
    sample_uniform,
    snap,
    unrank,
)
from .sut import FitnessSpec, SutInterface, fitness

# ogan passes whose candidates one batched generator forward computes;
# per-row forward cost bottoms out near 64 rows
PROPOSAL_BLOCK = 64


@dataclass(frozen=True, slots=True)
class TestRecord:
    """One executed test plus its inner-loop accounting.

    test_index is the 0-based position in the suite; inner_iterations
    counts acceptance-loop passes and candidate_trials counts proposed
    candidates, executed duplicates included (equal for ogan;
    batch-size multiples for dn; both 1 for warm-up and random tests).
    threshold and prediction are the acceptance threshold and the
    model's prediction at acceptance; None for warm-up and random tests.
    """

    input: TestInput
    power: float
    fitness: float
    inner_iterations: int
    candidate_trials: int
    test_index: int
    threshold: float | None = None
    prediction: float | None = None


@dataclass
class TestSuite:
    """Ordered, duplicate-free executed tests."""

    records: list[TestRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def positive_count(self) -> int:
        return sum(r.fitness == 1.0 for r in self.records)

    def training_arrays(self, space: InputSpace) -> Dataset:
        """(normalized inputs (n, 6), measured fitness (n, 1)) for training."""
        n = len(self.records)
        flat = chain.from_iterable(r.input for r in self.records)
        idx = np.fromiter(flat, np.int64, n * NUM_DIMENSIONS).reshape(n, NUM_DIMENSIONS)
        x = normalize_batch(space, np.ravel_multi_index(idx.T, space.level_counts))
        y = np.fromiter((r.fitness for r in self.records), np.float64, n)[:, None]
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
    # threshold drops to exactly 0, the best candidate is accepted
    # outright, and ogan's candidate source switches from the generator
    # to uniform sampling.
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


class _Searcher(NamedTuple):
    """What a learning algorithm plugs into the shared acceptance loop.

    propose(executed, stalled) returns (trials, candidates not among the
    executed ranks), with stalled true past the stall guard;
    predict(candidates) returns one fitness per candidate; retrain(suite)
    updates the model in place.
    """

    propose: Callable[[set[int], bool], tuple[int, list[int]]]
    predict: Callable[[list[int]], np.ndarray]
    retrain: Callable[[TestSuite], None]


def _execute(
    space: InputSpace,
    sut: SutInterface,
    spec: FitnessSpec,
    suite: TestSuite,
    executed: set[int],
    r: int,
    inner_iterations: int,
    candidate_trials: int,
    threshold: float | None = None,
    prediction: float | None = None,
) -> None:
    """Measure the input of rank r; record it in `suite`, add r to `executed`."""
    test_input = unrank(space, r)
    power = sut.measure(space, test_input)
    try:
        fit = fitness(spec, power)
    except ValueError as exc:
        raise ValueError(f"input {test_input}: {exc}") from exc
    suite.records.append(
        TestRecord(test_input, power, fit, inner_iterations, candidate_trials,
                   len(suite), threshold, prediction)
    )
    executed.add(r)


def _search(
    space: InputSpace,
    sut: SutInterface,
    spec: FitnessSpec,
    cfg: AlgorithmConfig,
    seed: int,
    searcher: _Searcher | None,
) -> TestSuite:
    """Warm-up, then (with a searcher) the acceptance loop to the budget.

    Without a searcher the warm-up alone fills the budget.  With one,
    the model trains on the nonempty suite before every searched test,
    so never after the last one.  Each pass multiplies the threshold by
    treducer; every proposed candidate costs a trial, executed ones
    included, and the best prediction among the unexecuted ones must
    reach the threshold.  Past fallback_after passes the threshold is
    recorded as exactly 0 and the best candidate is accepted outright,
    so every searched test ends once a proposal holds a candidate.  A
    non-finite prediction is an error naming the searched test's index.
    """
    if cfg.budget > cardinality(space):
        raise ValueError(
            f"budget {cfg.budget} exceeds space cardinality {cardinality(space)}"
        )
    suite, executed = TestSuite(), set()
    rng = stream_rng(seed, "warmup-sampling")
    for _ in range(cfg.warmup if searcher is not None else cfg.budget):
        (r,) = sample_uniform(space, executed, 1, rng)
        _execute(space, sut, spec, suite, executed, r, 1, 1)
    if searcher is None:
        return suite
    while len(suite) < cfg.budget:
        if suite.records:
            searcher.retrain(suite)
        target = 1.0
        passes = trials = 0
        while True:
            passes += 1
            stalled = passes > cfg.fallback_after
            target = 0.0 if stalled else target * cfg.treducer
            proposed, candidates = searcher.propose(executed, stalled)
            trials += proposed
            if not candidates:
                continue
            predictions = searcher.predict(candidates)
            if not np.isfinite(predictions).all():
                raise ValueError(f"test {len(suite)}: non-finite prediction in {predictions}")
            best = int(np.argmax(predictions))
            if stalled or predictions[best] >= target:
                break
        _execute(space, sut, spec, suite, executed, candidates[best], passes, trials,
                 target, float(predictions[best]))
    return suite


def run_random(
    space: InputSpace,
    sut: SutInterface,
    spec: FitnessSpec,
    cfg: AlgorithmConfig,
    seed: int,
) -> TestSuite:
    """Uniform sampling without replacement until the budget is spent."""
    return _search(space, sut, spec, cfg, seed, None)


def run_dn(
    space: InputSpace,
    sut: SutInterface,
    spec: FitnessSpec,
    cfg: AlgorithmConfig,
    seed: int,
) -> TestSuite:
    """Surrogate-filtered uniform sampling (batched argmax proposals).

    Every pass proposes a fresh uniform batch of unexecuted inputs
    (smaller near exhaustion); the surrogate is a discriminator-shaped
    network trained on the executed suite.
    """
    rng_sample = stream_rng(seed, "dn-sampling")
    rng_train = stream_rng(seed, "gan-train")
    disc = init_network(DISCRIMINATOR_TOPOLOGY, stream_rng(seed, "net-init"))
    total = cardinality(space)

    def propose(executed: set[int], stalled: bool) -> tuple[int, list[int]]:
        batch = min(cfg.batchsize, total - len(executed))
        return batch, sample_uniform(space, executed, batch, rng_sample)

    def predict(candidates: list[int]) -> np.ndarray:
        return forward(disc, normalize_batch(space, candidates))[:, 0]

    def retrain(suite: TestSuite) -> None:
        nonlocal disc
        disc, _ = train_epochs(disc, suite.training_arrays(space), cfg.gan.disc_epochs,
                               cfg.gan.minibatch, rng_train)

    return _search(space, sut, spec, cfg, seed, _Searcher(propose, predict, retrain))


def run_ogan(
    space: InputSpace,
    sut: SutInterface,
    spec: FitnessSpec,
    cfg: AlgorithmConfig,
    seed: int,
) -> TestSuite:
    """Generator-proposed candidates filtered by the online surrogate.

    One candidate per pass: the generator's output snapped onto the
    grid, so a snap onto an executed input costs a pass and a trial
    without reaching the surrogate.  Past the stall guard the candidate
    is a uniform draw among unexecuted inputs instead.  Generator and
    surrogate retrain before every searched test.

    The generator is frozen between retrains, so candidates are computed
    PROPOSAL_BLOCK passes at a time: one generator forward and one snap
    over a block of gan-latent rows, handed out one per pass.  A retrain
    drops the block's unused candidates but keeps their noise rows for
    the next block, so every pass sees the same noise row, and the run
    the same candidates, as with one forward per pass.
    """
    rng_latent = stream_rng(seed, "gan-latent")
    rng_train = stream_rng(seed, "gan-train")
    rng_fallback = stream_rng(seed, "fallback-sampling")
    gan = init_gan(cfg.gan, stream_rng(seed, "net-init"))
    # noise holds the gan-latent rows no pass has used yet, in draw order;
    # block holds the ranks of the current generator's snapped candidates
    # for its leading rows (empty after a retrain, which keeps the noise)
    noise = np.empty((0, LATENT_DIM))
    block: list[int] = []

    def propose(executed: set[int], stalled: bool) -> tuple[int, list[int]]:
        nonlocal noise, block
        if stalled:
            return 1, sample_uniform(space, executed, 1, rng_fallback)
        if not block:
            fresh = rng_latent.uniform(
                -1.0, 1.0, size=(PROPOSAL_BLOCK - len(noise), LATENT_DIM)
            )
            noise = np.concatenate([noise, fresh])
            block = snap(space, sample_candidates(gan, noise)).tolist()
        noise = noise[1:]
        r = block.pop(0)
        return 1, [] if r in executed else [r]

    def predict(candidates: list[int]) -> np.ndarray:
        return predict_fitness(gan, normalize_batch(space, candidates))

    def retrain(suite: TestSuite) -> None:
        nonlocal gan, block
        gan = train_gan(gan, suite.training_arrays(space), cfg.gan, rng_train)
        block = []

    return _search(space, sut, spec, cfg, seed, _Searcher(propose, predict, retrain))
