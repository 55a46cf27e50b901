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
threshold; the model retrains before every searched test.  They differ
only in their proposal, prediction and retraining.  A run owns the
networks it trains, one `TrainingCopy` each, built once and retrained
in place (`TrainingCopy.fit`, `gan.fit_gan`); proposals and predictions
read those states.

Every executed test records how many inner-loop passes and proposed
candidates it cost, which is what the comparison tables aggregate, and
a searched test also records the threshold and prediction it was
accepted at: one row per test, the input as its rank, in the columns
of a `TestSuite`, whose `records` builds `TestRecord`s from them.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .gan import (
    DISCRIMINATOR_TOPOLOGY,
    LATENT_DIM,
    GanHyperparams,
    GanModel,
    fit_gan,
    init_gan,
    predict_fitness,
    sample_candidates,
)
from .nn import Dataset, TrainingCopy, forward, init_network
from .rng import stream_rng
from .space import (
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

# one TestSuite row: an executed test's rank and the fields of its TestRecord
_ROW = np.dtype([("rank", "i8"), ("power", "f8"), ("fitness", "f8"), ("inner_iterations", "i8"),
                 ("candidate_trials", "i8"), ("threshold", "f8"), ("prediction", "f8")])


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


class TestSuite:
    """Ordered, duplicate-free executed tests: one `_ROW` per test in a
    structured array preallocated to `capacity`, NaN standing for a None
    threshold or prediction.  `rows` views the filled rows; `records`
    builds their `TestRecord`s on every read, so read it once."""

    __slots__ = ("space", "_rows", "_n")

    def __init__(self, space: InputSpace, capacity: int) -> None:
        self.space, self._rows, self._n = space, np.empty(capacity, _ROW), 0

    def __len__(self) -> int:
        return self._n

    def append(self, rank: int, power: float, fitness: float, passes: int, trials: int,
               threshold: float = np.nan, prediction: float = np.nan) -> None:
        self._rows[self._n] = (rank, power, fitness, passes, trials, threshold, prediction)
        self._n += 1

    @property
    def rows(self) -> np.ndarray:
        return self._rows[: self._n]

    def inputs(self) -> np.ndarray:
        """(n, 6) level indices of the executed inputs, in test order."""
        return np.stack(np.unravel_index(self.rows["rank"], self.space.level_counts), axis=1)

    @property
    def records(self) -> list[TestRecord]:
        return [
            TestRecord(tuple(test_input), power, fit, passes, trials, i,
                       *(None if np.isnan(v) else v for v in accepted))
            for i, (test_input, (_, power, fit, passes, trials, *accepted))
            in enumerate(zip(self.inputs().tolist(), self.rows.tolist()))
        ]

    @property
    def positive_count(self) -> int:
        return int(np.count_nonzero(self.rows["fitness"] == 1.0))

    def training_arrays(self) -> Dataset:
        """(normalized inputs (n, 6), measured fitness (n, 1)) for training."""
        rows = self._rows[: self._n]
        return normalize_batch(self.space, rows["rank"]), rows["fitness"][:, None].copy()


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


def _search(
    space: InputSpace,
    sut: SutInterface,
    spec: FitnessSpec,
    cfg: AlgorithmConfig,
    seed: int,
    propose: Callable[[set[int], bool], tuple[int, list[int]]] | None = None,
    predict: Callable[[np.ndarray], np.ndarray] | None = None,
    retrain: Callable[[Dataset], None] | None = None,
) -> TestSuite:
    """Warm-up, then (with the three hooks) the acceptance loop to the budget.

    propose(executed, stalled) returns (trials, candidate ranks not among
    the executed ranks), with stalled true past the stall guard;
    predict(rows) returns one fitness per row of the candidates'
    `normalize_batch` encoding; retrain(dataset) updates the model in
    place from the suite's `training_arrays`.  Without hooks the warm-up
    alone fills the budget.  With them, the model trains on the nonempty
    suite before every searched test, so never after the last one.  Each
    pass multiplies the threshold by treducer; every proposed candidate
    costs a trial, executed ones included, and the best prediction among
    the unexecuted ones must reach the threshold.  Past fallback_after
    passes the threshold is recorded as exactly 0 and the best candidate
    is accepted outright, so every searched test ends once a proposal
    holds a candidate.  A non-finite prediction is an error naming the
    searched test's index.
    """
    if cfg.budget > cardinality(space):
        raise ValueError(
            f"budget {cfg.budget} exceeds space cardinality {cardinality(space)}"
        )
    suite, executed = TestSuite(space, cfg.budget), set()

    def execute(r: int, passes: int, trials: int, *accepted: float) -> None:
        # measure the input of rank r, record it and mark r executed
        test_input = unrank(space, r)
        power = sut.measure(space, test_input)
        try:
            # a bool is no measurement; a numpy scalar would reach tests.csv as its repr
            if isinstance(power, bool) or not isinstance(power, numbers.Real):
                raise ValueError(f"power must be a real number, got {power!r}")
            power = float(power)
            fit = fitness(spec, power)
        except ValueError as exc:
            raise ValueError(f"input {test_input}: {exc}") from exc
        suite.append(r, power, fit, passes, trials, *accepted)
        executed.add(r)

    rng = stream_rng(seed, "warmup-sampling")
    for _ in range(cfg.warmup if propose is not None else cfg.budget):
        (r,) = sample_uniform(space, executed, 1, rng)
        execute(r, 1, 1)
    if propose is None:
        return suite
    while len(suite) < cfg.budget:
        if len(suite):
            retrain(suite.training_arrays())
        target = 1.0
        passes = trials = 0
        while True:
            passes += 1
            stalled = passes > cfg.fallback_after
            target = 0.0 if stalled else target * cfg.treducer
            proposed, candidates = propose(executed, stalled)
            trials += proposed
            if not candidates:
                continue
            predictions = predict(normalize_batch(space, candidates))
            if not np.isfinite(predictions).all():
                raise ValueError(f"test {len(suite)}: non-finite prediction in {predictions}")
            best = int(np.argmax(predictions))
            if stalled or predictions[best] >= target:
                break
        execute(candidates[best], passes, trials, target, float(predictions[best]))
    return suite


def run_random(
    space: InputSpace,
    sut: SutInterface,
    spec: FitnessSpec,
    cfg: AlgorithmConfig,
    seed: int,
) -> TestSuite:
    """Uniform sampling without replacement until the budget is spent."""
    return _search(space, sut, spec, cfg, seed)


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
    disc = TrainingCopy(init_network(DISCRIMINATOR_TOPOLOGY, stream_rng(seed, "net-init")))
    total = cardinality(space)

    def propose(executed: set[int], stalled: bool) -> tuple[int, list[int]]:
        batch = min(cfg.batchsize, total - len(executed))
        return batch, sample_uniform(space, executed, batch, rng_sample)

    def retrain(dataset: Dataset) -> None:
        disc.fit(dataset, cfg.gan.disc_epochs, cfg.gan.minibatch, rng_train)

    return _search(space, sut, spec, cfg, seed, propose,
                   lambda rows: forward(disc.state, rows)[:, 0], retrain)


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
    surrogate retrain in place (`fit_gan`) before every searched test.

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
    # the run's own networks, retrained in place; `gan` views their states
    # and drops the initial ones
    gen, disc = TrainingCopy(gan.generator), TrainingCopy(gan.discriminator)
    gan = GanModel(gen.state, disc.state)
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

    def retrain(dataset: Dataset) -> None:
        nonlocal block
        fit_gan(gen, disc, dataset, cfg.gan, rng_train)
        block = []

    return _search(space, sut, spec, cfg, seed, propose,
                   lambda rows: predict_fitness(gan, rows), retrain)
