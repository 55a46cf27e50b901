"""The three budgeted algorithms: invariants, accounting, determinism."""

import gc
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import perfgan.generators as generators
from perfgan.gan import GanHyperparams
from perfgan.generators import (
    AlgorithmConfig,
    run_dn,
    run_ogan,
    run_random,
)
from perfgan.harness import load_config
from perfgan.nn import TrainingCopy
from perfgan.space import (
    Dimension,
    InputSpace,
    cardinality,
    enumerate_inputs,
    rank,
    sample_uniform,
    snap,
)
from perfgan.sut import FitnessSpec, SyntheticSut


def small_space(levels=3):
    values = tuple(float(v) for v in range(levels))
    util = tuple((v + 1) / levels for v in range(levels))
    return InputSpace(
        dims=(
            Dimension("big_cpus", values),
            Dimension("big_freq", (500.0, 1000.0, 2000.0)[:levels]),
            Dimension("big_util", util),
            Dimension("little_cpus", values),
            Dimension("little_freq", (400.0, 800.0, 1500.0)[:levels]),
            Dimension("little_util", util),
        )
    )


SPACE = small_space()
SUT = SyntheticSut(gain=2.0)
SPEC = FitnessSpec(p_m=6.0)
FAST_GAN = GanHyperparams(disc_epochs=2, gen_epochs=2)
DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.json"
# what a run calls only to query or train its model, so only once it
# searches past the warm-up
DN_MODEL_HOOKS = ((generators, "forward"), (TrainingCopy, "fit"))
OGAN_MODEL_HOOKS = ((generators, "sample_candidates"), (generators, "fit_gan"))


def fast_cfg(**kwargs):
    kwargs.setdefault("budget", 30)
    kwargs.setdefault("warmup", 10)
    kwargs.setdefault("gan", FAST_GAN)
    return AlgorithmConfig(**kwargs)


def assert_valid_suite(suite, cfg, space):
    assert len(suite) == cfg.budget
    inputs = [r.input for r in suite.records]
    assert len(set(inputs)) == len(inputs)
    for r in suite.records:
        space.validate_input(r.input)
        # golden's json.dumps and perfbench's digest read the input
        assert all(type(i) is int for i in r.input), r.input
        assert r.fitness == min(1.0, r.power / SPEC.p_m)
        assert r.inner_iterations <= r.candidate_trials or (
            r.inner_iterations == r.candidate_trials
        )
    assert [r.test_index for r in suite.records] == list(range(cfg.budget))


def assert_acceptances_replay(suite, cfg):
    """Searched tests record a threshold of treducer^passes, met by the
    prediction; warm-up tests record neither."""
    for r in suite.records[: cfg.warmup]:
        assert r.threshold is None and r.prediction is None
    accepted = suite.records[cfg.warmup:]
    assert len(accepted) == cfg.budget - cfg.warmup
    for record in accepted:
        assert record.prediction >= record.threshold
        assert abs(record.threshold - cfg.treducer ** record.inner_iterations) <= 1e-12


class TestRunRandom:
    def test_zero_budget(self):
        suite = run_random(SPACE, SUT, SPEC, fast_cfg(budget=0, warmup=0), 1)
        assert len(suite) == 0

    def test_exhausts_whole_space(self):
        cfg = fast_cfg(budget=cardinality(SPACE), warmup=0)
        suite = run_random(SPACE, SUT, SPEC, cfg, 2)
        assert {r.input for r in suite.records} == set(enumerate_inputs(SPACE))

    def test_counters_all_one(self):
        suite = run_random(SPACE, SUT, SPEC, fast_cfg(), 3)
        assert all(r.inner_iterations == 1 for r in suite.records)
        assert all(r.candidate_trials == 1 for r in suite.records)
        assert all(r.threshold is None and r.prediction is None for r in suite.records)

    def test_budget_above_cardinality_rejected(self):
        with pytest.raises(ValueError):
            run_random(SPACE, SUT, SPEC, fast_cfg(budget=cardinality(SPACE) + 1), 4)

    def test_deterministic(self):
        a = run_random(SPACE, SUT, SPEC, fast_cfg(), 5)
        b = run_random(SPACE, SUT, SPEC, fast_cfg(), 5)
        assert [r.input for r in a.records] == [r.input for r in b.records]

    def test_suite_invariants(self):
        cfg = fast_cfg()
        assert_valid_suite(run_random(SPACE, SUT, SPEC, cfg, 6), cfg, SPACE)


class TestRunDn:
    def test_suite_invariants(self):
        cfg = fast_cfg()
        assert_valid_suite(run_dn(SPACE, SUT, SPEC, cfg, 7), cfg, SPACE)

    def test_stub_predictor_accepts_first_batch(self, monkeypatch):
        monkeypatch.setattr(
            generators, "forward", lambda disc, vecs: np.ones((len(vecs), 1))
        )
        cfg = fast_cfg(budget=16, warmup=8, batchsize=4)
        suite = run_dn(SPACE, SUT, SPEC, cfg, 8)
        for r in suite.records[8:]:
            assert r.inner_iterations == 1
            assert r.candidate_trials == 4

    def test_trials_are_iterations_times_batch(self):
        cfg = fast_cfg(batchsize=3)
        suite = run_dn(SPACE, SUT, SPEC, cfg, 9)
        total = cardinality(SPACE)
        for r in suite.records[cfg.warmup:]:
            batch = min(cfg.batchsize, total - r.test_index)
            assert r.candidate_trials == r.inner_iterations * batch

    def test_batch_shrinks_near_exhaustion(self):
        # budget equals cardinality: final proposals see pools below
        # batchsize (a small stall guard keeps the dead-pool tail fast)
        space = small_space(levels=2)
        cfg = fast_cfg(budget=64, warmup=10, batchsize=16, fallback_after=40)
        suite = run_dn(space, SUT, SPEC, cfg, 10)
        assert {r.input for r in suite.records} == set(enumerate_inputs(space))
        for r in suite.records[cfg.warmup:]:
            batch = min(cfg.batchsize, 64 - r.test_index)
            assert r.candidate_trials == r.inner_iterations * batch

    def test_acceptance_replay(self):
        cfg = fast_cfg()
        suite = run_dn(SPACE, SUT, SPEC, cfg, 11)
        assert_acceptances_replay(suite, cfg)

    def test_deterministic(self):
        a = run_dn(SPACE, SUT, SPEC, fast_cfg(), 12)
        b = run_dn(SPACE, SUT, SPEC, fast_cfg(), 12)
        assert [r.input for r in a.records] == [r.input for r in b.records]
        assert [r.candidate_trials for r in a.records] == [
            r.candidate_trials for r in b.records
        ]

    def test_budget_equals_warmup_never_queries_model(self, monkeypatch):
        def boom(*args):
            raise AssertionError("surrogate queried or trained")

        for owner, name in DN_MODEL_HOOKS:
            monkeypatch.setattr(owner, name, boom)
        cfg = fast_cfg(budget=10, warmup=10)
        suite = run_dn(SPACE, SUT, SPEC, cfg, 13)
        assert len(suite) == 10


class TestRunOgan:
    def test_suite_invariants(self):
        cfg = fast_cfg()
        assert_valid_suite(run_ogan(SPACE, SUT, SPEC, cfg, 14), cfg, SPACE)

    def test_trials_equal_iterations(self):
        suite = run_ogan(SPACE, SUT, SPEC, fast_cfg(), 15)
        for r in suite.records:
            assert r.candidate_trials == r.inner_iterations

    def test_stub_predictor_accepts_first_fresh_candidate(self, monkeypatch):
        monkeypatch.setattr(
            generators, "predict_fitness", lambda gan, x: np.ones(len(np.atleast_2d(x)))
        )
        cfg = fast_cfg(budget=14, warmup=12)
        suite = run_ogan(SPACE, SUT, SPEC, cfg, 16)
        # chosen seed produces no snap collisions on this space
        for r in suite.records[12:]:
            assert r.inner_iterations == 1
            assert r.candidate_trials == 1

    def test_acceptance_replay(self):
        cfg = fast_cfg()
        suite = run_ogan(SPACE, SUT, SPEC, cfg, 17)
        assert_acceptances_replay(suite, cfg)

    def test_budget_equals_warmup_never_samples_generator(self, monkeypatch):
        def boom(*args):
            raise AssertionError("generator sampled or trained")

        for owner, name in OGAN_MODEL_HOOKS:
            monkeypatch.setattr(owner, name, boom)
        cfg = fast_cfg(budget=10, warmup=10)
        suite = run_ogan(SPACE, SUT, SPEC, cfg, 18)
        assert len(suite) == 10

    def test_fallback_keeps_run_total(self, monkeypatch):
        # a fully collapsed generator proposes one already-executed point
        # forever; the uniform fallback must still complete the budget
        first = {}

        def collapsed(gan, noise):
            return np.tile(first["vec"], (len(noise), 1))

        cfg = fast_cfg(budget=14, warmup=10, fallback_after=25)
        from perfgan.space import normalize_batch

        real_run = run_random(SPACE, SUT, SPEC, fast_cfg(budget=1, warmup=0), 19)
        first["vec"] = normalize_batch(SPACE, [rank(SPACE, real_run.records[0].input)])[0]

        monkeypatch.setattr(generators, "sample_candidates", collapsed)
        suite = run_ogan(SPACE, SUT, SPEC, cfg, 19)
        assert len(suite) == 14
        # the collapsed point was already executed during warmup, so every
        # post-warmup record burns the full 25 generator passes and accepts
        # the first uniform fallback draw (threshold floored to 0)
        for r in suite.records[10:]:
            assert r.input != real_run.records[0].input
            assert r.inner_iterations == 26

    def test_block_size_does_not_change_run(self, monkeypatch):
        # the stall guard fires mid-block and every test retrains, so this
        # pins the noise rows carried across retrains and across the stall
        cfg = fast_cfg(fallback_after=25)
        reference = run_ogan(SPACE, SUT, SPEC, cfg, 30).records
        assert sum(r.inner_iterations > 25 for r in reference) >= 2
        assert sum(r.inner_iterations <= 25 for r in reference[cfg.warmup:]) >= 2
        for block in (1, 7):
            monkeypatch.setattr(generators, "PROPOSAL_BLOCK", block)
            assert run_ogan(SPACE, SUT, SPEC, cfg, 30).records == reference

    def test_deterministic(self):
        a = run_ogan(SPACE, SUT, SPEC, fast_cfg(), 20)
        b = run_ogan(SPACE, SUT, SPEC, fast_cfg(), 20)
        assert [r.input for r in a.records] == [r.input for r in b.records]


class TestSearchBookkeeping:
    @pytest.mark.parametrize("run", [run_dn, run_ogan])
    def test_predict_never_sees_an_executed_rank(self, monkeypatch, run):
        # the stall guard fires for ogan at seed 30, so its uniform
        # fallback proposals are checked as well as the generator's
        handed = []  # (records executed so far, candidate ranks) per predict call
        real_search = generators._search

        def recording_search(space, sut, spec, cfg, seed, propose, predict, retrain):
            current = {}

            def recording_retrain(dataset):
                current["executed"] = len(dataset[0])
                retrain(dataset)

            def recording_predict(rows):
                # predict sees encoded rows; snap decodes them to ranks
                handed.append((current["executed"], snap(space, rows).tolist()))
                return predict(rows)

            return real_search(space, sut, spec, cfg, seed, propose,
                               recording_predict, recording_retrain)

        monkeypatch.setattr(generators, "_search", recording_search)
        cfg = fast_cfg(fallback_after=25)
        suite = run(SPACE, SUT, SPEC, cfg, 30)
        ranks = [rank(SPACE, r.input) for r in suite.records]
        assert len(set(ranks)) == len(ranks)
        assert len(handed) >= cfg.budget - cfg.warmup
        for executed_so_far, candidates in handed:
            assert not set(candidates) & set(ranks[:executed_so_far])

    @pytest.mark.parametrize(
        "run, owner, trainer",
        [(run_dn, TrainingCopy, "fit"), (run_ogan, generators, "fit_gan")],
        ids=["run_dn-fit", "run_ogan-fit_gan"],
    )
    def test_one_retrain_per_searched_test(self, monkeypatch, run, owner, trainer):
        # the warm-up round included; no retrain follows the last test
        calls = []
        real = getattr(owner, trainer)

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(owner, trainer, counting)
        cfg = fast_cfg(budget=16, warmup=6)
        suite = run(SPACE, SUT, SPEC, cfg, 27)
        assert len(suite) == cfg.budget
        assert len(calls) == cfg.budget - cfg.warmup

    @pytest.mark.parametrize(
        "run, owner, name",
        [pytest.param(run, *hook, id=f"{run.__name__}-{hook[1]}")
         for run, hooks in ((run_dn, DN_MODEL_HOOKS), (run_ogan, OGAN_MODEL_HOOKS))
         for hook in hooks],
    )
    def test_each_model_hook_is_reached_past_the_warmup(self, monkeypatch, run, owner, name):
        # the guards of the budget-equals-warm-up tests fire, each alone,
        # once the budget exceeds the warm-up by one test
        def boom(*args):
            raise AssertionError(f"{name} reached")

        monkeypatch.setattr(owner, name, boom)
        with pytest.raises(AssertionError, match=f"^{name} reached$"):
            run(SPACE, SUT, SPEC, fast_cfg(budget=11, warmup=10), 13)


class TestBadMeasurement:
    @pytest.mark.parametrize("power", [np.nan, np.inf, -np.inf, -1.0, "6.0", None, True])
    def test_error_names_the_input(self, power):
        class BrokenSut:
            def measure(self, space, test_input):
                return power

        with pytest.raises(ValueError, match=r"input \(\d+(, \d+){5}\)"):
            run_random(SPACE, BrokenSut(), SPEC, fast_cfg(), 24)

    def test_error_names_the_searched_input(self):
        # the warm-up measures fine; the first searched test returns NaN
        class NanAfterWarmup:
            calls = 0

            def measure(self, space, test_input):
                self.calls += 1
                if self.calls > 10:
                    return np.nan
                return SUT.measure(space, test_input)

        with pytest.raises(ValueError, match=r"input \(.*\): power must be .*nan"):
            run_dn(SPACE, NanAfterWarmup(), SPEC, fast_cfg(), 25)


def constant_searcher(prediction, passes):
    """`_search`'s three hooks for one uniform candidate per pass, predicted
    at `prediction`; `passes` collects each pass's `stalled` flag."""
    rng = np.random.default_rng(0)

    def propose(executed, stalled):
        passes.append(stalled)
        return 1, sample_uniform(SPACE, executed, 1, rng)

    def predict(rows):
        return np.full(len(rows), prediction)

    return propose, predict, lambda dataset: None


class TestSearchEnds:
    @pytest.mark.parametrize("prediction", [np.nan, np.inf, -np.inf])
    def test_non_finite_prediction_raises_in_one_pass(self, prediction):
        passes = []
        with pytest.raises(ValueError, match=r"test 10: non-finite prediction"):
            generators._search(SPACE, SUT, SPEC, fast_cfg(), 31,
                               *constant_searcher(prediction, passes))
        assert passes == [False]

    def test_prediction_at_the_threshold_is_accepted(self):
        cfg = fast_cfg(budget=12)
        suite = generators._search(SPACE, SUT, SPEC, cfg, 33,
                                   *constant_searcher(cfg.treducer, []))
        assert [r.inner_iterations for r in suite.records[cfg.warmup:]] == [1, 1]

    @pytest.mark.parametrize("prediction", [0.0, -1.0])
    def test_stalled_search_accepts_the_best_candidate(self, prediction):
        # no prediction ever clears a positive threshold, so every searched
        # test runs to the stall guard and is accepted on the pass after it
        cfg = fast_cfg(budget=16, fallback_after=25)
        suite = generators._search(SPACE, SUT, SPEC, cfg, 32,
                                   *constant_searcher(prediction, []))
        assert_valid_suite(suite, cfg, SPACE)
        for r in suite.records[cfg.warmup:]:
            assert r.inner_iterations == cfg.fallback_after + 1
            assert r.threshold == 0.0 and r.prediction == prediction


class TestWarmupSharing:
    def test_prefixes_identical_across_algorithms(self):
        cfg = fast_cfg()
        seed = 21
        ra = run_random(SPACE, SUT, SPEC, cfg, seed)
        dn = run_dn(SPACE, SUT, SPEC, cfg, seed)
        og = run_ogan(SPACE, SUT, SPEC, cfg, seed)
        prefix = [r.input for r in ra.records[: cfg.warmup]]
        assert [r.input for r in dn.records[: cfg.warmup]] == prefix
        assert [r.input for r in og.records[: cfg.warmup]] == prefix

    def test_budget_equals_warmup_gives_identical_suites(self):
        cfg = fast_cfg(budget=12, warmup=12)
        seed = 22
        suites = [
            fn(SPACE, SUT, SPEC, cfg, seed) for fn in (run_random, run_dn, run_ogan)
        ]
        inputs = [[r.input for r in s.records] for s in suites]
        assert inputs[0] == inputs[1] == inputs[2]


class TestBudgetPrefix:
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("run", [run_random, run_dn, run_ogan])
    def test_smaller_budget_is_a_prefix(self, run, seed):
        # the budget only ends the loop: warm-up, retrains and every
        # proposal stream are independent of it
        full = run(SPACE, SUT, SPEC, fast_cfg(budget=60), seed).records
        for budget in (10, 11, 25, 47):
            assert run(SPACE, SUT, SPEC, fast_cfg(budget=budget), seed).records == full[:budget]


class TestSuiteStats:
    def test_empty_suite(self):
        assert generators.TestSuite(SPACE, 0).positive_count == 0

    def test_all_positive(self):
        # a fake suite of the run's inputs, every one at fitness 1
        suite = run_random(SPACE, SUT, SPEC, fast_cfg(budget=5, warmup=0), 23)
        fake = generators.TestSuite(SPACE, 5)
        for r in suite.records:
            fake.append(rank(SPACE, r.input), 9.0, 1.0, 1, 1)
        assert fake.positive_count == 5

    def test_hand_arithmetic(self):
        fake = generators.TestSuite(SPACE, 2)
        fake.append(rank(SPACE, (0, 0, 0, 0, 0, 0)), 6.0, 1.0, 1, 1)
        fake.append(rank(SPACE, (1, 0, 0, 0, 0, 0)), 3.0, 0.5, 1, 1)
        assert fake.positive_count == 1

    def test_training_arrays_cover_the_executed_rows(self):
        # below its capacity a suite trains on its executed tests only
        suite = generators.TestSuite(SPACE, 5)
        suite.append(rank(SPACE, (2, 0, 0, 0, 0, 1)), 6.0, 1.0, 1, 1)
        suite.append(rank(SPACE, (0, 1, 0, 0, 0, 0)), 3.0, 0.5, 1, 1)
        x, y = suite.training_arrays()
        np.testing.assert_array_equal(x, [[1, -1, -1, -1, -1, 0], [-1, 0, -1, -1, -1, -1]])
        np.testing.assert_array_equal(y, [[1.0], [0.5]])
        assert len(suite.records) == 2


class TestSuiteMemory:
    @pytest.mark.parametrize("kind", ["random", "dn", "ogan"])
    def test_a_finished_run_retains_at_most_80_bytes_per_test(self, kind):
        # traced bytes still held once a budget-200 run of the default
        # config has returned: its suite, 56 bytes of columns per test
        # plus the array and suite headers.  A short run warms caches first
        cfg = load_config(DEFAULT_CONFIG)
        (variant,) = [v for v in cfg.algorithms if v.kind == kind]
        run = getattr(generators, f"run_{kind}")
        run(cfg.space, cfg.sut, cfg.fitness, replace(variant.config, budget=60), 0)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            suite = run(cfg.space, cfg.sut, cfg.fitness, variant.config, 0)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(suite) == 200
        assert retained <= 80 * len(suite)


class TestRunMemory:
    def test_an_ogan_run_peaks_below_2_6_mb(self):
        # traced peak of a budget-200 run of the default config after a
        # warm-up run: the run's two training copies (the generator's
        # parameters, cache and gradients, 1.1 MB, and a 128 KB update
        # scratch) plus one generator round's arrays at 199 noise rows
        cfg = load_config(DEFAULT_CONFIG)
        (variant,) = [v for v in cfg.algorithms if v.kind == "ogan"]
        run_ogan(cfg.space, cfg.sut, cfg.fitness, replace(variant.config, budget=60), 0)
        gc.collect()
        tracemalloc.start()
        try:
            suite = run_ogan(cfg.space, cfg.sut, cfg.fitness, variant.config, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(suite) == 200
        assert peak <= 2.6e6


class TestConfigValidation:
    @pytest.mark.parametrize("budget, warmup", [(-1, 0), (10, -1)])
    def test_budget_and_warmup_nonnegative(self, budget, warmup):
        with pytest.raises(ValueError, match="^budget and warmup must be nonnegative$"):
            AlgorithmConfig(budget=budget, warmup=warmup)

    def test_fallback_after_positive(self):
        with pytest.raises(ValueError, match="^fallback_after must be >= 1$"):
            AlgorithmConfig(fallback_after=0)

    def test_warmup_cannot_exceed_budget(self):
        with pytest.raises(ValueError):
            AlgorithmConfig(budget=10, warmup=11)

    def test_treducer_range(self):
        with pytest.raises(ValueError):
            AlgorithmConfig(treducer=1.0)
        with pytest.raises(ValueError):
            AlgorithmConfig(treducer=0.0)

    def test_batchsize_positive(self):
        with pytest.raises(ValueError):
            AlgorithmConfig(batchsize=0)
