"""Acceptance gate: every release criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one line per
criterion.  The comparison criterion executes the full default
configuration (3 algorithm variants x 10 runs x 200 tests), so this
module takes a few minutes; everything else is fast.
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from perfgan.cli import main
from perfgan.gan import (
    LATENT_DIM,
    GanHyperparams,
    init_gan,
    predict_fitness,
    sample_candidates,
    train_discriminator,
    train_generator,
)
from perfgan.generators import AlgorithmConfig, run_dn, run_ogan, run_random
from perfgan.harness import load_config, run_experiment
from perfgan.nn import (
    LayerSpec,
    NetworkTopology,
    backward,
    forward,
    init_network,
    loss_mse,
    rmsprop_step,
)
from perfgan.space import (
    Dimension,
    InputSpace,
    cardinality,
    default_space,
    enumerate_inputs,
    normalize_batch,
    rank,
    snap,
    unrank,
)
from perfgan.sut import FitnessSpec, SyntheticSut

from test_nn import Gradients, assert_grads_close, finite_difference_grads

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE CRITERION {number} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE CRITERION {number} ({name}): PASS")


@pytest.fixture(scope="session")
def full_comparison():
    """The default comparison: 3 variants x 10 seeds x budget 200."""
    cfg = load_config(CONFIGS / "default.json")
    start = time.perf_counter()
    results, summary = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    return cfg, results, summary, elapsed


def test_criterion_1_oracle_fidelity(tmp_path, capsys):
    with criterion(1, "oracle fidelity"):
        config = {
            "space": [
                {"name": d.name, "levels": list(d.levels)}
                for d in default_space().dims
            ],
            "sut": {"p_idle": 0.5, "kappa_big": 1.0, "kappa_little": 0.15,
                    "target_density": 0.01},
            "fitness": {"p_m": 6.0},
            "algorithms": [{"kind": "random", "budget": 200, "warmup": 50}],
        }
        path = tmp_path / "oracle.json"
        path.write_text(json.dumps(config))

        outputs = []
        start = time.perf_counter()
        for _ in range(2):
            assert main(["oracle", "--config", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        elapsed = time.perf_counter() - start

        assert elapsed < 60.0, f"oracle took {elapsed:.1f}s"
        facts = dict(line.split(": ") for line in outputs[0].strip().splitlines())
        assert int(facts["cardinality"]) == 665_000
        density = float(facts["density"])
        assert 0.005 <= density <= 0.02, f"density {density} outside [0.5%, 2%]"
        # exact positive count is stable across invocations
        assert outputs[0] == outputs[1]


def test_criterion_2_comparative_yield(full_comparison):
    with criterion(2, "comparative yield"):
        cfg, _, summary, elapsed = full_comparison
        assert elapsed < 900.0, f"comparison took {elapsed:.0f}s"

        by_label = summary["algorithms"]
        random_mean = by_label["random"]["mean_positive_count"]
        dn_mean = by_label["dn_bs4"]["mean_positive_count"]
        ogan_mean = by_label["ogan"]["mean_positive_count"]

        density = summary["oracle"]["density"]
        binomial_mean = 200 * density
        binomial_sigma = math.sqrt(200 * density * (1 - density))
        assert abs(random_mean - binomial_mean) <= 3 * binomial_sigma, (
            f"random mean {random_mean} outside 3 sigma of "
            f"Binomial(200, {density:.4f})"
        )
        assert ogan_mean >= 5 * random_mean, f"ogan {ogan_mean} vs random {random_mean}"
        assert dn_mean >= 3 * random_mean, f"dn {dn_mean} vs random {random_mean}"


def test_criterion_3_trials_accounting(full_comparison):
    with criterion(3, "trials accounting"):
        cfg, results, summary, _ = full_comparison
        total = cardinality(cfg.space)
        for result in results:
            if result.algorithm == "dn_bs4":
                for rec in result.suite.records[50:]:
                    batch = min(4, total - rec.test_index)
                    assert rec.candidate_trials == rec.inner_iterations * batch
            elif result.algorithm == "ogan":
                for rec in result.suite.records[50:]:
                    assert rec.candidate_trials == rec.inner_iterations

        by_label = summary["algorithms"]
        for label in ("dn_bs4", "ogan"):
            assert by_label[label]["mean_inner_iterations"] is not None
            assert by_label[label]["mean_candidate_trials"] is not None


def far_from_relu_kinks(net, x, margin=1e-3):
    """Central differences are not a valid derivative estimate when a
    relu pre-activation sits within the perturbation's reach of 0, so
    the gradient oracle only applies to points clear of the kinks."""
    a = x
    for layer, w, b in zip(net.topology.layers, net.weights, net.biases):
        z = a @ w + b
        if layer.activation == "relu" and np.any(np.abs(z) < margin):
            return False
        a = np.tanh(z) if layer.activation == "tanh" else np.maximum(z, 0.0)
    return True


def test_criterion_4_numerical_core():
    with criterion(4, "numerical core"):
        rng = np.random.default_rng(2024)
        activations = ("tanh", "relu", "linear")
        checked = 0
        while checked < 100:
            input_dim = int(rng.integers(1, 7))
            depth = int(rng.integers(1, 4))
            layers = tuple(
                LayerSpec(int(rng.integers(1, 7)), activations[rng.integers(0, 3)])
                for _ in range(depth)
            )
            topo = NetworkTopology(input_dim, layers)
            net = init_network(topo, np.random.default_rng(int(rng.integers(1 << 31))))
            batch = int(rng.integers(1, 5))
            x = rng.uniform(-1, 1, size=(batch, input_dim))
            t = rng.uniform(-1, 1, size=(batch, topo.output_dim))
            if not far_from_relu_kinks(net, x):
                continue
            assert_grads_close(
                backward(net, x, t),
                finite_difference_grads(net, x, t, h=1e-5),
                rel=1e-5,
                absolute=1e-8,
            )
            checked += 1

        # RMSprop scalar recurrence, both worked steps, |delta| <= 1e-12
        topo = NetworkTopology(1, (LayerSpec(1, "linear"),))
        net = init_network(topo, np.random.default_rng(0))
        net.weights[0][0, 0] = 1.0
        g = Gradients([np.array([[1.0]])], [np.zeros(1)], np.zeros((1, 1)))
        net1 = rmsprop_step(net, g)
        assert abs(net1.cache[0] - 0.1) <= 1e-12
        assert abs(
            net1.weights[0][0, 0] - (1.0 - 0.001 / (math.sqrt(0.1) + 1e-8))
        ) <= 1e-12
        net2 = rmsprop_step(net1, g)
        assert abs(net2.cache[0] - 0.19) <= 1e-12
        expected_step = 0.001 / (math.sqrt(0.19) + 1e-8)
        assert abs((net1.weights[0][0, 0] - net2.weights[0][0, 0]) - expected_step) <= 1e-12


def test_criterion_5_algorithm_invariants():
    with criterion(5, "algorithm invariants"):
        start = time.perf_counter()
        space = default_space()
        sut = SyntheticSut(gain=2.0046654031199886)
        spec = FitnessSpec()
        cfg = AlgorithmConfig(
            budget=70, warmup=30, gan=GanHyperparams(disc_epochs=3, gen_epochs=3)
        )
        seed = 1234

        suites = {
            "random": run_random(space, sut, spec, cfg, seed),
            "dn": run_dn(space, sut, spec, cfg, seed),
            "ogan": run_ogan(space, sut, spec, cfg, seed),
        }

        # suite size equals budget; inputs pairwise distinct and in-space
        for suite in suites.values():
            assert len(suite) == cfg.budget
            inputs = [r.input for r in suite.records]
            assert len(set(inputs)) == cfg.budget
            for t in inputs:
                space.validate_input(t)

        # after k rejections the acceptance threshold equals treducer^k
        # (floored to 0 past the stall guard, where treducer^k < 1e-22)
        for kind in ("dn", "ogan"):
            accepted = suites[kind].records[cfg.warmup:]
            assert accepted
            for record in accepted:
                assert record.prediction >= record.threshold
                assert abs(
                    record.threshold - cfg.treducer ** record.inner_iterations
                ) <= 1e-12

        # phase isolation: the untrained phase is bit-identical
        gan = init_gan(GanHyperparams(), np.random.default_rng(5))
        inputs, targets = suites["random"].training_arrays()
        suite_pairs = (inputs[:16], targets[:16])
        after_disc = train_discriminator(gan, suite_pairs, GanHyperparams(),
                                         np.random.default_rng(6))
        assert all(
            np.array_equal(a, b)
            for a, b in zip(after_disc.generator.weights, gan.generator.weights)
        )
        after_gen = train_generator(gan, GanHyperparams(), np.random.default_rng(7))
        assert all(
            np.array_equal(a, b)
            for a, b in zip(
                after_gen.discriminator.weights, gan.discriminator.weights
            )
        )

        # identical warm-up prefix across algorithms for a shared seed
        prefixes = [
            [r.input for r in s.records[: cfg.warmup]] for s in suites.values()
        ]
        assert prefixes[0] == prefixes[1] == prefixes[2]

        # snap inverts the encoding on the whole 2^6 space
        tiny = InputSpace(
            dims=tuple(
                Dimension(name, (0.0, 1.0))
                for name in ("big_cpus", "big_freq", "big_util",
                             "little_cpus", "little_freq", "little_util")
            )
        )
        for t in enumerate_inputs(tiny):
            (r,) = snap(tiny, normalize_batch(tiny, [rank(tiny, t)])).tolist()
            assert unrank(tiny, r) == t

        assert time.perf_counter() - start < 60.0


def test_criterion_6_learning_signal():
    with criterion(6, "learning signal"):
        space = default_space()
        sut = SyntheticSut(gain=2.0046654031199886)
        spec = FitnessSpec()
        warmup = run_random(space, sut, spec,
                            AlgorithmConfig(budget=50, warmup=50), 777)
        inputs, targets = warmup.training_arrays()

        gan = init_gan(GanHyperparams(), np.random.default_rng(777))
        mse_before = loss_mse(forward(gan.discriminator, inputs), targets)
        trained = train_discriminator(gan, warmup.training_arrays(),
                                      GanHyperparams(), np.random.default_rng(778))
        mse_after = loss_mse(forward(trained.discriminator, inputs), targets)
        assert mse_after < mse_before, f"{mse_after} !< {mse_before}"

        noise = np.random.default_rng(779).uniform(-1.0, 1.0, size=(64, LATENT_DIM))
        before = predict_fitness(trained, sample_candidates(trained, noise)).mean()
        after_gen = train_generator(trained, GanHyperparams(),
                                    np.random.default_rng(780))
        after = predict_fitness(after_gen, sample_candidates(after_gen, noise)).mean()
        assert after >= before, f"{after} < {before}"


def test_criterion_7_reproducibility(tmp_path):
    with criterion(7, "reproducibility"):
        config = {
            "space": [
                {"name": d.name, "levels": list(d.levels)}
                for d in default_space().dims
            ],
            "sut": {"p_idle": 0.5, "kappa_big": 1.0, "kappa_little": 0.15,
                    "gain": 2.0046654031199886},
            "fitness": {"p_m": 6.0},
            "algorithms": [
                {"kind": "random", "budget": 60, "warmup": 20},
                {"kind": "dn", "budget": 60, "warmup": 20, "batchsize": 4,
                 "gan": {"disc_epochs": 3, "gen_epochs": 3}},
                {"kind": "ogan", "budget": 60, "warmup": 20,
                 "gan": {"disc_epochs": 3, "gen_epochs": 3}},
            ],
            "runs": 2,
            "master_seed": 31415,
            "sma_window": 10,
            "histogram_bins": 10,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))

        for out in ("a", "b"):
            code = main([
                "compare", "--config", str(path),
                "--out", str(tmp_path / out),
                "--master-seed", "31415",
            ])
            assert code == 0
        for name in ("tests.csv", "summary.json", "histogram.csv", "sma.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} differs between identical invocations"
