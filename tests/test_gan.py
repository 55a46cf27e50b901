"""Online GAN: topology, sampling, two-phase training, phase isolation."""

import copy
import tracemalloc

import numpy as np
import pytest

import perfgan.gan
import perfgan.nn
from perfgan.gan import (
    DISCRIMINATOR_TOPOLOGY,
    GENERATOR_TOPOLOGY,
    LATENT_DIM,
    GanHyperparams,
    GanModel,
    init_gan,
    predict_fitness,
    sample_candidates,
    train_discriminator,
    train_gan,
    train_generator,
)
from perfgan.nn import forward, loss_mse
from test_nn import arrays_of, assert_untouched_and_unshared


def nets_equal(a, b):
    return all(np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights)) and all(
        np.array_equal(ba, bb) for ba, bb in zip(a.biases, b.biases)
    )


def fresh_gan(seed=0):
    return init_gan(GanHyperparams(), np.random.default_rng(seed))


def trained_gan(seed=0):
    """A GAN after one short round, so both RMSprop caches are nonzero."""
    hp = GanHyperparams(disc_epochs=2, gen_epochs=2)
    return train_gan(fresh_gan(seed), toy_suite(16, seed), hp, np.random.default_rng(seed))


def states_of(gan):
    return (gan.generator, gan.discriminator)


def toy_suite(n=8, seed=1):
    rng = np.random.default_rng(seed)
    rows = [(rng.uniform(-1, 1, size=6), rng.uniform(0, 1)) for _ in range(n)]
    return np.array([v for v, _ in rows]), np.array([[f] for _, f in rows])


def noise(k, rng):
    return rng.uniform(-1.0, 1.0, size=(k, LATENT_DIM))


def constant_suite(vec, fitness, n):
    return np.tile(vec, (n, 1)), np.full((n, 1), fitness)


EMPTY_SUITE = (np.zeros((0, 6)), np.zeros((0, 1)))


def expected_parameter_count(topology):
    # independent arithmetic oracle: sum of fan_in*fan_out + fan_out
    widths = [topology.input_dim] + [l.units for l in topology.layers]
    return sum(i * o + o for i, o in zip(widths[:-1], widths[1:]))


class TestInit:
    def test_deterministic(self):
        a, b = fresh_gan(3), fresh_gan(3)
        assert nets_equal(a.generator, b.generator)
        assert nets_equal(a.discriminator, b.discriminator)

    def test_generator_parameter_count(self):
        gan = fresh_gan()
        want = expected_parameter_count(GENERATOR_TOPOLOGY)
        assert want == 100 * 128 + 128 + 2 * (128 * 128 + 128) + 128 * 6 + 6 == 46_726
        assert gan.generator.parameter_count() == want

    def test_discriminator_parameter_count(self):
        gan = fresh_gan()
        want = expected_parameter_count(DISCRIMINATOR_TOPOLOGY)
        assert want == 6 * 8 + 8 + 2 * (8 * 8 + 8) + 8 * 1 + 1 == 209
        assert gan.discriminator.parameter_count() == want

    def test_dimension_chain(self):
        gan = fresh_gan()
        assert LATENT_DIM == gan.generator.topology.input_dim == 100
        assert gan.generator.topology.output_dim == 6
        assert gan.discriminator.topology.input_dim == 6
        assert gan.discriminator.topology.output_dim == 1


class TestSampling:
    def test_shape_and_open_range(self):
        gan = fresh_gan(1)
        out = sample_candidates(gan, noise(5, np.random.default_rng(0)))
        assert out.shape == (5, 6)
        assert np.all(out > -1.0) and np.all(out < 1.0)

    def test_zero_generator_emits_origin(self):
        gan = fresh_gan(2)
        for w in gan.generator.weights:
            w[:] = 0.0
        out = sample_candidates(gan, noise(3, np.random.default_rng(0)))
        assert np.array_equal(out, np.zeros((3, 6)))

    def test_deterministic(self):
        gan = fresh_gan(4)
        a = sample_candidates(gan, noise(4, np.random.default_rng(7)))
        b = sample_candidates(gan, noise(4, np.random.default_rng(7)))
        assert np.array_equal(a, b)


class TestPredict:
    def test_zero_discriminator_predicts_zero(self):
        gan = fresh_gan(5)
        for w in gan.discriminator.weights:
            w[:] = 0.0
        assert np.array_equal(predict_fitness(gan, np.zeros((2, 6))), np.zeros(2))

    def test_nonnegative_and_order_preserving(self):
        gan = fresh_gan(6)
        x = np.random.default_rng(1).uniform(-1, 1, size=(10, 6))
        preds = predict_fitness(gan, x)
        assert preds.shape == (10,)
        assert np.all(preds >= 0.0)
        # row i of the batch corresponds to input i (BLAS may reassociate
        # across batch shapes, so compare numerically, not bitwise)
        for i in (0, 4, 9):
            assert preds[i] == pytest.approx(
                predict_fitness(gan, x[i : i + 1])[0], rel=1e-12, abs=1e-15
            )


class TestTrainDiscriminator:
    def test_generator_bit_identical(self):
        gan = fresh_gan(7)
        before = gan.generator
        after = train_discriminator(gan, toy_suite(), GanHyperparams(),
                                    np.random.default_rng(0))
        assert after.generator is before
        assert nets_equal(after.generator, before)

    def test_prediction_error_shrinks(self):
        # seed chosen so the relu output is live at the probe point:
        # a dead output unit has exactly zero gradient and cannot learn
        gan = fresh_gan(0)
        vec = np.full(6, 0.5)
        suite = constant_suite(vec, 0.9, 16)
        before = abs(predict_fitness(gan, vec[None, :])[0] - 0.9)
        trained = train_discriminator(gan, suite, GanHyperparams(disc_epochs=50),
                                      np.random.default_rng(1))
        after = abs(predict_fitness(trained, vec[None, :])[0] - 0.9)
        assert after < before

    def test_deterministic(self):
        suite = toy_suite()
        a = train_discriminator(fresh_gan(9), suite, GanHyperparams(),
                                np.random.default_rng(2))
        b = train_discriminator(fresh_gan(9), suite, GanHyperparams(),
                                np.random.default_rng(2))
        assert nets_equal(a.discriminator, b.discriminator)

    def test_empty_suite_rejected(self):
        with pytest.raises(ValueError):
            train_discriminator(fresh_gan(10), EMPTY_SUITE, GanHyperparams(),
                                np.random.default_rng(0))


class TestTrainGenerator:
    def test_discriminator_bit_identical(self):
        gan = fresh_gan(11)
        before = gan.discriminator
        after = train_generator(gan, GanHyperparams(), np.random.default_rng(3))
        assert after.discriminator is before
        assert nets_equal(after.discriminator, before)

    def test_constant_one_discriminator_means_zero_gradient(self):
        gan = fresh_gan(12)
        for w in gan.discriminator.weights:
            w[:] = 0.0
        gan.discriminator.biases[-1][0] = 1.0  # relu(0 + 1) = 1 for any input
        after = train_generator(gan, GanHyperparams(), np.random.default_rng(4))
        assert nets_equal(after.generator, gan.generator)

    def test_mean_prediction_does_not_decrease(self):
        gan = fresh_gan(13)
        gan = train_discriminator(gan, toy_suite(32, seed=5), GanHyperparams(),
                                  np.random.default_rng(5))
        probe = noise(64, np.random.default_rng(6))
        before = predict_fitness(gan, sample_candidates(gan, probe)).mean()
        trained = train_generator(gan, GanHyperparams(), np.random.default_rng(7))
        after = predict_fitness(trained, sample_candidates(trained, probe)).mean()
        assert after >= before

    def test_arguments_untouched_and_unshared(self):
        gan = trained_gan(22)
        before = [a.copy() for a in arrays_of(*states_of(gan))]
        after = train_generator(gan, GanHyperparams(gen_epochs=3), np.random.default_rng(12))
        assert_untouched_and_unshared(before, states_of(gan), (after.generator,))

    def test_default_draws_32_noise_rows_per_step(self):
        rng = np.random.default_rng(14)
        train_generator(fresh_gan(23), GanHyperparams(gen_epochs=3), rng)
        expected = np.random.default_rng(14)
        for _ in range(3):
            expected.uniform(-1.0, 1.0, size=(32, LATENT_DIM))
        assert rng.bit_generator.state == expected.bit_generator.state

    @pytest.mark.parametrize("suite_size, rows", [(0, 32), (40, 40)])
    def test_noise_rows_follow_suite_size(self, suite_size, rows):
        hp, rng = GanHyperparams(gen_epochs=2), np.random.default_rng(15)
        train_generator(fresh_gan(24), hp, rng, suite_size=suite_size)
        expected = np.random.default_rng(15)
        for _ in range(2):
            expected.uniform(-1.0, 1.0, size=(rows, LATENT_DIM))
        assert rng.bit_generator.state == expected.bit_generator.state

    def test_working_set_at_199_noise_rows(self):
        # one array per layer, which backward spends on the local
        # derivative, dz written over the upstream gradient, one update
        # scratch and the noise drawn into the owned input array
        gan, hp = fresh_gan(25), GanHyperparams()
        train_generator(gan, hp, np.random.default_rng(16), suite_size=199)
        tracemalloc.start()
        try:
            train_generator(gan, hp, np.random.default_rng(16), suite_size=199)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.2e6

    def test_one_trace_per_network_per_step(self, monkeypatch):
        # each step runs the generator and the discriminator forward once;
        # backprop reuses those passes
        real = perfgan.nn.forward_trace
        traced = []

        def counting(state, inputs, **kwargs):
            traced.append(state.topology)
            return real(state, inputs, **kwargs)

        for module in (perfgan.nn, perfgan.gan):
            monkeypatch.setattr(module, "forward_trace", counting)
        train_generator(fresh_gan(21), GanHyperparams(gen_epochs=3),
                        np.random.default_rng(11))
        assert traced == [GENERATOR_TOPOLOGY, DISCRIMINATOR_TOPOLOGY] * 3


class TestChainRule:
    def test_generator_gradient_matches_finite_differences(self):
        # gradient of mse(disc(gen(z)), 1) w.r.t. generator parameters
        from perfgan.nn import (
            LayerSpec, NetworkTopology, backward, forward_trace, init_network,
        )

        rng = np.random.default_rng(14)
        gen = init_network(
            NetworkTopology(3, (LayerSpec(4, "tanh"), LayerSpec(2, "tanh"))), rng
        )
        disc = init_network(
            NetworkTopology(2, (LayerSpec(4, "tanh"), LayerSpec(1, "relu"))), rng
        )
        noise = rng.uniform(-1, 1, size=(5, 3))
        ones = np.ones((5, 1))

        candidates = forward(gen, noise)
        through = backward(disc, candidates, ones)
        analytic = forward_trace(gen, noise).backward(through.input_grad)

        h = 1e-5
        for l in range(len(gen.weights)):
            for idx in np.ndindex(*gen.weights[l].shape):
                st = copy.deepcopy(gen)
                st.weights[l][idx] += h
                up = loss_mse(forward(disc, forward(st, noise)), ones)
                st.weights[l][idx] -= 2 * h
                down = loss_mse(forward(disc, forward(st, noise)), ones)
                fd = (up - down) / (2 * h)
                a = analytic.weight_grads[l][idx]
                if abs(a) < 1e-3:
                    assert abs(a - fd) <= 1e-8
                else:
                    assert abs(a - fd) / abs(a) <= 1e-5


class TestTrainGan:
    def test_single_element_suite_runs_both_phases(self):
        # seed/point chosen so the relu output is live at the training point
        gan = fresh_gan(0)
        suite = constant_suite(np.full(6, 0.3), 0.4, 1)
        after = train_gan(gan, suite, GanHyperparams(), np.random.default_rng(8))
        assert not nets_equal(after.discriminator, gan.discriminator)
        assert not nets_equal(after.generator, gan.generator)

    def test_deterministic(self):
        suite = toy_suite(16, seed=16)
        a = train_gan(fresh_gan(17), suite, GanHyperparams(), np.random.default_rng(9))
        b = train_gan(fresh_gan(17), suite, GanHyperparams(), np.random.default_rng(9))
        assert nets_equal(a.generator, b.generator)
        assert nets_equal(a.discriminator, b.discriminator)

    def test_equals_manual_composition(self):
        suite = toy_suite(40, seed=18)
        hp = GanHyperparams()
        combined = train_gan(fresh_gan(19), suite, hp, np.random.default_rng(10))

        rng = np.random.default_rng(10)
        staged = train_discriminator(fresh_gan(19), suite, hp, rng)
        staged = train_generator(staged, hp, rng, suite_size=len(suite[0]))
        assert nets_equal(combined.generator, staged.generator)
        assert nets_equal(combined.discriminator, staged.discriminator)

    def test_arguments_untouched_and_unshared(self):
        gan = trained_gan(24)
        before = [a.copy() for a in arrays_of(*states_of(gan))]
        after = train_gan(gan, toy_suite(20, seed=25), GanHyperparams(),
                          np.random.default_rng(13))
        assert_untouched_and_unshared(before, states_of(gan), states_of(after))

    def test_empty_suite_rejected(self):
        with pytest.raises(ValueError):
            train_gan(fresh_gan(20), EMPTY_SUITE, GanHyperparams(),
                      np.random.default_rng(0))
