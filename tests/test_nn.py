"""Dense-network engine: forward, exact gradients, RMSprop, training."""

import copy
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perfgan.nn as nn
from perfgan.nn import (
    Gradients,
    LayerSpec,
    NetworkState,
    NetworkTopology,
    backward,
    forward,
    forward_trace,
    init_network,
    loss_mse,
    rmsprop_step,
)


def make_net(input_dim, specs, seed=0):
    topo = NetworkTopology(input_dim, tuple(LayerSpec(u, a) for u, a in specs))
    return init_network(topo, np.random.default_rng(seed))


def finite_difference_grads(state, inputs, targets, h=1e-5):
    """Central-difference oracle for d loss_mse(forward(.))/d params and inputs."""
    x = np.asarray(inputs, dtype=np.float64)

    def loss_at(st, xs):
        return loss_mse(forward(st, xs), targets)

    weight_grads = []
    bias_grads = []
    for l in range(len(state.weights)):
        wg = np.zeros_like(state.weights[l])
        for idx in np.ndindex(*state.weights[l].shape):
            st = copy.deepcopy(state)
            st.weights[l][idx] += h
            up = loss_at(st, x)
            st.weights[l][idx] -= 2 * h
            down = loss_at(st, x)
            wg[idx] = (up - down) / (2 * h)
        weight_grads.append(wg)
        bg = np.zeros_like(state.biases[l])
        for idx in np.ndindex(*state.biases[l].shape):
            st = copy.deepcopy(state)
            st.biases[l][idx] += h
            up = loss_at(st, x)
            st.biases[l][idx] -= 2 * h
            down = loss_at(st, x)
            bg[idx] = (up - down) / (2 * h)
        bias_grads.append(bg)

    input_grad = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        xs = x.copy()
        xs[idx] += h
        up = loss_at(state, xs)
        xs[idx] -= 2 * h
        down = loss_at(state, xs)
        input_grad[idx] = (up - down) / (2 * h)
    return Gradients(weight_grads, bias_grads, input_grad)


def arrays_of(*states):
    """The parameter and cache vectors of the given NetworkStates."""
    return [a for state in states for a in (state.params, state.cache)]


def assert_untouched_and_unshared(before, given, returned):
    """`given`'s arrays still equal the copies in `before`, bit for bit,
    and no array of `returned` shares memory with any of them."""
    for saved, array in zip(before, arrays_of(*given), strict=True):
        assert saved.tobytes() == array.tobytes()
    for out in arrays_of(*returned):
        assert not any(np.shares_memory(out, array) for array in arrays_of(*given))


def assert_grads_close(analytic, numeric, rel=1e-5, absolute=1e-8):
    """Relative error bound for sizable gradients, absolute for tiny ones."""
    pairs = list(zip(analytic.weight_grads, numeric.weight_grads))
    pairs += list(zip(analytic.bias_grads, numeric.bias_grads))
    pairs.append((analytic.input_grad, numeric.input_grad))
    for a, f in pairs:
        err = np.abs(a - f)
        small = np.abs(a) < 1e-3
        assert np.all(err[small] <= absolute), f"abs err {err[small].max()}"
        if np.any(~small):
            rel_err = err[~small] / np.abs(a[~small])
            assert np.all(rel_err <= rel), f"rel err {rel_err.max()}"


class TestInit:
    def test_bias_starts_at_zero(self):
        net = make_net(1, [(1, "linear")], seed=7)
        assert net.biases[0][0] == 0.0

    def test_same_seed_is_bit_identical(self):
        a = make_net(3, [(4, "tanh"), (2, "linear")], seed=11)
        b = make_net(3, [(4, "tanh"), (2, "linear")], seed=11)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)

    def test_layers_are_views_of_params_in_every_copy(self):
        net = make_net(3, [(4, "tanh"), (2, "linear")], seed=1)
        net.cache[:] = 0.5
        copies = (net.copy(), copy.deepcopy(net), pickle.loads(pickle.dumps(net)))
        for state in (net,) + copies:
            assert state.params.size == 3 * 4 + 4 + 4 * 2 + 2
            for a in state.weights + state.biases:
                assert np.shares_memory(a, state.params)
            assert state.params.tobytes() == net.params.tobytes()
            assert state.cache.tobytes() == net.cache.tobytes()
        for state in copies:
            assert not np.shares_memory(state.params, net.params)
            assert not np.shares_memory(state.cache, net.cache)

    def test_glorot_bound(self):
        # fan_in = fan_out = 4 -> every |w| <= sqrt(6/8)
        bound = np.sqrt(6.0 / 8.0)
        for seed in range(20):
            net = make_net(4, [(4, "tanh")], seed=seed)
            assert np.all(np.abs(net.weights[0]) <= bound)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            LayerSpec(0, "tanh")
        with pytest.raises(ValueError):
            LayerSpec(3, "sigmoid")
        with pytest.raises(ValueError):
            NetworkTopology(4, ())
        with pytest.raises(ValueError, match="^input_dim must be >= 1$"):
            NetworkTopology(0, (LayerSpec(3, "tanh"),))


class TestForward:
    def test_zero_parameters_tanh_gives_zero(self):
        net = make_net(3, [(4, "tanh"), (2, "tanh")], seed=0)
        for w in net.weights:
            w[:] = 0.0
        out = forward(net, np.array([[0.3, -0.8, 1.0]]))
        assert np.array_equal(out, np.zeros((1, 2)))

    def test_linear_identity(self):
        net = make_net(2, [(2, "linear")])
        net.weights[0][:] = np.eye(2)
        net.biases[0][:] = 0.0
        x = np.array([[0.5, -1.5], [2.0, 3.0]])
        assert np.array_equal(forward(net, x), x)

    def test_relu_clamps_negative(self):
        net = make_net(2, [(2, "relu")])
        net.weights[0][:] = np.eye(2)
        net.biases[0][:] = 0.0
        out = forward(net, np.array([[-3.0, 2.0]]))
        assert np.array_equal(out, np.array([[0.0, 2.0]]))

    def test_dimension_mismatch_raises(self):
        net = make_net(3, [(2, "tanh")])
        with pytest.raises(ValueError):
            forward(net, np.zeros((1, 4)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_input_raises(self, value):
        net = make_net(3, [(2, "tanh")])
        with pytest.raises(ValueError, match="finite"):
            forward(net, np.array([[0.0, value, 0.0]]))

    def test_output_ranges(self):
        rng = np.random.default_rng(5)
        tanh_net = make_net(4, [(8, "tanh"), (3, "tanh")], seed=1)
        relu_net = make_net(4, [(8, "tanh"), (3, "relu")], seed=2)
        x = rng.uniform(-2, 2, size=(64, 4))
        t_out = forward(tanh_net, x)
        assert np.all(t_out > -1.0) and np.all(t_out < 1.0)
        assert np.all(forward(relu_net, x) >= 0.0)

    def test_batch_size_preserved(self):
        net = make_net(3, [(5, "tanh"), (2, "linear")], seed=3)
        x = np.zeros((17, 3))
        assert forward(net, x).shape == (17, 2)


class TestLoss:
    def test_zero_residual(self):
        p = np.array([[0.2, 0.4]])
        assert loss_mse(p, p.copy()) == 0.0

    def test_single_unit_error(self):
        assert loss_mse(np.array([[0.0]]), np.array([[1.0]])) == 1.0

    def test_hand_mean(self):
        # (1 + 9) / 2
        assert loss_mse(np.array([[0.0, 0.0]]), np.array([[1.0, 3.0]])) == 5.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            loss_mse(np.zeros((2, 1)), np.zeros((1, 2)))


class TestBackward:
    def test_targets_must_match_the_output(self):
        # a (4, 1) target would broadcast against the (4, 2) output
        net = make_net(3, [(2, "tanh")], seed=9)
        with pytest.raises(ValueError, match=r"^targets must be \(4, 2\), got \(4, 1\)$"):
            backward(net, np.zeros((4, 3)), np.zeros((4, 1)))

    def test_zero_at_minimum(self):
        net = make_net(2, [(3, "tanh"), (1, "linear")], seed=4)
        x = np.array([[0.1, -0.2]])
        targets = forward(net, x)
        grads = backward(net, x, targets)
        for g in grads.weight_grads + grads.bias_grads:
            assert np.array_equal(g, np.zeros_like(g))
        assert np.array_equal(grads.input_grad, np.zeros_like(x))

    def test_scalar_chain_by_hand(self):
        # single linear unit: L = (w*x - y)^2, w=2, x=1, y=0
        # dL/dw = 2x(wx - y) = 4, dL/dx = 2w(wx - y) = 8
        net = make_net(1, [(1, "linear")])
        net.weights[0][0, 0] = 2.0
        net.biases[0][0] = 0.0
        grads = backward(net, np.array([[1.0]]), np.array([[0.0]]))
        assert grads.weight_grads[0][0, 0] == pytest.approx(4.0, abs=1e-12)
        assert grads.input_grad[0, 0] == pytest.approx(8.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        acts = ["tanh", "relu", "linear"]
        specs = [(int(rng.integers(1, 5)), acts[seed % 3]), (2, acts[(seed + 1) % 3])]
        net = make_net(3, specs, seed=seed + 100)
        x = rng.uniform(-1, 1, size=(4, 3))
        t = rng.uniform(-1, 1, size=(4, 2))
        assert_grads_close(backward(net, x, t), finite_difference_grads(net, x, t))

    @pytest.mark.parametrize(
        "input_dim, specs",
        [(100, [(128, "tanh")] * 3 + [(6, "tanh")]), (6, [(8, "tanh")] * 3 + [(1, "relu")])],
        ids=["generator", "discriminator"],
    )
    def test_partial_backwards_match_full_bit_for_bit(self, input_dim, specs):
        # training's partial paths against public Trace.backward
        net = make_net(input_dim, specs, seed=12)
        rng = np.random.default_rng(13)
        x = rng.uniform(-1, 1, (40, input_dim))
        output_grad = rng.normal(size=(40, specs[-1][0]))
        targets = rng.uniform(-1, 1, (40, specs[-1][0]))
        trace = forward_trace(net, x)
        full = trace.backward(output_grad)
        # TrainingCopy.backward leaves its parameter gradients in
        # grad_views until update spends them
        own = nn.TrainingCopy(net)
        arrays = nn.StepArrays(own.state, 40, False)
        arrays.inputs[:] = x
        forward_trace(own.state, arrays.inputs, out=arrays.trace)
        own.backward(arrays, output_grad.copy())
        weight_grads, bias_grads = own.grad_views
        for a, b in zip(full.weight_grads + full.bias_grads, weight_grads + bias_grads):
            assert a.tobytes() == b.tobytes()
        # a frozen network's relay is the input gradient of the MSE gradient
        frozen = nn.StepArrays(net, 40, True)
        forward_trace(net, x, out=frozen.trace)
        relayed = frozen.relay(targets)
        expected = trace.backward(reference_mse_grad(trace.output, targets)[1]).input_grad
        assert relayed.tobytes() == expected.tobytes()

    def test_backward_results_share_no_memory(self):
        net = make_net(3, [(4, "tanh"), (2, "linear")], seed=14)
        trace = forward_trace(net, np.random.default_rng(15).uniform(-1, 1, (5, 3)))
        output_grad = np.random.default_rng(16).normal(size=(5, 2))
        saved = output_grad.copy()
        saved_activations = [a.tobytes() for a in trace.activations]
        first = trace.backward(output_grad)
        assert output_grad.tobytes() == saved.tobytes()
        assert [a.tobytes() for a in trace.activations] == saved_activations
        second = trace.backward(output_grad)
        assert output_grad.tobytes() == saved.tobytes()
        assert [a.tobytes() for a in trace.activations] == saved_activations

        def arrays(grads):
            return grads.weight_grads + grads.bias_grads + [grads.input_grad]

        for a, b in zip(arrays(first), arrays(second), strict=True):
            assert a.tobytes() == b.tobytes()
        for a in arrays(first):
            for b in arrays(second) + [output_grad] + trace.activations:
                assert not np.shares_memory(a, b)

    def test_one_input_gradient_buffer_per_pass(self):
        # a training pass has no input gradient for layer 0, a relaying
        # one does, and each pass's input gradients are views of one
        # buffer of rows x the widest fan-in they need
        net = make_net(50, [(4, "tanh"), (3, "tanh"), (1, "relu")], seed=17)
        trained, relaying = nn.StepArrays(net, 7, False), nn.StepArrays(net, 7, True)
        assert trained.input_grads[0] is None
        assert [g.shape for g in trained.input_grads[1:]] == [(7, 4), (7, 3)]
        assert [g.shape for g in relaying.input_grads] == [(7, 50), (7, 4), (7, 3)]
        for grads, size in ((trained.input_grads[1:], 7 * 4), (relaying.input_grads, 7 * 50)):
            assert all(g.base is grads[0].base and g.base.size == size for g in grads)

    def test_from_output_grad_shape_contract(self):
        net = make_net(3, [(2, "tanh")], seed=9)
        with pytest.raises(ValueError):
            forward_trace(net, np.zeros((2, 3))).backward(np.zeros((2, 3)))


def reference_rmsprop_step(state, grads):
    """The functional update the in-place kernel replaced, over the flat
    parameter and cache vectors (weights, then biases).  (1 - rho) * g
    must be formed before the second * g, or the last bits differ."""
    lr, rho, eps = nn.RMSPROP_LEARNING_RATE, nn.RMSPROP_RHO, nn.RMSPROP_EPSILON
    g = np.concatenate([np.ravel(a) for a in grads.weight_grads + grads.bias_grads])
    cache = rho * state.cache + (1.0 - rho) * g * g
    return NetworkState(state.topology, state.params - lr * g / (np.sqrt(cache) + eps), cache)


@st.composite
def rmsprop_case(draw):
    """A small network or one of tens of thousands of parameters, and how
    to draw its gradients."""
    above = draw(st.booleans())
    low, high = (100, 160) if above else (1, 12)
    widths = draw(st.lists(st.integers(low, high), min_size=3 if above else 2, max_size=4))
    acts = ["tanh", "relu", "linear"]
    specs = [(w, acts[i % 3]) for i, w in enumerate(widths[1:])]
    net = make_net(widths[0], specs, seed=draw(st.integers(0, 2**16)))
    scale = draw(st.sampled_from([0.0, 1e-6, 1.0, 1e3]))
    return net, draw(st.integers(1, 4)), draw(st.integers(0, 2**16)), scale


class TestRmsprop:
    @settings(deadline=None)
    @given(rmsprop_case())
    def test_matches_functional_reference_bit_for_bit(self, case):
        net, steps, seed, scale = case
        rng = np.random.default_rng(seed)
        ref = net
        for _ in range(steps):
            grads = Gradients(
                [rng.normal(scale=scale, size=w.shape) for w in net.weights],
                [rng.normal(scale=scale, size=b.shape) for b in net.biases],
                np.zeros((1, net.topology.input_dim)),
            )
            net = rmsprop_step(net, grads)
            ref = reference_rmsprop_step(ref, grads)
        for a, b in zip(arrays_of(net), arrays_of(ref), strict=True):
            assert a.tobytes() == b.tobytes()

    def scalar_net(self, w):
        net = make_net(1, [(1, "linear")])
        net.weights[0][0, 0] = w
        return net

    def grads_of(self, net, wgrad):
        return Gradients(
            weight_grads=[np.array([[wgrad]])],
            bias_grads=[np.zeros(1)],
            input_grad=np.zeros((1, 1)),
        )

    def test_zero_gradient_leaves_parameters(self):
        net = make_net(2, [(3, "tanh")], seed=1)
        net.cache[:] = 0.25
        grads = Gradients(
            [np.zeros_like(net.weights[0])],
            [np.zeros_like(net.biases[0])],
            np.zeros((1, 2)),
        )
        new_net = rmsprop_step(net, grads)
        assert np.array_equal(new_net.weights[0], net.weights[0])
        assert np.array_equal(new_net.biases[0], net.biases[0])
        # cache still decays toward zero
        assert np.allclose(new_net.cache, 0.9 * 0.25, atol=1e-15)

    def test_first_step_matches_hand_computation(self):
        net = self.scalar_net(1.0)
        new_net = rmsprop_step(net, self.grads_of(net, 1.0))
        # the cache vector holds the weight's entry first, as params does
        assert new_net.cache[0] == pytest.approx(0.1, abs=1e-15)
        expected = 1.0 - 0.001 / (np.sqrt(0.1) + 1e-8)
        assert new_net.weights[0][0, 0] == pytest.approx(expected, abs=1e-12)

    def test_second_step_matches_hand_computation(self):
        net = self.scalar_net(1.0)
        net = rmsprop_step(net, self.grads_of(net, 1.0))
        net2 = rmsprop_step(net, self.grads_of(net, 1.0))
        assert net2.cache[0] == pytest.approx(0.19, abs=1e-15)
        step = 0.001 / (np.sqrt(0.19) + 1e-8)
        assert net.weights[0][0, 0] - net2.weights[0][0, 0] == pytest.approx(
            step, abs=1e-12
        )

    def test_inputs_not_mutated(self):
        net = make_net(2, [(2, "tanh")], seed=3)
        w_before = net.weights[0].copy()
        grads = Gradients(
            [np.ones_like(net.weights[0])],
            [np.ones_like(net.biases[0])],
            np.zeros((1, 2)),
        )
        rmsprop_step(net, grads)
        assert np.array_equal(net.weights[0], w_before)
        assert np.array_equal(net.cache, np.zeros_like(net.cache))


class TestTrainingCopy:
    def test_sliced_update_equals_whole_vector_update(self):
        # one linear layer of 2.5 update slices: two full slices and a half
        size = int(2.5 * nn.UPDATE_SLICE)
        net = make_net(size // 10 - 1, [(10, "linear")], seed=4)
        assert net.params.size == size
        rng = np.random.default_rng(7)
        net.cache[:] = rng.uniform(0.0, 1e-3, size)
        lr, rho, eps = nn.RMSPROP_LEARNING_RATE, nn.RMSPROP_RHO, nn.RMSPROP_EPSILON
        own, whole = nn.TrainingCopy(net), net
        for _ in range(3):
            g = rng.normal(size=size)
            own.grads[:] = g
            own.update()
            # whole-vector RMSprop, (1 - rho) * g formed before the second * g
            cache = rho * whole.cache + (1.0 - rho) * g * g
            params = whole.params - lr * g / (np.sqrt(cache) + eps)
            whole = NetworkState(net.topology, params, cache)
            for a, b in zip(arrays_of(own.state), arrays_of(whole), strict=True):
                assert a.tobytes() == b.tobytes()

    def test_update_scratch_is_one_slice(self):
        # a copy holds params, cache and gradients, plus at most one
        # slice of update scratch, however large the network
        net = make_net(int(2.5 * nn.UPDATE_SLICE) // 10 - 1, [(10, "linear")])
        tracemalloc.start()
        try:
            own = nn.TrainingCopy(net)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 8 * (3 * net.params.size + nn.UPDATE_SLICE) + 4096
        assert own.grads.size == net.params.size

    def test_k_fits_in_place_equal_k_chained_train_epochs(self):
        net = make_net(3, [(5, "tanh"), (4, "relu"), (2, "linear")], seed=8)
        data = np.random.default_rng(3)
        own, chained = nn.TrainingCopy(net), net
        owned = own.state
        rng, chained_rng = np.random.default_rng(5), np.random.default_rng(5)
        for k in range(4):
            dataset = data.uniform(-1, 1, (9 + k, 3)), data.uniform(-1, 1, (9 + k, 2))
            loss = own.fit(dataset, 2, 4, rng)
            fresh = nn.TrainingCopy(chained)
            chained_loss, chained = fresh.fit(dataset, 2, 4, chained_rng), fresh.state
            assert loss == chained_loss
            assert_same_training(own.state, chained, rng, chained_rng)
        assert own.state is owned


class TestTrainEpochs:
    """`TrainingCopy.fit` on a fresh copy of a network."""

    @pytest.mark.parametrize("epochs, minibatch", [(0, 8), (1, 0)])
    def test_zero_epochs_or_minibatch_rejected(self, epochs, minibatch):
        net = make_net(2, [(3, "tanh"), (1, "linear")], seed=2)
        x = np.array([[0.1, 0.9]])
        y = np.array([[0.5]])
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="^epochs and minibatch must be >= 1$"):
            nn.TrainingCopy(net).fit((x, y), epochs, minibatch, rng)

    def test_targets_must_match_the_output(self):
        # a flat target would broadcast into the (1, 1) minibatch buffer
        net = make_net(2, [(3, "tanh"), (1, "linear")], seed=2)
        x, y = np.array([[0.1, 0.9]]), np.array([0.5])
        with pytest.raises(ValueError, match=r"^targets must be \(1, 1\), got \(1,\)$"):
            nn.TrainingCopy(net).fit((x, y), 1, 8, np.random.default_rng(0))

    def test_single_point_regression_improves(self):
        net = make_net(2, [(4, "tanh"), (1, "linear")], seed=5)
        x = np.array([[0.3, -0.7]])
        y = np.array([[0.8]])
        err_before = abs(forward(net, x)[0, 0] - 0.8)
        own = nn.TrainingCopy(net)
        own.fit((x, y), 200, 8, np.random.default_rng(1))
        err_after = abs(forward(own.state, x)[0, 0] - 0.8)
        assert err_after < err_before

    def test_same_seed_bit_identical(self):
        rng_data = np.random.default_rng(42)
        x = rng_data.uniform(-1, 1, size=(20, 2))
        y = rng_data.uniform(0, 1, size=(20, 1))
        results = []
        for _ in range(2):
            net = make_net(2, [(4, "tanh"), (1, "relu")], seed=6)
            own = nn.TrainingCopy(net)
            results.append((own.state, own.fit((x, y), 5, 8, np.random.default_rng(9))))
        a, b = results
        assert a[1] == b[1]
        for wa, wb in zip(a[0].weights, b[0].weights):
            assert np.array_equal(wa, wb)

    def test_empty_dataset_rejected(self):
        net = make_net(2, [(1, "linear")])
        with pytest.raises(ValueError):
            nn.TrainingCopy(net).fit((np.zeros((0, 2)), np.zeros((0, 1))), 1, 8,
                                     np.random.default_rng(0))

    def test_one_trace_per_minibatch(self, monkeypatch):
        # the loss and the gradients of a minibatch read the same forward pass
        real = nn.forward_trace
        batch_sizes = []

        def counting(state, inputs, **kwargs):
            batch_sizes.append(len(inputs))
            return real(state, inputs, **kwargs)

        monkeypatch.setattr(nn, "forward_trace", counting)
        net = make_net(3, [(5, "tanh"), (2, "linear")], seed=8)
        x = np.random.default_rng(3).uniform(-1, 1, (10, 3))
        y = np.random.default_rng(4).uniform(-1, 1, (10, 2))
        nn.TrainingCopy(net).fit((x, y), 3, 4, np.random.default_rng(5))
        assert batch_sizes == [4, 4, 2] * 3

    def test_arguments_untouched_and_unshared(self):
        # the state a copy was built from is untouched and shares no array
        # with it
        net = make_net(3, [(5, "tanh"), (2, "linear")], seed=8)
        x = np.random.default_rng(3).uniform(-1, 1, (10, 3))
        y = np.random.default_rng(4).uniform(-1, 1, (10, 2))
        own = nn.TrainingCopy(net)
        own.fit((x, y), 1, 4, np.random.default_rng(5))
        net = own.state
        before = [a.copy() for a in arrays_of(net)]
        own = nn.TrainingCopy(net)
        own.fit((x, y), 2, 4, np.random.default_rng(6))
        assert_untouched_and_unshared(before, (net,), (own.state,))

    def test_shapes_preserved_by_training(self):
        net = make_net(3, [(5, "tanh"), (2, "linear")], seed=8)
        x = np.random.default_rng(3).uniform(-1, 1, (10, 3))
        y = np.random.default_rng(4).uniform(-1, 1, (10, 2))
        own = nn.TrainingCopy(net)
        own.fit((x, y), 3, 4, np.random.default_rng(5))
        for w0, w1 in zip(net.weights, own.state.weights):
            assert w0.shape == w1.shape


def reference_forward(state, x):
    """The allocation-based forward pass the in-place kernel replaced."""
    zs, activations = [], [x]
    for layer, w, b in zip(state.topology.layers, state.weights, state.biases):
        z = activations[-1] @ w + b
        zs.append(z)
        if layer.activation == "tanh":
            activations.append(np.tanh(z))
        elif layer.activation == "relu":
            activations.append(np.maximum(z, 0.0))
        else:
            activations.append(z)
    return zs, activations


def reference_backward(state, zs, activations, grad, want_input):
    """The allocation-based backward pass: parameter gradients, and the
    input gradient when `want_input`."""
    weight_grads, bias_grads = [None] * len(zs), [None] * len(zs)
    for l in range(len(zs) - 1, -1, -1):
        activation = state.topology.layers[l].activation
        if activation == "tanh":
            local = 1.0 - activations[l + 1] * activations[l + 1]
        elif activation == "relu":
            local = (zs[l] > 0.0).astype(np.float64)
        else:
            local = np.ones_like(zs[l])
        dz = grad * local
        weight_grads[l] = activations[l].T @ dz
        bias_grads[l] = np.sum(dz, axis=0)
        if l > 0 or want_input:
            grad = dz @ state.weights[l].T
    return Gradients(weight_grads, bias_grads, grad)


def reference_mse_grad(output, targets):
    diff = output - targets
    return float(np.mean(diff * diff)), 2.0 * diff / diff.size


def reference_train_epochs(state, dataset, epochs, minibatch, rng):
    x, t = dataset
    n = len(x)
    epoch_loss = 0.0
    for _ in range(epochs):
        perm = rng.permutation(n)
        total = 0.0
        for start in range(0, n, minibatch):
            batch = perm[start : start + minibatch]
            zs, activations = reference_forward(state, x[batch])
            loss, output_grad = reference_mse_grad(activations[-1], t[batch])
            total += loss * len(batch)
            grads = reference_backward(state, zs, activations, output_grad, False)
            state = reference_rmsprop_step(state, grads)
        epoch_loss = total / n
    return state, epoch_loss


def reference_train_generator(gan_model, hp, rng, suite_size):
    from perfgan.gan import LATENT_DIM

    n = max(32, suite_size)
    gen, disc = gan_model.generator, gan_model.discriminator
    for _ in range(hp.gen_epochs):
        noise = rng.uniform(-1.0, 1.0, size=(n, LATENT_DIM))
        gen_zs, gen_acts = reference_forward(gen, noise)
        disc_zs, disc_acts = reference_forward(disc, gen_acts[-1])
        _, output_grad = reference_mse_grad(disc_acts[-1], np.ones((n, 1)))
        relay = reference_backward(disc, disc_zs, disc_acts, output_grad, True).input_grad
        grads = reference_backward(gen, gen_zs, gen_acts, relay, False)
        gen = reference_rmsprop_step(gen, grads)
    return gen


ACTIVATION_NAMES = st.sampled_from(["tanh", "relu", "linear"])


def mixed_layers(max_layers=4):
    return st.lists(st.tuples(st.integers(1, 9), ACTIVATION_NAMES), min_size=1, max_size=max_layers)


@st.composite
def training_case(draw):
    """A network of mixed layers and a dataset whose size is below, equal
    to, a multiple of, or not a multiple of the minibatch."""
    input_dim = draw(st.integers(1, 6))
    specs = draw(mixed_layers())
    minibatch = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["below", "equal", "multiple", "ragged"]))
    n = {
        "below": draw(st.integers(1, minibatch - 1)),
        "equal": minibatch,
        "multiple": minibatch * draw(st.integers(2, 4)),
        "ragged": minibatch * draw(st.integers(1, 3)) + draw(st.integers(1, minibatch - 1)),
    }[kind]
    seed = draw(st.integers(0, 2**16))
    data = np.random.default_rng(seed)
    dataset = (
        data.uniform(-1, 1, (n, input_dim)),
        data.uniform(-1, 1, (n, specs[-1][0])),
    )
    net = make_net(input_dim, specs, seed=seed)
    return net, dataset, draw(st.integers(1, 3)), minibatch, seed


def assert_same_training(got, want, rng, ref_rng):
    for a, b in zip(arrays_of(got), arrays_of(want), strict=True):
        assert a.tobytes() == b.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestTrainingKernel:
    """The in-place training steps against the allocation-based loop,
    bit for bit."""

    @settings(deadline=None, max_examples=60)
    @given(training_case())
    def test_train_epochs_matches_reference_loop(self, case):
        net, dataset, epochs, minibatch, seed = case
        # a nonzero cache, so the update reads the one passed in
        net, _ = reference_train_epochs(net, dataset, 1, minibatch, np.random.default_rng(seed))
        rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        own = nn.TrainingCopy(net)
        got_loss, got = own.fit(dataset, epochs, minibatch, rng), own.state
        want, want_loss = reference_train_epochs(net, dataset, epochs, minibatch, ref_rng)
        assert_same_training(got, want, rng, ref_rng)
        assert got_loss == want_loss

    @settings(deadline=None, max_examples=30)
    @given(mixed_layers(3), mixed_layers(3), st.integers(1, 3), st.integers(32, 72),
           st.integers(0, 2**16))
    def test_train_generator_matches_reference_loop(
        self, gen_specs, disc_specs, epochs, rows, seed
    ):
        from perfgan.gan import LATENT_DIM, GanHyperparams, GanModel, train_generator

        gen = make_net(LATENT_DIM, gen_specs, seed=seed)
        disc = make_net(gen_specs[-1][0], disc_specs + [(1, "relu")], seed=seed + 1)
        gen.cache[: gen.weights[0].size] = 0.5
        model = GanModel(gen, disc)
        hp = GanHyperparams(gen_epochs=epochs)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = train_generator(model, hp, rng, suite_size=rows)
        want = reference_train_generator(model, hp, ref_rng, rows)
        assert_same_training(got.generator, want, rng, ref_rng)

    def test_buffers_live_only_for_one_call(self):
        net = make_net(3, [(5, "tanh"), (4, "relu"), (2, "linear")], seed=8)
        data = np.random.default_rng(3)
        x, y = data.uniform(-1, 1, (10, 3)), data.uniform(-1, 1, (10, 2))
        probe = forward_trace(net, x)
        before = [a.copy() for a in probe.activations]
        results = []
        for _ in range(2):
            own = nn.TrainingCopy(net)
            results.append((own.state, own.fit((x, y), 3, 4, np.random.default_rng(5))))
        (first, first_loss), (second, second_loss) = results
        assert first_loss == second_loss
        for a, b in zip(arrays_of(first), arrays_of(second), strict=True):
            assert a.tobytes() == b.tobytes()
        arguments = arrays_of(net) + [x, y]
        for a in arrays_of(first):
            others = arrays_of(second) + arguments
            assert not any(np.shares_memory(a, b) for b in others)
        for a in arrays_of(second):
            assert not any(np.shares_memory(a, b) for b in arguments)
        for saved, array in zip(before, probe.activations, strict=True):
            assert saved.tobytes() == array.tobytes()
