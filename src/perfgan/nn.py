"""Minimal dense feed-forward networks with exact backprop and RMSprop.

Sized for the two networks this project needs (a 3x128 tanh generator
and a 3x8 discriminator with a relu output), so there is no autograd
graph: each network is a plain list of weight matrices and bias vectors.
A training step runs each network forward once (`forward_trace`); the
loss and the hand-written reverse-mode backward pass both read that
trace.  Backward computes only what its caller reads: parameter
gradients, or the gradient with respect to the *inputs*, which is what
lets a generator train through a frozen downstream network, or both.

All state is float64.  Public calls never mutate their arguments, so
"this phase did not touch that network" is checkable by object identity
or bit-level equality.  A training call owns one copy of its network and
RMSprop cache (`TrainingCopy`), made on entry, and updates it in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("tanh", "relu", "linear")

# (inputs (batch, input_dim), targets (batch, output_dim))
Dataset = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class LayerSpec:
    """Width and activation of one dense layer."""

    units: int
    activation: str

    def __post_init__(self) -> None:
        if self.units < 1:
            raise ValueError("units must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")


@dataclass(frozen=True)
class NetworkTopology:
    """Input width plus an ordered stack of dense layers."""

    input_dim: int
    layers: tuple[LayerSpec, ...]

    def __post_init__(self) -> None:
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if len(self.layers) == 0:
            raise ValueError("need at least one layer")

    @property
    def output_dim(self) -> int:
        return self.layers[-1].units

    def fan_pairs(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per layer."""
        widths = [self.input_dim] + [layer.units for layer in self.layers]
        return list(zip(widths[:-1], widths[1:]))


@dataclass
class NetworkState:
    """Parameters of one network: weights[l] is (fan_in, fan_out)."""

    topology: NetworkTopology
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def parameter_count(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)


@dataclass
class Gradients:
    """Loss gradients mirroring a NetworkState, plus the input gradient."""

    weight_grads: list[np.ndarray]
    bias_grads: list[np.ndarray]
    input_grad: np.ndarray


# RMSprop step hyperparameters
RMSPROP_LEARNING_RATE = 0.001
RMSPROP_RHO = 0.9
RMSPROP_EPSILON = 1e-8


@dataclass
class RmspropState:
    """Per-parameter squared-gradient cache of the RMSprop optimizer."""

    weight_cache: list[np.ndarray]
    bias_cache: list[np.ndarray]

    @classmethod
    def for_network(cls, state: NetworkState) -> "RmspropState":
        return cls(
            weight_cache=[np.zeros_like(w) for w in state.weights],
            bias_cache=[np.zeros_like(b) for b in state.biases],
        )


def init_network(topology: NetworkTopology, rng: np.random.Generator) -> NetworkState:
    """Glorot-uniform weights, zero biases; deterministic per rng state."""
    weights = []
    biases = []
    for (fan_in, fan_out) in topology.fan_pairs():
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return NetworkState(topology=topology, weights=weights, biases=biases)


def _apply_activation(name: str, z: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return np.tanh(z)
    if name == "relu":
        return np.maximum(z, 0.0)
    return z


def _activation_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return 1.0 - a * a
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    return np.ones_like(z)


def _check_inputs(state: NetworkState, inputs: np.ndarray) -> np.ndarray:
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != state.topology.input_dim:
        raise ValueError(
            f"inputs must be (batch, {state.topology.input_dim}), got {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("inputs must be finite")
    return x


@dataclass(frozen=True)
class Trace:
    """One forward pass; zs[l] and activations[l + 1] belong to layer l."""

    state: NetworkState
    zs: list[np.ndarray]
    activations: list[np.ndarray]

    @property
    def output(self) -> np.ndarray:
        return self.activations[-1]

    def mse_grad(self, targets: np.ndarray) -> tuple[float, np.ndarray]:
        """loss_mse of the output against `targets`, and dL/d(output)."""
        diff = self.output - targets
        return float(np.mean(diff * diff)), 2.0 * diff / diff.size

    def backward(self, output_grad: np.ndarray) -> Gradients:
        """Backpropagate an upstream dL/d(output); feeding one network's
        input gradient in here trains an upstream network through it."""
        weight_grads = [np.empty_like(w) for w in self.state.weights]
        bias_grads = [np.empty_like(b) for b in self.state.biases]
        input_grad = self._backward(output_grad, weight_grads, bias_grads, True)
        return Gradients(weight_grads, bias_grads, input_grad)

    def parameter_grads(self, output_grad, weight_grads: list, bias_grads: list) -> None:
        """Only the parameter gradients, written into the given arrays."""
        self._backward(output_grad, weight_grads, bias_grads, False)

    def input_grad(self, output_grad: np.ndarray) -> np.ndarray:
        """Only the input gradient, which a frozen network relays upstream."""
        return self._backward(output_grad, None, None, True)

    # weight_grads None skips the parameter gradients; want_input False
    # skips layer 0's input gradient, which only a frozen network relays
    def _backward(self, output_grad, weight_grads, bias_grads, want_input):
        grad = np.asarray(output_grad, dtype=np.float64)
        if grad.shape != self.output.shape:
            raise ValueError(
                f"output_grad must be {self.output.shape}, got {grad.shape}"
            )
        state, zs, activations = self.state, self.zs, self.activations
        for l in range(len(state.weights) - 1, -1, -1):
            layer = state.topology.layers[l]
            dz = grad * _activation_grad(layer.activation, zs[l], activations[l + 1])
            if weight_grads is not None:
                np.matmul(activations[l].T, dz, out=weight_grads[l])
                np.sum(dz, axis=0, out=bias_grads[l])
            if l > 0 or want_input:
                grad = dz @ state.weights[l].T
        return grad


def forward_trace(state: NetworkState, inputs: np.ndarray) -> Trace:
    """Forward pass over a float64 (batch, input_dim) array, unchecked:
    callers validate their inputs once, not per minibatch."""
    zs: list[np.ndarray] = []
    activations = [inputs]
    for layer, w, b in zip(state.topology.layers, state.weights, state.biases):
        z = activations[-1] @ w + b
        zs.append(z)
        activations.append(_apply_activation(layer.activation, z))
    return Trace(state, zs, activations)


def forward(state: NetworkState, inputs: np.ndarray) -> np.ndarray:
    """Batched forward pass: (batch, input_dim) -> (batch, output_dim)."""
    return forward_trace(state, _check_inputs(state, inputs)).output


def loss_mse(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Mean over all entries of the squared error."""
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {t.shape}")
    diff = p - t
    return float(np.mean(diff * diff))


def backward(state: NetworkState, inputs: np.ndarray, targets: np.ndarray) -> Gradients:
    """Gradients of loss_mse(forward(state, inputs), targets)."""
    trace = forward_trace(state, _check_inputs(state, inputs))
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != trace.output.shape:
        raise ValueError(f"targets must be {trace.output.shape}, got {t.shape}")
    return trace.backward(trace.mse_grad(t)[1])


def _flat_copy(arrays: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)


def _split(flat: np.ndarray, state: NetworkState) -> tuple[list, list]:
    """Views of `flat` shaped like `state`'s weights, then its biases."""
    views, end = [], 0
    for a in state.weights + state.biases:
        views.append(flat[end : end + a.size].reshape(a.shape))
        end += a.size
    return views[: len(state.weights)], views[len(state.weights) :]


class TrainingCopy:
    """A training call's own copy of a network and its RMSprop cache, made
    on entry: parameters, cache and gradients are one float64 vector each,
    with per-layer views, so every step updates in place."""

    def __init__(self, state: NetworkState, opt: RmspropState) -> None:
        self.params = _flat_copy(state.weights + state.biases)
        self.cache = _flat_copy(opt.weight_cache + opt.bias_cache)
        self.grads = np.empty_like(self.params)
        self.state = NetworkState(state.topology, *_split(self.params, state))
        self.opt = RmspropState(*_split(self.cache, state))
        self.grad_views = _split(self.grads, state)
        self.scratch = np.empty((2, self.params.size))

    def step(self, trace: Trace, output_grad: np.ndarray) -> None:
        """Backpropagate through `trace`, a pass of `state`, then update."""
        trace.parameter_grads(output_grad, *self.grad_views)
        self.update()

    def update(self) -> None:
        """One RMSprop step from the gradient buffer, in place."""
        lr, rho, eps = RMSPROP_LEARNING_RATE, RMSPROP_RHO, RMSPROP_EPSILON
        p, g, c = self.params, self.grads, self.cache
        t, d = self.scratch
        # cache <- rho*cache + ((1-rho)*g)*g; the other order of the
        # products differs in the last bits
        c *= rho
        c += np.multiply(np.multiply(g, 1.0 - rho, out=t), g, out=t)
        # param <- param - (lr*g) / (sqrt(cache) + epsilon)
        np.add(np.sqrt(c, out=d), eps, out=d)
        p -= np.divide(np.multiply(g, lr, out=t), d, out=t)


def rmsprop_step(
    state: NetworkState, grads: Gradients, opt: RmspropState
) -> tuple[NetworkState, RmspropState]:
    """One RMSprop update (`TrainingCopy.update`) on a fresh copy; returns
    the new state and optimizer, arguments untouched."""
    own = TrainingCopy(state, opt)
    own.grads[:] = _flat_copy(grads.weight_grads + grads.bias_grads)
    own.update()
    return own.state, own.opt


def train_epochs(
    state: NetworkState,
    dataset: Dataset,
    opt: RmspropState,
    epochs: int,
    minibatch: int,
    rng: np.random.Generator,
) -> tuple[NetworkState, RmspropState, float]:
    """Minibatch RMSprop training; returns the last epoch's mean loss.

    Each epoch reshuffles with `rng` and sweeps consecutive minibatches
    (final short batch included).  Losses are recorded before each
    update; the returned loss is the sample-weighted mean over the last
    epoch, or the untouched model's loss when epochs == 0.
    """
    inputs, targets = dataset
    x = _check_inputs(state, inputs)
    t = np.asarray(targets, dtype=np.float64)
    n = x.shape[0]
    if n == 0:
        raise ValueError("dataset must be nonempty")
    want = (n, state.topology.output_dim)
    if t.shape != want:
        raise ValueError(f"targets must be {want}, got {t.shape}")
    if epochs < 0 or minibatch < 1:
        raise ValueError("epochs must be >= 0 and minibatch >= 1")

    if epochs == 0:
        return state, opt, loss_mse(forward_trace(state, x).output, t)

    own = TrainingCopy(state, opt)
    epoch_loss = 0.0
    for _ in range(epochs):
        perm = rng.permutation(n)
        total = 0.0
        for start in range(0, n, minibatch):
            batch = perm[start : start + minibatch]
            trace = forward_trace(own.state, x[batch])
            loss, output_grad = trace.mse_grad(t[batch])
            total += loss * len(batch)
            own.step(trace, output_grad)
        epoch_loss = total / n
    return own.state, own.opt, epoch_loss
