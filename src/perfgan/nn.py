"""Minimal dense feed-forward networks with exact backprop and RMSprop.

Sized for the two networks this project needs (a 3x128 tanh generator
and a 3x8 discriminator with a relu output), so there is no autograd
graph: each network is a plain list of weight matrices and bias vectors.
A training step runs each network forward once (`forward_trace`); the
loss and the hand-written reverse-mode backward pass both read that
trace.  Besides parameter gradients, the backward pass also returns the
gradient with respect to the *inputs*, which is what lets a generator
train through a frozen downstream network.

All state is float64 and updates are functional: training steps return
new parameter/optimizer values and never mutate their arguments, so
"this phase did not touch that network" is checkable by object identity
or bit-level equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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

    def copy(self) -> "NetworkState":
        return NetworkState(
            topology=self.topology,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )


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

    weight_cache: list[np.ndarray] = field(default_factory=list)
    bias_cache: list[np.ndarray] = field(default_factory=list)

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

    def mse_backward(self, targets: np.ndarray) -> tuple[float, Gradients]:
        """loss_mse of the output against `targets`, and its gradients."""
        diff = self.output - targets
        return float(np.mean(diff * diff)), self.backward(2.0 * diff / diff.size)

    def backward(self, output_grad: np.ndarray) -> Gradients:
        """Backpropagate an upstream dL/d(output); feeding one network's
        input gradient in here trains an upstream network through it."""
        grad = np.asarray(output_grad, dtype=np.float64)
        if grad.shape != self.output.shape:
            raise ValueError(
                f"output_grad must be {self.output.shape}, got {grad.shape}"
            )
        state, zs, activations = self.state, self.zs, self.activations
        weight_grads: list[np.ndarray] = [np.empty(0)] * len(state.weights)
        bias_grads: list[np.ndarray] = [np.empty(0)] * len(state.biases)
        for l in range(len(state.weights) - 1, -1, -1):
            layer = state.topology.layers[l]
            dz = grad * _activation_grad(layer.activation, zs[l], activations[l + 1])
            weight_grads[l] = activations[l].T @ dz
            bias_grads[l] = dz.sum(axis=0)
            grad = dz @ state.weights[l].T
        return Gradients(weight_grads=weight_grads, bias_grads=bias_grads, input_grad=grad)


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
    return trace.mse_backward(t)[1]


def rmsprop_step(
    state: NetworkState, grads: Gradients, opt: RmspropState
) -> tuple[NetworkState, RmspropState]:
    """One RMSprop update; returns new state and optimizer, inputs untouched.

    Per parameter: cache <- rho*cache + (1-rho)*g^2,
    param <- param - lr*g/(sqrt(cache) + epsilon).
    """
    lr, rho, eps = RMSPROP_LEARNING_RATE, RMSPROP_RHO, RMSPROP_EPSILON
    new_weights = []
    new_w_cache = []
    for w, g, c in zip(state.weights, grads.weight_grads, opt.weight_cache):
        c2 = rho * c + (1.0 - rho) * g * g
        new_weights.append(w - lr * g / (np.sqrt(c2) + eps))
        new_w_cache.append(c2)
    new_biases = []
    new_b_cache = []
    for b, g, c in zip(state.biases, grads.bias_grads, opt.bias_cache):
        c2 = rho * c + (1.0 - rho) * g * g
        new_biases.append(b - lr * g / (np.sqrt(c2) + eps))
        new_b_cache.append(c2)
    return (
        NetworkState(topology=state.topology, weights=new_weights, biases=new_biases),
        replace(opt, weight_cache=new_w_cache, bias_cache=new_b_cache),
    )


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

    epoch_loss = 0.0
    for _ in range(epochs):
        perm = rng.permutation(n)
        total = 0.0
        for start in range(0, n, minibatch):
            batch = perm[start : start + minibatch]
            loss, grads = forward_trace(state, x[batch]).mse_backward(t[batch])
            total += loss * len(batch)
            state, opt = rmsprop_step(state, grads, opt)
        epoch_loss = total / n
    return state, opt, epoch_loss
