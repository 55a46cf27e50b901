"""Minimal dense feed-forward networks with exact backprop and RMSprop.

Sized for the two networks this project needs (a 3x128 tanh generator
and a 3x8 discriminator with a relu output), so there is no autograd
graph: each network is a plain list of weight matrices and bias vectors.
A training step runs each network forward once (`forward_trace`); the
loss and the hand-written reverse-mode backward pass both read that
trace.  Backward also gives the gradient with respect to the *inputs*,
which lets a generator train through a frozen downstream network.

One forward kernel (`forward_trace`) and one backward kernel
(`_backward`) write into the arrays they are given.  The public calls
(`forward`, `forward_trace`, `backward` and `Trace.backward`) hand them
fresh arrays.  A training call owns a copy of its network and RMSprop
cache (`TrainingCopy`), made on entry and updated in place, and one
`StepArrays` set per network and batch size, so a step allocates
nothing.  It computes only what it reads: parameter gradients of the
trained network (`TrainingCopy.step`), the input gradient of a frozen
one (`StepArrays.relay`), and the loss in the last epoch only.

All state is float64.  Public calls never mutate their arguments, so
"this phase did not touch that network" is checkable by object identity
or bit-level equality.
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
    """One forward pass; zs[l] and activations[l + 1] belong to layer l
    (the same array for a linear layer).  `backward` writes into fresh
    arrays, so its results never alias one another."""

    state: NetworkState
    zs: list[np.ndarray]
    activations: list[np.ndarray]

    @property
    def output(self) -> np.ndarray:
        return self.activations[-1]

    def backward(self, output_grad: np.ndarray) -> Gradients:
        """Backpropagate an upstream dL/d(output); feeding one network's
        input gradient in here trains an upstream network through it."""
        grad = np.asarray(output_grad, dtype=np.float64)
        if grad.shape != self.output.shape:
            raise ValueError(f"output_grad must be {self.output.shape}, got {grad.shape}")
        weight_grads = [np.empty_like(w) for w in self.state.weights]
        bias_grads = [np.empty_like(b) for b in self.state.biases]
        input_grad = _backward(self, grad, (weight_grads, bias_grads), True,
                               *_backward_arrays(self))
        return Gradients(weight_grads, bias_grads, input_grad)


def _new_trace(state: NetworkState, inputs: np.ndarray) -> Trace:
    """A trace of `state` over `inputs` with fresh, unwritten layer arrays."""
    zs, activations = [], [inputs]
    for layer in state.topology.layers:
        zs.append(np.empty((len(inputs), layer.units)))
        activations.append(zs[-1] if layer.activation == "linear" else np.empty_like(zs[-1]))
    return Trace(state, zs, activations)


def _backward_arrays(trace: Trace) -> tuple[list, list]:
    """Fresh arrays for a backward pass through `trace`: dL/dz per layer
    (None for a linear layer, whose dz is its upstream gradient) and
    dL/d(input) per layer."""
    dzs = [
        None if layer.activation == "linear" else np.empty_like(z)
        for layer, z in zip(trace.state.topology.layers, trace.zs)
    ]
    return dzs, [np.empty_like(a) for a in trace.activations[:-1]]


def forward_trace(state: NetworkState, inputs: np.ndarray, out: Trace | None = None) -> Trace:
    """Forward pass over a float64 (batch, input_dim) array, unchecked:
    callers validate their inputs once, not per minibatch.

    The pass is written into fresh arrays, or into `out`, an earlier
    trace of `state` at this batch size (a training call reuses its own)."""
    trace = _new_trace(state, inputs) if out is None else out
    activations = trace.activations
    activations[0] = inputs
    for layer, w, b, z, a, out_a in zip(
        state.topology.layers, state.weights, state.biases, trace.zs, activations, activations[1:]
    ):
        # np.dot: the BLAS call of `@`, bit for bit, with less overhead
        np.dot(a, w, out=z)
        z += b
        if layer.activation == "tanh":
            np.tanh(z, out=out_a)
        elif layer.activation == "relu":
            np.maximum(z, 0.0, out=out_a)
    return trace


def _mse_grad(output, targets, grad: np.ndarray, sq: np.ndarray | None):
    """Writes dL/d(output) of loss_mse into `grad`; returns the loss,
    computed in `sq`, or None when `sq` is None."""
    np.subtract(output, targets, out=grad)
    loss = None
    if sq is not None:
        np.multiply(grad, grad, out=sq)
        loss = np.add.reduce(sq, axis=None) / grad.size
    # 2*diff, then /size: the results' last bits depend on this order
    grad *= 2.0
    grad /= grad.size
    return loss


def _backward(trace: Trace, grad, param_grads, want_input, dzs, input_grads):
    """Reverse layer loop over `trace`, into the given arrays.

    `param_grads` is (weight_grads, bias_grads), or None to skip them;
    want_input False skips layer 0's input gradient, which only a frozen
    network relays.  Returns the last input gradient computed."""
    state, zs, activations = trace.state, trace.zs, trace.activations
    for l in range(len(state.weights) - 1, -1, -1):
        activation, dz = state.topology.layers[l].activation, dzs[l]
        if activation == "tanh":
            # grad * (1 - a*a)
            np.multiply(activations[l + 1], activations[l + 1], out=dz)
            np.subtract(1.0, dz, out=dz)
            dz *= grad
        elif activation == "relu":
            np.greater(zs[l], 0.0, out=dz, casting="unsafe")
            dz *= grad
        else:
            dz = grad
        if param_grads is not None:
            np.dot(activations[l].T, dz, out=param_grads[0][l])
            np.add.reduce(dz, axis=0, out=param_grads[1][l])
        if l > 0 or want_input:
            grad = np.dot(dz, state.weights[l].T, out=input_grads[l])
    return grad


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
    grad = np.empty_like(trace.output)
    _mse_grad(trace.output, t, grad, None)
    return trace.backward(grad)


def _flat_copy(arrays: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)


def _split(flat: np.ndarray, state: NetworkState) -> tuple[list, list]:
    """Views of `flat` shaped like `state`'s weights, then its biases."""
    views, end = [], 0
    for a in state.weights + state.biases:
        views.append(flat[end : end + a.size].reshape(a.shape))
        end += a.size
    return views[: len(state.weights)], views[len(state.weights) :]


class StepArrays:
    """A training call's arrays for one network at one batch size, reused
    by every step: the forward trace, the backward pass's arrays, and the
    batch's inputs, targets, output gradient and squared error."""

    def __init__(self, state: NetworkState, rows: int) -> None:
        self.inputs = np.empty((rows, state.topology.input_dim))
        self.trace = _new_trace(state, self.inputs)
        self.dzs, self.input_grads = _backward_arrays(self.trace)
        self.targets, self.grad, self.sq = np.empty((3, rows, state.topology.output_dim))

    def relay(self, targets: np.ndarray) -> np.ndarray:
        """dL/d(inputs) of loss_mse(output, targets), which a frozen
        network passes upstream."""
        _mse_grad(self.trace.output, targets, self.grad, None)
        return _backward(self.trace, self.grad, None, True, self.dzs, self.input_grads)


class TrainingCopy:
    """A training call's own copy of a network and its RMSprop cache, made
    on entry: parameters, cache and gradients are one float64 vector each,
    with per-layer views, so every step updates in place.  It also owns
    the call's `StepArrays`, one set per network and batch size."""

    def __init__(self, state: NetworkState, opt: RmspropState) -> None:
        self.params = _flat_copy(state.weights + state.biases)
        self.cache = _flat_copy(opt.weight_cache + opt.bias_cache)
        self.grads = np.empty_like(self.params)
        self.state = NetworkState(state.topology, *_split(self.params, state))
        self.opt = RmspropState(*_split(self.cache, state))
        self.grad_views = _split(self.grads, state)
        self.scratch = np.empty((2, self.params.size))
        self.step_arrays: dict[tuple[int, int], StepArrays] = {}

    def arrays(self, state: NetworkState, rows: int) -> StepArrays:
        """The arrays for `state` (this copy's or a frozen network) at
        `rows` rows, built on first use."""
        key = (id(state), rows)
        if key not in self.step_arrays:
            self.step_arrays[key] = StepArrays(state, rows)
        return self.step_arrays[key]

    def step(self, arrays: StepArrays, output_grad: np.ndarray) -> None:
        """Backpropagate through `arrays.trace`, a pass of `state`, then update."""
        _backward(
            arrays.trace, output_grad, self.grad_views, False, arrays.dzs, arrays.input_grads
        )
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
    (final short batch included).  The loss is computed in the last
    epoch only, before each of its updates; the returned loss is the
    sample-weighted mean over that epoch, or the untouched model's loss
    when epochs == 0.  Steps write into the call's own arrays, one set
    for `minibatch` rows and one for a short final batch.
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
    total = 0.0
    for epoch in range(epochs):
        perm = rng.permutation(n)
        last = epoch == epochs - 1
        for start in range(0, n, minibatch):
            batch = perm[start : start + minibatch]
            arrays = own.arrays(own.state, len(batch))
            # "clip" writes unbuffered; a permutation's indices are in range
            x.take(batch, 0, arrays.inputs, "clip")
            trace = forward_trace(own.state, arrays.inputs, out=arrays.trace)
            t.take(batch, 0, arrays.targets, "clip")
            loss = _mse_grad(
                trace.output, arrays.targets, arrays.grad, arrays.sq if last else None
            )
            if last:
                total += loss * len(batch)
            own.step(arrays, arrays.grad)
    return own.state, own.opt, float(total / n)
