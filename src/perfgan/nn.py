"""Minimal dense feed-forward networks with exact backprop and RMSprop.

Sized for the two networks this project needs (a 3x128 tanh generator
and a 3x8 discriminator with a relu output), so there is no autograd
graph: a network is one parameter vector, viewed as per-layer weight
matrices and bias vectors, and one RMSprop cache vector beside it.  A
training step runs each network forward once (`forward_trace`); the
loss and the hand-written reverse-mode backward pass both read that
trace.  Backward also gives the gradient with respect to the *inputs*,
which lets a generator train through a frozen downstream network.

One forward kernel (`forward_trace`) and one backward kernel
(`_backward`) write into the arrays they are given.  The public calls
(`forward`, `forward_trace`, `backward` and `Trace.backward`) hand them
fresh arrays.  A trace keeps one array per layer, the activation taken
in place over the affine result, and backward spends the trace, not its
upstream gradient: each layer's local derivative, then its dL/dz, is
written over its output activation, so one buffer holds all of a pass's
input gradients.  A training call owns a copy of its network, cache
included (`TrainingCopy`), made on entry and updated in place, and one
`StepArrays` set per network and batch size, so a step allocates
nothing.  It computes only what it reads: parameter gradients of the
trained network (`TrainingCopy.backward`), the input gradient of a
frozen one (`StepArrays.relay`), and the loss in the last epoch only;
the update spends the gradient buffer.

All state is float64.  Public calls never mutate their arguments, so
"this phase did not touch that network" is checkable by object identity
or bit-level equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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



def _split(flat: np.ndarray, topology: NetworkTopology) -> tuple[list, list]:
    """Views of `flat` shaped like `topology`'s weights, then its biases."""
    pairs = topology.fan_pairs()
    views, end = [], 0
    for shape in pairs + [(fan_out,) for _, fan_out in pairs]:
        size = math.prod(shape)
        views.append(flat[end : end + size].reshape(shape))
        end += size
    return views[: len(pairs)], views[len(pairs) :]


@dataclass
class NetworkState:
    """One network: its parameters and their RMSprop cache, one float64
    vector each.  weights[l] (fan_in, fan_out) and biases[l] are views
    of `params`, built once; copies and pickles rebuild them."""

    topology: NetworkTopology
    params: np.ndarray
    cache: np.ndarray
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.weights, self.biases = _split(self.params, self.topology)

    def __reduce__(self):
        return NetworkState, (self.topology, self.params, self.cache)

    def copy(self) -> "NetworkState":
        return NetworkState(self.topology, self.params.copy(), self.cache.copy())

    def parameter_count(self) -> int:
        return self.params.size


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


def init_network(topology: NetworkTopology, rng: np.random.Generator) -> NetworkState:
    """Glorot-uniform weights, drawn layer by layer; zero biases and cache;
    deterministic per rng state."""
    size = sum((fan_in + 1) * fan_out for fan_in, fan_out in topology.fan_pairs())
    state = NetworkState(topology, np.zeros(size), np.zeros(size))
    for w, (fan_in, fan_out) in zip(state.weights, topology.fan_pairs()):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w[:] = rng.uniform(-limit, limit, size=(fan_in, fan_out))
    return state


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
    """One forward pass; activations[0] is the input and activations[l + 1]
    the output of layer l.  `backward` copies the layer outputs, reads the
    output gradient and writes into fresh arrays, so it mutates nothing
    and its results alias neither one another nor its arguments."""

    state: NetworkState
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
        spent = Trace(self.state, self.activations[:1] + [*map(np.copy, self.activations[1:])])
        input_grad = _backward(spent, grad, (weight_grads, bias_grads),
                               _input_grads(self.state, len(grad), True))
        return Gradients(weight_grads, bias_grads, input_grad)


def _new_trace(state: NetworkState, inputs: np.ndarray) -> Trace:
    """A trace of `state` over `inputs` with fresh, unwritten layer arrays."""
    layers = state.topology.layers
    return Trace(state, [inputs] + [np.empty((len(inputs), l.units)) for l in layers])


def _input_grads(state: NetworkState, rows: int, relays: bool) -> list:
    """dL/d(input) arrays per layer of `state` at `rows` rows, layer 0's None
    unless the pass `relays` it: views of one fresh buffer (see `_backward`)."""
    fans = [len(w) if l or relays else 0 for l, w in enumerate(state.weights)]
    buffer = np.empty(rows * max(fans))
    return [buffer[: rows * fan].reshape(rows, fan) if fan else None for fan in fans]


def forward_trace(state: NetworkState, inputs: np.ndarray, out: Trace | None = None) -> Trace:
    """Forward pass over a float64 (batch, input_dim) array, unchecked:
    callers validate their inputs once, not per minibatch.

    The pass is written into fresh arrays, or into `out`, an earlier
    trace of `state` at this batch size (a training call reuses its own)."""
    trace = _new_trace(state, inputs) if out is None else out
    activations = trace.activations
    activations[0] = inputs
    for layer, w, b, a, z in zip(
        state.topology.layers, state.weights, state.biases, activations, activations[1:]
    ):
        # np.dot: the BLAS call of `@`, bit for bit, with less overhead
        np.dot(a, w, out=z)
        z += b
        if layer.activation == "tanh":
            np.tanh(z, out=z)
        elif layer.activation == "relu":
            np.maximum(z, 0.0, out=z)
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


def _backward(trace: Trace, grad, param_grads, input_grads):
    """Reverse layer loop over `trace`, into the given arrays.

    Spends `trace`, not `grad`, dL/d(output): layer l's local derivative
    and then its dL/dz are written over its output activation, which no
    later iteration reads, so the gradient it receives is dead once read.
    `param_grads` is (weight_grads, bias_grads), or None to skip them;
    `input_grads[0]` None skips layer 0's input gradient, which only a
    frozen network relays.  Returns the last input gradient computed."""
    state, activations = trace.state, trace.activations
    for l in range(len(state.weights) - 1, -1, -1):
        activation, dz = state.topology.layers[l].activation, activations[l + 1]
        if activation == "tanh":
            # (1 - a*a) * grad
            np.multiply(dz, dz, out=dz)
            np.subtract(1.0, dz, out=dz)
            dz *= grad
        elif activation == "relu":
            # a > 0 exactly where z > 0, ±0 and NaN included
            np.greater(dz, 0.0, out=dz, casting="unsafe")
            dz *= grad
        else:
            # a copy, since grad may be the buffer this layer's input
            # gradient is written into
            np.copyto(dz, grad)
        if param_grads is not None:
            np.dot(activations[l].T, dz, out=param_grads[0][l])
            np.add.reduce(dz, axis=0, out=param_grads[1][l])
        if input_grads[l] is not None:
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


class StepArrays:
    """A training call's arrays for one network at one batch size, reused
    by every step: the batch's inputs, the forward trace (which backward
    spends), backward's input gradients (one buffer, see `_input_grads`),
    and the batch's targets, output gradient and squared error."""

    def __init__(self, state: NetworkState, rows: int, relays: bool) -> None:
        self.inputs = np.empty((rows, state.topology.input_dim))
        self.trace = _new_trace(state, self.inputs)
        self.input_grads = _input_grads(state, rows, relays)
        self.targets, self.grad, self.sq = np.empty((3, rows, state.topology.output_dim))

    def relay(self, targets: np.ndarray) -> np.ndarray:
        """dL/d(inputs) of loss_mse(output, targets), which a frozen
        network passes upstream; spends the trace."""
        _mse_grad(self.trace.output, targets, self.grad, None)
        return _backward(self.trace, self.grad, None, self.input_grads)


class TrainingCopy:
    """A training call's own copy of a network (`state.copy()`, made on
    entry), which every step updates in place, plus a gradient vector
    with per-layer views (`grad_views`) and one scratch vector; the call
    builds its `StepArrays` on entry too, one per network and batch size."""

    def __init__(self, state: NetworkState) -> None:
        self.state = state.copy()
        self.grads = np.empty_like(state.params)
        self.grad_views = _split(self.grads, state.topology)
        self.scratch = np.empty_like(state.params)

    def backward(self, arrays: StepArrays, output_grad: np.ndarray) -> None:
        """Gradients through `arrays.trace`, a pass of `state`, into the
        gradient buffer; spends the trace, not `output_grad`.  `update` follows."""
        _backward(arrays.trace, output_grad, self.grad_views, arrays.input_grads)

    def update(self) -> None:
        """One RMSprop step of the copy, cache included, from the gradient
        buffer, in place; spends the buffer."""
        lr, rho, eps = RMSPROP_LEARNING_RATE, RMSPROP_RHO, RMSPROP_EPSILON
        p, g, c, t = self.state.params, self.grads, self.state.cache, self.scratch
        # cache <- rho*cache + ((1-rho)*g)*g; the other order of the
        # products differs in the last bits
        c *= rho
        c += np.multiply(np.multiply(g, 1.0 - rho, out=t), g, out=t)
        # param <- param - (lr*g) / (sqrt(cache) + epsilon)
        np.add(np.sqrt(c, out=t), eps, out=t)
        p -= np.divide(np.multiply(g, lr, out=g), t, out=g)


def rmsprop_step(state: NetworkState, grads: Gradients) -> NetworkState:
    """One RMSprop update (`TrainingCopy.update`) of parameters and cache
    on a fresh copy; returns the copy, arguments untouched."""
    own = TrainingCopy(state)
    flat = [np.ravel(g) for g in grads.weight_grads + grads.bias_grads]
    np.concatenate(flat, out=own.grads)
    own.update()
    return own.state


def train_epochs(
    state: NetworkState,
    dataset: Dataset,
    epochs: int,
    minibatch: int,
    rng: np.random.Generator,
) -> tuple[NetworkState, float]:
    """Minibatch RMSprop training of a copy of `state`, cache included;
    returns the copy and the last epoch's mean loss.

    Each epoch reshuffles with `rng` and sweeps consecutive minibatches
    (final short batch included).  The loss is computed in the last
    epoch only, before each of its updates; the returned loss is the
    sample-weighted mean over that epoch.  Raises ValueError unless
    epochs and minibatch are both >= 1.  Steps write into the call's own
    arrays, one set for `minibatch` rows and one for a short final batch.
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
    if epochs < 1 or minibatch < 1:
        raise ValueError("epochs and minibatch must be >= 1")

    own = TrainingCopy(state)
    step_arrays = {rows: StepArrays(own.state, rows, False)
                   for rows in {min(n, minibatch), n % minibatch or minibatch}}
    total = 0.0
    for epoch in range(epochs):
        perm = rng.permutation(n)
        last = epoch == epochs - 1
        for start in range(0, n, minibatch):
            batch = perm[start : start + minibatch]
            arrays = step_arrays[len(batch)]
            # "clip" writes unbuffered; a permutation's indices are in range
            x.take(batch, 0, arrays.inputs, "clip")
            trace = forward_trace(own.state, arrays.inputs, out=arrays.trace)
            t.take(batch, 0, arrays.targets, "clip")
            loss = _mse_grad(
                trace.output, arrays.targets, arrays.grad, arrays.sq if last else None
            )
            if last:
                total += loss * len(batch)
            own.backward(arrays, arrays.grad)
            own.update()
    return own.state, float(total / n)
