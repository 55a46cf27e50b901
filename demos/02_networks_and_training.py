"""The dense-network engine: exact gradients and RMSprop.

Builds a small network, verifies the hand-written backward pass against
central finite differences, steps a one-weight network through RMSprop
with `rmsprop_step`, and fits a toy regression.  A network is two flat
vectors, its parameters and their RMSprop cache; `weights[l]` and
`biases[l]` are views of the parameters.
"""

import numpy as np

from perfgan import (
    Gradients,
    LayerSpec,
    NetworkState,
    NetworkTopology,
    backward,
    forward,
    init_network,
    loss_mse,
    rmsprop_step,
    train_epochs,
)

rng = np.random.default_rng(0)

topology = NetworkTopology(2, (LayerSpec(8, "tanh"), LayerSpec(1, "linear")))
net = init_network(topology, rng)
print(f"network: 2 -> 8 (tanh) -> 1 (linear), "
      f"{net.parameter_count()} parameters")

# Gradient check: analytic backward vs central differences on one weight.
x = rng.uniform(-1, 1, size=(4, 2))
t = rng.uniform(-1, 1, size=(4, 1))
grads = backward(net, x, t)

h = 1e-5
probe = net.copy()
probe.weights[0][0, 0] += h
up = loss_mse(forward(probe, x), t)
probe.weights[0][0, 0] -= 2 * h
down = loss_mse(forward(probe, x), t)
fd = (up - down) / (2 * h)
analytic = grads.weight_grads[0][0, 0]
print(f"dL/dW[0,0]: analytic {analytic:.10f}, finite difference {fd:.10f}, "
      f"relative error {abs(analytic - fd) / abs(analytic):.2e}\n")

# RMSprop keeps a decaying average of squared gradients per parameter:
#   cache <- 0.9*cache + 0.1*g^2;  param <- param - lr*g/(sqrt(cache)+eps)
# First step with g=1 from cache=0: cache=0.1, step = 0.001/sqrt(0.1).
print("RMSprop on a one-weight network (w=1, g=1 each step):")
one = NetworkState(NetworkTopology(1, (LayerSpec(1, "linear"),)),
                   params=np.array([1.0, 0.0]), cache=np.zeros(2))
unit_grad = Gradients([np.ones((1, 1))], [np.zeros(1)], np.zeros((1, 1)))
for step in range(1, 4):
    one = rmsprop_step(one, unit_grad)
    # params and cache are flat: the weight's entry, then the bias's
    print(f"  step {step}: cache={one.cache[0]:.4f} "
          f"w={one.weights[0][0, 0]:.8f}")

# Fit y = x0*x1 on a handful of points; the loss falls monotonically
# enough for a demo.  Each call trains a copy of `net`, cache included.
x = rng.uniform(-1, 1, size=(64, 2))
y = (x[:, 0] * x[:, 1])[:, None]
print("\nfitting y = x0*x1:")
for round_ in range(5):
    net, loss = train_epochs(net, (x, y), epochs=100, minibatch=16,
                             rng=np.random.default_rng(round_))
    print(f"  after {(round_ + 1) * 100:3d} epochs: loss {loss:.5f}")
