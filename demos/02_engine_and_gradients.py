"""The numpy engine end to end: build a small conv net, check its gradients
against central finite differences, and train it for a few steps.

Run: python demos/02_engine_and_gradients.py
"""

import numpy as np

from spafl import nn, pruning

rng = np.random.default_rng(1)

net = nn.Network(
    (1, 8, 8),
    [nn.conv2d(4, (3, 3)), nn.relu(), nn.maxpool2d((2, 2)), nn.dense(10), nn.relu(), nn.dense(3)],
)
params = nn.init_params(net, rng)
x = rng.uniform(0, 1, (8, 1, 8, 8))
y = rng.integers(0, 3, 8)

loss, grads = nn.backward_pass(net, params, None, x, y)
print("initial loss:", round(loss, 4))

# spot-check backprop against the finite-difference oracle
worst = 0.0
for pi in range(len(params.weights)):
    for flat in rng.choice(params.weights[pi].size, 5, replace=False):
        fd = nn.finite_diff_oracle(net, params, None, x, y, (pi, "weight", int(flat)), 1e-5)
        an = grads.weights[pi].flat[flat]
        worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-12))
print("worst relative gradient error vs finite differences:", f"{worst:.2e}")

# a few masked training steps with momentum; the thresholds live in one flat
# vector, and per-layer views of it give the masks
tau = pruning.flat_thresholds(net, pruning.init_thresholds(net))
velocity = params.zeros_like()
for step in range(30):
    masks = pruning.generate_masks(net, params, pruning.layer_thresholds(net, tau))
    loss, grads = nn.backward_pass(net, params, masks, x, y)
    h = np.concatenate(pruning.threshold_gradient(grads, params))
    nn.sgd_momentum_step(params, grads, velocity, lr=0.1, momentum=0.9)
    nn.clamp_parameters(params)
    tau = pruning.threshold_step(tau, h, lr=0.1, alpha=0.005)
    if step % 10 == 9:
        report = pruning.density_metrics(net, masks)
        print(f"step {step + 1:2d}: loss {loss:.4f}  density {report.overall:.2f}")
print("final accuracy on the toy batch:", np.mean(nn.predict(net, params, None, x) == y))
