"""Walk through the pruning primitive: per-unit thresholds, one-bit-per-unit
masks, the sparsity regularizer, and the threshold update forces.

Run: python demos/01_masks_and_thresholds.py
"""

import numpy as np

from spafl import nn, pruning

rng = np.random.default_rng(0)

# a toy layer: 6 output units, fan-in 4
weights = rng.uniform(-0.5, 0.5, (6, 4))
mu = pruning.row_mean_abs(weights)
print("per-unit mean |w|:", np.round(mu, 3))

# thresholds start at zero: nothing is pruned
tau = np.zeros(6)
mask = pruning.generate_mask(mu, tau)
print("zero thresholds -> active rows:", mask.astype(int))

# raise two thresholds above their unit's magnitude: those rows vanish
tau[1] = mu[1] + 0.05
tau[4] = mu[4] + 0.05
mask = pruning.generate_mask(mu, tau)
print("raised tau[1], tau[4]  -> active rows:", mask.astype(int))
pruned = pruning.apply_mask(weights, mask)
print("pruned rows are exactly zero:", np.all(pruned[1] == 0) and np.all(pruned[4] == 0))

# the regularizer pushes thresholds up; the loss gradient (via the
# straight-through estimator) pushes back where units matter
print("\nregularizer R(tau):", round(pruning.sparsity_regularizer([tau]), 4))
# stand-in loss gradients with the pruned rows zeroed, as backward_pass
# returns them under this mask
grads = nn.NetworkParams(weights=[rng.normal(0, 0.1, (6, 4)) * mask[:, None]], biases=[None])
params = nn.NetworkParams(weights=[weights], biases=[None])
h = pruning.threshold_gradient(grads, params)
print("threshold gradients h:", np.round(h[0], 4), "(pruned rows contribute 0)")

stepped = pruning.threshold_step(tau, h[0], lr=0.1, alpha=0.01)
print("after one step:", np.round(stepped, 4))

# with no loss signal every interior threshold strictly increases
drift = pruning.threshold_step(tau, np.zeros(6), lr=0.1, alpha=0.01)
print("pure sparsity force moves tau up by:", np.round(drift - tau, 5))
