"""Trainable per-filter/per-neuron pruning thresholds.

A prunable layer with weight matrix (n_out, n_in) carries one threshold per
output unit. A unit is pruned when the mean absolute magnitude of its row
falls below its threshold; pruning zeroes the whole row (structured
sparsity). A layer's mask is therefore one {0,1} float vector of shape
(n_out,), one bit per unit, and w * mask[:, None] is the pruned weight
matrix. Thresholds live in [0, 1] and are trained jointly with the weights:
the loss gradient reaches them through an identity straight-through
estimator, and an exponential regularizer pushes them upward to enforce
sparsity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .nn import Network, NetworkParams, check_layer_count, check_mask

# a layer whose row density drops below this fraction has its thresholds reset
RESET_DENSITY = 0.01


def init_thresholds(net: Network) -> list[np.ndarray]:
    """All thresholds start at zero (nothing pruned)."""
    return [np.zeros(n) for n in net.threshold_sizes]


def flat_thresholds(net: Network, tau: list[np.ndarray]) -> np.ndarray:
    """One new float64 vector holding every layer's thresholds in order."""
    check_layer_count("tau", len(tau), len(net.prunable))
    for t, n in zip(tau, net.threshold_sizes):
        if np.shape(t) != (n,):
            raise ConfigurationError(f"threshold vector of shape {np.shape(t)} does not match ({n},) units")
    return np.concatenate(tau, dtype=np.float64)


def layer_thresholds(net: Network, flat: np.ndarray) -> list[np.ndarray]:
    """Per-layer views of a vector laid out by :func:`flat_thresholds`."""
    return np.split(flat, np.cumsum(net.threshold_sizes)[:-1])


def row_mean_abs(weights: np.ndarray) -> np.ndarray:
    """Per output unit, the mean absolute magnitude of its fan-in weights."""
    if weights.ndim != 2 or weights.shape[1] < 1:
        raise ConfigurationError(f"expected (n_out, n_in) weights, got {weights.shape}")
    return np.add.reduce(np.abs(weights), axis=1) / weights.shape[1]  # the row mean, as np.mean computes it


def generate_mask(mu: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """{0,1} row vector: unit i is active iff mu_i >= tau_i.

    Equality keeps the unit, so zero-initialized thresholds prune nothing.
    """
    mu = np.asarray(mu, dtype=np.float64)
    tau = np.asarray(tau, dtype=np.float64)
    if mu.shape != tau.shape:
        raise ConfigurationError(f"mu length {mu.shape} does not match tau length {tau.shape}")
    return (mu >= tau).astype(np.float64)


def generate_masks(net: Network, params: NetworkParams, tau: list[np.ndarray]) -> list[np.ndarray]:
    """Masks for every prunable layer, from the raw dense weights."""
    check_layer_count("tau", len(tau), len(net.prunable))
    return [generate_mask(row_mean_abs(w), t) for w, t in zip(params.weights, tau)]


def apply_mask(weights: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Pruned weights w * mask[:, None]; the dense weights are left untouched."""
    check_mask(mask, weights.shape[0])
    return weights * mask[:, None]


def sparsity_regularizer(tau: list[np.ndarray]) -> float:
    """R = sum_l sum_i exp(-tau_i); monotone decreasing in every threshold."""
    return float(sum(np.exp(-t).sum() for t in tau))


def threshold_gradient(
    grads: NetworkParams, params: NetworkParams, out: list[np.ndarray] | None = None
) -> list[np.ndarray]:
    """Loss gradient of each threshold via the identity straight-through
    estimator: h_i = -sum_j g_ij * w_ij over the unit's row.

    Precondition: ``grads`` come from ``backward_pass`` under the same masks
    the thresholds define. Those gradient rows of pruned units are exactly
    zero, so pruned units get h_i = 0 with no mask applied here.

    ``out`` (one vector per layer, e.g. views of one flat vector) receives
    the result in place and is returned; by default new vectors are.
    """
    h = [np.empty(w.shape[0]) for w in params.weights] if out is None else out
    check_layer_count("out", len(h), len(params.weights))
    for g, w, hi in zip(grads.weights, params.weights, h):
        np.add.reduce(g * w, axis=1, out=hi)
        np.negative(hi, out=hi)
    return h


def threshold_step(tau: np.ndarray, h: np.ndarray, lr: float, alpha: float) -> np.ndarray:
    """tau <- clip(tau - lr*h + alpha*lr*exp(-tau), 0, 1), elementwise over
    one flat threshold vector (see :func:`flat_thresholds`) and its gradient.

    The exp term is the descent direction of the sparsity regularizer, so
    with h = 0 and alpha > 0 every interior threshold strictly increases.
    """
    if lr < 0:
        raise ConfigurationError("lr must be >= 0")
    if not 0.0 <= alpha <= 1.0:
        raise ConfigurationError("alpha must lie in [0, 1]")
    if np.shape(h) != np.shape(tau):
        raise ConfigurationError(f"h shape {np.shape(h)} does not match tau shape {np.shape(tau)}")
    return np.clip(tau - lr * h + alpha * lr * np.exp(-tau), 0.0, 1.0)


@dataclass(frozen=True)
class DensityReport:
    """Per-layer active-row fraction and the weight-entry fraction overall."""

    per_layer: list[float]
    overall: float


def density_metrics(net: Network, masks: list[np.ndarray]) -> DensityReport:
    """An active unit keeps its n_in weight entries, a pruned one none."""
    check_layer_count("masks", len(masks), len(net.prunable))
    active = 0
    per_layer = []
    for m, li in zip(masks, net.prunable):
        check_mask(m, net.specs[li].n_out)
        kept = np.add.reduce(m)
        active += int(kept) * net.specs[li].n_in
        per_layer.append(float(kept / m.size))  # the mask's mean, as np.mean computes it
    return DensityReport(per_layer=per_layer, overall=active / net.weight_count)


def layer_reset(tau: list[np.ndarray], report: DensityReport) -> list[np.ndarray]:
    """Rescue rule: a layer with row density strictly below RESET_DENSITY has
    its whole threshold vector reset to zero; other layers are untouched."""
    return [
        np.zeros_like(t) if rho < RESET_DENSITY else t.copy()
        for t, rho in zip(tau, report.per_layer)
    ]
