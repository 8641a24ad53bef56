"""Trainable per-filter/per-neuron pruning thresholds.

A prunable layer with weight matrix (n_out, n_in) carries one threshold per
output unit. A unit is pruned when the mean absolute magnitude of its row
falls below its threshold; pruning zeroes the whole row (structured
sparsity). Thresholds live in [0, 1] and are trained jointly with the
weights: the loss gradient reaches them through an identity straight-through
estimator, and an exponential regularizer pushes them upward to enforce
sparsity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .nn import Network, NetworkParams

# a layer whose row density drops below this fraction has its thresholds reset
RESET_DENSITY = 0.01


def init_thresholds(net: Network) -> list[np.ndarray]:
    """All thresholds start at zero (nothing pruned)."""
    return [np.zeros(n) for n in net.threshold_sizes]


def clamp_thresholds(tau: list[np.ndarray]) -> list[np.ndarray]:
    return [np.clip(t, 0.0, 1.0) for t in tau]


def row_mean_abs(weights: np.ndarray) -> np.ndarray:
    """Per output unit, the mean absolute magnitude of its fan-in weights."""
    if weights.ndim != 2 or weights.shape[1] < 1:
        raise ConfigurationError(f"expected (n_out, n_in) weights, got {weights.shape}")
    return np.abs(weights).mean(axis=1)


def generate_mask(mu: np.ndarray, tau: np.ndarray, n_in: int) -> np.ndarray:
    """Row-constant {0,1} mask: row i is active iff mu_i >= tau_i.

    Equality keeps the unit, so zero-initialized thresholds prune nothing.
    """
    mu = np.asarray(mu, dtype=np.float64)
    tau = np.asarray(tau, dtype=np.float64)
    if mu.shape != tau.shape:
        raise ConfigurationError(f"mu length {mu.shape} does not match tau length {tau.shape}")
    active = (mu >= tau).astype(np.float64)
    return np.repeat(active[:, None], n_in, axis=1)


def generate_masks(net: Network, params: NetworkParams, tau: list[np.ndarray]) -> list[np.ndarray]:
    """Masks for every prunable layer, from the raw dense weights."""
    masks = []
    for pi, li in enumerate(net.prunable):
        mu = row_mean_abs(params.weights[pi])
        masks.append(generate_mask(mu, tau[pi], net.specs[li].n_in))
    return masks


def apply_mask(weights: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Pruned weights w * p; the dense weights are left untouched."""
    if weights.shape != mask.shape:
        raise ConfigurationError(f"mask shape {mask.shape} does not match weights {weights.shape}")
    return weights * mask


def sparsity_regularizer(tau: list[np.ndarray]) -> float:
    """R = sum_l sum_i exp(-tau_i); monotone decreasing in every threshold."""
    return float(sum(np.exp(-t).sum() for t in tau))


def threshold_gradient(
    grads: NetworkParams,
    params: NetworkParams,
    masks: list[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Loss gradient of each threshold via the identity straight-through
    estimator: h_i = -sum_j g_ij * w_ij over the unit's row.

    Pruned rows contribute exactly zero (their weight-gradient rows are zero;
    the row mask is applied as well when given).
    """
    h = []
    for pi, w in enumerate(params.weights):
        hi = -(grads.weights[pi] * w).sum(axis=1)
        if masks is not None:
            hi = hi * masks[pi][:, 0]
        h.append(hi)
    return h


def threshold_step(
    tau: list[np.ndarray],
    h: list[np.ndarray],
    lr: float,
    alpha: float,
) -> list[np.ndarray]:
    """tau <- clip(tau - lr*h + alpha*lr*exp(-tau), 0, 1).

    The exp term is the descent direction of the sparsity regularizer, so
    with h = 0 and alpha > 0 every interior threshold strictly increases.
    """
    if lr < 0:
        raise ConfigurationError("lr must be >= 0")
    if not 0.0 <= alpha <= 1.0:
        raise ConfigurationError("alpha must lie in [0, 1]")
    return [np.clip(t - lr * hi + alpha * lr * np.exp(-t), 0.0, 1.0) for t, hi in zip(tau, h)]


@dataclass(frozen=True)
class DensityReport:
    """Per-layer active-row fraction and the weight-entry fraction overall."""

    per_layer: list[float]
    overall: float


def density_metrics(masks: list[np.ndarray]) -> DensityReport:
    per_layer = [float(m[:, 0].mean()) for m in masks]
    active = sum(float(m.sum()) for m in masks)
    total = sum(m.size for m in masks)
    return DensityReport(per_layer=per_layer, overall=active / total)


def layer_reset(tau: list[np.ndarray], report: DensityReport) -> list[np.ndarray]:
    """Rescue rule: a layer with row density strictly below RESET_DENSITY has
    its whole threshold vector reset to zero; other layers are untouched."""
    return [
        np.zeros_like(t) if rho < RESET_DENSITY else t.copy()
        for t, rho in zip(tau, report.per_layer)
    ]
