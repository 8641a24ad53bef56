"""Forward and backward milliseconds of each LeNet layer at batch 64, at row
density 1.0 and, for the prunable layers, 0.5.

Each layer runs as its own single-layer ``Network`` through the public
``forward_pass`` and ``backward_pass``. ``bwd_ms`` is the backward pass
minus the forward pass at the same inputs, so it includes the softmax loss
on the layer's flattened output. A pooling layer carries a one-unit dense
head, because a ``Network`` needs a trainable layer.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from spafl import nn, pruning

BATCH = 64
LENET_NAMES = ("conv1", "pool1", "conv2", "pool2", "fc1", "fc2")


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return 1000.0 * statistics.median(times)


def _half_density_masks(net: nn.Network, params: nn.NetworkParams) -> list[np.ndarray]:
    """Threshold every row at the layer's median row magnitude: with an even
    row count exactly half of the rows stay active."""
    tau = [np.full(w.shape[0], np.median(pruning.row_mean_abs(w))) for w in params.weights]
    return pruning.generate_masks(net, params, tau)


def measure(rng: np.random.Generator, repeats: int) -> dict[str, float]:
    lenet = nn.build_lenet()
    layers = [(li, spec) for li, spec in enumerate(lenet.specs) if spec.kind != "relu"]
    out: dict[str, float] = {}
    for name, (li, spec) in zip(LENET_NAMES, layers):
        prunable = spec.kind in nn.PRUNABLE_KINDS
        in_shape = lenet.in_shapes[li]
        net = nn.Network(in_shape, [spec] if prunable else [spec, nn.dense(1)])
        params = nn.init_params(net, rng)
        x = rng.random((BATCH, *in_shape))
        y = rng.integers(0, net.output_dim, BATCH)
        variants = [("d100", None)]
        if prunable:
            variants.append(("d50", _half_density_masks(net, params)))
        for label, masks in variants:
            fwd = _median_ms(lambda: nn.forward_pass(net, params, masks, x), repeats)
            full = _median_ms(lambda: nn.backward_pass(net, params, masks, x, y), repeats)
            out[f"nn.lenet.{name}.fwd_ms.{label}"] = fwd
            out[f"nn.lenet.{name}.bwd_ms.{label}"] = full - fwd
    return out
