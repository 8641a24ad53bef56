"""Minimal neural-network engine: dense / conv2d / maxpool2d / relu layers with
manual forward and backward passes over float64 numpy arrays.

Conventions:
  * every tensor is a float64 ``np.ndarray``; image batches are (B, C, H, W),
    flat batches are (B, features)
  * a convolution is stored as a flattened weight matrix of shape
    (n_out, n_in) with n_in = c_in * kh * kw and evaluated over extracted
    input patches, so dense and conv layers share one row-per-output-unit
    layout (the layout that per-filter pruning operates on)
  * masks are per-layer (n_out, n_in) {0,1} matrices with constant rows; the
    forward pass always evaluates the masked weights w * p, and the bias of a
    fully pruned row is masked too so the unit's output is exactly removed
  * weight gradients of pruned rows are exactly zero
  * convolutions use the im2col/GEMM lowering (Chellapilla et al. 2006;
    Caffe): the forward pass is one matmul over the patch matrix, the weight
    gradient is one GEMM ``dy.T @ cols`` over all (sample, position) rows,
    and the input gradient scatters the patch gradients back with one
    strided slice add per kernel offset (col2im)
  * backprop stops after the first prunable layer's weight and bias
    gradients: the gradient w.r.t. the input batch is never computed
  * each layer's forward cache is released as soon as backprop has consumed
    it, so the large conv patch matrices do not all stay alive at once
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DataError, NumericError

PRUNABLE_KINDS = ("dense", "conv2d")


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the architecture.

    ``n_in`` is the flattened fan-in of an output unit (c_in*kh*kw for conv
    layers); it is filled in by :class:`Network` from the input shape flow.
    """

    kind: str
    n_out: int = 0
    n_in: int = 0
    kernel: tuple[int, int] = (1, 1)
    stride: int = 1
    has_bias: bool = True


def dense(units: int, bias: bool = True) -> LayerSpec:
    return LayerSpec(kind="dense", n_out=units, has_bias=bias)


def conv2d(filters: int, kernel: tuple[int, int], stride: int = 1, bias: bool = True) -> LayerSpec:
    return LayerSpec(kind="conv2d", n_out=filters, kernel=tuple(kernel), stride=stride, has_bias=bias)


def maxpool2d(kernel: tuple[int, int], stride: int | None = None) -> LayerSpec:
    k = tuple(kernel)
    return LayerSpec(kind="maxpool2d", kernel=k, stride=k[0] if stride is None else stride)


def relu() -> LayerSpec:
    return LayerSpec(kind="relu")


@dataclass
class NetworkParams:
    """Weights and biases of the prunable layers, in network order.

    The same container carries gradients and momentum buffers (they are
    shape-congruent with the parameters).
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray | None]

    def copy(self) -> "NetworkParams":
        return NetworkParams(
            weights=[w.copy() for w in self.weights],
            biases=[None if b is None else b.copy() for b in self.biases],
        )

    def zeros_like(self) -> "NetworkParams":
        return NetworkParams(
            weights=[np.zeros_like(w) for w in self.weights],
            biases=[None if b is None else np.zeros_like(b) for b in self.biases],
        )

    @property
    def n_scalars(self) -> int:
        n = sum(w.size for w in self.weights)
        return n + sum(b.size for b in self.biases if b is not None)


def _conv_patch_index(c_in: int, h: int, w: int, kh: int, kw: int, stride: int):
    """Flat gather indices turning a (C,H,W) input into an im2col matrix.

    Returns (index array of shape (oh*ow, c_in*kh*kw), (oh, ow)); entry order
    inside a patch is channel-major (c, ky, kx), matching the weight rows.
    """
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ConfigurationError(f"kernel {kh}x{kw} does not fit input {h}x{w}")
    c = np.arange(c_in)[None, None, :, None, None]
    oy = (stride * np.arange(oh))[:, None, None, None, None]
    ox = (stride * np.arange(ow))[None, :, None, None, None]
    dy = np.arange(kh)[None, None, None, :, None]
    dx = np.arange(kw)[None, None, None, None, :]
    idx = c * (h * w) + (oy + dy) * w + (ox + dx)
    return idx.reshape(oh * ow, c_in * kh * kw), (oh, ow)


def _pool_window_index(c: int, h: int, w: int, kh: int, kw: int, stride: int):
    """Flat gather indices for per-channel pooling windows: (c*oh*ow, kh*kw)."""
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ConfigurationError(f"pool {kh}x{kw} does not fit input {h}x{w}")
    ch = np.arange(c)[:, None, None, None, None]
    oy = (stride * np.arange(oh))[None, :, None, None, None]
    ox = (stride * np.arange(ow))[None, None, :, None, None]
    dy = np.arange(kh)[None, None, None, :, None]
    dx = np.arange(kw)[None, None, None, None, :]
    idx = ch * (h * w) + (oy + dy) * w + (ox + dx)
    return idx.reshape(c * oh * ow, kh * kw), (oh, ow)


def _col2im(dcols: np.ndarray, in_shape: tuple[int, ...], spec: LayerSpec, out_shape: tuple[int, ...]) -> np.ndarray:
    """Scatter-add im2col patch gradients (B*oh*ow, c*kh*kw) back onto the
    (B, C, H, W) input: one strided slice add per kernel offset."""
    n, c, h, w = in_shape
    kh, kw = spec.kernel
    s = spec.stride
    _, oh, ow = out_shape
    d = dcols.reshape(n, oh, ow, c, kh, kw)
    dx = np.zeros((n, h, w, c))
    for ky in range(kh):
        for kx in range(kw):
            dx[:, ky : ky + s * (oh - 1) + 1 : s, kx : kx + s * (ow - 1) + 1 : s, :] += d[:, :, :, :, ky, kx]
    return dx.transpose(0, 3, 1, 2)


class Network:
    """Architecture: layer specs plus the shape flow from a fixed input shape.

    The constructor resolves every ``n_in`` and precomputes the gather indices
    used by conv and pool layers; the object itself is immutable and holds no
    parameters, so it can be shared by every client.
    """

    def __init__(self, input_shape: tuple[int, ...], layers: list[LayerSpec]):
        self.input_shape = tuple(int(s) for s in input_shape)
        if any(s < 1 for s in self.input_shape):
            raise ConfigurationError(f"bad input shape {input_shape}")
        specs: list[LayerSpec] = []
        self.in_shapes: list[tuple[int, ...]] = []
        self.out_shapes: list[tuple[int, ...]] = []
        self._gather: list[np.ndarray | None] = []
        shape = self.input_shape
        for spec in layers:
            if spec.kind not in ("dense", "conv2d", "maxpool2d", "relu"):
                raise ConfigurationError(f"unknown layer kind {spec.kind!r}")
            if spec.stride < 1:
                raise ConfigurationError("stride must be >= 1")
            self.in_shapes.append(shape)
            if spec.kind == "dense":
                n_in = int(np.prod(shape))
                spec = replace(spec, n_in=n_in, kernel=(1, 1), stride=1)
                if spec.n_out < 1:
                    raise ConfigurationError("dense layer needs n_out >= 1")
                shape = (spec.n_out,)
                self._gather.append(None)
            elif spec.kind == "conv2d":
                if len(shape) != 3:
                    raise ConfigurationError(f"conv2d expects (C,H,W) input, got {shape}")
                c, h, w = shape
                kh, kw = spec.kernel
                idx, (oh, ow) = _conv_patch_index(c, h, w, kh, kw, spec.stride)
                spec = replace(spec, n_in=c * kh * kw)
                if spec.n_out < 1:
                    raise ConfigurationError("conv2d layer needs n_out >= 1")
                shape = (spec.n_out, oh, ow)
                self._gather.append(idx)
            elif spec.kind == "maxpool2d":
                if len(shape) != 3:
                    raise ConfigurationError(f"maxpool2d expects (C,H,W) input, got {shape}")
                c, h, w = shape
                kh, kw = spec.kernel
                idx, (oh, ow) = _pool_window_index(c, h, w, kh, kw, spec.stride)
                shape = (c, oh, ow)
                self._gather.append(idx)
            else:  # relu
                self._gather.append(None)
            specs.append(spec)
            self.out_shapes.append(shape)
        self.specs = specs
        self.prunable = [i for i, s in enumerate(specs) if s.kind in PRUNABLE_KINDS]
        if not self.prunable:
            raise ConfigurationError("network has no trainable layers")
        self.output_dim = int(np.prod(self.out_shapes[-1]))

    @property
    def threshold_sizes(self) -> list[int]:
        """Per prunable layer, the number of output units (= threshold count)."""
        return [self.specs[i].n_out for i in self.prunable]

    @property
    def weight_count(self) -> int:
        return sum(self.specs[i].n_out * self.specs[i].n_in for i in self.prunable)

    @property
    def param_count(self) -> int:
        """Total trainable scalars: weights plus biases."""
        n = self.weight_count
        return n + sum(self.specs[i].n_out for i in self.prunable if self.specs[i].has_bias)


def init_params(net: Network, rng: np.random.Generator) -> NetworkParams:
    """Uniform weight init in [-b, b] with b = sqrt(1/n_in); zero biases."""
    weights, biases = [], []
    for i in net.prunable:
        spec = net.specs[i]
        bound = float(np.sqrt(1.0 / spec.n_in))
        w = rng.uniform(-bound, bound, size=(spec.n_out, spec.n_in))
        weights.append(np.clip(w, -1.0, 1.0))
        biases.append(np.zeros(spec.n_out) if spec.has_bias else None)
    return NetworkParams(weights=weights, biases=biases)


def _check_batch(net: Network, batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim < 2:
        raise ConfigurationError(f"batch must have a leading batch dimension, got shape {batch.shape}")
    feat = int(np.prod(batch.shape[1:]))
    expect = int(np.prod(net.input_shape))
    if feat != expect:
        raise ConfigurationError(
            f"batch features {batch.shape[1:]} incompatible with network input {net.input_shape}"
        )
    return batch.reshape(batch.shape[0], *net.input_shape)


def _masked_layer(params: NetworkParams, masks: list[np.ndarray] | None, pi: int):
    """Masked weights, masked bias and the active-row vector for layer pi."""
    w = params.weights[pi]
    b = params.biases[pi]
    if masks is None:
        return w, b, None
    m = masks[pi]
    if m.shape != w.shape:
        raise ConfigurationError(f"mask shape {m.shape} does not match weights {w.shape}")
    row = m[:, 0]
    return w * m, None if b is None else b * row, row


def _forward(net: Network, params: NetworkParams, masks: list[np.ndarray] | None, batch: np.ndarray):
    """Forward pass returning logits plus the per-layer caches for backprop."""
    x = _check_batch(net, batch)
    n = x.shape[0]
    caches = []
    pi = 0
    for li, spec in enumerate(net.specs):
        if spec.kind == "dense":
            x2 = x.reshape(n, -1)
            wm, bm, _ = _masked_layer(params, masks, pi)
            y = x2 @ wm.T
            if bm is not None:
                y = y + bm
            caches.append(("dense", pi, x.shape, x2, wm))
            x = y
            pi += 1
        elif spec.kind == "conv2d":
            idx = net._gather[li]
            xf = x.reshape(n, -1)
            cols = np.take(xf, idx, axis=1)  # (B, oh*ow, n_in); C-contiguous, unlike xf[:, idx]
            wm, bm, _ = _masked_layer(params, masks, pi)
            y = cols @ wm.T  # (B, oh*ow, n_out)
            if bm is not None:
                y = y + bm
            f, oh, ow = net.out_shapes[li]
            caches.append(("conv2d", pi, x.shape, cols, wm))
            x = y.transpose(0, 2, 1).reshape(n, f, oh, ow)
            pi += 1
        elif spec.kind == "maxpool2d":
            idx = net._gather[li]
            xf = x.reshape(n, -1)
            win = np.take(xf, idx, axis=1)  # (B, c*oh*ow, kh*kw)
            arg = np.argmax(win, axis=2)  # first occurrence wins ties
            y = np.take_along_axis(win, arg[:, :, None], axis=2)[:, :, 0]
            caches.append(("maxpool2d", x.shape, idx, arg))
            x = y.reshape(n, *net.out_shapes[li])
        else:  # relu
            caches.append(("relu", x > 0.0))
            x = np.maximum(x, 0.0)
    logits = x.reshape(n, -1)
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite logits in forward pass")
    return logits, caches


def forward_pass(
    net: Network,
    params: NetworkParams,
    masks: list[np.ndarray] | None,
    batch: np.ndarray,
) -> np.ndarray:
    """Logits of the masked model on a batch; ``masks=None`` means dense."""
    logits, _ = _forward(net, params, masks, batch)
    return logits


def _check_labels(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise DataError(f"labels must lie in [0, {n_classes}), got range [{labels.min()}, {labels.max()}]")
    return labels.astype(np.int64)


def loss_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy with log-sum-exp stabilization."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = _check_labels(labels, logits.shape[1])
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    return float(np.mean(lse - z[np.arange(logits.shape[0]), labels]))


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def backward_pass(
    net: Network,
    params: NetworkParams,
    masks: list[np.ndarray] | None,
    batch: np.ndarray,
    labels: np.ndarray,
):
    """Mean cross-entropy loss and its gradient w.r.t. the dense parameters.

    Gradients flow through the masked weights, so the returned gradient rows
    of pruned output units (and their biases) are exactly zero.
    """
    logits, caches = _forward(net, params, masks, batch)
    labels = _check_labels(labels, logits.shape[1])
    n = logits.shape[0]
    probs = _softmax(logits)
    loss = loss_cross_entropy(logits, labels)
    grads = NetworkParams(weights=[None] * len(params.weights), biases=[None] * len(params.biases))
    delta = probs
    delta[np.arange(n), labels] -= 1.0
    delta /= n  # d(mean CE)/d(logits)
    dx = delta
    while caches:
        cache = caches.pop()  # release each layer's cache once consumed
        li = len(caches)  # one cache per layer, so this is the layer index
        kind = cache[0]
        if kind == "dense":
            _, pi, in_shape, x2, wm = cache
            dy = dx.reshape(n, -1)
            grads.weights[pi] = dy.T @ x2
            if params.biases[pi] is not None:
                grads.biases[pi] = dy.sum(axis=0)
            if pi == 0:
                break  # nothing below the first prunable layer needs a gradient
            dx = (dy @ wm).reshape(in_shape)
        elif kind == "conv2d":
            _, pi, in_shape, cols, wm = cache
            f = wm.shape[0]
            dy2 = dx.reshape(n, f, -1).transpose(0, 2, 1).reshape(-1, f)  # (B*oh*ow, n_out)
            grads.weights[pi] = dy2.T @ cols.reshape(-1, cols.shape[-1])
            if params.biases[pi] is not None:
                grads.biases[pi] = dy2.sum(axis=0)
            if pi == 0:
                break
            del cache, cols  # free the patch matrix before its gradient is built
            dx = _col2im(dy2 @ wm, in_shape, net.specs[li], net.out_shapes[li])
        elif kind == "maxpool2d":
            _, in_shape, idx, arg = cache
            dyf = dx.reshape(n, -1)
            rows = np.arange(idx.shape[0])
            chosen = idx[rows[None, :], arg]  # (B, c*oh*ow) flat input index
            dxf = np.zeros((n, int(np.prod(in_shape[1:]))))
            np.add.at(dxf, (np.arange(n)[:, None], chosen), dyf)
            dx = dxf.reshape(in_shape)
        else:  # relu
            dx = dx * cache[1]
    if masks is not None:
        for pi, m in enumerate(masks):
            grads.weights[pi] = grads.weights[pi] * m
            if grads.biases[pi] is not None:
                grads.biases[pi] = grads.biases[pi] * m[:, 0]
    return loss, grads


def sgd_momentum_step(
    params: NetworkParams,
    grads: NetworkParams,
    velocity: NetworkParams,
    lr: float,
    momentum: float,
) -> None:
    """v <- momentum*v + g; w <- w - lr*v, in place.

    A non-finite gradient entry rejects the whole step without touching any
    buffer. Range clamping is a separate op composed by the caller.
    """
    if lr < 0:
        raise ConfigurationError("lr must be >= 0")
    if not 0.0 <= momentum < 1.0:
        raise ConfigurationError("momentum must lie in [0, 1)")
    for g in grads.weights + [b for b in grads.biases if b is not None]:
        if not np.all(np.isfinite(g)):
            raise NumericError("non-finite gradient entry; step rejected")
    for i, w in enumerate(params.weights):
        v = velocity.weights[i]
        v *= momentum
        v += grads.weights[i]
        w -= lr * v
        if params.biases[i] is not None:
            vb = velocity.biases[i]
            vb *= momentum
            vb += grads.biases[i]
            params.biases[i] -= lr * vb


def clamp_parameters(params: NetworkParams) -> NetworkParams:
    """Clamp every weight and bias into [-1, 1], in place; idempotent."""
    for w in params.weights:
        np.clip(w, -1.0, 1.0, out=w)
    for b in params.biases:
        if b is not None:
            np.clip(b, -1.0, 1.0, out=b)
    return params


def finite_diff_oracle(
    net: Network,
    params: NetworkParams,
    masks: list[np.ndarray] | None,
    batch: np.ndarray,
    labels: np.ndarray,
    index: tuple[int, str, int],
    step: float,
) -> float:
    """Central finite difference of the batch loss w.r.t. one parameter.

    ``index`` is (prunable layer, "weight" | "bias", flat offset); the mask is
    held fixed while the dense parameter is perturbed.
    """
    if step <= 0:
        raise ConfigurationError("step must be > 0")
    pi, which, flat = index

    def loss_at(sign: float) -> float:
        p = params.copy()
        arr = p.weights[pi] if which == "weight" else p.biases[pi]
        arr.flat[flat] += sign * step
        logits = forward_pass(net, p, masks, batch)
        return loss_cross_entropy(logits, labels)

    return (loss_at(+1.0) - loss_at(-1.0)) / (2.0 * step)


def predict(net: Network, params: NetworkParams, masks: list[np.ndarray] | None, batch: np.ndarray) -> np.ndarray:
    """Argmax class predictions."""
    return np.argmax(forward_pass(net, params, masks, batch), axis=1)


# ---------------------------------------------------------------------------
# architecture presets


def build_lenet(input_shape: tuple[int, int, int] = (1, 28, 28), n_classes: int = 10) -> Network:
    """Lenet-5 (Caffe variant): two 5x5 conv+pool blocks, 800-500-C head."""
    return Network(
        input_shape,
        [
            conv2d(20, (5, 5)),
            relu(),
            maxpool2d((2, 2)),
            conv2d(50, (5, 5)),
            relu(),
            maxpool2d((2, 2)),
            dense(500),
            relu(),
            dense(n_classes),
        ],
    )


def build_cnn7(input_shape: tuple[int, int, int] = (3, 32, 32), n_classes: int = 10) -> Network:
    """Seven-layer CNN: 64-64-pool-128-128-pool conv stack, 512-128-128-C head."""
    return Network(
        input_shape,
        [
            conv2d(64, (5, 5)),
            relu(),
            conv2d(64, (5, 5)),
            relu(),
            maxpool2d((2, 2)),
            conv2d(128, (5, 5)),
            relu(),
            conv2d(128, (5, 5)),
            relu(),
            maxpool2d((2, 2)),
            dense(128),
            relu(),
            dense(128),
            relu(),
            dense(n_classes),
        ],
    )


def build_mlp(input_dim: int, hidden: list[int], n_classes: int) -> Network:
    layers: list[LayerSpec] = []
    for width in hidden:
        layers.append(dense(width))
        layers.append(relu())
    layers.append(dense(n_classes))
    return Network((input_dim,), layers)
