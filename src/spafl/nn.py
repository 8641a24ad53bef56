"""Minimal neural-network engine: dense / conv2d / maxpool2d / relu layers with
manual forward and backward passes over float64 numpy arrays.

Conventions:
  * every tensor is a float64 ``np.ndarray``. Callers pass image batches as
    (N, C, H, W) and flat batches as (N, features), and get (N, classes)
    logits back. Per-sample shapes (``Network.in_shapes``/``out_shapes``)
    are (C, H, W) or (features,)
  * inside the engine an image batch is stored batch-innermost, as
    (C, H, W, N): the input is transposed once on entry, and a map is
    flattened once, in (c, h, w) order, where a dense layer reads it. Every
    copy and add of the conv stack (patch extraction, col2im, pooling,
    relu) then runs its inner loop over the batch, or over ow*N at stride
    1, instead of over one output row (the CHWN layout of Chetlur et al.
    2014, arXiv:1410.0759). Dense activations stay (N, units)
  * a convolution is stored as a flattened weight matrix of shape
    (n_out, n_in) with n_in = c_in * kh * kw, columns in (c, ky, kx) order,
    so dense and conv layers share one row-per-output-unit layout (the
    layout that per-filter pruning operates on)
  * a mask is one (n_out,) {0,1} float vector per prunable layer, one bit
    per output unit. The model it defines is the masked-dense one,
    w * m[:, None] with the bias of a pruned unit removed; the engine
    computes it without the pruned rows (structured-sparsity
    compaction): a layer gathers the weights of its active rows, and of
    those only the fan-in columns of the input channels (conv: c*kh*kw
    blocks, dense after a flatten: c*H*W blocks, dense after dense: units)
    that survived the layer below. Kept channels are the leading axis of a
    map. Activations stay compacted through relu and maxpool; the logits
    are scattered back to full width, so a pruned logit is exactly 0
  * a layer whose GEMMs span fewer (sample, output position) pairs than
    ``_COMPACT_MIN_ROWS`` is not compacted: gathering and scattering its
    weights would cost more than the multiply-adds skipped, so it runs at
    full width and multiplies its output by the row mask
  * a model's weights and biases are views into one contiguous float64
    vector (:class:`NetworkParams`), so the optimizer step and the clamp are
    single calls on it
  * weight and bias gradients come back at full shape, with the rows of
    pruned output units exactly zero, written straight into a caller's
    gradient buffer when one is given; ``masks=None`` and fully active
    layers gather and scatter nothing
  * convolutions use the im2col/GEMM lowering (Chellapilla et al. 2006;
    Caffe) over a (c*kh*kw, oh*ow*N) patch matrix built by one strided
    slice copy per kernel offset (no gather index): the forward pass is
    ``Y = W @ cols``, the weight gradient ``dY @ cols.T`` over all
    (position, sample) columns, and the input gradient ``W.T @ dY``
    scattered back with one strided slice add per kernel offset (col2im);
    max pooling is a running max over the same strided offset slices, and
    its gradient one strided slice write per offset
  * a relu directly followed by a maxpool runs after the pool, on the
    smaller pooled map: max and relu commute exactly, and the gradient
    still reaches each window's first maximum only, and only when that
    maximum is positive
  * backprop stops after the first prunable layer's weight and bias
    gradients: the gradient w.r.t. the input batch is never computed
  * each layer's forward cache is released as soon as backprop has consumed
    it, so the large conv patch matrices do not all stay alive at once
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

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


class NetworkParams:
    """Weights and biases of the prunable layers, in network order, stored in
    one contiguous float64 vector ``flat``.

    ``flat`` holds every weight matrix row-major, layer after layer, then
    every bias; ``weights[i]`` (n_out, n_in) and ``biases[i]`` (n_out,) are
    views into it, and a layer without a bias has ``biases[i] = None`` and
    takes no space. Write through the views in place: an array put into the
    lists instead is not part of ``flat``. Whole-model ops (the optimizer
    step, clamping, copying, averaging) are single calls on ``flat``.

    The same container carries gradients and momentum buffers (they share
    the parameters' layout).
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray | None]):
        """Pack per-layer arrays into a new flat vector (they are copied)."""
        check_layer_count("biases", len(biases), len(weights))
        shapes = tuple(np.shape(w) for w in weights)
        if any(len(s) != 2 for s in shapes):
            raise ConfigurationError(f"weights must be (n_out, n_in) matrices, got shapes {list(shapes)}")
        for (n_out, _), b in zip(shapes, biases):
            if b is not None and np.shape(b) != (n_out,):
                raise ConfigurationError(f"bias shape {np.shape(b)} does not match ({n_out},) output units")
        layout = (shapes, tuple(b is not None for b in biases))
        self._bind(np.empty(_layout_size(layout)), layout)
        for view, w in zip(self.weights, weights):
            view[...] = w
        for view, b in zip(self.biases, biases):
            if view is not None:
                view[...] = b

    def _bind(self, flat: np.ndarray, layout) -> None:
        shapes, has_bias = layout
        if flat.shape != (_layout_size(layout),) or flat.dtype != np.float64 or not flat.flags.c_contiguous:
            raise ConfigurationError(f"flat vector of shape {flat.shape} does not fit the layout")
        self.flat = flat
        self.layout = layout
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray | None] = []
        off = 0
        for n_out, n_in in shapes:
            self.weights.append(flat[off : off + n_out * n_in].reshape(n_out, n_in))
            off += n_out * n_in
        self.n_weights = off
        for (n_out, _), hb in zip(shapes, has_bias):
            self.biases.append(flat[off : off + n_out] if hb else None)
            off += n_out if hb else 0

    @classmethod
    def from_flat(cls, flat: np.ndarray, layout) -> "NetworkParams":
        """A container whose storage is ``flat`` (not copied), laid out as
        ``layout``: the per-layer weight shapes and has-bias flags."""
        out = cls.__new__(cls)
        out._bind(flat, layout)
        return out

    def copy(self) -> "NetworkParams":
        return NetworkParams.from_flat(self.flat.copy(), self.layout)

    def zeros_like(self) -> "NetworkParams":
        return NetworkParams.from_flat(np.zeros(self.flat.size), self.layout)

    @property
    def n_scalars(self) -> int:
        return self.flat.size


def _layout_size(layout) -> int:
    shapes, has_bias = layout
    return sum(n_out * n_in + (n_out if hb else 0) for (n_out, n_in), hb in zip(shapes, has_bias))


def _offset_slices(spec: LayerSpec, out_shape: tuple[int, ...]) -> list[tuple[slice, slice]]:
    """Per kernel offset (ky, kx), in row-major order, the strided (row, col)
    slices of the layer input that hold that offset of every output window."""
    kh, kw = spec.kernel
    s = spec.stride
    _, oh, ow = out_shape
    span_h, span_w = s * (oh - 1) + 1, s * (ow - 1) + 1
    return [(slice(ky, ky + span_h, s), slice(kx, kx + span_w, s)) for ky in range(kh) for kx in range(kw)]


def _im2col(x: np.ndarray, spec: LayerSpec, out_shape: tuple[int, ...]) -> np.ndarray:
    """The (c*kh*kw, oh*ow*N) patch matrix of a (C, H, W, N) map: one strided
    slice copy per kernel offset. Rows are in (c, ky, kx) order, the order of
    the weight columns; columns in (oy, ox, n) order."""
    c, n = x.shape[0], x.shape[3]
    _, oh, ow = out_shape
    slices = _offset_slices(spec, out_shape)
    cols = np.empty((c, len(slices), oh, ow, n))
    for k, (sy, sx) in enumerate(slices):
        cols[:, k] = x[:, sy, sx]
    return cols.reshape(c * len(slices), oh * ow * n)


def _col2im(dcols: np.ndarray, in_shape: tuple[int, ...], spec: LayerSpec, out_shape: tuple[int, ...]) -> np.ndarray:
    """Scatter-add patch gradients (c*kh*kw, oh*ow*N) back onto the
    (C, H, W, N) input: one strided slice add per kernel offset."""
    c, _, _, n = in_shape
    _, oh, ow = out_shape
    slices = _offset_slices(spec, out_shape)
    d = dcols.reshape(c, len(slices), oh, ow, n)
    dx = np.zeros(in_shape)
    for k, (sy, sx) in enumerate(slices):
        dx[:, sy, sx] += d[:, k]
    return dx


def _maxpool(x: np.ndarray, spec: LayerSpec, out_shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Window maxima of a (C, H, W, N) map as a running max over the strided
    offset slices, plus each window's offset (ky*kw + kx) of its first maximum."""
    slices = _offset_slices(spec, out_shape)
    y = x[:, slices[0][0], slices[0][1]].copy()
    arg = np.zeros(y.shape, dtype=np.min_scalar_type(len(slices) - 1))
    better = np.empty(y.shape, dtype=bool)
    step = np.empty_like(arg)
    for k, (sy, sx) in enumerate(slices[1:], start=1):
        v = x[:, sy, sx]
        np.greater(v, y, out=better)  # strict, so the first occurrence wins ties
        np.maximum(y, v, out=y)
        # the offset of the last strict increase is the first maximum; as k
        # grows, it is the largest k * better (a masked write costs 3x more)
        np.multiply(better, arg.dtype.type(k), out=step)
        np.maximum(arg, step, out=arg)
    return y, arg


def _maxpool_backward(
    dy: np.ndarray, arg: np.ndarray, in_shape: tuple[int, ...], spec: LayerSpec, out_shape: tuple[int, ...]
) -> np.ndarray:
    """Route each window's gradient to its first maximum: one strided slice
    write per kernel offset; overlapping windows accumulate."""
    overlap = spec.stride < max(spec.kernel)
    dx = np.zeros(in_shape)
    for k, (sy, sx) in enumerate(_offset_slices(spec, out_shape)):
        if overlap:
            dx[:, sy, sx] += dy * (arg == k)
        else:
            np.multiply(dy, arg == k, out=dx[:, sy, sx])
    return dx


class Network:
    """Architecture: layer specs plus the shape flow from a fixed input shape.

    ``in_shapes``/``out_shapes`` are per-sample shapes in the public
    (C, H, W) order, whatever order the engine keeps a batch in. The
    constructor resolves every ``n_in``; the object itself is immutable and
    holds no parameters, so it can be shared by every client.
    """

    def __init__(self, input_shape: tuple[int, ...], layers: list[LayerSpec]):
        self.input_shape = tuple(int(s) for s in input_shape)
        if any(s < 1 for s in self.input_shape):
            raise ConfigurationError(f"bad input shape {input_shape}")
        specs: list[LayerSpec] = []
        self.in_shapes: list[tuple[int, ...]] = []
        self.out_shapes: list[tuple[int, ...]] = []
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
            elif spec.kind == "conv2d":
                if len(shape) != 3:
                    raise ConfigurationError(f"conv2d expects (C,H,W) input, got {shape}")
                c, h, w = shape
                kh, kw = spec.kernel
                oh = (h - kh) // spec.stride + 1
                ow = (w - kw) // spec.stride + 1
                if oh < 1 or ow < 1:
                    raise ConfigurationError(f"kernel {kh}x{kw} does not fit input {h}x{w}")
                spec = replace(spec, n_in=c * kh * kw)
                if spec.n_out < 1:
                    raise ConfigurationError("conv2d layer needs n_out >= 1")
                shape = (spec.n_out, oh, ow)
            elif spec.kind == "maxpool2d":
                if len(shape) != 3:
                    raise ConfigurationError(f"maxpool2d expects (C,H,W) input, got {shape}")
                c, h, w = shape
                kh, kw = spec.kernel
                oh = (h - kh) // spec.stride + 1
                ow = (w - kw) // spec.stride + 1
                if oh < 1 or ow < 1:
                    raise ConfigurationError(f"pool {kh}x{kw} does not fit input {h}x{w}")
                shape = (c, oh, ow)
            specs.append(spec)
            self.out_shapes.append(shape)
        self.specs = specs
        # per layer, the output positions each sample adds to the layer's GEMMs
        self.positions = [math.prod(shape[1:]) for shape in self.out_shapes]
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

    @property
    def param_layout(self):
        """The :class:`NetworkParams` layout: weight shapes and has-bias flags."""
        specs = [self.specs[i] for i in self.prunable]
        return tuple((s.n_out, s.n_in) for s in specs), tuple(s.has_bias for s in specs)


def init_params(net: Network, rng: np.random.Generator) -> NetworkParams:
    """Uniform weight init in [-b, b] with b = sqrt(1/n_in); zero biases."""
    params = NetworkParams.from_flat(np.zeros(net.param_count), net.param_layout)
    for w in params.weights:
        bound = float(np.sqrt(1.0 / w.shape[1]))
        np.clip(rng.uniform(-bound, bound, size=w.shape), -1.0, 1.0, out=w)
    return params


def _check_batch(net: Network, batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim < 2:
        raise ConfigurationError(f"batch must have a leading batch dimension, got shape {batch.shape}")
    if math.prod(batch.shape[1:]) != math.prod(net.input_shape):
        raise ConfigurationError(
            f"batch features {batch.shape[1:]} incompatible with network input {net.input_shape}"
        )
    return batch.reshape(batch.shape[0], *net.input_shape)


# A layer runs over its active rows only when its GEMMs span at least this
# many (sample, output position) pairs. Every skipped weight saves that many
# multiply-adds per GEMM, while gathering the kept weights and scattering
# their gradient back costs a fixed few per weight; below the cut the layer
# runs at full width and multiplies its output by the row mask instead.
_COMPACT_MIN_ROWS = 16


class _LayerCache(NamedTuple):
    """What backprop needs from the forward pass of one dense or conv layer."""

    kind: str
    pi: int
    in_shape: tuple[int, ...]  # the layer input as evaluated: (N, ...) rows or a (C, H, W, N) map
    inputs: np.ndarray  # (N, n_in) for dense; the (n_in, oh*ow*N) patch matrix for conv
    w: np.ndarray  # the weights as evaluated: compacted, or full
    rows: np.ndarray | None  # the computed rows when compacted; None = all rows
    keep: np.ndarray | None  # the input channels whose weight columns were gathered
    expanded: np.ndarray | None  # the channels of the incoming activation scattered to full width
    row_mask: np.ndarray | None  # at full width, the {0,1} row vector the output was multiplied by


def check_layer_count(name: str, count: int, expected: int) -> None:
    """A per-prunable-layer list must have one entry per layer."""
    if count != expected:
        raise ConfigurationError(f"{name} has {count} layers, expected {expected}")


def check_mask(mask: np.ndarray, n_out: int) -> None:
    """A layer mask must be one row vector of the layer's n_out units."""
    if mask.shape != (n_out,):
        raise ConfigurationError(f"mask shape {mask.shape} does not match ({n_out},) output units")


def _active_rows(params: NetworkParams, masks: list[np.ndarray] | None, pi: int) -> np.ndarray | None:
    """Indices of layer pi's active rows, or None when every row is active."""
    if masks is None:
        return None
    m = masks[pi]
    check_mask(m, params.weights[pi].shape[0])
    rows = m.nonzero()[0]
    return None if rows.size == m.size else rows


def _compact(w: np.ndarray, rows: np.ndarray | None, keep: np.ndarray | None, c_in: int) -> np.ndarray:
    """The block of a (n_out, c_in*blk) weight matrix that the active rows
    apply to the kept input channels; None keeps a whole axis."""
    if rows is not None:
        w = np.take(w, rows, axis=0)
    if keep is not None:
        k, blk = w.shape[0], w.shape[1] // c_in
        w = np.take(w.reshape(k, c_in, blk), keep, axis=1).reshape(k, keep.size * blk)
    return w


def _channel_axis(x: np.ndarray) -> int:
    """The channel (unit) axis of an activation: 0 for a (C, H, W, N) map,
    1 for (N, units) rows."""
    return 0 if x.ndim == 4 else 1


def _flatten(x: np.ndarray) -> np.ndarray:
    """The (N, features) rows of an activation; a (C, H, W, N) map is read in
    (c, h, w) order, the order of a dense layer's weight columns."""
    return x.reshape(-1, x.shape[-1]).T if x.ndim == 4 else x.reshape(x.shape[0], -1)


def _unflatten(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`_flatten`: (N, features) rows back to an activation
    of ``shape``."""
    return g.T.reshape(shape) if len(shape) == 4 else g.reshape(shape)


def _expand(x: np.ndarray, keep: np.ndarray | None, size: int) -> np.ndarray:
    """Scatter x into zeros that are ``size`` long along its channel axis, at
    ``keep``."""
    if keep is None:
        return x
    axis = _channel_axis(x)
    shape = list(x.shape)
    shape[axis] = size
    out = np.zeros(shape)
    out[(slice(None),) * axis + (keep,)] = x
    return out


def _scatter_weights(
    out: np.ndarray, g: np.ndarray, rows: np.ndarray | None, keep: np.ndarray | None, c_in: int
) -> None:
    """Inverse of :func:`_compact`: write a compacted weight gradient into
    the full (n_out, n_in) ``out``, zeros everywhere else."""
    out.fill(0.0)
    if keep is None:
        out[rows] = g
        return
    n_out, n_in = out.shape
    blk = n_in // c_in
    blocks = out.reshape(n_out, c_in, blk)  # a view: out is C-contiguous
    blocks[slice(None) if rows is None else rows[:, None], keep] = g.reshape(g.shape[0], keep.size, blk)


def _forward(net: Network, params: NetworkParams, masks: list[np.ndarray] | None, batch: np.ndarray):
    """Forward pass returning logits plus one cache per layer for backprop.

    Activations carry only the channels (units) of computed rows: ``keep``
    lists the channels present in ``x``, None meaning all of them. An image
    batch is transposed once, to (C, H, W, N).
    """
    x = _check_batch(net, batch)
    if masks is not None:
        check_layer_count("masks", len(masks), len(net.prunable))
    n = x.shape[0]
    if x.ndim == 4:
        x = np.ascontiguousarray(x.transpose(1, 2, 3, 0))
    caches = []
    keep = None
    rectify = False  # a relu was deferred to the output of the next maxpool
    pi = 0
    for li, spec in enumerate(net.specs):
        if spec.kind in PRUNABLE_KINDS:
            rows = _active_rows(params, masks, pi)
            c_in = net.in_shapes[li][0]
            w, b = params.weights[pi], params.biases[pi]
            expanded = row_mask = None
            if n * net.positions[li] >= _COMPACT_MIN_ROWS:
                w = _compact(w, rows, keep, c_in)
                if b is not None and rows is not None:
                    b = b[rows]
            else:
                if keep is not None:
                    x, expanded, keep = _expand(x, keep, c_in), keep, None
                if rows is not None:
                    row_mask, rows = masks[pi], None
            if spec.kind == "dense":
                inputs = _flatten(x)
                y = inputs @ w.T
                if b is not None:
                    y += b
                if row_mask is not None:
                    y *= row_mask
            else:
                inputs = _im2col(x, spec, net.out_shapes[li])
                y = w @ inputs
                if b is not None:
                    y += b[:, None]
                if row_mask is not None:
                    y *= row_mask[:, None]
                _, oh, ow = net.out_shapes[li]
                y = y.reshape(w.shape[0], oh, ow, n)
            caches.append(_LayerCache(spec.kind, pi, x.shape, inputs, w, rows, keep, expanded, row_mask))
            x = y
            keep = rows
            pi += 1
        elif spec.kind == "maxpool2d":
            y, arg = _maxpool(x, spec, net.out_shapes[li])
            positive = None
            if rectify:
                positive = y > 0.0
                np.maximum(y, 0.0, out=y)
                rectify = False
            caches.append(("maxpool2d", x.shape, arg, positive))
            x = y
        elif li + 1 < len(net.specs) and net.specs[li + 1].kind == "maxpool2d":
            # a relu followed by a maxpool: max and relu commute, so the pool
            # rectifies its own, smaller output
            caches.append(("relu", None))
            rectify = True
        else:  # relu
            caches.append(("relu", x > 0.0))
            # a layer's output is this pass's own array and is rectified in
            # place; the network input (layer 0) belongs to the caller
            x = np.maximum(x, 0.0, out=x) if li else np.maximum(x, 0.0)
    logits = _flatten(_expand(x, keep, net.out_shapes[-1][0]))
    if not np.isfinite(logits).all():
        raise NumericError(f"non-finite logits in forward pass (first non-finite: {_first_nonfinite(caches)})")
    return logits, caches


def _first_nonfinite(caches: list) -> str:
    """Failure path of the logits check: where the non-finite values start,
    judged by the input each prunable layer consumed."""
    inputs = [c.inputs for c in caches if isinstance(c, _LayerCache)]
    if not np.all(np.isfinite(inputs[0])):
        return "the input batch"
    bad = next((pi for pi, x in enumerate(inputs[1:]) if not np.all(np.isfinite(x))), len(inputs) - 1)
    return f"the output of prunable layer {bad}"


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
    if labels.size and (np.minimum.reduce(labels) < 0 or np.maximum.reduce(labels) >= n_classes):
        raise DataError(f"labels must lie in [0, {n_classes}), got range [{labels.min()}, {labels.max()}]")
    return labels.astype(np.int64, copy=False)


def _softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy with log-sum-exp stabilization, and the softmax
    probabilities from the same intermediates; labels already checked."""
    n = logits.shape[0]
    z = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    e = np.exp(z)
    s = np.add.reduce(e, axis=1)
    loss = float(np.add.reduce(np.log(s) - z[np.arange(n), labels]) / n)  # np.mean's sum and divide
    return loss, e / s[:, None]


def loss_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy with log-sum-exp stabilization."""
    logits = np.asarray(logits, dtype=np.float64)
    return _softmax_cross_entropy(logits, _check_labels(labels, logits.shape[1]))[0]


def backward_pass(
    net: Network,
    params: NetworkParams,
    masks: list[np.ndarray] | None,
    batch: np.ndarray,
    labels: np.ndarray,
    out: NetworkParams | None = None,
):
    """Mean cross-entropy loss and its gradient w.r.t. the dense parameters.

    Each layer's gradient is computed over its active rows and kept input
    channels and placed into zeros of the full shape, so the returned rows
    of pruned output units (and their biases) are exactly zero. The gradient
    is written into ``out`` (a container of the parameters' layout, every
    entry overwritten) and returned; by default a new one is allocated.
    """
    if out is not None and out.layout != params.layout:
        raise ConfigurationError("gradient buffer layout does not match the parameters")
    logits, caches = _forward(net, params, masks, batch)
    labels = _check_labels(labels, logits.shape[1])
    n = logits.shape[0]
    loss, delta = _softmax_cross_entropy(logits, labels)
    grads = params.zeros_like() if out is None else out
    delta[np.arange(n), labels] -= 1.0
    delta /= n  # d(mean CE)/d(logits)
    out_keep = caches[net.prunable[-1]].rows  # the logits' channels that were computed
    last = net.out_shapes[-1]
    dx = _unflatten(delta, (*last, n) if len(last) == 3 else (n, *last))
    if out_keep is not None:
        dx = np.take(dx, out_keep, axis=_channel_axis(dx))
    while caches:
        cache = caches.pop()  # release each layer's cache once consumed
        li = len(caches)  # one cache per layer, so this is the layer index
        kind = cache[0]
        if kind in PRUNABLE_KINDS:
            pi, inputs, w = cache.pi, cache.inputs, cache.w
            f = w.shape[0]
            # gW is one GEMM over every (sample, output position) pair and gb
            # a sum over them; dy is (N, f) for dense, (f, oh*ow*N) for conv
            if kind == "dense":
                dy = dx.reshape(n, f)
                dy_rows, x_pairs, pair_axis = dy.T, inputs, 0
            else:
                dy = dx.reshape(f, inputs.shape[1])
                dy_rows, x_pairs, pair_axis = dy, inputs.T, 1
            if cache.row_mask is not None:  # dy is this pass's own array
                dy *= cache.row_mask if kind == "dense" else cache.row_mask[:, None]
            gw, gb = grads.weights[pi], grads.biases[pi]
            if cache.rows is None and cache.keep is None:
                np.matmul(dy_rows, x_pairs, out=gw)
            else:
                _scatter_weights(gw, dy_rows @ x_pairs, cache.rows, cache.keep, net.in_shapes[li][0])
            if gb is not None and cache.rows is None:
                np.add.reduce(dy, axis=pair_axis, out=gb)
            elif gb is not None:
                gb.fill(0.0)
                gb[cache.rows] = np.add.reduce(dy, axis=pair_axis)
            if pi == 0:
                break  # nothing below the first prunable layer needs a gradient
            in_shape, expanded = cache.in_shape, cache.expanded
            if kind == "dense":
                dx = _unflatten(dy @ w, in_shape)
            else:
                del cache, inputs, x_pairs  # free the patch matrix before its gradient is built
                dx = _col2im(w.T @ dy, in_shape, net.specs[li], net.out_shapes[li])
            if expanded is not None:
                dx = np.take(dx, expanded, axis=_channel_axis(dx))
        elif kind == "maxpool2d":
            _, in_shape, arg, positive = cache
            if positive is not None:
                dx *= positive  # the deferred relu; dx is this pass's own array
            dx = _maxpool_backward(dx, arg, in_shape, net.specs[li], net.out_shapes[li])
        elif cache[1] is not None:  # relu; None when its pool applied it
            dx *= cache[1]  # dx is this pass's own array
    return loss, grads


def sgd_momentum_step(
    params: NetworkParams,
    grads: NetworkParams,
    velocity: NetworkParams,
    lr: float,
    momentum: float,
) -> None:
    """v <- momentum*v + g; w <- w - lr*v, in place, on the flat vectors.

    A non-finite gradient entry rejects the whole step without touching any
    buffer. Range clamping is a separate op composed by the caller.
    """
    if lr < 0:
        raise ConfigurationError("lr must be >= 0")
    if not 0.0 <= momentum < 1.0:
        raise ConfigurationError("momentum must lie in [0, 1)")
    if not params.layout == grads.layout == velocity.layout:
        raise ConfigurationError("params, gradient and velocity layouts differ")
    g = grads.flat
    # an inf or nan entry makes g.g non-finite; a finite g whose square sum
    # overflows falls through to the exact check
    if not (np.isfinite(np.dot(g, g)) or np.isfinite(g).all()):
        layer = next(
            pi for pi, (w, b) in enumerate(zip(grads.weights, grads.biases))
            if not (np.isfinite(w).all() and (b is None or np.isfinite(b).all()))
        )
        raise NumericError(f"non-finite gradient entry in prunable layer {layer}; step rejected")
    v = velocity.flat
    v *= momentum
    v += g
    params.flat -= lr * v


def clamp_parameters(params: NetworkParams) -> NetworkParams:
    """Clamp every weight and bias into [-1, 1], in place; idempotent."""
    np.clip(params.flat, -1.0, 1.0, out=params.flat)
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
