"""Engine tests: forward/backward correctness against hand arithmetic and the
central-difference oracle, optimizer semantics, clamping."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spafl import nn, pruning
from spafl.errors import ConfigurationError, DataError, NumericError

from conftest import all_ones_masks, strided_conv_net, tiny_conv_net, tiny_dense_net


def to_chwn(x: np.ndarray) -> np.ndarray:
    """An (N, C, H, W) batch in the engine's batch-innermost layout."""
    return np.ascontiguousarray(x.transpose(1, 2, 3, 0))


def to_nchw(x: np.ndarray) -> np.ndarray:
    return x.transpose(3, 0, 1, 2)


def patch_index(in_shape, spec: nn.LayerSpec, out_shape) -> np.ndarray:
    """(oh*ow, c*kh*kw) flat indices into a (C, H, W) sample: row (oy, ox)
    holds that window's entries in (c, ky, kx) order, the weight-column order."""
    c, h, w = in_shape
    kh, kw = spec.kernel
    _, oh, ow = out_shape
    s = spec.stride
    cc = np.arange(c)[None, None, :, None, None]
    oy = (s * np.arange(oh))[:, None, None, None, None]
    ox = (s * np.arange(ow))[None, :, None, None, None]
    dy = np.arange(kh)[None, None, None, :, None]
    dx = np.arange(kw)[None, None, None, None, :]
    return (cc * (h * w) + (oy + dy) * w + (ox + dx)).reshape(oh * ow, c * kh * kw)


def identity_dense_net(n: int) -> tuple[nn.Network, nn.NetworkParams]:
    net = nn.Network((n,), [nn.dense(n)])
    params = nn.NetworkParams(weights=[np.eye(n)], biases=[np.zeros(n)])
    return net, params


class TestForward:
    def test_identity_layer(self):
        net, params = identity_dense_net(2)
        masks = all_ones_masks(net)
        logits = nn.forward_pass(net, params, masks, np.array([[0.2, -0.3]]))
        assert np.allclose(logits, [[0.2, -0.3]])

    def test_fully_pruned_outputs_bias_only(self):
        net, params = identity_dense_net(2)
        masks = [np.zeros(2)]
        logits = nn.forward_pass(net, params, masks, np.array([[0.2, -0.3]]))
        assert np.array_equal(logits, [[0.0, 0.0]])

    def test_hand_arithmetic(self):
        net = nn.Network((2,), [nn.dense(2)])
        params = nn.NetworkParams(
            weights=[np.array([[0.1, 0.2], [0.3, 0.4]])], biases=[np.zeros(2)]
        )
        logits = nn.forward_pass(net, params, all_ones_masks(net), np.array([[1.0, -1.0]]))
        assert np.allclose(logits, [[-0.1, -0.1]])

    def test_dense_mask_none_equivalence(self, rng):
        net, params = tiny_conv_net()
        x = rng.uniform(0, 1, (3, 1, 6, 6))
        assert np.array_equal(
            nn.forward_pass(net, params, None, x),
            nn.forward_pass(net, params, all_ones_masks(net), x),
        )

    def test_batch_shape_mismatch(self):
        net, params = tiny_dense_net()
        with pytest.raises(ConfigurationError):
            nn.forward_pass(net, params, None, np.zeros((2, 7)))

    def test_mask_shape_mismatch(self, rng):
        # a mask is one (n_out,) row vector; the old (n_out, n_in) matrix
        # format must raise rather than broadcast
        net, params = tiny_dense_net()
        n_out, n_in = params.weights[1].shape
        x = rng.uniform(0, 1, (2, 4))
        for bad in (np.ones((n_out, n_in + 1)), np.ones((n_out, n_in)), np.ones(n_out + 1), np.ones(n_out - 1)):
            masks = all_ones_masks(net)
            masks[1] = bad
            with pytest.raises(ConfigurationError, match="mask shape"):
                nn.forward_pass(net, params, masks, x)
            with pytest.raises(ConfigurationError, match="mask shape"):
                nn.backward_pass(net, params, masks, x, np.array([0, 1]))
            with pytest.raises(ConfigurationError, match="mask shape"):
                pruning.apply_mask(params.weights[1], bad)
            with pytest.raises(ConfigurationError, match="mask shape"):
                pruning.density_metrics(net, masks)

    def test_pruned_bias_removed(self):
        net = nn.Network((2,), [nn.dense(2)])
        params = nn.NetworkParams(
            weights=[np.array([[0.5, 0.5], [0.5, 0.5]])],
            biases=[np.array([0.7, 0.9])],
        )
        masks = [np.array([1.0, 0.0])]
        logits = nn.forward_pass(net, params, masks, np.zeros((1, 2)))
        # the pruned row's bias must vanish with the row
        assert np.allclose(logits, [[0.7, 0.0]])


class TestLoss:
    def test_uniform_logits(self):
        logits = np.zeros((4, 10))
        assert nn.loss_cross_entropy(logits, np.array([0, 3, 5, 9])) == pytest.approx(np.log(10))

    def test_saturated_true_class(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 1000.0
        assert nn.loss_cross_entropy(logits, np.array([2])) == pytest.approx(0.0, abs=1e-12)

    def test_hand_arithmetic(self):
        logits = np.array([[0.5, -0.5]])
        expected = -np.log(np.exp(0.5) / (np.exp(0.5) + np.exp(-0.5)))
        got = nn.loss_cross_entropy(logits, np.array([0]))
        assert got == pytest.approx(expected)
        assert got == pytest.approx(0.3133, abs=5e-5)

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            nn.loss_cross_entropy(np.zeros((1, 3)), np.array([3]))


class TestBackward:
    def test_softmax_minus_onehot(self):
        # single dense layer fed basis vectors: dW[:, j] collects the logit
        # gradient (softmax - onehot) / batch for the sample with x = e_j
        net, params = identity_dense_net(3)
        x = np.eye(3)[:1]
        labels = np.array([1])
        logits = nn.forward_pass(net, params, None, x)
        z = np.exp(logits[0] - logits[0].max())
        softmax = z / z.sum()
        _, grads = nn.backward_pass(net, params, None, x, labels)
        expected = softmax - np.eye(3)[1]
        assert np.allclose(grads.weights[0][:, 0], expected)

    def test_all_zero_mask_zero_grads(self, rng):
        net, params = tiny_dense_net()
        masks = [np.zeros(n) for n in net.threshold_sizes]
        x = rng.uniform(0, 1, (4, 4))
        y = rng.integers(0, 3, 4)
        _, grads = nn.backward_pass(net, params, masks, x, y)
        for g in grads.weights:
            assert np.array_equal(g, np.zeros_like(g))
        for g in grads.biases:
            assert np.array_equal(g, np.zeros_like(g))

    def test_masked_rows_are_zero(self, rng):
        net, params = tiny_conv_net()
        masks = all_ones_masks(net)
        masks[0][1] = 0.0
        masks[2][0] = 0.0
        x = rng.uniform(0, 1, (2, 1, 6, 6))
        y = rng.integers(0, 3, 2)
        _, grads = nn.backward_pass(net, params, masks, x, y)
        assert np.array_equal(grads.weights[0][1], np.zeros(net.specs[0].n_in))
        assert grads.biases[0][1] == 0.0
        assert np.array_equal(grads.weights[2][0], np.zeros_like(grads.weights[2][0]))

    @pytest.mark.parametrize("seed", [0, 1, 2, "strided"])
    def test_gradients_match_finite_differences(self, seed):
        # integer seeds draw tiny_conv_net, whose only conv comes first and
        # so never backpropagates an input gradient; "strided" stacks two
        # convs, which does
        if seed == "strided":
            net, params = strided_conv_net()
            seed = 3
        else:
            net, params = tiny_conv_net(seed)
        rng = np.random.default_rng(seed + 100)
        x = rng.uniform(0, 1, (3, *net.input_shape))
        y = rng.integers(0, 3, 3)
        tau = [rng.uniform(0, 0.1, n) for n in net.threshold_sizes]
        masks = pruning.generate_masks(net, params, tau)
        _, grads = nn.backward_pass(net, params, masks, x, y)
        for pi in range(len(params.weights)):
            w = params.weights[pi]
            for flat in range(0, w.size, max(1, w.size // 13)):
                fd = nn.finite_diff_oracle(net, params, masks, x, y, (pi, "weight", flat), 1e-5)
                an = grads.weights[pi].flat[flat]
                assert abs(fd - an) <= max(1e-4 * max(abs(fd), abs(an)), 1e-7)
            for flat in range(params.biases[pi].size):
                fd = nn.finite_diff_oracle(net, params, masks, x, y, (pi, "bias", flat), 1e-5)
                an = grads.biases[pi].flat[flat]
                assert abs(fd - an) <= max(1e-4 * max(abs(fd), abs(an)), 1e-7)

    def test_determinism(self, rng):
        net, params = tiny_conv_net()
        x = rng.uniform(0, 1, (2, 1, 6, 6))
        y = rng.integers(0, 3, 2)
        l1, g1 = nn.backward_pass(net, params, None, x, y)
        l2, g2 = nn.backward_pass(net, params, None, x, y)
        assert l1 == l2
        for a, b in zip(g1.weights, g2.weights):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("li", [0, 2])
    def test_im2col_matches_index_gather(self, rng, li):
        # reference: gather every patch entry through flat NCHW indices
        net, _ = strided_conv_net()
        spec, in_shape, out_shape = net.specs[li], net.in_shapes[li], net.out_shapes[li]
        idx = patch_index(in_shape, spec, out_shape)
        n = 3
        x = rng.standard_normal((n, *in_shape))
        ref = x.reshape(n, -1)[:, idx]  # (n, oh*ow, c*kh*kw)
        got = nn._im2col(to_chwn(x), spec, out_shape)  # (c*kh*kw, oh*ow*n)
        assert np.array_equal(got, ref.transpose(2, 1, 0).reshape(idx.shape[1], -1))

    @pytest.mark.parametrize("li", [0, 2])
    def test_col2im_matches_index_scatter(self, rng, li):
        # reference: scatter-add every patch entry through the im2col gather
        # indices; the strided-slice col2im only reorders the float sums
        net, _ = strided_conv_net()
        spec, in_shape, out_shape = net.specs[li], net.in_shapes[li], net.out_shapes[li]
        idx = patch_index(in_shape, spec, out_shape)
        n = 3
        dcols = rng.standard_normal((idx.shape[1], idx.shape[0] * n))  # rows (c, ky, kx), columns (oy, ox, n)
        ref = np.zeros((n, int(np.prod(in_shape))))
        np.add.at(ref, (np.arange(n)[:, None, None], idx[None]), dcols.reshape(idx.shape[1], -1, n).transpose(2, 1, 0))
        got = nn._col2im(dcols, (*in_shape, n), spec, out_shape)
        assert np.allclose(to_nchw(got), ref.reshape(n, *in_shape), rtol=1e-12, atol=1e-12)

    @staticmethod
    def lenet_batch64_peak(density: float) -> int:
        """tracemalloc peak of one LeNet backward_pass at batch 64, with
        every layer at the given row density (None masks at 1.0)."""
        net = nn.build_lenet()
        rng = np.random.default_rng(0)
        params = nn.init_params(net, rng)
        masks = None
        if density < 1.0:
            tau = [np.full(w.shape[0], np.quantile(pruning.row_mean_abs(w), 1.0 - density)) for w in params.weights]
            masks = pruning.generate_masks(net, params, tau)
            assert pruning.density_metrics(net, masks).overall == pytest.approx(density, abs=0.01)
        x = rng.uniform(0, 1, (64, *net.input_shape))
        y = rng.integers(0, 10, 64)
        tracemalloc.start()
        try:
            nn.backward_pass(net, params, masks, x, y)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_lenet_batch64_peak_memory(self):
        # 31.0 MB with numpy 2.4. Keeping every forward cache alive through
        # backprop, or conv2's patch matrix alive while its input gradient is
        # built, added 16 MB
        assert self.lenet_batch64_peak(1.0) <= 45e6

    def test_lenet_batch64_peak_memory_half_density(self):
        # 21.7 MB: layers run over their active rows only, where computing
        # the pruned rows as zeros peaked at 38.8 MB
        assert self.lenet_batch64_peak(0.5) <= 30e6


def _row_masks(net: nn.Network, rng, dead: int | None = None) -> list[np.ndarray]:
    """Random {0,1} row masks (about 60% of rows active, at least one per
    layer); the prunable layer ``dead`` is pruned entirely."""
    masks = []
    for pi, n_out in enumerate(net.threshold_sizes):
        row = (rng.random(n_out) < 0.6).astype(float)
        row[rng.integers(n_out)] = 1.0
        if pi == dead:
            row[:] = 0.0
        masks.append(row)
    return masks


NETS = {"conv": tiny_conv_net, "strided": strided_conv_net, "mlp": lambda: tiny_dense_net(6, 9, 4)}


class TestCompaction:
    """The engine evaluates only active rows; the reference evaluates the
    masked-dense model: weights w * m[:, None] and biases b * m on the dense
    path (masks=None), gradients multiplied by the mask afterwards."""

    @staticmethod
    def reference(net, params, masks, x, y):
        masked = nn.NetworkParams(
            weights=[w * m[:, None] for w, m in zip(params.weights, masks)],
            biases=[None if b is None else b * m for b, m in zip(params.biases, masks)],
        )
        logits = nn.forward_pass(net, masked, None, x)
        loss, grads = nn.backward_pass(net, masked, None, x, y)
        grads.weights = [g * m[:, None] for g, m in zip(grads.weights, masks)]
        grads.biases = [None if g is None else g * m for g, m in zip(grads.biases, masks)]
        return logits, loss, grads

    # batch 1 keeps every dense layer (and the strided net's second conv)
    # under the compaction cut, so those run at full width with a masked
    # output; at batch 20 every layer is compacted
    @pytest.mark.parametrize("batch", [1, 20])
    @pytest.mark.parametrize("case", ["random", "dead_hidden", "dead_output"])
    @pytest.mark.parametrize("name", sorted(NETS))
    def test_matches_masked_dense_reference(self, name, case, batch):
        assert 1 < nn._COMPACT_MIN_ROWS <= 20
        net, params = NETS[name]()
        rng = np.random.default_rng(sum(map(ord, name + case)) + batch)
        n_prunable = len(net.prunable)
        dead = {"random": None, "dead_hidden": n_prunable - 2, "dead_output": n_prunable - 1}[case]
        params.biases = [rng.uniform(-0.2, 0.2, b.shape) for b in params.biases]
        masks = _row_masks(net, rng, dead)
        x = rng.uniform(0, 1, (batch, *net.input_shape))
        y = rng.integers(0, net.output_dim, batch)
        ref_logits, ref_loss, ref = self.reference(net, params, masks, x, y)
        logits = nn.forward_pass(net, params, masks, x)
        loss, grads = nn.backward_pass(net, params, masks, x, y)
        assert np.allclose(logits, ref_logits, rtol=1e-12, atol=1e-15)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        if dead == n_prunable - 1:
            assert np.array_equal(logits, np.zeros_like(logits))
        for pi, m in enumerate(masks):
            pruned = m == 0.0
            for g, r in ((grads.weights[pi], ref.weights[pi]), (grads.biases[pi], ref.biases[pi])):
                assert g.shape == r.shape
                assert np.allclose(g, r, rtol=1e-12, atol=1e-15)
                assert np.array_equal(g[pruned], np.zeros_like(g[pruned]))

    @pytest.mark.parametrize("batch", [1, 20])
    @pytest.mark.parametrize("name", sorted(NETS))
    def test_all_ones_masks_equal_no_masks(self, name, batch, rng):
        net, params = NETS[name]()
        x = rng.uniform(0, 1, (batch, *net.input_shape))
        y = rng.integers(0, net.output_dim, batch)
        loss, grads = nn.backward_pass(net, params, None, x, y)
        loss1, grads1 = nn.backward_pass(net, params, all_ones_masks(net), x, y)
        assert loss1 == loss
        for a, b in zip(grads.weights + grads.biases, grads1.weights + grads1.biases):
            assert np.array_equal(a, b)


class TestFiniteDiffOracle:
    def test_central_difference_formula(self):
        # the oracle is the symmetric difference quotient; on f(w) = w^2 at 3
        # it recovers f'(3) = 6 to step^2 accuracy
        f = lambda w: w * w
        step = 1e-5
        est = (f(3 + step) - f(3 - step)) / (2 * step)
        assert est == pytest.approx(6.0, abs=1e-6)

    def test_masked_parameter_has_no_effect(self, rng):
        net, params = tiny_dense_net()
        masks = all_ones_masks(net)
        masks[0][2] = 0.0
        x = rng.uniform(0, 1, (3, 4))
        y = rng.integers(0, 3, 3)
        n_in = net.specs[net.prunable[0]].n_in
        fd = nn.finite_diff_oracle(net, params, masks, x, y, (0, "weight", 2 * n_in), 1e-5)
        assert fd == 0.0

    def test_agrees_with_backprop(self, rng):
        net, params = tiny_dense_net(seed=7)
        x = rng.uniform(0, 1, (5, 4))
        y = rng.integers(0, 3, 5)
        _, grads = nn.backward_pass(net, params, None, x, y)
        fd = nn.finite_diff_oracle(net, params, None, x, y, (1, "weight", 3), 1e-5)
        assert fd == pytest.approx(grads.weights[1].flat[3], rel=1e-4, abs=1e-7)

    def test_step_must_be_positive(self):
        net, params = tiny_dense_net()
        with pytest.raises(ConfigurationError):
            nn.finite_diff_oracle(net, params, None, np.zeros((1, 4)), np.array([0]), (0, "weight", 0), 0.0)


class TestSgdMomentum:
    def test_momentum_zero_plain_step(self):
        params = nn.NetworkParams(weights=[np.array([[1.0, 2.0]])], biases=[np.zeros(1)])
        grads = nn.NetworkParams(weights=[np.array([[0.5, -0.5]])], biases=[np.zeros(1)])
        velocity = params.zeros_like()
        nn.sgd_momentum_step(params, grads, velocity, lr=0.1, momentum=0.0)
        assert np.allclose(params.weights[0], [[0.95, 2.05]])

    def test_two_step_recursion(self):
        params = nn.NetworkParams(weights=[np.zeros((1, 1))], biases=[None])
        grads = nn.NetworkParams(weights=[np.ones((1, 1))], biases=[None])
        velocity = params.zeros_like()
        nn.sgd_momentum_step(params, grads, velocity, lr=0.1, momentum=0.9)
        nn.sgd_momentum_step(params, grads, velocity, lr=0.1, momentum=0.9)
        assert params.weights[0][0, 0] == pytest.approx(-0.29)

    def test_zero_gradient_fixpoint(self):
        params = nn.NetworkParams(weights=[np.array([[0.3]])], biases=[None])
        grads = params.zeros_like()
        velocity = nn.NetworkParams(weights=[np.array([[1.0]])], biases=[None])
        nn.sgd_momentum_step(params, grads, velocity, lr=0.0, momentum=0.9)
        assert params.weights[0][0, 0] == 0.3
        assert velocity.weights[0][0, 0] == 0.9

    def test_nonfinite_gradient_rejected(self):
        params = nn.NetworkParams(weights=[np.array([[0.3]])], biases=[None])
        grads = nn.NetworkParams(weights=[np.array([[np.nan]])], biases=[None])
        velocity = params.zeros_like()
        with pytest.raises(NumericError):
            nn.sgd_momentum_step(params, grads, velocity, lr=0.1, momentum=0.9)
        assert params.weights[0][0, 0] == 0.3
        assert velocity.weights[0][0, 0] == 0.0


class TestClamp:
    def test_saturation(self):
        params = nn.NetworkParams(weights=[np.array([[1.5, -2.0, 0.5]])], biases=[None])
        nn.clamp_parameters(params)
        assert np.array_equal(params.weights[0], [[1.0, -1.0, 0.5]])

    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, values):
        params = nn.NetworkParams(weights=[np.array([values])], biases=[None])
        nn.clamp_parameters(params)
        once = params.weights[0].copy()
        nn.clamp_parameters(params)
        assert np.array_equal(params.weights[0], once)
        assert np.all(np.abs(once) <= 1.0)

    def test_composed_update_stays_in_range(self, rng):
        net, params = tiny_dense_net()
        velocity = params.zeros_like()
        for _ in range(20):
            x = rng.uniform(0, 1, (4, 4))
            y = rng.integers(0, 3, 4)
            _, grads = nn.backward_pass(net, params, None, x, y)
            nn.sgd_momentum_step(params, grads, velocity, lr=0.5, momentum=0.9)
            nn.clamp_parameters(params)
            for w in params.weights + [b for b in params.biases if b is not None]:
                assert np.all(np.abs(w) <= 1.0)


class TestMaxpoolTies:
    def test_first_occurrence_wins(self):
        # two equal maxima in one window: the gradient must flow to the
        # lowest-index position only
        net = nn.Network((1, 2, 2), [nn.maxpool2d((2, 2)), nn.dense(2)])
        params = nn.NetworkParams(weights=[np.array([[1.0], [0.0]])], biases=[np.zeros(2)])
        x = np.array([[[[0.7, 0.7], [0.7, 0.7]]]])
        _, caches = nn._forward(net, params, None, x)
        kind, in_shape, arg, _ = caches[0]  # arg: per window, the offset ky*kw + kx of its max
        assert kind == "maxpool2d"
        assert arg[0, 0, 0, 0] == 0

    @pytest.mark.parametrize("kernel, stride", [((2, 2), 2), ((2, 2), 1), ((3, 2), 2)])
    def test_matches_window_argmax(self, rng, kernel, stride):
        # reference: gather every window and take numpy's argmax (first
        # occurrence); small integers make ties common
        spec = nn.maxpool2d(kernel, stride)
        x = rng.integers(0, 3, (2, 3, 7, 6)).astype(float)
        kh, kw = kernel
        oh, ow = (7 - kh) // stride + 1, (6 - kw) // stride + 1
        win = np.lib.stride_tricks.sliding_window_view(x, kernel, axis=(2, 3))[:, :, ::stride, ::stride]
        win = win.reshape(2, 3, oh, ow, kh * kw)
        y, arg = nn._maxpool(to_chwn(x), spec, (3, oh, ow))
        y, arg = to_nchw(y), to_nchw(arg)
        assert np.array_equal(y, win.max(axis=-1))
        assert np.array_equal(arg, np.argmax(win, axis=-1))
        dy = rng.standard_normal(y.shape)
        ref = np.zeros_like(x)
        for k in range(kh * kw):
            ky, kx = divmod(k, kw)
            for (b, c, i, j) in zip(*np.nonzero(arg == k)):
                ref[b, c, ky + stride * i, kx + stride * j] += dy[b, c, i, j]
        got = nn._maxpool_backward(to_chwn(dy), to_chwn(arg), (3, 7, 6, 2), spec, (3, oh, ow))
        assert np.allclose(to_nchw(got), ref, rtol=1e-12, atol=0)


class TestReluPoolOrder:
    """A relu directly followed by a maxpool runs after the pool, on the
    smaller map. The reference below rectifies before pooling, in (N, C, H, W)
    order, and routes each window's gradient to numpy's argmax (the first
    maximum); weights and biases are masked-dense, gradients masked after."""

    @staticmethod
    def reference(net, params, masks, x, y):
        (w1, w2), (b1, b2) = params.weights, params.biases
        if masks is not None:
            w1, w2, b1, b2 = w1 * masks[0][:, None], w2 * masks[1][:, None], b1 * masks[0], b2 * masks[1]
        conv, pool = net.specs[0], net.specs[2]
        (kh, kw), (ph, pw), ps = conv.kernel, pool.kernel, pool.stride
        n, f = x.shape[0], w1.shape[0]
        win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))  # (n, c, oh, ow, kh, kw)
        z = np.einsum("ncyxij,fcij->nfyx", win, w1.reshape(f, -1, kh, kw)) + b1[None, :, None, None]
        a = np.maximum(z, 0.0)
        pwin = np.lib.stride_tricks.sliding_window_view(a, (ph, pw), axis=(2, 3))[:, :, ::ps, ::ps]
        pwin = pwin.reshape(*pwin.shape[:4], ph * pw)
        pooled, arg = pwin.max(axis=-1), np.argmax(pwin, axis=-1)
        logits = pooled.reshape(n, -1) @ w2.T + b2
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        delta = (e / e.sum(axis=1, keepdims=True) - np.eye(logits.shape[1])[y]) / n
        dpooled = (delta @ w2).reshape(pooled.shape)
        da = np.zeros_like(a)
        for (i, c, oy, ox), k in np.ndenumerate(arg):
            ky, kx = divmod(k, pw)
            da[i, c, ps * oy + ky, ps * ox + kx] += dpooled[i, c, oy, ox]
        dz = da * (z > 0.0)
        grads = [
            np.einsum("nfyx,ncyxij->fcij", dz, win).reshape(f, -1),
            delta.T @ pooled.reshape(n, -1),
            dz.sum(axis=(0, 2, 3)),
            delta.sum(axis=0),
        ]
        if masks is not None:
            grads = [g * masks[i % 2][:, None] if g.ndim == 2 else g * masks[i % 2] for i, g in enumerate(grads)]
        return logits, grads, pwin

    # (2, 2) at stride 2 leaves the last row and column of the 5x5 map
    # uncovered; the stride-1 pools overlap
    @pytest.mark.parametrize("kernel, stride", [((2, 2), 2), ((2, 2), 1), ((3, 2), 1)])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("batch", [3, 20])
    def test_matches_rectify_then_pool_reference(self, kernel, stride, masked, batch):
        net = nn.Network((2, 7, 7), [nn.conv2d(4, (3, 3)), nn.relu(), nn.maxpool2d(kernel, stride), nn.dense(3)])
        rng = np.random.default_rng(batch + 10 * stride + kernel[0])
        # multiples of 1/2 on small integers: conv outputs are exact, so ties
        # and windows without a positive entry are common
        params = nn.NetworkParams(
            weights=[rng.integers(-2, 3, (4, 18)) / 2, rng.uniform(-1, 1, (3, net.specs[3].n_in))],
            biases=[rng.integers(-2, 2, 4) / 2, rng.uniform(-0.2, 0.2, 3)],
        )
        masks = _row_masks(net, rng) if masked else None
        x = rng.integers(0, 3, (batch, *net.input_shape)).astype(float)
        y = rng.integers(0, 3, batch)
        ref_logits, ref, pwin = self.reference(net, params, masks, x, y)
        top = pwin.max(axis=-1)
        assert (top <= 0.0).any()  # a window with no positive entry
        assert ((pwin == top[..., None]).sum(axis=-1) > 1)[top > 0.0].any()  # a tie among positive maxima
        logits = nn.forward_pass(net, params, masks, x)
        _, grads = nn.backward_pass(net, params, masks, x, y)
        assert np.allclose(logits, ref_logits, rtol=1e-12, atol=1e-15)
        for g, r in zip(grads.weights + grads.biases, ref):
            assert g.shape == r.shape
            assert np.allclose(g, r, rtol=1e-12, atol=1e-15)
        if masked:
            for pi, m in enumerate(masks):
                assert np.array_equal(grads.weights[pi][m == 0.0], np.zeros_like(grads.weights[pi][m == 0.0]))
                assert np.array_equal(grads.biases[pi][m == 0.0], np.zeros_like(grads.biases[pi][m == 0.0]))


class TestPresets:
    def test_lenet_shapes(self):
        net = nn.build_lenet()
        assert net.threshold_sizes == [20, 50, 500, 10]
        assert net.weight_count == 430500
        assert net.output_dim == 10

    def test_cnn7_shapes(self):
        net = nn.build_cnn7()
        assert net.threshold_sizes == [64, 64, 128, 128, 128, 128, 10]
        # fc stack sees 128 * 2 * 2 = 512 flattened features
        assert net.specs[net.prunable[4]].n_in == 512

    def test_mlp_shapes(self):
        net = nn.build_mlp(64, [32, 16], 10)
        assert net.threshold_sizes == [32, 16, 10]

    def test_init_params_in_bounds(self, rng):
        net = nn.build_mlp(8, [4], 3)
        params = nn.init_params(net, rng)
        for pi, li in enumerate(net.prunable):
            bound = np.sqrt(1.0 / net.specs[li].n_in)
            assert np.all(np.abs(params.weights[pi]) <= bound)
            assert np.array_equal(params.biases[pi], np.zeros(net.specs[li].n_out))
