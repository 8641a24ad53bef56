"""Engine tests: forward/backward correctness against hand arithmetic and the
central-difference oracle, optimizer semantics, clamping."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spafl import nn
from spafl.errors import ConfigurationError, DataError, NumericError

from conftest import all_ones_masks, strided_conv_net, tiny_conv_net, tiny_dense_net


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
        masks = [np.zeros((2, 2))]
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

    def test_pruned_bias_removed(self):
        net = nn.Network((2,), [nn.dense(2)])
        params = nn.NetworkParams(
            weights=[np.array([[0.5, 0.5], [0.5, 0.5]])],
            biases=[np.array([0.7, 0.9])],
        )
        masks = [np.array([[1.0, 1.0], [0.0, 0.0]])]
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
        masks = [np.zeros((net.specs[i].n_out, net.specs[i].n_in)) for i in net.prunable]
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
        masks[0][1, :] = 0.0
        masks[2][0, :] = 0.0
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
        from spafl import pruning

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
    def test_col2im_matches_index_scatter(self, rng, li):
        # reference: scatter-add every patch entry through the im2col gather
        # indices; the strided-slice col2im only reorders the float sums
        net, _ = strided_conv_net()
        spec, in_shape, out_shape = net.specs[li], net.in_shapes[li], net.out_shapes[li]
        idx = net._gather[li]
        n = 3
        dcols = rng.standard_normal((n * idx.shape[0], idx.shape[1]))
        ref = np.zeros((n, int(np.prod(in_shape))))
        np.add.at(ref, (np.arange(n)[:, None, None], idx[None]), dcols.reshape(n, *idx.shape))
        got = nn._col2im(dcols, (n, *in_shape), spec, out_shape)
        assert np.allclose(got, ref.reshape(n, *in_shape), rtol=1e-12, atol=1e-12)

    def test_lenet_batch64_peak_memory(self):
        # tracemalloc peak of one LeNet step at batch 64, numpy 2.4: 38.6 MB.
        # Keeping every forward cache alive through backprop, or conv2's
        # patch matrix alive while its input gradient is built, gives 54-55 MB
        net = nn.build_lenet()
        rng = np.random.default_rng(0)
        params = nn.init_params(net, rng)
        x = rng.uniform(0, 1, (64, *net.input_shape))
        y = rng.integers(0, 10, 64)
        tracemalloc.start()
        try:
            nn.backward_pass(net, params, None, x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 45e6


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
        masks[0][2, :] = 0.0
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
        kind, in_shape, idx, arg = caches[0]
        assert kind == "maxpool2d"
        assert arg[0, 0] == 0


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
