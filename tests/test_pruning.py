"""Threshold/mask mechanics: hand-checked values, the straight-through
identity against brute force, and the structural invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spafl import nn, pruning
from spafl.errors import ConfigurationError

from conftest import tiny_conv_net, tiny_dense_net


class TestRowMeanAbs:
    def test_two_element_mean(self):
        assert pruning.row_mean_abs(np.array([[0.2, -0.4]]))[0] == pytest.approx(0.3)

    def test_zero_row(self):
        assert pruning.row_mean_abs(np.zeros((1, 5)))[0] == 0.0

    def test_saturated_row(self):
        assert pruning.row_mean_abs(np.array([[1.0, -1.0, 1.0, -1.0]]))[0] == 1.0

    def test_clamped_weights_in_unit_interval(self, rng):
        w = np.clip(rng.normal(0, 2, (6, 9)), -1, 1)
        mu = pruning.row_mean_abs(w)
        assert np.all((mu >= 0) & (mu <= 1))


class TestGenerateMask:
    def test_zero_thresholds_prune_nothing(self, rng):
        w = rng.uniform(-1, 1, (4, 3))
        w[np.abs(w) < 1e-3] = 0.5  # no exactly-zero rows
        mask = pruning.generate_mask(pruning.row_mean_abs(w), np.zeros(4))
        assert np.array_equal(mask, np.ones(4))

    def test_direct_evaluation(self):
        mask = pruning.generate_mask(np.array([0.3, 0.1]), np.array([0.2, 0.2]))
        assert np.array_equal(mask, [1.0, 0.0])

    def test_maximal_thresholds_prune_everything(self, rng):
        w = np.clip(rng.uniform(-0.9, 0.9, (5, 4)), -1, 1)
        mask = pruning.generate_mask(pruning.row_mean_abs(w), np.ones(5))
        assert np.array_equal(mask, np.zeros(5))

    def test_boundary_equality_keeps(self):
        mask = pruning.generate_mask(np.array([0.2]), np.array([0.2]))
        assert np.array_equal(mask, np.ones(1))

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            pruning.generate_mask(np.zeros(3), np.zeros(2))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_row_constancy(self, seed):
        # one bit per unit: applying the mask keeps or zeroes whole rows
        r = np.random.default_rng(seed)
        w = r.uniform(-1, 1, (8, 5))
        tau = r.uniform(0, 1, 8)
        mask = pruning.generate_mask(pruning.row_mean_abs(w), tau)
        assert mask.shape == (8,)
        assert set(np.unique(mask)) <= {0.0, 1.0}
        pruned = pruning.apply_mask(w, mask)
        assert all(np.array_equal(p, row) or not p.any() for p, row in zip(pruned, w))


class TestApplyMask:
    def test_identity_and_zero(self, rng):
        w = rng.uniform(-1, 1, (3, 4))
        assert np.array_equal(pruning.apply_mask(w, np.ones(3)), w)
        assert np.array_equal(pruning.apply_mask(w, np.zeros(3)), np.zeros_like(w))

    def test_mixed_rows_and_originals_untouched(self, rng):
        w = rng.uniform(-1, 1, (3, 4))
        before = w.copy()
        mask = np.array([1.0, 0.0, 1.0])
        pruned = pruning.apply_mask(w, mask)
        assert np.array_equal(pruned[1], np.zeros(4))
        assert np.array_equal(pruned[0], w[0])
        assert np.array_equal(w, before)


class TestSparsityRegularizer:
    def test_all_zero_thresholds(self):
        tau = [np.zeros(500), np.zeros(80)]
        assert pruning.sparsity_regularizer(tau) == pytest.approx(580.0)

    def test_all_one_thresholds(self):
        assert pruning.sparsity_regularizer([np.ones(10)]) == pytest.approx(10 * np.exp(-1))

    def test_hand_sum(self):
        assert pruning.sparsity_regularizer([np.array([0.0, 1.0])]) == pytest.approx(1 + np.exp(-1))

    def test_monotone_decreasing(self, rng):
        tau = [rng.uniform(0, 0.9, 6)]
        bumped = [tau[0] + 0.05]
        assert pruning.sparsity_regularizer(bumped) < pruning.sparsity_regularizer(tau)


class TestThresholdGradient:
    def test_hand_sum(self):
        grads = nn.NetworkParams(weights=[np.array([[0.1, -0.2]])], biases=[None])
        params = nn.NetworkParams(weights=[np.array([[0.5, 0.5]])], biases=[None])
        h = pruning.threshold_gradient(grads, params)
        assert h[0][0] == pytest.approx(0.05)

    def test_zero_weights(self):
        grads = nn.NetworkParams(weights=[np.ones((2, 3))], biases=[None])
        params = nn.NetworkParams(weights=[np.zeros((2, 3))], biases=[None])
        assert np.array_equal(pruning.threshold_gradient(grads, params)[0], np.zeros(2))

    def test_pruned_row_contributes_zero(self, rng):
        net, params = tiny_conv_net()
        tau = [rng.uniform(0, 0.2, n) for n in net.threshold_sizes]
        masks = pruning.generate_masks(net, params, tau)
        x = rng.uniform(0, 1, (2, 1, 6, 6))
        y = rng.integers(0, 3, 2)
        _, grads = nn.backward_pass(net, params, masks, x, y)
        h = pruning.threshold_gradient(grads, params)
        for pi, m in enumerate(masks):
            assert np.all(h[pi][m == 0] == 0.0)

    def test_brute_force_identity(self, rng):
        # oracle: recompute -sum_j g_ij * w_ij row by row in a plain loop
        net, params = tiny_conv_net(seed=5)
        x = rng.uniform(0, 1, (3, 1, 6, 6))
        y = rng.integers(0, 3, 3)
        _, grads = nn.backward_pass(net, params, None, x, y)
        h = pruning.threshold_gradient(grads, params)
        for pi in range(len(h)):
            brute = np.array(
                [
                    -sum(grads.weights[pi][i, j] * params.weights[pi][i, j]
                         for j in range(params.weights[pi].shape[1]))
                    for i in range(params.weights[pi].shape[0])
                ]
            )
            assert np.allclose(h[pi], brute, rtol=0, atol=1e-12)


class TestThresholdStep:
    def test_direct_arithmetic(self):
        tau = pruning.threshold_step(np.array([0.5]), np.array([0.0]), lr=0.1, alpha=0.002)
        assert tau[0] == pytest.approx(0.5 + 0.1 * 0.002 * np.exp(-0.5))
        assert tau[0] == pytest.approx(0.500121, abs=1e-6)

    def test_no_forces(self):
        tau = pruning.threshold_step(np.array([0.3, 0.8]), np.zeros(2), lr=0.1, alpha=0.0)
        assert np.array_equal(tau, [0.3, 0.8])

    def test_upper_clamp(self):
        tau = pruning.threshold_step(np.array([1.0]), np.zeros(1), lr=0.5, alpha=1.0)
        assert tau[0] == 1.0

    def test_lower_clamp(self):
        tau = pruning.threshold_step(np.array([0.0]), np.array([10.0]), lr=0.5, alpha=0.0)
        assert tau[0] == 0.0

    @pytest.mark.parametrize("h_size", [4, 6])
    def test_shape_mismatch_raises(self, h_size):
        with pytest.raises(ConfigurationError, match=f"h shape \\({h_size},\\) does not match tau shape \\(5,\\)"):
            pruning.threshold_step(np.zeros(5), np.zeros(h_size), lr=0.1, alpha=0.01)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 30))
    @settings(max_examples=30, deadline=None)
    def test_clamp_invariant_over_sequences(self, seed, steps):
        r = np.random.default_rng(seed)
        tau = r.uniform(0, 1, 5)
        for _ in range(steps):
            h = r.normal(0, 5, 5)
            tau = pruning.threshold_step(tau, h, lr=0.3, alpha=r.uniform(0, 1))
            assert np.all((tau >= 0.0) & (tau <= 1.0))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_monotone_sparsity_force(self, seed):
        r = np.random.default_rng(seed)
        tau = r.uniform(0, 0.99, 6)
        stepped = pruning.threshold_step(tau, np.zeros(6), lr=0.1, alpha=0.01)
        assert np.all(stepped > tau)


class TestDensity:
    def test_all_ones(self):
        net = nn.build_mlp(3, [4], 2)
        report = pruning.density_metrics(net, [np.ones(4), np.ones(2)])
        assert report.per_layer == [1.0, 1.0]
        assert report.overall == 1.0

    def test_row_counting(self):
        net = nn.Network((7,), [nn.dense(20)])
        mask = np.zeros(20)
        mask[:5] = 1.0
        assert pruning.density_metrics(net, [mask]).per_layer[0] == pytest.approx(0.25)

    def test_weighted_overall(self):
        # 100 entries at 50% active plus 300 entries fully active -> 350/400;
        # both layers have fan-in 10
        net = nn.build_mlp(10, [10], 30)
        m1 = np.zeros(10)
        m1[:5] = 1.0
        m2 = np.ones(30)
        assert pruning.density_metrics(net, [m1, m2]).overall == pytest.approx(0.875)


class TestLayerReset:
    def test_reset_below_one_percent(self):
        report = pruning.DensityReport(per_layer=[0.005, 0.5], overall=0.3)
        tau = [np.full(200, 0.7), np.full(4, 0.6)]
        out = pruning.layer_reset(tau, report)
        assert np.array_equal(out[0], np.zeros(200))
        assert np.array_equal(out[1], tau[1])

    def test_boundary_is_strict(self):
        report = pruning.DensityReport(per_layer=[0.01], overall=0.01)
        tau = [np.full(100, 0.9)]
        out = pruning.layer_reset(tau, report)
        assert np.array_equal(out[0], tau[0])

    def test_identity_when_all_healthy(self):
        report = pruning.DensityReport(per_layer=[0.2, 1.0], overall=0.5)
        tau = [np.full(5, 0.1), np.zeros(3)]
        out = pruning.layer_reset(tau, report)
        for a, b in zip(out, tau):
            assert np.array_equal(a, b)


class TestRecovery:
    def test_row_reactivates_when_threshold_drops(self, rng):
        # a pruned row must come back as soon as tau falls below mu again
        w = rng.uniform(0.2, 0.8, (3, 4))
        mu = pruning.row_mean_abs(w)
        tau_high = mu + 0.05
        assert np.array_equal(pruning.generate_mask(mu, tau_high), np.zeros(3))
        tau_low = mu - 0.01
        assert np.array_equal(pruning.generate_mask(mu, tau_low), np.ones(3))

    def test_aggregation_can_rescue(self):
        # one client's low threshold pulls the mean below mu: mechanical
        # recovery through averaging
        from spafl.federation import aggregate_thresholds

        mu = np.array([0.5])
        merged = aggregate_thresholds([np.array([0.9]), np.array([0.05])])
        assert pruning.generate_mask(mu, merged)[0] == 1.0


def test_init_thresholds_zero():
    net = nn.build_mlp(6, [4], 3)
    tau = pruning.init_thresholds(net)
    assert [t.shape[0] for t in tau] == [4, 3]
    assert all(np.array_equal(t, np.zeros_like(t)) for t in tau)


def _layer_count_calls():
    """Per entry point, a call that hands it a per-layer list one layer too
    short or too long (``off``) for the two-layer tiny_dense_net."""
    net, params = tiny_dense_net()
    x = np.zeros((2, 4))
    y = np.array([0, 1])

    def resized(items, off):
        return items[:off] if off < 0 else items + items[-off:]

    ones = [np.ones(n) for n in net.threshold_sizes]
    zeros = [np.zeros(n) for n in net.threshold_sizes]
    return {
        "generate_masks": lambda off: pruning.generate_masks(net, params, resized(zeros, off)),
        "density_metrics": lambda off: pruning.density_metrics(net, resized(ones, off)),
        "forward_pass": lambda off: nn.forward_pass(net, params, resized(ones, off), x),
        "backward_pass": lambda off: nn.backward_pass(net, params, resized(ones, off), x, y),
    }


@pytest.mark.parametrize("off", [-1, 1])
@pytest.mark.parametrize("call", list(_layer_count_calls()))
def test_layer_count_mismatch_raises(call, off):
    with pytest.raises(ConfigurationError, match=f"has {2 + off} layers, expected 2"):
        _layer_count_calls()[call](off)
