"""Flat parameter storage: the layout of ``NetworkParams``, the flat
optimizer, and the flat local-training loop against the per-layer loop it
replaced, bit for bit."""

import numpy as np
import pytest

from spafl import federation as fed
from spafl import nn, pruning
from spafl.accounting import epoch_flops
from spafl.data import synth_dataset
from spafl.errors import ConfigurationError, NumericError
from spafl.experiment import ExperimentConfig, build_simulation
from spafl.strategies import aggregate_params, run_strategy_round

from conftest import strided_conv_net, tiny_conv_net


def _views(params):
    return params.weights + [b for b in params.biases if b is not None]


class TestLayout:
    @pytest.mark.parametrize("make", [tiny_conv_net, strided_conv_net])
    def test_views_share_one_contiguous_vector(self, make):
        _, params = make()
        flat = params.flat
        assert flat.ndim == 1 and flat.dtype == np.float64 and flat.flags.c_contiguous
        assert flat.size == params.n_scalars == sum(v.size for v in _views(params))
        for v in _views(params):
            assert np.shares_memory(v, flat)
        # the views tile the vector: writing each view once covers every entry
        flat[:] = np.nan
        for i, v in enumerate(_views(params)):
            v[...] = i
        assert np.isfinite(flat).all()

    def test_weights_first_then_biases(self):
        params = nn.NetworkParams(
            weights=[np.full((2, 3), 1.0), np.full((1, 2), 2.0)], biases=[np.full(2, 3.0), np.full(1, 4.0)]
        )
        assert params.flat.tolist() == [1.0] * 6 + [2.0] * 2 + [3.0] * 2 + [4.0]
        assert params.n_weights == 8

    def test_copy_and_zeros_like_are_independent(self):
        _, params = tiny_conv_net()
        before = params.flat.copy()
        dup, zeros = params.copy(), params.zeros_like()
        assert np.array_equal(dup.flat, before) and not np.shares_memory(dup.flat, params.flat)
        assert np.array_equal(zeros.flat, np.zeros_like(before)) and not np.shares_memory(zeros.flat, params.flat)
        dup.weights[0] += 1.0
        zeros.biases[1] += 1.0
        assert np.array_equal(params.flat, before)
        assert dup.layout == zeros.layout == params.layout

    def test_constructor_copies_its_arrays(self):
        w = np.ones((2, 2))
        params = nn.NetworkParams(weights=[w], biases=[None])
        params.weights[0][0, 0] = 5.0
        assert w[0, 0] == 1.0

    def test_layers_without_bias_take_no_space(self, rng):
        net = nn.Network((4,), [nn.dense(5, bias=False), nn.relu(), nn.dense(3)])
        params = nn.init_params(net, rng)
        assert params.biases[0] is None
        assert params.n_scalars == net.param_count == 5 * 4 + 3 * 5 + 3
        x = rng.uniform(0, 1, (6, 4))
        y = rng.integers(0, 3, 6)
        _, grads = nn.backward_pass(net, params, None, x, y)
        assert grads.biases[0] is None and grads.layout == params.layout
        velocity = params.zeros_like()
        nn.sgd_momentum_step(params, grads, velocity, lr=0.1, momentum=0.9)
        assert np.array_equal(velocity.flat, grads.flat)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ConfigurationError):
            nn.NetworkParams(weights=[np.ones(3)], biases=[None])
        with pytest.raises(ConfigurationError):
            nn.NetworkParams(weights=[np.ones((3, 2))], biases=[np.ones(2)])
        with pytest.raises(ConfigurationError):
            nn.NetworkParams(weights=[np.ones((3, 2))], biases=[])

    def test_backward_out_buffer_is_filled_in_place(self, rng):
        net, params = strided_conv_net()
        x = rng.uniform(0, 1, (20, *net.input_shape))
        y = rng.integers(0, 3, 20)
        masks = [np.where(rng.uniform(size=n) < 0.5, 0.0, 1.0) for n in net.threshold_sizes]
        loss, grads = nn.backward_pass(net, params, masks, x, y)
        out = params.zeros_like()
        out.flat[:] = np.nan  # stale contents must be overwritten everywhere
        loss_out, same = nn.backward_pass(net, params, masks, x, y, out=out)
        assert same is out and loss_out == loss
        assert np.array_equal(out.flat, grads.flat)
        with pytest.raises(ConfigurationError):
            nn.backward_pass(net, params, masks, x, y, out=nn.NetworkParams([np.zeros((1, 1))], [None]))


class TestFlatOptimizer:
    def test_nonfinite_gradient_leaves_buffers_untouched(self, rng):
        _, params = tiny_conv_net()
        velocity = params.zeros_like()
        velocity.flat[:] = rng.uniform(-1, 1, velocity.n_scalars)
        grads = params.zeros_like()
        grads.flat[:] = rng.uniform(-1, 1, grads.n_scalars)
        grads.biases[1][2] = np.inf
        p0, v0 = params.flat.copy(), velocity.flat.copy()
        with pytest.raises(NumericError, match="prunable layer 1"):
            nn.sgd_momentum_step(params, grads, velocity, lr=0.1, momentum=0.9)
        assert np.array_equal(params.flat, p0) and np.array_equal(velocity.flat, v0)

    def test_matches_per_layer_update(self, rng):
        _, params = tiny_conv_net()
        grads = params.zeros_like()
        grads.flat[:] = rng.uniform(-1, 1, grads.n_scalars)
        velocity = params.zeros_like()
        velocity.flat[:] = rng.uniform(-1, 1, velocity.n_scalars)
        ref_p, ref_v = params.copy(), velocity.copy()
        nn.sgd_momentum_step(params, grads, velocity, lr=0.3, momentum=0.9)
        nn.clamp_parameters(params)
        for w, v, g in zip(_views(ref_p), _views(ref_v), _views(grads)):
            v *= 0.9
            v += g
            w -= 0.3 * v
            np.clip(w, -1.0, 1.0, out=w)
        assert np.array_equal(params.flat, ref_p.flat) and np.array_equal(velocity.flat, ref_v.flat)

    def test_layout_mismatch_rejected(self):
        a = nn.NetworkParams(weights=[np.zeros((2, 2))], biases=[None])
        b = nn.NetworkParams(weights=[np.zeros((2, 2))], biases=[np.zeros(2)])
        with pytest.raises(ConfigurationError):
            nn.sgd_momentum_step(a, b, a.zeros_like(), lr=0.1, momentum=0.9)

    def test_aggregate_matches_per_layer_mean(self, rng):
        _, base = tiny_conv_net()
        sets = []
        for _ in range(3):
            p = base.zeros_like()
            p.flat[:] = rng.uniform(-1, 1, p.n_scalars)
            sets.append(p)
        out = aggregate_params(sets)
        for i, w in enumerate(out.weights):
            assert np.array_equal(w, np.mean([p.weights[i] for p in sets], axis=0))
            assert np.array_equal(out.biases[i], np.mean([p.biases[i] for p in sets], axis=0))


def reference_local_train(net, dataset, client, tau_start, *, epochs, lr, alpha, momentum, batch_size, rng):
    """The per-layer local training loop the flat one replaced: parameters,
    momentum, gradients and thresholds are lists of separate per-layer
    arrays. Returns (tau, flops, weights, biases, velocity weights, velocity
    biases)."""
    weights = [w.copy() for w in client.params.weights]
    biases = [None if b is None else b.copy() for b in client.params.biases]
    vel_w = [w.copy() for w in client.velocity.weights]
    vel_b = [None if b is None else b.copy() for b in client.velocity.biases]
    tau = [t.copy() for t in tau_start]
    flops = 0
    for _ in range(epochs):
        masks = pruning.generate_masks(net, nn.NetworkParams(weights, biases), tau)
        report = pruning.density_metrics(net, masks)
        if any(rho < pruning.RESET_DENSITY for rho in report.per_layer):
            tau = pruning.layer_reset(tau, report)
            masks = pruning.generate_masks(net, nn.NetworkParams(weights, biases), tau)
            report = pruning.density_metrics(net, masks)
        flops += epoch_flops(net, report.per_layer, client.train_idx.size, include_importance_update=False)
        order = rng.permutation(client.train_idx)
        for start in range(0, order.size, batch_size):
            idx = order[start : start + batch_size]
            _, grads = nn.backward_pass(
                net, nn.NetworkParams(weights, biases), masks, dataset.samples[idx], dataset.labels[idx]
            )
            h = [-(g * w).sum(axis=1) for g, w in zip(grads.weights, weights)]
            for g in grads.weights + [b for b in grads.biases if b is not None]:
                assert np.all(np.isfinite(g))
            for i, w in enumerate(weights):
                v = vel_w[i]
                v *= momentum
                v += grads.weights[i]
                w -= lr * v
                if biases[i] is not None:
                    vb = vel_b[i]
                    vb *= momentum
                    vb += grads.biases[i]
                    biases[i] -= lr * vb
            for a in weights + [b for b in biases if b is not None]:
                np.clip(a, -1.0, 1.0, out=a)
            tau = [np.clip(t - lr * hi + alpha * lr * np.exp(-t), 0.0, 1.0) for t, hi in zip(tau, h)]
    return tau, flops, weights, biases, vel_w, vel_b


def _median_thresholds(params, dead_layer=None):
    tau = [np.full(w.shape[0], np.median(pruning.row_mean_abs(w))) for w in params.weights]
    if dead_layer is not None:
        tau[dead_layer] = np.ones_like(tau[dead_layer])  # prunes the whole layer: the rescue fires
    return tau


class TestFlatLocalTrainMatchesPerLayer:
    @pytest.mark.parametrize(
        "case",
        [
            # batch 8: every layer at full width with a masked output; a
            # ragged last batch (21 = 2 * 8 + 5); a dead layer to rescue
            dict(net=lambda: nn.build_mlp(12, [24, 10], 4), dim=12, classes=4, batch=8, n_train=21, dead=1),
            # every layer compacted at batch 20, ragged last batch (47)
            dict(net=lambda: strided_conv_net()[0], dim=2 * 9 * 8, classes=3, batch=20, n_train=47, dead=None),
        ],
        ids=["mlp-batch8", "strided-conv-batch20"],
    )
    def test_bit_identical(self, case):
        net = case["net"]()
        dataset = synth_dataset(case["classes"], case["dim"], 20, 0.3, seed=1)
        params = nn.init_params(net, np.random.default_rng(2))
        for b in params.biases:
            b[...] = np.random.default_rng(3).uniform(-0.1, 0.1, b.shape)
        client = fed.ClientState(
            client_id=0, params=params, velocity=params.zeros_like(), tau=pruning.init_thresholds(net),
            train_idx=np.arange(case["n_train"]), test_idx=np.arange(0),
        )
        tau0 = _median_thresholds(params, case["dead"])
        kw = dict(epochs=2, lr=0.05, alpha=0.01, momentum=0.9, batch_size=case["batch"])
        ref_tau, ref_flops, ref_w, ref_b, ref_vw, ref_vb = reference_local_train(
            net, dataset, client, tau0, rng=np.random.default_rng(9), **kw
        )
        tau, flops = fed.local_train(net, dataset, client, tau0, rng=np.random.default_rng(9), **kw)
        assert flops == ref_flops
        for a, b in zip(tau, ref_tau):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(client.tau, ref_tau):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(_views(client.params), ref_w + [b for b in ref_b if b is not None]):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(_views(client.velocity), ref_vw + [b for b in ref_vb if b is not None]):
            assert a.tobytes() == b.tobytes()

    def test_rescue_fires_in_the_mlp_case(self):
        net = nn.build_mlp(12, [24, 10], 4)
        params = nn.init_params(net, np.random.default_rng(2))
        masks = pruning.generate_masks(net, params, _median_thresholds(params, dead_layer=1))
        assert pruning.density_metrics(net, masks).per_layer[1] < pruning.RESET_DENSITY


class TestNumericErrorNamesTheClient:
    def test_nan_samples_of_one_client(self):
        sim = build_simulation(ExperimentConfig(
            clients=4, clients_per_round=4, epochs=1, synth_classes=3, synth_dim=8,
            synth_per_class=10, mlp_hidden=[6], seed=0,
        ))
        bad = next(c for c in sim.clients[1:] if c.train_idx.size)
        sim.dataset.samples[bad.train_idx] = np.nan
        with pytest.raises(NumericError, match=rf"client {bad.client_id}, epoch 0, batch 0: .*the input batch"):
            run_strategy_round(sim, 0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("make_net, layer", [(tiny_conv_net, 0), (strided_conv_net, 0), (strided_conv_net, 1)])
    def test_nonfinite_conv_weight_is_named(self, make_net, layer, bad):
        # the bad value crosses relu and the pool (the relu runs after it)
        # into the next prunable layer's patch matrix or flattened input
        net, params = make_net()
        params.weights[layer][0, 0] = bad
        with pytest.raises(NumericError, match=f"output of prunable layer {layer}"), np.errstate(invalid="ignore"):
            nn.forward_pass(net, params, None, np.ones((2, *net.input_shape)))

    def test_nonfinite_hidden_layer_is_named(self):
        net = nn.build_mlp(4, [5, 5], 3)
        params = nn.init_params(net, np.random.default_rng(0))
        params.weights[1][0, 0] = np.inf  # layer 1 turns finite inputs into inf
        with pytest.raises(NumericError, match="output of prunable layer 1"), np.errstate(invalid="ignore"):
            nn.forward_pass(net, params, None, np.ones((2, 4)))
