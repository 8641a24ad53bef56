"""Closed-form communication and FLOPs formulas against the published
reference totals, plus ledger bookkeeping invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spafl import accounting as acc
from spafl import nn
from spafl.errors import ConfigurationError


class TestCommBits:
    def test_fmnist_reference_total(self):
        bits = acc.spafl_comm_bits(clients_per_round=10, tau_num=580, rounds=500)
        assert bits == 185_600_000
        assert bits / acc.GBIT == pytest.approx(0.1856, abs=0)

    def test_cifar100_reference_total(self):
        bits = acc.spafl_comm_bits(10, 4800, 1500)
        assert bits == 4_608_000_000
        assert bits / acc.GBIT == pytest.approx(4.6080, abs=0)

    def test_zero_rounds(self):
        assert acc.spafl_comm_bits(10, 580, 0) == 0

    def test_dense_reduces_to_threshold_formula(self):
        assert acc.dense_comm_bits(7, 123, 9) == acc.spafl_comm_bits(7, 123, 9)

    def test_dense_lenet_order_of_magnitude(self):
        # full-parameter analog with the published Lenet parameter count
        bits = acc.dense_comm_bits(10, 430_500, 500)
        assert bits / acc.GBIT == pytest.approx(137.76, abs=1e-9)

    def test_single_scalar_round_trip(self):
        assert acc.dense_comm_bits(1, 1, 1) == 64

    def test_negative_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            acc.spafl_comm_bits(-1, 10, 10)


class TestThresholdCount:
    def test_lenet_is_580(self):
        assert acc.threshold_count(nn.build_lenet()) == 580

    def test_single_layer(self):
        assert acc.threshold_count(nn.Network((3,), [nn.dense(7)])) == 7

    def test_pool_and_relu_not_counted(self):
        specs = [nn.conv2d(4, (3, 3)), nn.relu(), nn.maxpool2d((2, 2)), nn.dense(5)]
        assert acc.threshold_count(nn.Network((1, 6, 6), specs)) == 9


class TestLayerFlops:
    def test_dense_800_500(self):
        spec = nn.LayerSpec(kind="dense", n_out=500, n_in=800)
        assert acc.layer_flops_forward(spec, density=1.0, n_batch=1) == 400_000

    def test_zero_density(self):
        spec = nn.LayerSpec(kind="dense", n_out=500, n_in=800)
        assert acc.layer_flops_forward(spec, 0.0, 10) == 0

    def test_conv_hand_product(self):
        spec = nn.LayerSpec(kind="conv2d", n_out=1, n_in=1 * 2 * 2, kernel=(2, 2))
        assert acc.layer_flops_forward(spec, 1.0, 1, out_hw=(2, 2)) == 16

    def test_pool_relu_free(self):
        assert acc.layer_flops_forward(nn.LayerSpec(kind="relu"), 1.0, 8) == 0
        assert acc.layer_flops_forward(nn.LayerSpec(kind="maxpool2d", kernel=(2, 2)), 1.0, 8) == 0

    def test_conv_needs_out_dims(self):
        spec = nn.LayerSpec(kind="conv2d", n_out=2, n_in=8)
        with pytest.raises(ConfigurationError):
            acc.layer_flops_forward(spec, 1.0, 1)


class TestEpochFlops:
    def test_importance_charge(self):
        assert acc.importance_update_flops(1000) == 1500

    def test_only_importance_term_at_zero_density(self):
        net = nn.build_mlp(8, [4], 3)
        flops = acc.epoch_flops(net, [0.0, 0.0], n_samples=50)
        assert flops == acc.importance_update_flops(net.param_count)

    def test_dense_layer_substitution(self):
        net = nn.Network((800,), [nn.dense(500)])
        flops = acc.epoch_flops(net, [0.5], n_samples=10)
        assert flops == 3 * 0.5 * 10 * 800 * 500 + acc.importance_update_flops(net.param_count)

    def test_without_importance_update(self):
        net = nn.Network((800,), [nn.dense(500)])
        flops = acc.epoch_flops(net, [1.0], 1, include_importance_update=False)
        assert flops == 3 * 400_000

    def test_conv_uses_output_dims(self):
        net = nn.Network((1, 4, 4), [nn.conv2d(2, (3, 3)), nn.dense(3)])
        # conv: out 2x2, n_in 9 -> 3 * (1*9*2*2*2) ; dense: n_in 8 -> 3 * 24
        flops = acc.epoch_flops(net, [1.0, 1.0], 1, include_importance_update=False)
        assert flops == 3 * (9 * 2 * 2 * 2) + 3 * (8 * 3)

    def test_density_count_must_match(self):
        net = nn.build_mlp(8, [4], 3)
        with pytest.raises(ConfigurationError):
            acc.epoch_flops(net, [1.0], 10)


class TestSanityBound:
    @pytest.mark.parametrize(
        "build",
        [nn.build_lenet, nn.build_cnn7, lambda: nn.build_mlp(64, [256, 64], 10)],
        ids=["lenet", "cnn7", "mlp-preset"],
    )
    def test_threshold_ratio_under_one_percent(self, build):
        net = build()
        assert acc.threshold_count(net) / net.param_count < 0.01


class TestCostLedger:
    def test_accumulates(self):
        ledger = acc.CostLedger()
        ledger.add_round(0, bits_up=10, bits_down=20, flops=5)
        ledger.add_round(1, bits_up=1, bits_down=2, flops=3)
        assert ledger.bits_up == 11
        assert ledger.bits_down == 22
        assert ledger.flops == 8
        assert ledger.total_bits == 33
        assert len(ledger.rounds) == 2

    def test_rejects_negative(self):
        ledger = acc.CostLedger()
        with pytest.raises(ConfigurationError):
            ledger.add_round(0, bits_up=-1, bits_down=0, flops=0)

    @given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**9)), max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_monotone_nondecreasing(self, rounds):
        ledger = acc.CostLedger()
        prev = (0, 0, 0)
        for i, (up, down, flops) in enumerate(rounds):
            ledger.add_round(i, up, down, flops)
            cur = (ledger.bits_up, ledger.bits_down, ledger.flops)
            assert all(c >= p for c, p in zip(cur, prev))
            prev = cur
