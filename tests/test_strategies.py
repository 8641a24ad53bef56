"""Strategy behaviors: wire isolation per strategy, baseline aggregation
laws, frozen-parameter mode, the importance-update ablation, and fair
cross-strategy initialization."""

import copy

import numpy as np
import pytest

import spafl.accounting as acc
from spafl import federation as fed
from spafl import nn, pruning
from spafl.errors import ConfigurationError, ProtocolError
from spafl.experiment import ExperimentConfig, build_simulation
from spafl.strategies import (
    StrategyId,
    aggregate_params,
    parse_strategy,
    run_strategy_round,
    snapshot_view,
)


def build_sim(**kw) -> fed.Simulation:
    base = dict(
        clients=6, clients_per_round=3, rounds=4, epochs=2,
        synth_classes=4, synth_dim=12, synth_per_class=20, synth_spread=0.3,
        mlp_hidden=[8], batch_size=8, out_dir="/tmp/spafl-test", seed=0,
    )
    base.update(kw)
    return build_simulation(ExperimentConfig(**base))


def weights_digest(params: nn.NetworkParams) -> bytes:
    return b"".join(w.tobytes() for w in params.weights)


class TestParseStrategy:
    def test_known_names(self):
        assert parse_strategy("spafl") is StrategyId.SPAFL
        assert parse_strategy("FedAvg") is StrategyId.FEDAVG

    @pytest.mark.parametrize("name", ["fedpm", "heterofl", "fjord", "fedp3", "fedspa"])
    def test_deliberately_absent_baselines(self, name):
        with pytest.raises(ConfigurationError, match=f"unknown strategy '{name}'; supported strategies: spafl"):
            parse_strategy(name)

    def test_unknown_name_lists_valid(self):
        with pytest.raises(ConfigurationError, match="spafl"):
            parse_strategy("gossip")


class TestAggregateParams:
    def test_mean_symmetry_cancels(self, rng):
        w = rng.uniform(-1, 1, (3, 4))
        a = nn.NetworkParams(weights=[w.copy()], biases=[np.ones(3)])
        b = nn.NetworkParams(weights=[-w.copy()], biases=[-np.ones(3)])
        out = aggregate_params([a.flat, b.flat], a.layout)
        assert np.allclose(out.weights[0], 0.0)
        assert np.allclose(out.biases[0], 0.0)

    def test_consensus(self, rng):
        w = rng.uniform(-1, 1, (2, 2))
        p = nn.NetworkParams(weights=[w], biases=[None])
        out = aggregate_params([p.flat, p.flat, p.flat], p.layout)
        assert out.layout == p.layout
        assert np.allclose(out.weights[0], w)

    def test_length_mismatch_rejected(self):
        p = nn.NetworkParams(weights=[np.zeros((2, 2))], biases=[None])
        with pytest.raises(ProtocolError):
            aggregate_params([p.flat, np.zeros(5)], p.layout)


class TestFedavg:
    def test_lr_zero_keeps_global_params(self):
        sim = build_sim(strategy="fedavg", lr=0.0, clients_per_round=1)
        before = weights_digest(sim.server.global_params)
        run_strategy_round(sim, 0)
        assert weights_digest(sim.server.global_params) == before

    def test_channel_carries_only_params_at_2kd(self):
        sim = build_sim(strategy="fedavg")
        for t in range(3):
            run_strategy_round(sim, t)
        d = sim.net.param_count
        k = sim.config.clients_per_round
        assert sim.channel.kinds() == {"params"}
        assert sim.channel.scalars() == 3 * 2 * k * d
        assert sim.channel.bits() == acc.dense_comm_bits(k, d, 3)

    def test_dense_density_reported(self):
        sim = build_sim(strategy="fedavg")
        m = run_strategy_round(sim, 0, do_eval=True)
        assert m.overall_density == 1.0
        assert m.mean_accuracy is not None

    def test_aggregate_is_mean_of_returned_models(self):
        sim = build_sim(strategy="fedavg", clients_per_round=2, epochs=1)
        ids = fed.sample_clients(6, 2, copy.deepcopy(sim.server.rng))
        run_strategy_round(sim, 0)
        ups = [t for t in sim.channel.transfers if t.direction == "uplink"]
        assert len(ups) == 2
        trained = [sim.clients[cid].params.flat for cid in ids]
        assert np.array_equal(sim.server.global_params.flat, np.mean(np.stack(trained), axis=0))

    def test_thresholds_stay_zero_and_ledger_books_dense_epochs(self):
        # fedavg trains the masked model at its zero starting thresholds,
        # which prune nothing, even where the regularizer would raise them
        sim = build_sim(strategy="fedavg")
        cfg = sim.config
        assert cfg.alpha > 0
        dense = [1.0] * len(sim.net.prunable)
        for t in range(3):
            ids = fed.sample_clients(cfg.clients, cfg.clients_per_round, copy.deepcopy(sim.server.rng))
            run_strategy_round(sim, t)
            n_train = [sim.clients[cid].train_idx.size for cid in ids]
            expected = sum(
                cfg.epochs * acc.epoch_flops(sim.net, dense, n, include_importance_update=False) for n in n_train
            )
            assert sim.ledger.rounds[t].flops == expected
            for client in sim.clients:
                assert not client.tau.any()


class TestLocalOnly:
    def test_zero_bits_forever(self):
        sim = build_sim(strategy="local_only")
        for t in range(4):
            m = run_strategy_round(sim, t)
        assert sim.channel.bits() == 0
        assert len(sim.channel.transfers) == 0
        assert m.cum_comm_bits == 0

    def test_thresholds_diverge_on_heterogeneous_data(self):
        sim = build_sim(strategy="local_only", dirichlet_beta=0.1)
        for t in range(2):
            run_strategy_round(sim, t)
        digests = {c.tau.tobytes() for c in sim.clients}
        assert len(digests) > 1

    def test_sampled_clients_train_others_idle(self):
        sim = build_sim(strategy="local_only", clients_per_round=3)
        ids = fed.sample_clients(sim.config.clients, 3, np.random.default_rng())
        before = [weights_digest(c.params) for c in sim.clients]
        run_strategy_round(sim, 0)
        after = [weights_digest(c.params) for c in sim.clients]
        changed = [i for i, (a, b) in enumerate(zip(after, before)) if a != b]
        assert len(changed) == 3

    def test_private_thresholds_persist_across_rounds(self):
        sim = build_sim(strategy="local_only", clients_per_round=6, alpha=0.01)
        run_strategy_round(sim, 0)
        taus = [c.tau.tobytes() for c in sim.clients]
        run_strategy_round(sim, 1)
        taus2 = [c.tau.tobytes() for c in sim.clients]
        assert taus != taus2  # training continues from each client's own tau


class TestThresholdsOnly:
    def test_weights_frozen_bit_exact(self):
        sim = build_sim(strategy="thresholds_only")
        before = [weights_digest(c.params) for c in sim.clients]
        vel_before = [b"".join(v.tobytes() for v in c.velocity.weights) for c in sim.clients]
        for t in range(4):
            run_strategy_round(sim, t)
        assert [weights_digest(c.params) for c in sim.clients] == before
        assert [b"".join(v.tobytes() for v in c.velocity.weights) for c in sim.clients] == vel_before

    def test_thresholds_still_move_with_alpha(self):
        sim = build_sim(strategy="thresholds_only", alpha=0.01)
        run_strategy_round(sim, 0)
        assert any(np.any(t > 0) for t in sim.server.tau_current)

    def test_channel_carries_thresholds_only(self):
        sim = build_sim(strategy="thresholds_only")
        run_strategy_round(sim, 0)
        assert sim.channel.kinds() == {"thresholds"}


class TestNoImportanceAblation:
    def test_importance_update_skipped(self):
        # lr = 0 stops SGD; only the importance update could move params.
        # Force a nonzero delta and check the ablation leaves params alone
        # while the full protocol does not.
        def run(strategy):
            sim = build_sim(strategy=strategy, lr=0.0, alpha=0.0, clients_per_round=6)
            for layer in sim.server.tau_current:
                layer += 0.05  # makes delta = tau_current - tau_previous != 0
            before = [weights_digest(c.params) for c in sim.clients]
            run_strategy_round(sim, 0)
            return before, [weights_digest(c.params) for c in sim.clients]

        b, a = run("spafl_no_importance")
        assert a == b
        b, a = run("spafl")
        assert a != b

    def test_identical_to_spafl_when_delta_zero(self):
        # round 0 has delta = 0 by construction: both strategies coincide
        sim_a = build_sim(strategy="spafl")
        sim_b = build_sim(strategy="spafl_no_importance")
        run_strategy_round(sim_a, 0)
        run_strategy_round(sim_b, 0)
        for x, y in zip(sim_a.server.tau_current, sim_b.server.tau_current):
            assert np.array_equal(x, y)
        for ca, cb in zip(sim_a.clients, sim_b.clients):
            assert weights_digest(ca.params) == weights_digest(cb.params)

    def test_flops_exclude_importance_charge(self):
        sim_a = build_sim(strategy="spafl")
        sim_b = build_sim(strategy="spafl_no_importance")
        ma = run_strategy_round(sim_a, 0)
        mb = run_strategy_round(sim_b, 0)
        k = sim_a.config.clients_per_round
        assert ma.cum_flops - mb.cum_flops == k * acc.importance_update_flops(sim_a.net.param_count)


class TestFairComparison:
    def test_same_seed_same_partition_and_init(self):
        sims = {name: build_sim(strategy=name) for name in ("spafl", "fedavg", "local_only")}
        trains = [tuple(c.train_idx.tolist() for c in s.clients) for s in sims.values()]
        assert trains[0] == trains[1] == trains[2]
        inits = [weights_digest(s.clients[0].params) for s in sims.values()]
        assert inits[0] == inits[1] == inits[2]

    def test_clients_start_identical(self):
        sim = build_sim()
        digests = {weights_digest(c.params) for c in sim.clients}
        assert len(digests) == 1


@pytest.mark.parametrize("strategy", ["spafl", "fedavg", "local_only"])
def test_empty_client_is_skipped_with_warning(strategy):
    sim = build_sim(strategy=strategy, clients_per_round=6)  # K = N: every client sampled
    sim.clients[2].train_idx = np.array([], dtype=int)
    before = weights_digest(sim.clients[2].params)
    with pytest.warns(UserWarning, match="client 2 has no training data"):
        metrics = run_strategy_round(sim, 0)
    assert metrics.skipped_clients == [2]
    assert weights_digest(sim.clients[2].params) == before


class TestSnapshot:
    def test_fedavg_snapshot_is_the_unmasked_global_model(self):
        sim = build_sim(strategy="fedavg")
        metrics = run_strategy_round(sim, 0, do_eval=True)
        assert metrics.overall_density == 1.0
        assert metrics.per_layer_density == [1.0] * len(sim.net.prunable)
        accs = [fed.evaluate(sim.net, sim.dataset, c, None, params=sim.server.global_params) for c in sim.clients]
        accs = [a for a in accs if a is not None]
        assert metrics.mean_accuracy == float(np.mean(accs))
        assert metrics.std_accuracy == float(np.std(accs))

    def test_views(self):
        sims = {name: build_sim(strategy=name) for name in ("spafl", "local_only", "fedavg")}
        for sim in sims.values():
            run_strategy_round(sim, 0)
        sim = sims["spafl"]
        tau, params = snapshot_view(sim, sim.clients[1])
        assert tau is sim.server.tau_current and params is sim.clients[1].params
        sim = sims["local_only"]
        tau, params = snapshot_view(sim, sim.clients[1])
        assert all(np.shares_memory(t, sim.clients[1].tau) for t in tau) and params is sim.clients[1].params
        sim = sims["fedavg"]
        tau, params = snapshot_view(sim, sim.clients[1])
        assert all(np.shares_memory(t, sim.clients[1].tau) for t in tau) and params is sim.server.global_params
        assert [t.tolist() for t in tau] == [t.tolist() for t in pruning.init_thresholds(sim.net)]
        assert all(not t.any() for t in tau)
