"""Round orchestration: sampling, the importance update against its
per-parameter oracle, local training composition, aggregation laws, channel
discipline and end-to-end determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spafl.accounting as acc
from spafl import federation as fed
from spafl import nn, pruning
from spafl.data import synth_dataset
from spafl.errors import ConfigurationError, ProtocolError
from spafl.experiment import ExperimentConfig, build_simulation
from spafl.strategies import run_strategy_round


class TestSampleClients:
    def test_exhaustive_when_k_equals_n(self):
        ids = fed.sample_clients(5, 5, np.random.default_rng(0))
        assert ids == [0, 1, 2, 3, 4]

    def test_deterministic_for_fixed_state(self):
        a = fed.sample_clients(10, 3, np.random.default_rng(7))
        b = fed.sample_clients(10, 3, np.random.default_rng(7))
        assert a == b

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ConfigurationError):
            fed.sample_clients(3, 4, np.random.default_rng(0))

    def test_uniform_selection_frequencies(self):
        # binomial oracle: each of 100 clients appears in a K=10 draw with
        # p = 0.1; over 10_000 draws the frequency stays within 3 sigma
        rng = np.random.default_rng(0)
        counts = np.zeros(100)
        draws = 10_000
        for _ in range(draws):
            for cid in fed.sample_clients(100, 10, rng):
                counts[cid] += 1
        freq = counts / draws
        sigma = np.sqrt(0.1 * 0.9 / draws)
        assert np.all(np.abs(freq - 0.1) <= 3 * sigma)

    def test_distinct_ids(self):
        ids = fed.sample_clients(50, 20, np.random.default_rng(3))
        assert len(set(ids)) == 20


class TestImportanceUpdate:
    def test_reinforces_positive_dominant_row(self):
        params = nn.NetworkParams(weights=[np.full((1, 4), 0.2)], biases=[np.zeros(1)])
        fed.importance_update(params, np.array([-0.02]))
        assert np.allclose(params.weights[0], 0.205)

    def test_reinforces_negative_dominant_row(self):
        params = nn.NetworkParams(weights=[np.full((1, 4), -0.2)], biases=[np.zeros(1)])
        fed.importance_update(params, np.array([-0.02]))
        assert np.allclose(params.weights[0], -0.205)

    def test_zero_delta_is_identity(self, rng):
        w = rng.uniform(-1, 1, (5, 3))
        params = nn.NetworkParams(weights=[w.copy()], biases=[np.zeros(5)])
        fed.importance_update(params, np.zeros(5))
        assert np.array_equal(params.weights[0], w)

    def test_biases_untouched(self, rng):
        params = nn.NetworkParams(weights=[rng.uniform(-1, 1, (3, 4))], biases=[np.array([0.1, 0.2, 0.3])])
        fed.importance_update(params, np.array([0.5, -0.5, 0.1]))
        assert np.array_equal(params.biases[0], [0.1, 0.2, 0.3])

    def test_result_clamped(self):
        params = nn.NetworkParams(weights=[np.full((1, 1), 0.999)], biases=[None])
        fed.importance_update(params, np.array([-0.9]))
        assert params.weights[0][0, 0] == 1.0

    def test_width_one_oracle_bit_exact(self):
        # on single-weight rows the rule must equal w <- clamp(w - d*sign(w))
        rng = np.random.default_rng(99)
        for _ in range(1000):
            w = rng.uniform(-1, 1)
            d = rng.uniform(-0.2, 0.2)
            params = nn.NetworkParams(weights=[np.array([[w]])], biases=[None])
            fed.importance_update(params, np.array([d]))
            sign = 1.0 if w >= 0 else -1.0
            expected = min(1.0, max(-1.0, w - d * sign))
            assert params.weights[0][0, 0] == expected

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_single_sign_rows_move_with_minus_sign_delta_times_sign(self, seed):
        r = np.random.default_rng(seed)
        sign = 1.0 if r.random() < 0.5 else -1.0
        w = sign * r.uniform(0.05, 0.5, (1, 6))
        d = r.uniform(-0.1, 0.1)
        params = nn.NetworkParams(weights=[w.copy()], biases=[None])
        fed.importance_update(params, np.array([d]))
        moved = params.weights[0] - w
        expected_dir = -np.sign(d) * sign
        if d != 0:
            assert np.all(np.sign(moved) == expected_dir)
            assert np.allclose(np.abs(moved), abs(d) / 6)

    def test_length_mismatch(self):
        params = nn.NetworkParams(weights=[np.zeros((3, 2))], biases=[None])
        with pytest.raises(ConfigurationError, match=r"delta of shape \(2,\) does not match \(3,\) weight rows"):
            fed.importance_update(params, np.zeros(2))

    def test_flat_delta_splits_at_layer_rows(self, rng):
        # one flat delta over two layers equals the update of each layer alone
        w0, w1 = rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, (2, 3))
        d = rng.uniform(-0.2, 0.2, 5)
        both = nn.NetworkParams(weights=[w0.copy(), w1.copy()], biases=[None, None])
        fed.importance_update(both, d)
        for w, part, got in ((w0, d[:3], both.weights[0]), (w1, d[3:], both.weights[1])):
            alone = nn.NetworkParams(weights=[w.copy()], biases=[None])
            fed.importance_update(alone, part)
            assert np.array_equal(got, alone.weights[0])


class TestAggregateThresholds:
    def test_single_client_identity(self):
        tau = np.array([0.1, 0.9, 0.5])
        out = fed.aggregate_thresholds([tau])
        assert np.array_equal(out, tau)

    def test_hand_mean(self):
        out = fed.aggregate_thresholds([np.array([0.2, 0.4]), np.array([0.4, 0.6])])
        assert np.allclose(out, [0.3, 0.5])

    def test_consensus_idempotent(self):
        tau = np.array([0.3, 0.7])
        out = fed.aggregate_thresholds([tau] * 5)
        assert np.allclose(out, tau)

    def test_empty_rejected(self):
        with pytest.raises(ProtocolError):
            fed.aggregate_thresholds([])

    def test_layout_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            fed.aggregate_thresholds([np.zeros(3), np.zeros(4)])

    @given(st.integers(0, 2**31 - 1), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_mean_contained_in_envelope(self, seed, k):
        r = np.random.default_rng(seed)
        taus = [r.uniform(0, 1, 5) for _ in range(k)]
        out = fed.aggregate_thresholds(taus)
        stack = np.stack(taus)
        assert np.all(out >= stack.min(axis=0) - 1e-15)
        assert np.all(out <= stack.max(axis=0) + 1e-15)

    @pytest.mark.parametrize(
        "make_net",
        [
            nn.build_lenet,
            lambda: nn.build_mlp(64, [256, 64], 10),
            nn.build_cnn7,
        ],
        ids=["lenet", "mlp", "cnn7"],
    )
    def test_stacked_mean_equals_per_layer_mean_bit_for_bit(self, make_net):
        # the mean over the (K, T) stack of flat vectors against the mean of
        # each layer's (K, n_l) stack it replaced
        net = make_net()
        r = np.random.default_rng(17)
        for k in list(range(1, 11)) * 3:
            taus = [r.uniform(0, 1, sum(net.threshold_sizes)) for _ in range(k)]
            out = pruning.layer_thresholds(net, fed.aggregate_thresholds(taus))
            per_client = [pruning.layer_thresholds(net, t) for t in taus]
            for i, got in enumerate(out):
                assert got.tobytes() == np.mean([tau[i] for tau in per_client], axis=0).tobytes()


class TestDeltaTau:
    """The importance update's delta is the server's current flat global
    thresholds minus its previous ones, as they stand when the round
    begins; the round sends it down beside the thresholds."""

    def test_round_zero_zero_by_construction(self):
        sim = build_sim()
        sent = record_downlinks(sim)
        run_strategy_round(sim, 0)
        deltas = [payload for kind, payload in sent if kind == "threshold_delta"]
        assert len(deltas) == sim.config.clients_per_round
        for delta in deltas:
            assert np.array_equal(delta, np.zeros(acc.threshold_count(sim.net)))

    def test_subtraction(self):
        sim = build_sim()
        run_strategy_round(sim, 0)
        current = pruning.flat_thresholds(sim.net, sim.server.tau_current)
        previous = pruning.flat_thresholds(sim.net, sim.server.tau_previous)
        assert np.any(current != previous)  # round 0 moved them, so the sign shows
        sent = record_downlinks(sim)
        run_strategy_round(sim, 1)
        deltas = [payload for kind, payload in sent if kind == "threshold_delta"]
        assert len(deltas) == sim.config.clients_per_round
        for delta in deltas:
            assert delta.tobytes() == (current - previous).tobytes()

    def test_equal_vectors_give_zero(self):
        sim = build_sim(lr=0.0, alpha=0.0)  # the thresholds never move
        run_strategy_round(sim, 0)
        sent = record_downlinks(sim)
        run_strategy_round(sim, 1)
        deltas = [payload for kind, payload in sent if kind == "threshold_delta"]
        assert deltas and not any(delta.any() for delta in deltas)


class TestChannel:
    def test_flat_payload_arrives_as_owned_float64_copy(self):
        channel = fed.Channel()
        payload = np.array([1, 2, 3])
        got = channel.downlink(0, "thresholds", payload)
        assert got.dtype == np.float64 and np.array_equal(got, payload)
        got[0] = 9.0
        assert payload[0] == 1
        assert channel.bits() == 3 * acc.BITS_PER_SCALAR

    def test_parameter_container_rejected(self):
        channel = fed.Channel()
        params = nn.NetworkParams(weights=[np.zeros((2, 3))], biases=[np.zeros(2)])
        with pytest.raises(ProtocolError, match="flat vector"):
            channel.uplink(0, "params", params)
        assert len(channel) == 0

    def test_matrix_payload_rejected(self):
        channel = fed.Channel()
        with pytest.raises(ProtocolError, match="flat vector"):
            channel.downlink(0, "thresholds", np.zeros((2, 3)))
        assert len(channel) == 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError, match="may not cross"):
            fed.Channel().uplink(0, "gradients", np.zeros(3))


def small_client(net, dataset, seed=0, n_train=12, tau=None):
    """A client whose flat thresholds start at the per-layer ``tau``
    (zeros by default)."""
    params = nn.init_params(net, np.random.default_rng(seed))
    return fed.ClientState(
        client_id=0,
        params=params,
        velocity=params.zeros_like(),
        tau=pruning.flat_thresholds(net, pruning.init_thresholds(net) if tau is None else tau),
        train_idx=np.arange(n_train),
        test_idx=np.arange(n_train, min(n_train + 8, dataset.n)),
    )


class TestLocalTrain:
    def setup_method(self):
        self.dataset = synth_dataset(3, 6, 12, 0.3, seed=0)
        self.net = nn.build_mlp(6, [5], 3)

    def test_zero_lr_returns_global_thresholds(self):
        tau0 = [np.full(5, 0.2), np.full(3, 0.1)]
        client = small_client(self.net, self.dataset, tau=tau0)
        fed.local_train(
            self.net, self.dataset, client,
            epochs=3, lr=0.0, alpha=0.5, momentum=0.9, batch_size=4,
            rng=np.random.default_rng(0),
        )
        for a, b in zip(pruning.layer_thresholds(self.net, client.tau), tau0):
            assert np.array_equal(a, b)

    def test_no_forces_returns_global_thresholds(self):
        # all-zero inputs through a bias-free net give identically zero
        # weight gradients; with alpha = 0 no force moves the thresholds
        from spafl.data import Dataset

        net = nn.Network((6,), [nn.dense(5, bias=False), nn.relu(), nn.dense(3, bias=False)])
        ds = Dataset(samples=np.zeros((12, 6)), labels=np.zeros(12, dtype=int), n_classes=3)
        tau0 = [np.full(5, 0.01), np.full(3, 0.01)]
        client = small_client(net, ds, tau=tau0)
        fed.local_train(
            net, ds, client,
            epochs=2, lr=0.1, alpha=0.0, momentum=0.9, batch_size=4,
            rng=np.random.default_rng(0),
        )
        for a, b in zip(pruning.layer_thresholds(net, client.tau), tau0):
            assert np.array_equal(a, b)

    def test_single_batch_equals_hand_composition(self):
        # E=1 with one batch must equal generate_mask -> backward ->
        # threshold_gradient (pre-step weights) -> sgd+clamp -> threshold_step
        tau0 = [np.full(5, 0.02), np.full(3, 0.01)]
        client = small_client(self.net, self.dataset, tau=tau0)
        mirror = small_client(self.net, self.dataset)
        lr, alpha, momentum = 0.05, 0.01, 0.9
        rng = np.random.default_rng(11)
        order = rng.permutation(client.train_idx)
        xb = self.dataset.samples[order]
        yb = self.dataset.labels[order]
        masks = pruning.generate_masks(self.net, mirror.params, tau0)
        _, grads = nn.backward_pass(self.net, mirror.params, masks, xb, yb)
        h = pruning.threshold_gradient(grads, mirror.params)
        nn.sgd_momentum_step(mirror.params, grads, mirror.velocity, lr, momentum)
        nn.clamp_parameters(mirror.params)
        expected_tau = [pruning.threshold_step(t, hi, lr, alpha) for t, hi in zip(tau0, h)]

        fed.local_train(
            self.net, self.dataset, client,
            epochs=1, lr=lr, alpha=alpha, momentum=momentum, batch_size=64,
            rng=np.random.default_rng(11),
        )
        for a, b in zip(pruning.layer_thresholds(self.net, client.tau), expected_tau):
            assert np.array_equal(a, b)
        for a, b in zip(client.params.weights, mirror.params.weights):
            assert np.array_equal(a, b)
        for a, b in zip(client.velocity.weights, mirror.velocity.weights):
            assert np.array_equal(a, b)

    def test_identical_data_and_seeds_identical_result(self):
        a = small_client(self.net, self.dataset, seed=4)
        b = small_client(self.net, self.dataset, seed=4)
        kw = dict(epochs=2, lr=0.05, alpha=0.01, momentum=0.9, batch_size=4)
        fa = fed.local_train(self.net, self.dataset, a, rng=np.random.default_rng(5), **kw)
        fb = fed.local_train(self.net, self.dataset, b, rng=np.random.default_rng(5), **kw)
        assert fa == fb
        assert np.array_equal(a.tau, b.tau)
        for x, y in zip(a.params.weights, b.params.weights):
            assert np.array_equal(x, y)

    def test_frozen_parameters_mode(self):
        client = small_client(self.net, self.dataset)
        before = client.params.copy()
        fed.local_train(
            self.net, self.dataset, client,
            epochs=3, lr=0.1, alpha=0.01, momentum=0.9, batch_size=4,
            rng=np.random.default_rng(0), train_weights=False,
        )
        for a, b in zip(client.params.weights, before.weights):
            assert np.array_equal(a, b)
        assert np.any(client.tau != 0)  # thresholds still moved

    def test_empty_partition_raises(self):
        client = small_client(self.net, self.dataset, n_train=0)
        client.train_idx = np.array([], dtype=int)
        with pytest.raises(Exception):
            fed.local_train(
                self.net, self.dataset, client,
                epochs=1, lr=0.1, alpha=0.0, momentum=0.9, batch_size=4,
                rng=np.random.default_rng(0),
            )

    def test_layer_reset_rescues_dead_layer(self):
        # thresholds above every mu: the whole first layer would be dead
        client = small_client(self.net, self.dataset, tau=[np.ones(5), np.zeros(3)])
        fed.local_train(
            self.net, self.dataset, client,
            epochs=1, lr=0.0, alpha=0.0, momentum=0.9, batch_size=64,
            rng=np.random.default_rng(0),
        )
        # with zero density the layer resets to zero thresholds (lr 0 keeps them)
        assert np.array_equal(client.tau, np.zeros(8))


class TestEvaluate:
    def test_perfect_model(self):
        # identity network on one-hot samples labels every sample correctly
        net = nn.Network((3,), [nn.dense(3)])
        params = nn.NetworkParams(weights=[np.eye(3)], biases=[np.zeros(3)])
        samples = np.eye(3)[np.array([0, 1, 2, 1, 0])]
        labels = np.array([0, 1, 2, 1, 0])
        from spafl.data import Dataset

        ds = Dataset(samples=samples, labels=labels, n_classes=3)
        client = fed.ClientState(
            client_id=0, params=params, velocity=params.zeros_like(),
            tau=np.zeros(3), train_idx=np.array([0]), test_idx=np.arange(5),
        )
        assert fed.evaluate(net, ds, client, masks=None) == 1.0

    def test_chance_level_random_model(self):
        ds = synth_dataset(4, 10, 500, 0.5, seed=8)
        net = nn.build_mlp(10, [16], 4)
        params = nn.init_params(net, np.random.default_rng(123))
        client = fed.ClientState(
            client_id=0, params=params, velocity=params.zeros_like(),
            tau=np.zeros(acc.threshold_count(net)), train_idx=np.array([0]),
            test_idx=np.arange(ds.n),
        )
        acc_val = fed.evaluate(net, ds, client, masks=None)
        # 2000 balanced samples: chance 0.25 +- 4 sigma(binomial) ~ 0.039
        assert abs(acc_val - 0.25) < 0.08

    def test_empty_test_split_excluded(self):
        ds = synth_dataset(3, 6, 5, 0.3, seed=0)
        net = nn.build_mlp(6, [4], 3)
        params = nn.init_params(net, np.random.default_rng(0))
        client = fed.ClientState(
            client_id=0, params=params, velocity=params.zeros_like(),
            tau=np.zeros(acc.threshold_count(net)), train_idx=np.arange(5),
            test_idx=np.array([], dtype=int),
        )
        assert fed.evaluate(net, ds, client, masks=None) is None

    def test_all_pruned_predicts_from_constant_bias(self):
        net = nn.Network((2,), [nn.dense(3)])
        params = nn.NetworkParams(weights=[np.full((3, 2), 0.4)], biases=[np.zeros(3)])
        from spafl.data import Dataset

        ds = Dataset(samples=np.random.default_rng(0).uniform(0, 1, (10, 2)),
                     labels=np.zeros(10, dtype=int), n_classes=3)
        client = fed.ClientState(
            client_id=0, params=params, velocity=params.zeros_like(),
            tau=np.ones(3), train_idx=np.array([0]), test_idx=np.arange(10),
        )
        # all rows pruned -> logits all zero -> argmax picks class 0 everywhere
        masks = pruning.generate_masks(net, params, [np.ones(3)])
        assert fed.evaluate(net, ds, client, masks=masks) == 1.0


def build_sim(**kw) -> fed.Simulation:
    base = dict(
        clients=6, clients_per_round=3, rounds=4, epochs=2,
        synth_classes=4, synth_dim=12, synth_per_class=20, synth_spread=0.3,
        mlp_hidden=[8], batch_size=8, out_dir="/tmp/spafl-test", seed=0,
    )
    base.update(kw)
    return build_simulation(ExperimentConfig(**base))


def record_downlinks(sim: fed.Simulation) -> list[tuple[str, np.ndarray]]:
    """From now on, every downlink's (kind, copy of its payload), in order."""
    sent = []
    downlink = sim.channel.downlink

    def recording(round_index, kind, payload):
        sent.append((kind, np.array(payload)))
        return downlink(round_index, kind, payload)

    sim.channel.downlink = recording
    return sent


class TestRunRound:
    def test_k1_aggregation_is_identity(self):
        sim = build_sim(clients_per_round=1)
        run_strategy_round(sim, 0)
        # with one sampled client the new global equals that client's result
        sampled = [t for t in sim.channel.transfers if t.direction == "uplink"]
        assert len(sampled) == 1

    def test_frozen_system_keeps_thresholds(self):
        sim = build_sim(lr=0.0, alpha=0.0)
        before = [t.copy() for t in sim.server.tau_current]
        for t in range(3):
            run_strategy_round(sim, t)
        for a, b in zip(sim.server.tau_current, before):
            assert np.array_equal(a, b)

    def test_thresholds_assigned_before_round_0_are_what_it_sends(self):
        # a caller may start from chosen global thresholds by assigning
        # per-layer lists to both server fields before round 0, as the
        # benchmark's half-density start does: round 0 must send exactly
        # those, and a zero delta
        sim = build_sim(clients_per_round=6)
        tau = [np.full(w.shape[0], np.median(pruning.row_mean_abs(w))) for w in sim.clients[0].params.weights]
        sim.server.tau_current = tau
        sim.server.tau_previous = [t.copy() for t in tau]
        sent = record_downlinks(sim)
        run_strategy_round(sim, 0)
        kinds = [kind for kind, _ in sent]
        assert kinds.count("thresholds") == kinds.count("threshold_delta") == len(sim.clients)
        expected = np.concatenate(tau)
        for kind, payload in sent:
            if kind == "thresholds":
                assert payload.tobytes() == expected.tobytes()
            else:
                assert payload.shape == expected.shape and not payload.any()

    def test_channel_discipline_and_bits(self):
        sim = build_sim()
        for t in range(4):
            run_strategy_round(sim, t)
        tau_num = acc.threshold_count(sim.net)
        k = sim.config.clients_per_round
        assert sim.channel.kinds() <= {"thresholds", "threshold_delta"}
        assert sim.channel.scalars("thresholds") == 4 * 2 * k * tau_num
        assert sim.channel.bits() == acc.spafl_comm_bits(k, tau_num, 4)
        assert sim.ledger.total_bits == sim.channel.bits()

    def test_personalization_no_parameter_sync(self):
        sim = build_sim(clients_per_round=6)  # everyone trains in round 1
        run_strategy_round(sim, 0)
        hashes = {w.tobytes() for w in (c.params.weights[0] for c in sim.clients)}
        assert len(hashes) > 1

    def test_end_to_end_determinism(self):
        def run_once():
            sim = build_sim()
            out = []
            for t in range(4):
                m = run_strategy_round(sim, t, do_eval=(t == 3))
                out.append((m.mean_accuracy, m.overall_density, m.cum_comm_bits, m.cum_flops))
            return out

        assert run_once() == run_once()

    @pytest.mark.parametrize(
        "strategy", ["spafl", "spafl_no_importance", "thresholds_only", "fedavg", "local_only"]
    )
    def test_worker_count_does_not_change_results(self, strategy):
        def run_with(workers):
            sim = build_sim(strategy=strategy, workers=workers)
            for t in range(3):
                m = run_strategy_round(sim, t, do_eval=(t == 2))
            return (
                m.mean_accuracy,
                [t.copy() for t in sim.server.tau_current],
                [c.params.weights[0].copy() for c in sim.clients],
            )

        a1, t1, w1 = run_with(1)
        a4, t4, w4 = run_with(4)
        assert a1 == a4
        for x, y in zip(t1, t4):
            assert np.array_equal(x, y)
        for x, y in zip(w1, w4):
            assert np.array_equal(x, y)

    def test_flops_accumulate(self):
        sim = build_sim()
        m0 = run_strategy_round(sim, 0)
        m1 = run_strategy_round(sim, 1)
        assert 0 < m0.cum_flops < m1.cum_flops
