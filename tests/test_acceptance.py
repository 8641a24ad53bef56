"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
in the terminal summary (see conftest).

The trend criteria run complete federated experiments (four strategies, ten
seeds each) through a module-scoped fixture so the expensive runs happen
once; every other criterion is a direct check at its stated tolerance.
"""

import time

import numpy as np
import pytest

import spafl.accounting as acc
from spafl import cli as cli_mod
from spafl import federation as fed
from spafl import nn, pruning
from spafl.data import dirichlet_partition, synth_dataset
from spafl.experiment import ExperimentConfig, build_simulation, run_experiment
from spafl.strategies import run_strategy_round

from conftest import record_criterion

TREND_SEEDS = list(range(10))
TREND_STRATEGIES = ("spafl", "local_only", "spafl_no_importance", "thresholds_only")


def _run_trend(strategy: str, seed: int):
    cfg = ExperimentConfig(strategy=strategy, seed=seed, out_dir="/tmp/spafl-acceptance")
    sim = build_simulation(cfg)
    best = -1.0
    last = None
    for t in range(cfg.rounds):
        metrics = run_strategy_round(sim, t, do_eval=True)
        if metrics.mean_accuracy is not None:
            best = max(best, metrics.mean_accuracy)
        last = metrics
    return best, last.overall_density


@pytest.fixture(scope="module")
def trend_runs():
    """Best accuracy and final density per (strategy, seed), plus wall times."""
    results: dict[str, dict] = {}
    for strategy in TREND_STRATEGIES:
        t0 = time.time()
        best, fdens = zip(*(_run_trend(strategy, s) for s in TREND_SEEDS))
        results[strategy] = {
            "best": list(best),
            "final_density": list(fdens),
            "seconds": time.time() - t0,
        }
    return results


def test_criterion_1_communication_reproduction(capsys):
    t0 = time.time()
    fmnist = acc.spafl_comm_bits(10, 580, 500)
    cifar10 = acc.spafl_comm_bits(10, 1418, 500)
    cifar100 = acc.spafl_comm_bits(10, 4800, 1500)
    ok = fmnist / acc.GBIT == 0.1856
    ok &= abs(cifar10 / acc.GBIT - 0.4537) <= 0.0005
    ok &= cifar100 / acc.GBIT == 4.6080
    # the CLI surface reports the same totals
    assert cli_mod.main(["verify-comm"]) == 0
    out = capsys.readouterr().out
    ok &= f"{fmnist} bits = 0.1856 Gbit" in out
    ok &= f"{cifar10} bits = 0.4538 Gbit" in out  # 0.45376 at 4 decimals
    ok &= f"{cifar100} bits = 4.6080 Gbit" in out
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    record_criterion("1 communication reproduction (Table 1 comm columns, <1s)", bool(ok))
    assert fmnist == 185_600_000
    assert cifar10 == 453_760_000
    assert cifar100 == 4_608_000_000
    assert ok


def _kink_margin(net, params, masks, x) -> float:
    """Smallest |pre-activation| of any active unit.

    A central difference is only a derivative oracle away from the relu
    kinks; configurations whose exact-zero activations (a turned-off conv
    stack feeding a zero-initialized bias) sit on a kink must be rejected,
    not compared.
    """
    _, caches = nn._forward(net, params, masks, x)
    margin = np.inf
    for cache in caches:
        if cache[0] not in ("dense", "conv2d"):
            continue
        # a layer evaluates either its active rows only (cache.rows) or every
        # row with its output multiplied by the row mask (cache.row_mask); a
        # conv layer's inputs are its (n_in, positions) patch matrix
        z = cache.inputs @ cache.w.T if cache.kind == "dense" else (cache.w @ cache.inputs).T
        bias = params.biases[cache.pi]
        if bias is not None:
            z = z + (bias if cache.rows is None else bias[cache.rows])
        if cache.row_mask is not None:
            z = z[..., cache.row_mask.astype(bool)]
        if z.size:
            margin = min(margin, float(np.abs(z).min()))
    return margin


def random_small_net(seed: int):
    """Every layer kind represented; small enough to check every parameter.

    Draws are rejected until every layer keeps at least one active row and
    every active pre-activation clears the relu kink by a wide margin
    relative to the finite-difference step (oracle validity precondition).
    """
    r = np.random.default_rng(seed)
    filters = int(r.integers(2, 4))
    hidden = int(r.integers(4, 7))
    net = nn.Network(
        (1, 5, 5),
        [
            nn.conv2d(filters, (3, 3)),
            nn.relu(),
            nn.maxpool2d((2, 2)),
            nn.dense(hidden),
            nn.relu(),
            nn.dense(3),
        ],
    )
    params = nn.init_params(net, r)
    y = r.integers(0, 3, 3)
    while True:
        x = r.uniform(0, 1, (3, 1, 5, 5))
        tau = [r.uniform(0, 0.15, n) for n in net.threshold_sizes]
        masks = pruning.generate_masks(net, params, tau)
        if all(m.any() for m in masks) and _kink_margin(net, params, masks, x) > 1e-4:
            return net, params, x, y, tau


def test_criterion_2_gradient_correctness():
    t0 = time.time()
    nets = 0
    checked = 0
    ok = True
    for seed in range(20):
        net, params, x, y, tau = random_small_net(seed)
        masks = pruning.generate_masks(net, params, tau)
        _, grads = nn.backward_pass(net, params, masks, x, y)
        for pi in range(len(params.weights)):
            row_active = masks[pi].astype(bool)
            n_in = params.weights[pi].shape[1]
            for flat in range(params.weights[pi].size):
                if not row_active[flat // n_in]:
                    ok &= grads.weights[pi].flat[flat] == 0.0
                    continue
                fd = nn.finite_diff_oracle(net, params, masks, x, y, (pi, "weight", flat), 1e-5)
                an = grads.weights[pi].flat[flat]
                ok &= abs(fd - an) <= max(1e-4 * max(abs(fd), abs(an)), 1e-7)
                checked += 1
            for flat in range(params.biases[pi].size):
                if not row_active[flat]:
                    ok &= grads.biases[pi].flat[flat] == 0.0
                    continue
                fd = nn.finite_diff_oracle(net, params, masks, x, y, (pi, "bias", flat), 1e-5)
                an = grads.biases[pi].flat[flat]
                ok &= abs(fd - an) <= max(1e-4 * max(abs(fd), abs(an)), 1e-7)
                checked += 1
        # threshold gradients against brute-force row recomputation
        h = pruning.threshold_gradient(grads, params)
        for pi in range(len(h)):
            brute = -np.einsum("ij,ij->i", grads.weights[pi], params.weights[pi])
            brute = brute * masks[pi]
            denom = np.maximum(np.abs(brute), 1e-7 / 1e-4)
            ok &= bool(np.all(np.abs(h[pi] - brute) <= 1e-4 * denom))
        nets += 1
    elapsed = time.time() - t0
    ok &= nets >= 20 and checked > 1000 and elapsed < 60.0
    record_criterion(f"2 gradient correctness ({nets} nets, {checked} params, <1min)", bool(ok))
    assert ok


def test_criterion_3_importance_update_oracle():
    rng = np.random.default_rng(2718)
    ok = True
    for _ in range(1000):
        w = float(rng.uniform(-1, 1))
        d = float(rng.uniform(-0.3, 0.3))
        params = nn.NetworkParams(weights=[np.array([[w]])], biases=[None])
        fed.importance_update(params, [np.array([d])])
        sign = 1.0 if w >= 0.0 else -1.0
        expected = min(1.0, max(-1.0, w - d * sign))
        ok &= params.weights[0][0, 0] == expected  # bit-exact
    record_criterion("3 importance update equals width-1 oracle, bit-exact x1000", bool(ok))
    assert ok


def small_sim(strategy: str, **kw) -> fed.Simulation:
    base = dict(
        strategy=strategy, clients=8, clients_per_round=4, rounds=3, epochs=2,
        synth_classes=4, synth_dim=16, synth_per_class=30, synth_spread=0.2,
        mlp_hidden=[12], batch_size=8, seed=11, out_dir="/tmp/spafl-acceptance",
    )
    base.update(kw)
    return build_simulation(ExperimentConfig(**base))


def test_criterion_4_channel_discipline():
    rounds = 3
    ok = True

    sim = small_sim("spafl")
    for t in range(rounds):
        run_strategy_round(sim, t)
    tau_num = acc.threshold_count(sim.net)
    k = sim.config.clients_per_round
    ok &= sim.channel.scalars("thresholds") == rounds * 2 * k * tau_num
    ok &= sim.channel.kinds() <= {"thresholds", "threshold_delta"}
    ok &= sim.channel.bits() == acc.spafl_comm_bits(k, tau_num, rounds)
    ok &= sim.ledger.total_bits == sim.channel.bits()

    sim = small_sim("fedavg")
    for t in range(rounds):
        run_strategy_round(sim, t)
    d = sim.net.param_count
    ok &= sim.channel.scalars() == rounds * 2 * k * d
    ok &= sim.channel.kinds() == {"params"}
    ok &= sim.channel.bits() == acc.dense_comm_bits(k, d, rounds)
    ok &= sim.ledger.total_bits == sim.channel.bits()

    sim = small_sim("local_only")
    for t in range(rounds):
        run_strategy_round(sim, t)
    ok &= len(sim.channel.transfers) == 0
    ok &= sim.channel.bits() == 0 and sim.ledger.total_bits == 0

    record_criterion("4 channel discipline (2K*tau_num / 2K*d / 0, bit-exact)", bool(ok))
    assert ok


@pytest.mark.slow
def test_criterion_5_desk_scale_trends(trend_runs):
    spafl = float(np.mean(trend_runs["spafl"]["best"]))
    local = float(np.mean(trend_runs["local_only"]["best"]))
    ablation = float(np.mean(trend_runs["spafl_no_importance"]["best"]))
    density = float(np.mean(trend_runs["spafl"]["final_density"]))
    seconds = sum(trend_runs[s]["seconds"] for s in ("spafl", "local_only", "spafl_no_importance"))

    ok_a = spafl >= local
    ok_b = density < 0.9
    ok_c = spafl >= ablation
    ok_t = seconds < 600.0
    record_criterion(
        f"5a threshold-exchange >= local ({spafl:.3f} vs {local:.3f})", ok_a
    )
    record_criterion(f"5b nontrivial sparsity (final density {density:.3f} < 0.9)", ok_b)
    record_criterion(
        f"5c full protocol >= no-importance ablation ({spafl:.3f} vs {ablation:.3f})", ok_c
    )
    record_criterion(f"5 runtime ({seconds:.0f}s < 600s)", ok_t)
    assert ok_a and ok_b and ok_c and ok_t


@pytest.mark.slow
def test_criterion_6_thresholds_only_trend(trend_runs):
    frozen = float(np.mean(trend_runs["thresholds_only"]["best"]))
    seconds = trend_runs["thresholds_only"]["seconds"]
    chance = 1.0 / 10
    ok = frozen >= 2 * chance and seconds < 300.0
    record_criterion(
        f"6 thresholds-only >= 2x chance ({frozen:.3f} vs {2 * chance:.2f}, {seconds:.0f}s)", ok
    )
    assert ok


def test_criterion_7_property_suites():
    ok = True

    # mask row-constancy across live training rounds: one {0,1} bit per
    # unit, and applying it keeps or zeroes each weight row whole
    sim = small_sim("spafl", alpha=0.01)
    for t in range(3):
        run_strategy_round(sim, t)
        for client in sim.clients:
            masks = pruning.generate_masks(sim.net, client.params, sim.server.tau_current)
            for w, m in zip(client.params.weights, masks):
                ok &= m.shape == (w.shape[0],)
                ok &= set(np.unique(m)) <= {0.0, 1.0}
                pruned = pruning.apply_mask(w, m)
                ok &= all(np.array_equal(p, row) or not p.any() for p, row in zip(pruned, w))
    # clamp invariants after training
    for client in sim.clients:
        ok &= all(bool(np.all(np.abs(w) <= 1.0)) for w in client.params.weights)
        ok &= all(bool(np.all((t >= 0.0) & (t <= 1.0))) for t in sim.server.tau_current)

    # aggregation containment
    rng = np.random.default_rng(5)
    taus = [[rng.uniform(0, 1, 7)] for _ in range(5)]
    merged = fed.aggregate_thresholds(taus)
    stack = np.stack([t[0] for t in taus])
    ok &= bool(np.all(merged[0] >= stack.min(0) - 1e-15) and np.all(merged[0] <= stack.max(0) + 1e-15))

    # partition laws
    labels = synth_dataset(6, 8, 40, 0.3, seed=2).labels
    part = dirichlet_partition(labels, 6, 0.3, seed=9, min_per_client=2)
    merged_idx = np.concatenate([c.train for c in part.clients])
    ok &= merged_idx.size == labels.size and np.unique(merged_idx).size == labels.size

    # layer-reset trigger: density below 1% resets the whole layer to zero
    report = pruning.DensityReport(per_layer=[0.009, 0.5], overall=0.2)
    reset = pruning.layer_reset([np.full(300, 0.4), np.full(4, 0.4)], report)
    ok &= bool(np.all(reset[0] == 0.0) and np.all(reset[1] == 0.4))

    # ledger monotonicity over a real run
    ledger = sim.ledger
    cum = 0
    for rec in ledger.rounds:
        step = rec.bits_up + rec.bits_down
        ok &= step >= 0
        cum += step
    ok &= cum == ledger.total_bits

    # recovery possibility: lower thresholds reactivate rows
    w = np.full((2, 3), 0.5)
    mu = pruning.row_mean_abs(w)
    ok &= bool(np.all(pruning.generate_mask(mu, mu + 0.1) == 0.0))
    ok &= bool(np.all(pruning.generate_mask(mu, mu - 0.1) == 1.0))

    # bit-exact determinism of a full experiment under a fixed seed
    import filecmp
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        cfg = ExperimentConfig(
            clients=6, clients_per_round=3, rounds=3, epochs=1, synth_classes=3,
            synth_dim=10, synth_per_class=12, mlp_hidden=[6], seed=3,
        )
        run_experiment(cfg, out_dir=f"{tmp}/a")
        run_experiment(cfg, out_dir=f"{tmp}/b")
        ok &= filecmp.cmp(f"{tmp}/a/metrics.csv", f"{tmp}/b/metrics.csv", shallow=False)
        ok &= filecmp.cmp(f"{tmp}/a/summary.json", f"{tmp}/b/summary.json", shallow=False)

    record_criterion("7 property suites (constancy, clamps, laws, reset, determinism)", bool(ok))
    assert ok


def test_criterion_8_flops_formulas():
    fc1 = nn.LayerSpec(kind="dense", n_out=500, n_in=800)
    ok = acc.layer_flops_forward(fc1, 1.0, 1) == 400_000
    ok &= acc.importance_update_flops(1000) == 1500
    net = nn.Network((800,), [nn.dense(500)])
    ok &= acc.epoch_flops(net, [0.5], 10) == int(3 * 0.5 * 10 * 800 * 500) + int(1.5 * net.param_count)
    ok &= acc.epoch_flops(net, [0.0], 10) == int(1.5 * net.param_count)
    record_criterion("8 FLOPs closed forms (fc1 400k, 1.5d charge)", bool(ok))
    assert ok
