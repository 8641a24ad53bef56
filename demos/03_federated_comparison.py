"""Compare the threshold-exchange protocol against its baselines on a small
non-iid synthetic task, printing accuracy, density and exact wire costs.

Run: python demos/03_federated_comparison.py   (a few seconds)
"""

import numpy as np

from spafl.experiment import ExperimentConfig, build_simulation
from spafl.strategies import run_strategy_round

BASE = dict(
    clients=10, clients_per_round=4, rounds=25, epochs=2,
    synth_classes=6, synth_dim=32, synth_per_class=60, synth_spread=0.2,
    mlp_hidden=[64, 32], batch_size=8, dirichlet_beta=0.2, alpha=0.006,
    seed=3, out_dir="/tmp/spafl-demo",
)

print(f"{'strategy':22s} {'best acc':>9s} {'density':>8s} {'comm bits':>12s} {'GFLOPs':>8s}")
for strategy in ("spafl", "spafl_no_importance", "thresholds_only", "fedavg", "local_only"):
    cfg = ExperimentConfig(strategy=strategy, **BASE)
    sim = build_simulation(cfg)
    best = 0.0
    for t in range(cfg.rounds):
        metrics = run_strategy_round(sim, t, do_eval=True)
        if metrics.mean_accuracy is not None:
            best = max(best, metrics.mean_accuracy)
    print(
        f"{strategy:22s} {best:9.3f} {metrics.overall_density:8.3f} "
        f"{sim.channel.bits():12d} {sim.ledger.flops / 1e9:8.2f}"
    )

print(
    "\nthresholds cross the wire in the exchange strategies, full parameters in"
    "\nfedavg, nothing in local_only; the channel counts every scalar at 32 bits."
)
